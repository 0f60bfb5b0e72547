"""Command-line interface.

Subcommands: ``generate`` writes a synthetic observed dataset, ``infer``
fits one posterior to a dataset file, ``experiment`` runs the full method
comparison over the configured grid, and ``validate-config`` checks a
config file and exits. All outputs are plain delimited text with config
echoes in their headers; progress goes to stderr as JSON lines.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import sys
from pathlib import Path

from . import evaluate, io
from ._version import __version__
from .config import PRESETS, ConfigError, ExperimentConfig, load_config
from .rng import STREAM_OBSERVED, substream
from .smc import OBJECTIVES, run_inference, usable_cpus


WORKERS_HELP = (
    "evaluation processes (default: the CPUs this process may use); given two CPUs per "
    "worker, each uses up to two, drawing shocks on a second thread"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridabc",
        description="Simulation-based inference for the growth-inhibition model",
    )
    parser.add_argument("--version", action="version", version=f"hybridabc {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="YAML config file")
    common.add_argument(
        "--preset",
        default="desk",
        choices=sorted(PRESETS),
        help="base settings the config file overrides (default: desk)",
    )
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default=None, help="override the config output location")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", parents=[common], help="write a synthetic observed dataset")
    gen.set_defaults(func=cmd_generate)

    infer = sub.add_parser("infer", parents=[common], help="fit one posterior to a dataset file")
    infer.add_argument("--data", type=Path, required=True, help="dataset file to fit")
    infer.add_argument(
        "--method",
        choices=tuple(OBJECTIVES),
        default=None,
        help="distance to use (default: engine.distance from the config)",
    )
    infer.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    infer.set_defaults(func=cmd_infer)

    exp = sub.add_parser("experiment", parents=[common], help="run the configured comparison grid")
    exp.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    exp.set_defaults(func=cmd_experiment)

    val = sub.add_parser("validate-config", parents=[common], help="check a config file and exit")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _load(args) -> tuple[ExperimentConfig, int, dict]:
    if args.seed is not None and args.seed < 0:
        raise ConfigError("seed", f"must be non-negative, got {args.seed}")
    cfg = load_config(args.config, preset=args.preset)
    seed = cfg.seed if args.seed is None else args.seed
    echo = copy.deepcopy(cfg.raw)
    echo["seed"] = seed
    if args.out is not None:
        echo["output_dir"] = str(args.out)
    return cfg, seed, echo


def _workers(args) -> int:
    if getattr(args, "workers", None) is not None:
        if args.workers < 1:
            raise ValueError("--workers must be at least 1")
        return args.workers
    return usable_cpus()


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def cmd_generate(args) -> int:
    cfg, seed, echo = _load(args)
    rng = substream(seed, STREAM_OBSERVED)
    dataset = evaluate.observed_dataset(cfg.model, cfg.true_theta(), cfg.batches, rng)
    out = Path(args.out) if args.out else Path(cfg.output_dir) / "dataset.csv"
    io.write_dataset(out, dataset, echo)
    _say(args, f"wrote {len(dataset)} trajectories to {out}")
    return 0


def _check_dataset(model, dataset) -> None:
    """Refuse a dataset whose time grid or start is not the model's."""
    expected = [("horizon", dataset.horizon, model.horizon), ("dt", dataset.dt, model.dt)]
    starts = dataset.states[:, 0, 0].tolist()
    expected += [(f"trajectory {i} start", x, model.init_rho) for i, x in enumerate(starts)]
    for what, got, want in expected:
        if abs(got - want) > 1e-9:
            raise ValueError(f"dataset {what} {got!r} does not match the config's {want!r}")


def _print_record(args, record, **labels) -> None:
    """One JSON progress line: the labels, then the ``GenerationRecord`` fields."""
    if args.quiet:
        return
    fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    rounded = {k: round(v, 3) if k.endswith("_s") else v for k, v in fields.items()}
    print(json.dumps(dict(labels, **rounded)), file=sys.stderr)


def cmd_infer(args) -> int:
    cfg, seed, echo = _load(args)
    dataset = io.read_dataset(args.data)
    _check_dataset(cfg.model, dataset)
    method = args.method or cfg.distance
    echo["engine"] = dict(echo.get("engine", {}), distance=method)
    out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
    posterior = run_inference(
        cfg.model,
        cfg.prior,
        dataset,
        method,
        cfg.engine,
        cfg.sim_replicates,
        seed=seed,
        workers=_workers(args),
        progress=lambda record: _print_record(args, record, method=method),
    )
    io.write_posterior(out_dir / "posterior.csv", posterior, echo)
    io.write_history(out_dir / "history.csv", posterior.history, echo)
    _say(
        args,
        f"{method}: {posterior.generations} generations, "
        f"final tolerance {posterior.tolerances[-1]:.6g}, "
        f"{posterior.simulator_calls} simulator calls, "
        f"{posterior.wall_time_s:.2f}s; wrote {out_dir / 'posterior.csv'}",
    )
    return 0


def cmd_experiment(args) -> int:
    cfg, seed, echo = _load(args)
    out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
    workers = _workers(args)

    ks_rows = []
    ratio_rows = []
    failed = []
    for noise in cfg.noise_levels:
        for batches in cfg.batch_sizes:
            label = f"v{noise:g}_m{batches}"
            cell_echo = copy.deepcopy(echo)
            cell_echo["cell"] = {"v": noise, "m": batches}

            def on_replication(result, r, label=label):
                done = len(result.ratios) + len(result.failures)
                _say(args, f"[{label}] replication {r + 1}/{cfg.macro_replications} done ({done} total)")

            def progress(method, record, label=label):
                _print_record(args, record, cell=label, method=method)

            try:
                cell = evaluate.run_cell(
                    cfg.model,
                    cfg.prior,
                    cfg.kinetics(),
                    noise,
                    batches,
                    cfg.engine,
                    cfg.sim_replicates,
                    cfg.macro_replications,
                    cfg.target_t,
                    cfg.predictive_samples,
                    seed,
                    workers=workers,
                    progress=progress,
                    on_replication=on_replication,
                )
            except Exception as exc:  # noqa: BLE001 - keep the grid going
                failed.append((label, repr(exc)))
                print(f"cell {label} failed: {exc}", file=sys.stderr)
                continue
            cell_dir = out_dir / "cells" / label
            io.write_replications(cell_dir / "replications.csv", cell, cell_echo)
            io.write_predictive(
                cell_dir / f"predictive_t{cfg.target_t}.csv",
                cell.predictive,
                cfg.target_t,
                cell_echo,
            )
            ks_rows.extend(cell.ks_summary())
            ratio_rows.append(cell.ratio_summary())

    io.write_table(out_dir / "ks_table.csv", "ks-table", echo, evaluate.KS_COLUMNS, ks_rows)
    io.write_table(
        out_dir / "ratio_table.csv", "ratio-table", echo, evaluate.RATIO_COLUMNS, ratio_rows
    )
    _say(args, f"wrote {out_dir / 'ks_table.csv'} and {out_dir / 'ratio_table.csv'}")
    if failed:
        print(f"{len(failed)} cell(s) failed: {[f[0] for f in failed]}", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args) -> int:
    cfg, seed, echo = _load(args)
    cells = len(cfg.noise_levels) * len(cfg.batch_sizes)
    print(
        f"ok: seed {seed}, N={cfg.engine.n_particles}, alpha={cfg.engine.alpha}, "
        f"L={cfg.sim_replicates}, grid of {cells} cell(s), "
        f"R={cfg.macro_replications}, output {echo['output_dir']!r}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
