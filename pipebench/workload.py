"""One workload process: set up, then call the program in a closed loop.

Started by ``run.py`` with the repository root as working directory. The
process imports hybridabc from ``src/``, loads the config, warms the
kernels and, for the ``infer`` workloads, writes the observed dataset with
``hybridabc generate``. It then prints one JSON line holding the
``time.monotonic()`` at which it became ready, which ``run.py`` turns into
the set-up time. With ``--setup-only`` it exits there.

Otherwise it calls ``hybridabc.cli.main`` in-process, each call starting
after the previous one returned, for ``--seconds`` seconds, and prints one
JSON line with the per-call wall times, the engine's progress records, the
fingerprints and, with ``--trace 1``, the per-layer span totals.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from pipebench.metrics import (
    MIN_P90_SAMPLES,
    FingerprintCheck,
    reference_fingerprint,
    refill_durations,
)
from pipebench.run import DEFAULT_SEED, WORKLOADS
from pipebench.spans import Tracer, merge_into, self_time_total

#: Fewest calls behind a median call time.
MIN_CALLS = 3

#: Stop starting calls after this long, so the process ends within its limit.
HARD_STOP_S = 120.0


class EngineRecorder:
    """Captures each engine run's progress records and result.

    It wraps ``run_inference`` where the CLI and the study harness look it
    up, so the benchmark reads the engine's own ``GenerationRecord``s at
    full precision and the returned posterior.
    """

    def __init__(self):
        self.progress: list[tuple[int, float]] = []
        self.runs: list[dict] = []

    def reset(self) -> None:
        self.progress = []
        self.runs = []

    def wrap(self, run_inference):
        @functools.wraps(run_inference)
        def recorded(*args, progress=None, **kwargs):
            def record(rec):
                self.progress.append((rec.generation, rec.elapsed_s))
                if progress is not None:
                    progress(rec)

            posterior = run_inference(*args, progress=record, **kwargs)
            self.runs.append(
                {
                    "generations": int(posterior.generations),
                    "evaluations": int(posterior.n_evaluations),
                    "simulator_calls": int(posterior.simulator_calls),
                    "final_tolerance": float(posterior.tolerances[-1]),
                    "posterior_mean": [float(x) for x in posterior.weighted_mean()],
                }
            )
            return posterior

        return recorded


def read_replications(out_dir: Path) -> list[dict]:
    """Per-replication results of every cell, without the runtime columns."""
    rows = []
    for path in sorted(out_dir.glob("cells/*/replications.csv")):
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        for row in csv.DictReader(lines):
            rows.append(
                {
                    "cell": path.parent.name,
                    "method": row["method"],
                    "replication": int(row["replication"]),
                    "ks_rho": float(row["ks_rho"]),
                    "ks_I": float(row["ks_I"]),
                    "generations": int(row["generations"]),
                }
            )
    return rows


def peak_rss_mb(pool_workers: bool) -> float:
    """Peak resident memory of this process, or of its largest child (MiB)."""
    who = resource.RUSAGE_CHILDREN if pool_workers else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup(args, root: Path) -> tuple[dict, list[str]]:
    """Everything a user pays before the first call; returns (info, argv)."""
    sys.path.insert(0, str(root / "src"))
    import numpy
    from hybridabc import cli, kernels
    from hybridabc.config import load_config

    spec = WORKLOADS[args.workload]
    load_config(None, preset=spec["preset"])
    kernels.warmup()
    argv = list(spec["argv"]) + ["--seed", str(args.seed), "--out", str(args.work / "out")]
    if not spec["cell"]:
        data = args.work / f"dataset-{args.seed}.csv"
        if cli.main(["generate", "--quiet", "--seed", str(args.seed), "--out", str(data)]) != 0:
            raise RuntimeError("hybridabc generate failed")
        argv += ["--data", str(data)]
    info = {
        "ready_at": time.monotonic(),
        "backend": kernels.BACKEND,
        "numpy": numpy.__version__,
    }
    return info, argv


def measure(args, root: Path, argv: list[str]) -> dict:
    """The closed loop of calls; with ``--trace 1`` every second call is traced."""
    from hybridabc import cli, evaluate

    recorder = EngineRecorder()
    cli.run_inference = recorder.wrap(cli.run_inference)
    evaluate.run_inference = recorder.wrap(evaluate.run_inference)

    reference = reference_fingerprint(args.workload) if args.seed == DEFAULT_SEED else None
    store = root / ".bench_work" / "fingerprints" / f"{args.workload}-{args.seed}.json"
    check = FingerprintCheck(reference, store)

    tracer = None
    if args.trace:
        tracer = Tracer(dump_dir=args.work / "spans")
        tracer.dump_dir.mkdir(parents=True, exist_ok=True)
    out_dir = args.work / "out"
    calls = []
    stats: dict = {}
    counters: dict = {}
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        durations = refill_durations(
            record for c in calls if c["ok"] and not c["traced"] for record in c["progress"]
        )
        traced = tracer is not None and len(calls) % 2 == 1
        failing = not all(c["ok"] for c in calls)
        enough = len(calls) >= MIN_CALLS and (len(durations) >= MIN_P90_SAMPLES or failing)
        if (elapsed >= args.seconds and enough and not traced) or elapsed >= HARD_STOP_S:
            break
        shutil.rmtree(out_dir, ignore_errors=True)
        recorder.reset()
        if traced:
            tracer.reset()
            tracer.install()
        error = None
        with contextlib.redirect_stderr(io.StringIO()) as captured:
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
                code, error = None, repr(exc)
            wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            worker_stats, worker_counters = tracer.collect_dumps()
            merge_into(stats, counters, tracer.stats, tracer.counters)
            merge_into(stats, counters, worker_stats, worker_counters)
        fingerprint = {"runs": recorder.runs}
        if WORKLOADS[args.workload]["cell"]:
            fingerprint["replications"] = read_replications(out_dir)
        problems = []
        if code != 0:
            tail = captured.getvalue().strip().splitlines()[-1:]
            problems.append(error or f"exit code {code}: {' '.join(tail)}")
        else:
            problems = check.mismatches(fingerprint)
        for problem in problems[:5]:
            print(f"pipebench: call {len(calls) + 1} failed: {problem}", file=sys.stderr)
        calls.append(
            {
                "wall_s": wall,
                "ok": not problems,
                "traced": traced,
                "progress": recorder.progress,
                "fingerprint": fingerprint,
                "parent_self_s": self_time_total(tracer.stats) if traced else None,
            }
        )
    return {
        "calls": calls,
        "peak_rss_mb": peak_rss_mb(pool_workers=WORKLOADS[args.workload]["cell"]),
        "span_stats": stats,
        "span_counters": counters,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    info, call_argv = setup(args, root)
    print(json.dumps(info), flush=True)
    if args.setup_only:
        return 0
    print(json.dumps(measure(args, root, call_argv)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
