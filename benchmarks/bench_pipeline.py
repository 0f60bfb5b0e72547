"""Compare two checkouts with the pipeline benchmark and write a BENCH_*.json.

Usage, from the repository root::

    python3 benchmarks/bench_pipeline.py --base ../parent-checkout \\
        [--pairs 10] [--seed 11 --seed 23] [--seconds 30] \\
        [--workload cell-smoke-w2 ...] [--out benchmarks/BENCH_11.json]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``, the run
length the benchmark itself uses.

For every seed and workload it runs ``pipebench/run.py`` unchanged, once in
the ``--base`` checkout and once in this one per pair, alternating which
side goes first; then one ``--trace 1`` run per side. Each run
is its own process in its own checkout, with ``PYTHONDONTWRITEBYTECODE=1``
so that neither side's set-up gains from a bytecode cache the other lacks.

The output holds, per seed and workload: each pair's ``run_s``,
``setup_s`` and ``peak_rss_mb``, whether every call matched its
fingerprint, and the pair's head/base ratio of each of those metrics; each
side's median and quartiles of those metrics; per metric, the median and
quartiles of the pairs' ratios, which a drift of the host over the
comparison moves less than the spread of either side's runs, the number of
pairs in which this checkout's value was lower, and whether a claim of a
gain on it holds: lower in at least 9 of 10 pairs, and a median lower than
the base's by more than the base's quartile spread; whether every call on
both sides gave the same result fingerprint (engine counts, final
tolerances, posterior means and, for the cell, KS values), and that
fingerprint; and each side's traced per-layer metrics and exact engine
counts. ``src_lines`` is the line count of ``src/`` on each side, and
``dirty`` says whether a side has uncommitted changes.

After the comparisons it runs the Tier-1 suite once in each checkout
(``python -m pytest -q --continue-on-collection-errors`` with
``PYTHONPATH=src``) and records, under ``tier1``, its wall time ``tier1_s``,
its exit code and its outcome counts. Right after each side's Tier-1 run it
runs the criterion-7 cell of the acceptance gate in that checkout, one
process calling ``evaluate.run_cell`` with the arguments of
``test_criterion_7_walltime_ratio``, and records, under ``criterion_7``,
each replication's naive/auxiliary wall-time ratio, their mean (the value
the gate requires above 1), the lowest and, under ``runtime_s``, each
route's engine seconds summed over the replications, so that a speed-up
both routes share shows beside the ratios. These are records, not gates.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
RUN_SECONDS = json.loads((HERE / "BENCHMARK.json").read_text())["run_seconds"]
WORKLOADS = ("infer-aux-desk", "infer-naive-desk", "cell-smoke-w2")
END_TO_END = ("run_s", "setup_s", "peak_rss_mb")


def run_pipebench(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``pipebench/run.py`` process in ``root``; its full result record."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [
        sys.executable, "pipebench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"pipebench printed nothing in {root}: {proc.stderr.strip()[-500:]}")
    summary = json.loads(lines[-1])
    name = f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads((root / ".bench_work" / "results" / name).read_text())
    record["correct"] = summary["correct"]
    record["failed"] = summary["failed"]
    return record


def _ratio(head: float, base: float) -> float:
    """head / base, or NaN when the base read 0."""
    return head / base if base else math.nan


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(base: Path, head: Path, workload: str, seed: int, args) -> dict:
    pairs = []
    fingerprints = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"first": order[0]}
        for side in order:
            root = base if side == "base" else head
            record = run_pipebench(root, workload, seed, args.seconds, 0)
            pair[side] = {name: record["metrics"][name]["value"] for name in END_TO_END}
            pair[side]["correct"] = record["correct"]
            pair[side]["failed"] = record["failed"]
            fingerprints[side].extend(call["fingerprint"] for call in record["calls"])
        pair["ratio"] = {name: _ratio(pair["head"][name], pair["base"][name]) for name in END_TO_END}
        pairs.append(pair)
        print(
            f"{workload} seed {seed} pair {i + 1}: run_s {pair['base']['run_s']:.4f} -> "
            f"{pair['head']['run_s']:.4f}",
            file=sys.stderr,
        )
    traced = {}
    for side, root in (("base", base), ("head", head)):
        record = run_pipebench(root, workload, seed, args.seconds, 1)
        traced[side] = {
            "correct": record["correct"],
            "counts": record["counts"],
            "metrics": {name: m["value"] for name, m in record["metrics"].items()},
        }
    first = fingerprints["base"][0]
    sides = {
        side: {name: spread([p[side][name] for p in pairs]) for name in END_TO_END}
        for side in ("base", "head")
    }
    head_lower = {name: sum(p["head"][name] < p["base"][name] for p in pairs) for name in END_TO_END}
    return {
        "pairs": pairs,
        "summary": sides,
        "ratio": {name: spread([p["ratio"][name] for p in pairs]) for name in END_TO_END},
        "head_lower": head_lower,
        "claim_holds": {
            name: 10 * head_lower[name] >= 9 * len(pairs)
            and sides["base"][name]["median"] - sides["head"][name]["median"]
            > sides["base"][name]["q3"] - sides["base"][name]["q1"]
            for name in END_TO_END
        },
        "all_correct": all(p[side]["correct"] for p in pairs for side in ("base", "head")),
        "same_results": all(f == first for f in fingerprints["base"] + fingerprints["head"]),
        "fingerprint": first,
        "traced": traced,
    }


def tier1(root: Path) -> dict:
    """One Tier-1 run in ``root``: wall time, exit code and outcome counts."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1:] or [""]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) ([a-z]+)", summary[0])}
    return {"tier1_s": elapsed, "exit_code": proc.returncode, "counts": counts}


#: The criterion-7 cell of tests/test_acceptance.py, printing its ratios and
#: each route's summed engine seconds.
CRITERION_7 = """
import json
import numpy as np
from hybridabc.config import build_config
from hybridabc.evaluate import run_cell
CFG = build_config()
KINETICS = np.array([0.057, 3.4, 2.6, 0.005])
cell = run_cell(
    CFG.build_model(), CFG.prior, KINETICS, 0.2, 20,
    CFG.engine, CFG.sim_replicates, 5, CFG.target_t, 2000, CFG.seed,
)
runtime_s = {m: sum(r.runtime_s for r in cell.method_records(m)) for m in ("auxiliary", "naive")}
print(json.dumps({"ratios": cell.ratios, "runtime_s": runtime_s}))
"""


def criterion_7(root: Path) -> dict:
    """The criterion-7 cell's naive/auxiliary wall-time ratios and route seconds in ``root``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CRITERION_7], cwd=root, env=env, capture_output=True, text=True
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-500:], "wall_s": elapsed}
    cell = json.loads(proc.stdout.strip().splitlines()[-1])
    ratios = cell["ratios"]
    mean, lowest = statistics.fmean(ratios), min(ratios)
    return dict(cell, mean=mean, lowest=lowest, wall_s=elapsed)


def src_lines(root: Path) -> int:
    return sum(p.read_text().count("\n") for p in sorted((root / "src").rglob("*.py")))


def checkout(root: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True).stdout

    return {
        "commit": git("rev-parse", "HEAD").strip() or None,
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
        "src_lines": src_lines(root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", type=Path, default=HERE / "benchmarks" / "BENCH.json")
    args = parser.parse_args(argv)
    base = args.base.resolve()
    if not (base / "pipebench" / "run.py").is_file():
        parser.error(f"{base} has no pipebench/run.py")
    started = time.time()
    result_seeds = args.seed or [11]
    result = {
        "seconds": args.seconds,
        "pairs": args.pairs,
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the pairs",
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "base": checkout(base),
        "head": checkout(HERE),
        "seeds": {
            str(seed): {
                workload: compare(base, HERE, workload, seed, args)
                for workload in args.workload or WORKLOADS
            }
            for seed in result_seeds
        },
    }
    result["tier1"], result["criterion_7"] = {}, {}
    for side, root in (("base", base), ("head", HERE)):
        result["tier1"][side] = tier1(root)
        result["criterion_7"][side] = criterion_7(root)
    result["elapsed_s"] = time.time() - started
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for seed, workloads in result["seeds"].items():
        for workload, entry in workloads.items():
            metrics = []
            for name in END_TO_END:
                base_m, head_m = (entry["summary"][side][name] for side in ("base", "head"))
                ratio = entry["ratio"][name]
                metrics.append(
                    f"{name} {base_m['median']:.4f} [{base_m['q1']:.4f}-{base_m['q3']:.4f}] -> "
                    f"{head_m['median']:.4f}, head/base ratio {ratio['median']:.3f} "
                    f"[{ratio['q1']:.3f}-{ratio['q3']:.3f}], lower in {entry['head_lower'][name]} "
                    f"of {len(entry['pairs'])}, claim holds: {entry['claim_holds'][name]}"
                )
            print(
                f"seed {seed} {workload}: " + "; ".join(metrics) + f"; all correct: "
                f"{entry['all_correct']}, same results: {entry['same_results']}"
            )
    for side, run in result["tier1"].items():
        print(f"tier-1 {side}: {run['tier1_s']:.1f} s, exit {run['exit_code']}, {run['counts']}")
        cell = result["criterion_7"][side]
        if "error" in cell:
            print(f"criterion 7 {side}: failed: {cell['error']}")
        else:
            seconds = ", ".join(f"{m} {t:.2f} s" for m, t in cell["runtime_s"].items())
            print(
                f"criterion 7 {side}: mean ratio {cell['mean']:.3f}, "
                f"lowest {cell['lowest']:.3f}; engine time {seconds}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
