"""Pipeline benchmark: hybridabc's CLI timed end to end and traced by layer.

Usage, from the repository root::

    python3 pipebench/run.py --workload infer-aux-desk [--seed 20260822]
        [--seconds 30] [--trace 0|1]

Workloads (each a closed loop: one caller, the next call starts when the
previous one returned; all on the numpy backend, ``--workers`` explicit):

``infer-aux-desk``
    ``infer --preset desk --method auxiliary --workers 1`` on the
    20-trajectory desk dataset. Large batches per simulator call: kernel
    arithmetic, shock drawing and the summary fit dominate. It bypasses
    the process pool, ``evaluate`` and the naive distance.
``infer-naive-desk``
    The same with ``--method naive``. It never fits the auxiliary
    summary, so a summary-fit change should leave it unchanged, and it
    runs about twice as many generations, so per-generation engine work
    (proposals, weights, kernel adaptation) weighs more.
``cell-smoke-w2``
    ``experiment --preset smoke --workers 2``: one cell of 5 replications
    times 2 methods, 60-path evaluations sent to a two-process pool, then
    predictive draws and KS statistics. The only workload that runs the
    process pool and ``evaluate``.

The seed makes the inputs: the observed dataset (written during set-up
with ``hybridabc generate --seed``) and the engine seed passed to the
call. Threads of OpenBLAS, MKL and OpenMP are pinned to one.

End-to-end metrics (``--trace 0``; each has a bound in BENCHMARK.json):

``setup_s``
    Median over 9 fresh processes (4 before the measuring one, which is
    one of them, and 4 after) of the time from process start to ready:
    importing hybridabc, loading the config, ``kernels.warmup()`` and, for
    ``infer``, generating and writing the dataset.
``run_s``
    Median wall time of one call, scaled to the reference engine work:
    wall time times the evaluation count of the default-seed call divided
    by the call's own. The stopping rule makes the work of a call vary
    several-fold between seeds; the scaling keeps that out of a speed
    metric. At the default seed the factor is 1.
``peak_rss_mb``
    Peak resident memory of the workload process, or of its largest pool
    worker on ``cell-smoke-w2``.

Printed beside them without a bound:

``gen_s_p50``, ``gen_s_p90``
    Median and 90th percentile of refill-generation wall time (generation
    2 onward), the differences of consecutive ``elapsed_s`` in the
    engine's own progress records of untraced calls, pooled over the
    run's calls until at least 100 samples exist. Slow phases of a shared
    host move them by more than the largest bound allows, so they are not
    gated; ``--trace 1`` reports them among the per-layer metrics.
``fail_rate``
    Failed calls over attempted calls (also the ``failed`` and
    ``attempted`` fields of the result). A call fails if it raises, exits
    non-zero or breaks its fingerprint: per engine run the generation and
    evaluation counts, simulator calls, final tolerance and weighted
    posterior mean, plus per-replication KS values and generations for the
    cell. At the default seed the fingerprint must match
    ``reference.json``; at any other seed all calls must agree with the
    first one seen in this checkout. A rate that is 0 when all is well
    cannot carry a relative bound; any failure makes ``correct`` false.

``--trace 1`` alternates untraced and traced calls and prints the
per-layer metrics of ``spans.LAYER_METRICS`` per traced call, the exact
engine counts, the span coverage of the traced call time, the tracing
overhead (traced minus untraced median call time) and the generation
percentiles of the untraced calls. Pool workers' spans are
collected from the workers after every traced call.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record of
the run is written to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from pipebench.metrics import (  # noqa: E402
    MIN_P90_SAMPLES,
    percentile,
    reference_fingerprint,
    refill_durations,
)
from pipebench.spans import layer_metrics  # noqa: E402

DEFAULT_SEED = 20260822

#: Call arguments and preset of each workload. A ``cell`` workload runs an
#: experiment on a process pool; the others infer from a dataset file.
WORKLOADS = {
    "infer-aux-desk": {
        "argv": ["infer", "--preset", "desk", "--method", "auxiliary", "--workers", "1"],
        "preset": "desk",
        "cell": False,
    },
    "infer-naive-desk": {
        "argv": ["infer", "--preset", "desk", "--method", "naive", "--workers", "1"],
        "preset": "desk",
        "cell": False,
    },
    "cell-smoke-w2": {
        "argv": ["experiment", "--preset", "smoke", "--workers", "2"],
        "preset": "smoke",
        "cell": True,
    },
}

#: Set-up-only processes timed before and again after the measuring one,
#: which is timed too; spreading them over the run evens out slow phases
#: of a shared host.
SETUPS_AROUND = 4

#: Every process of one benchmark run must end within this many seconds.
DEADLINE_S = 170.0

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def spawn(root: Path, args, work: Path, deadline: float, setup_only: bool):
    """Run one workload process; returns (set-up seconds, info, result or None)."""
    env = dict(os.environ, **{name: "1" for name in PINNED_THREADS})
    cmd = [
        sys.executable, "-m", "pipebench.workload",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    # A session of its own lets a timeout stop the pool workers with it.
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process did not finish in time") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    lines = stdout.splitlines()
    info = json.loads(lines[0])
    result = None if setup_only else json.loads(lines[-1])
    return info["ready_at"] - spawned_at, info, result


def src_lines(root: Path) -> int:
    return sum(p.read_text().count("\n") for p in sorted((root / "src").rglob("*.py")))


def generation_times(calls) -> tuple[dict, dict]:
    """Refill-generation percentiles of the successful untraced calls."""
    durations = refill_durations(
        record for c in calls if c["ok"] and not c["traced"] for record in c["progress"]
    )
    if not durations:
        return {}, {}
    note = f"{len(durations)} refill generations"
    if len(durations) < MIN_P90_SAMPLES:
        note += ", too few for a p90"
    metrics = {
        "gen_s_p50": (percentile(durations, 0.5), "s"),
        "gen_s_p90": (percentile(durations, 0.9), "s"),
    }
    return metrics, {"gen_s_p50": note, "gen_s_p90": note}


def end_to_end(workload: str, setups, result, reference) -> tuple[dict, dict]:
    """(metrics, notes) from the workload process's result."""
    ok = [c for c in result["calls"] if c["ok"]]
    if not ok:
        return {}, {}
    ref_evals = sum(run["evaluations"] for run in reference["runs"])
    scaled = [
        c["wall_s"] * ref_evals / sum(run["evaluations"] for run in c["fingerprint"]["runs"])
        for c in ok
    ]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "run_s": f"median of {len(ok)} calls, scaled to {ref_evals} evaluations",
        "peak_rss_mb": "largest pool worker" if WORKLOADS[workload]["cell"] else "workload process",
    }
    return metrics, notes


def traced_metrics(result) -> tuple[dict, dict]:
    """(metrics, notes) of a ``--trace 1`` run: layers, counts, overhead."""
    traced = [c for c in result["calls"] if c["traced"]]
    untraced = [c for c in result["calls"] if not c["traced"]]
    if not traced or not untraced:
        return {}, {}
    metrics = layer_metrics(result["span_stats"], result["span_counters"], len(traced))
    runs = [run for c in traced for run in c["fingerprint"]["runs"]]
    for name, key in (
        ("smc.evaluations", "evaluations"),
        ("smc.generations", "generations"),
        ("smc.simulated_paths", "simulator_calls"),
    ):
        metrics[name] = (sum(run[key] for run in runs) / len(traced), "count")
    traced_s = statistics.median(c["wall_s"] for c in traced)
    untraced_s = statistics.median(c["wall_s"] for c in untraced)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.coverage"] = (
        statistics.median(c["parent_self_s"] / c["wall_s"] for c in traced),
        "ratio",
    )
    notes = {
        "trace.overhead_s": f"{len(traced)} traced and {len(untraced)} untraced calls",
        "trace.coverage": "self time of the calling process's spans over traced call time",
    }
    gen_metrics, gen_notes = generation_times(result["calls"])
    metrics.update(gen_metrics)
    notes.update(gen_notes)
    return metrics, notes


def exact_counts(result) -> dict:
    call = next((c for c in result["calls"] if c["ok"]), None)
    if call is None:
        return {}
    runs = call["fingerprint"]["runs"]
    return {
        "engine_runs": len(runs),
        "generations": sum(r["generations"] for r in runs),
        "evaluations": sum(r["evaluations"] for r in runs),
        "simulated_paths": sum(r["simulator_calls"] for r in runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hybridabc pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "hybridabc" / "__init__.py").is_file():
        print("pipebench: no src/hybridabc here; run from the repository root", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    deadline = started + DEADLINE_S
    probes = 0 if args.trace else SETUPS_AROUND
    try:
        setups = [spawn(root, args, work, deadline, True)[0] for _ in range(probes)]
        setup_s, info, result = spawn(root, args, work, deadline, False)
        setups.append(setup_s)
        setups += [spawn(root, args, work, deadline, True)[0] for _ in range(probes)]
    except BenchError as exc:
        print(f"pipebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = result["calls"]
    failed = sum(not c["ok"] for c in calls)
    shown = {}
    if args.trace:
        metrics, notes = traced_metrics(result)
    else:
        metrics, notes = end_to_end(
            args.workload, setups, result, reference_fingerprint(args.workload)
        )
        # Printed, not gated: a shared host's slow phases move these more
        # than a bound can allow (see CHANGES.md); trace runs report them.
        shown, gen_notes = generation_times(calls)
        notes.update(gen_notes)
    shown["fail_rate"] = (failed / len(calls), "ratio")
    notes["fail_rate"] = f"{failed} of {len(calls)} calls"
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "backend": info["backend"],
        "src_lines": src_lines(root),
        "blas_threads": 1,
    }
    counts = exact_counts(result)
    correct = failed == 0 and bool(metrics)

    print(f"pipebench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("counts per call " + " ".join(f"{k}={v}" for k, v in counts.items()))
    for name, (value, unit) in {**metrics, **shown}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        text = f"{value:.0f}" if unit in ("count", "B") and value == int(value) else f"{value:.6g}"
        print(f"  {name:34s} {text} {unit}{note}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "counts": counts,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "informational": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "setups_s": setups,
        "calls": [{k: c[k] for k in ("wall_s", "ok", "traced", "fingerprint")} for c in calls],
        "span_stats": result["span_stats"],
        "span_counters": result["span_counters"],
    }
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1))

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(calls),
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
