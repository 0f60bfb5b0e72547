"""Span tracing around the public functions of each hybridabc module.

The wrappers live here, not in the program: ``Tracer.install`` swaps each
traced function for a timing wrapper at the places the program looks it up
(module globals and class attributes) and ``uninstall`` puts the originals
back. Spans are aggregated in memory per name as call count, busy time
(time inside the call) and self time (busy time minus the time of the
spans it called).

Worker processes of the engine's process pool are forked from a traced
process, so they inherit the wrappers but keep their own accumulators.
A worker starts from empty accumulators and, each time its outermost span
ends, writes them to ``dump_dir``; ``collect_dumps`` merges those files
into the parent's totals when a traced call has finished.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import time
from pathlib import Path


class Tracer:
    """In-memory span and counter accumulators of one process."""

    def __init__(self, clock=time.perf_counter, dump_dir: Path | None = None):
        self.clock = clock
        self.dump_dir = dump_dir
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._owner = os.getpid()
        self._patches: list[tuple] = []
        self._fork_hook = False

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _record(self, name: str, busy: float, self_time: float) -> None:
        entry = self.stats.get(name)
        if entry is None:
            self.stats[name] = [1, busy, self_time]
        else:
            entry[0] += 1
            entry[1] += busy
            entry[2] += self_time

    def span(self, name: str, fn, count=None):
        """``fn`` wrapped in a span; ``count(tracer, args, result)`` runs after."""
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += busy
                self._record(name, busy, busy - frame[0])
            if count is not None:
                count(self, args, result)
            if not stack and self.dump_dir is not None and os.getpid() != self._owner:
                self.dump()
            return result

        return wrapper

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()
        self._stack.clear()

    def _after_fork(self) -> None:
        if self._patches:
            self.reset()

    def dump(self) -> None:
        """Write this process's totals to ``dump_dir`` (replacing older ones)."""
        path = self.dump_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"stats": self.stats, "counters": self.counters}))
        os.replace(tmp, path)

    def collect_dumps(self) -> tuple[dict, dict]:
        """Merge and delete the workers' dump files: (stats, counters)."""
        stats: dict[str, list] = {}
        counters: dict[str, float] = {}
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            merge_into(stats, counters, data["stats"], data["counters"])
        return stats, counters

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, count))

    def install(self) -> None:
        """Wrap the program's layer boundaries; see ``boundaries``."""
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True
        for owner, attr, name, count in boundaries():
            self.patch(owner, attr, name, count)
        from hybridabc import smc

        self._patches.append((smc, "ProcessPoolExecutor", smc.ProcessPoolExecutor))
        smc.ProcessPoolExecutor = traced_pool(self, smc.ProcessPoolExecutor)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def merge_into(stats: dict, counters: dict, more_stats: dict, more_counters: dict) -> None:
    for name, (calls, busy, self_time) in more_stats.items():
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += busy
        entry[2] += self_time
    for name, value in more_counters.items():
        counters[name] = counters.get(name, 0) + value


def _count_kernel(tracer, args, out) -> None:
    eps = args[7]
    tracer.add("kernels.sim.paths", eps.shape[0])
    tracer.add("kernels.sim.bytes_computed", eps.nbytes + out.nbytes)


def _count_write(tracer, args, _result) -> None:
    tracer.add("io.bytes_written", os.path.getsize(args[0]))


def boundaries() -> list[tuple]:
    """(owner, attribute, span name, counter) for every traced call site.

    A function imported by name into another module is patched in that
    module, because that is where the caller looks it up.
    """
    from hybridabc import cli, evaluate, io, kernels, model, smc

    return [
        (cli, "main", "cli.main", None),
        (cli, "load_config", "config.load", None),
        (cli, "substream", "rng.substream", None),
        (io, "read_dataset", "io.read_dataset", None),
        (io, "_write", "io.write", _count_write),
        (kernels, "simulate_paths_raw", "kernels.sim", _count_kernel),
        (kernels, "aux_summary_1d", "kernels.aux_summary", None),
        (model.ErythroblastModel, "simulate_paths", "model.simulate_paths", None),
        (model.ErythroblastModel, "simulate_paths_multi", "model.simulate_paths_multi", None),
        (model.Prior, "density", "model.prior_density", None),
        (smc, "summarize", "lgdbn.summarize", None),
        (smc, "auxiliary_distance", "distance.auxiliary", None),
        (smc, "naive_distance", "distance.naive", None),
        (smc, "substream", "rng.substream", None),
        (smc, "run_abc_smc", "smc.run", None),
        (smc, "perturb", "smc.perturb", None),
        (smc.PerturbationKernel, "sample", "smc.kernel_draw", None),
        (smc, "compute_weight", "smc.weight", None),
        (smc, "adapt_kernel", "smc.adapt_kernel", None),
        (smc, "_evaluate_chunk", "smc.evaluate_chunk", None),
        (smc.AuxiliaryObjective, "__call__", "smc.objective", None),
        (smc.NaiveObjective, "__call__", "smc.objective", None),
        (evaluate, "run_cell", "evaluate.run_cell", None),
        (evaluate, "run_inference", "evaluate.run_inference", None),
        (evaluate, "generate_dataset", "evaluate.generate_dataset", None),
        (evaluate, "sample_true_predictive", "evaluate.predictive", None),
        (evaluate, "sample_posterior_predictive", "evaluate.predictive", None),
        (evaluate, "ks_statistic", "evaluate.ks", None),
        (evaluate, "substream", "rng.substream", None),
    ]


def traced_pool(tracer: Tracer, base):
    """Subclass of the engine's process pool that counts its traffic.

    Workers start on the first ``submit``, so that call's time counts as
    start-up. Bytes sent are the pickled size of each submit's arguments.
    Waiting on a result is the ``smc.pool.wait`` span.
    """
    clock = tracer.clock

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            start = clock()
            super().__init__(*args, **kwargs)
            self._started = False
            tracer.add("smc.pool.starts", 1)
            tracer.add("smc.pool.start_s", clock() - start)

        def submit(self, fn, /, *args, **kwargs):
            tracer.add("smc.pool.msgs", 1)
            tracer.add("smc.pool.bytes_sent", len(pickle.dumps((fn, args, kwargs))))
            start = clock()
            future = super().submit(fn, *args, **kwargs)
            if not self._started:
                self._started = True
                tracer.add("smc.pool.start_s", clock() - start)
            future.result = tracer.span("smc.pool.wait", future.result)
            return future

        def shutdown(self, *args, **kwargs):
            start = clock()
            super().shutdown(*args, **kwargs)
            tracer.add("smc.pool.stop_s", clock() - start)

    return TracedPool


def _stat(kind, span):
    index = {"calls": 0, "busy": 1, "self": 2}[kind]
    return lambda stats, counters: stats.get(span, (0, 0.0, 0.0))[index]


def _counter(name):
    return lambda stats, counters: counters.get(name, 0)


def _ratio(top, bottom):
    def value(stats, counters):
        denominator = bottom(stats, counters)
        return top(stats, counters) / denominator if denominator else 0.0

    return value


#: Per-layer metrics: name -> (unit, source), where the source reads the
#: value from the merged span stats and counters. BENCHMARK.json lists them
#: with the direction that is better.
LAYER_METRICS = {
    "kernels.sim.calls": ("count", _stat("calls", "kernels.sim")),
    "kernels.sim.busy_s": ("s", _stat("busy", "kernels.sim")),
    "kernels.sim.paths": ("count", _counter("kernels.sim.paths")),
    "kernels.sim.paths_per_s": (
        "1/s",
        _ratio(_counter("kernels.sim.paths"), _stat("busy", "kernels.sim")),
    ),
    "kernels.sim.bytes_computed": ("B", _counter("kernels.sim.bytes_computed")),
    "kernels.aux_summary.calls": ("count", _stat("calls", "kernels.aux_summary")),
    "kernels.aux_summary.busy_s": ("s", _stat("busy", "kernels.aux_summary")),
    "model.simulate_paths.calls": ("count", _stat("calls", "model.simulate_paths")),
    "model.simulate_paths.busy_s": ("s", _stat("busy", "model.simulate_paths")),
    "model.simulate_paths.self_s": ("s", _stat("self", "model.simulate_paths")),
    "model.simulate_paths_multi.busy_s": ("s", _stat("busy", "model.simulate_paths_multi")),
    "model.prior_density.calls": ("count", _stat("calls", "model.prior_density")),
    "lgdbn.summarize.calls": ("count", _stat("calls", "lgdbn.summarize")),
    "lgdbn.summarize.busy_s": ("s", _stat("busy", "lgdbn.summarize")),
    "lgdbn.summarize.self_s": ("s", _stat("self", "lgdbn.summarize")),
    "distance.auxiliary.calls": ("count", _stat("calls", "distance.auxiliary")),
    "distance.auxiliary.busy_s": ("s", _stat("busy", "distance.auxiliary")),
    "distance.naive.calls": ("count", _stat("calls", "distance.naive")),
    "distance.naive.busy_s": ("s", _stat("busy", "distance.naive")),
    "rng.substream.calls": ("count", _stat("calls", "rng.substream")),
    "rng.substream.busy_s": ("s", _stat("busy", "rng.substream")),
    "smc.run.calls": ("count", _stat("calls", "smc.run")),
    "smc.run.self_s": ("s", _stat("self", "smc.run")),
    "smc.evaluate_chunk.busy_s": ("s", _stat("busy", "smc.evaluate_chunk")),
    "smc.objective.self_s": ("s", _stat("self", "smc.objective")),
    "smc.perturb.busy_s": ("s", _stat("busy", "smc.perturb")),
    "smc.perturb.draws": ("count", _stat("calls", "smc.kernel_draw")),
    "smc.perturb.accept_ratio": (
        "ratio",
        _ratio(_stat("calls", "smc.perturb"), _stat("calls", "smc.kernel_draw")),
    ),
    "smc.weight.busy_s": ("s", _stat("busy", "smc.weight")),
    "smc.adapt_kernel.busy_s": ("s", _stat("busy", "smc.adapt_kernel")),
    "smc.pool.starts": ("count", _counter("smc.pool.starts")),
    "smc.pool.start_s": ("s", _counter("smc.pool.start_s")),
    "smc.pool.stop_s": ("s", _counter("smc.pool.stop_s")),
    "smc.pool.msgs": ("count", _counter("smc.pool.msgs")),
    "smc.pool.bytes_sent": ("B", _counter("smc.pool.bytes_sent")),
    "smc.pool.wait_s": ("s", _stat("busy", "smc.pool.wait")),
    "evaluate.run_inference.busy_s": ("s", _stat("busy", "evaluate.run_inference")),
    "evaluate.generate_dataset.busy_s": ("s", _stat("busy", "evaluate.generate_dataset")),
    "evaluate.predictive.busy_s": ("s", _stat("busy", "evaluate.predictive")),
    "evaluate.ks.calls": ("count", _stat("calls", "evaluate.ks")),
    "evaluate.ks.busy_s": ("s", _stat("busy", "evaluate.ks")),
    "io.read_dataset.busy_s": ("s", _stat("busy", "io.read_dataset")),
    "io.write.busy_s": ("s", _stat("busy", "io.write")),
    "io.bytes_written": ("B", _counter("io.bytes_written")),
    "config.load.busy_s": ("s", _stat("busy", "config.load")),
    "cli.main.self_s": ("s", _stat("self", "cli.main")),
}


def layer_metrics(stats: dict, counters: dict, calls: int) -> dict:
    """Every entry of ``LAYER_METRICS`` per traced call, as {name: (value, unit)}.

    Totals are divided by the number of traced calls; ratios are formed
    from the totals. A layer that did not run reads 0.
    """
    out = {}
    for name, (unit, source) in LAYER_METRICS.items():
        value = source(stats, counters)
        if unit not in ("ratio", "1/s"):
            value = value / calls
        out[name] = (value, unit)
    return out


def self_time_total(stats: dict) -> float:
    """Sum of self times: the span-covered part of the traced calls."""
    return sum(entry[2] for entry in stats.values())
