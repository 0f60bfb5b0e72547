"""Tests of the benchmark's own logic: spans, percentiles, fingerprints."""

from __future__ import annotations

import concurrent.futures
import json
import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from pipebench.metrics import (
    FingerprintCheck,
    compare_fingerprints,
    percentile,
    refill_durations,
)
from pipebench.run import end_to_end, generation_times, traced_metrics
from pipebench.spans import Tracer, layer_metrics, merge_into, self_time_total

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())
BENCHMARK = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    leaf = tracer.span("leaf", lambda: clock.advance(0.5))

    def inner_body():
        clock.advance(1.0)
        leaf()

    inner = tracer.span("inner", inner_body)

    def outer_body():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(2.0)

    tracer.span("outer", outer_body)()
    assert tracer.stats["leaf"] == [2, 1.0, 1.0]
    assert tracer.stats["inner"] == [2, 3.0, 2.0]
    assert tracer.stats["outer"] == [1, 6.0, 3.0]
    # Self times partition the outermost span exactly.
    assert self_time_total(tracer.stats) == 6.0


def test_span_is_recorded_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fail():
        clock.advance(1.0)
        raise ValueError("boom")

    inner = tracer.span("inner", fail)

    def outer_body():
        with pytest.raises(ValueError):
            inner()
        clock.advance(1.0)

    tracer.span("outer", outer_body)()
    assert tracer.stats["inner"] == [1, 1.0, 1.0]
    assert tracer.stats["outer"] == [1, 2.0, 1.0]


def _toy_distance(theta, rng):
    return abs(float(theta[0]) - 0.5) + 0.01 * rng.random()


def test_pool_worker_spans_are_collected(tmp_path):
    from hybridabc import smc
    from hybridabc.model import Prior

    tracer = Tracer(dump_dir=tmp_path)
    tracer.install()
    try:
        posterior = smc.run_abc_smc(
            Prior(names=("a",), lows=np.zeros(1), highs=np.ones(1)),
            _toy_distance,
            smc.SmcSettings(n_particles=20, alpha=0.5, p_acc_min=0.5, max_generations=3),
            seed=7,
            workers=2,
        )
    finally:
        tracer.uninstall()
    worker_stats, worker_counters = tracer.collect_dumps()
    assert not list(tmp_path.iterdir())
    counters = tracer.counters
    assert counters["smc.pool.starts"] == 1
    assert worker_stats["smc.evaluate_chunk"][0] == counters["smc.pool.msgs"]
    # Every evaluation drew its random stream inside a worker.
    assert worker_stats["rng.substream"][0] == posterior.n_evaluations
    assert tracer.stats["smc.pool.wait"][0] == counters["smc.pool.msgs"]
    assert "smc.evaluate_chunk" not in tracer.stats
    assert smc.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor

    merged, merged_counters = {}, {}
    merge_into(merged, merged_counters, tracer.stats, counters)
    merge_into(merged, merged_counters, worker_stats, worker_counters)
    assert merged["rng.substream"][0] == worker_stats["rng.substream"][0] + tracer.stats[
        "rng.substream"
    ][0]


def test_layer_metrics_are_per_call_and_ratios_from_totals():
    stats = {
        "kernels.sim": [4, 2.0, 2.0],
        "smc.perturb": [10, 1.0, 0.5],
        "smc.kernel_draw": [40, 0.2, 0.2],
    }
    counters = {"kernels.sim.paths": 1000}
    metrics = layer_metrics(stats, counters, calls=2)
    assert metrics["kernels.sim.calls"] == (2, "count")
    assert metrics["kernels.sim.busy_s"] == (1.0, "s")
    assert metrics["kernels.sim.paths"] == (500, "count")
    assert metrics["kernels.sim.paths_per_s"] == (500.0, "1/s")
    assert metrics["smc.perturb.accept_ratio"] == (0.25, "ratio")
    assert metrics["smc.perturb.draws"] == (20, "count")
    assert metrics["distance.naive.busy_s"] == (0.0, "s")


def test_percentile_matches_inclusive_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    assert percentile(values, 0.5) == statistics.median(values)
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    assert math.isclose(percentile(values, 0.25), quartiles[0])
    assert math.isclose(percentile(values, 0.75), quartiles[2])
    assert math.isclose(percentile(list(range(1, 11)), 0.9), 9.1)
    assert percentile([2.5], 0.9) == 2.5
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_refill_durations_split_engine_runs_at_generation_one():
    records = [(1, 0.5), (2, 0.75), (3, 1.25), (1, 0.25), (2, 1.0)]
    assert refill_durations(records) == [0.25, 0.5, 0.75]
    with pytest.raises(ValueError):
        refill_durations([(2, 0.5)])


def _call(wall_s, evaluations, elapsed):
    progress = [(g + 1, t) for g, t in enumerate(elapsed)]
    return {
        "wall_s": wall_s,
        "ok": True,
        "traced": False,
        "progress": progress,
        "fingerprint": {"runs": [{"evaluations": evaluations}]},
    }


def test_end_to_end_scales_run_time_to_the_reference_work():
    reference = {"runs": [{"evaluations": 1000}]}
    elapsed = [0.1, 0.2]
    result = {
        "calls": [
            _call(2.0, 1000, elapsed),
            _call(4.0, 2000, elapsed),
            _call(3.0, 1000, elapsed),
            dict(_call(99.0, 1000, elapsed), ok=False),
        ],
        "peak_rss_mb": 40.0,
    }
    metrics, _ = end_to_end("infer-aux-desk", [0.3, 0.1, 0.2], result, reference)
    assert metrics["run_s"] == (2.0, "s")  # 2.0, 4.0 * 1000 / 2000, 3.0
    assert metrics["setup_s"] == (0.2, "s")
    assert metrics["peak_rss_mb"] == (40.0, "MiB")


def test_generation_times_pool_untraced_calls_and_count_samples():
    fast = [0.1 * g for g in range(1, 41)]  # 39 refills of 0.1 s
    slow = [0.5 * g for g in range(1, 41)]  # 39 refills of 0.5 s
    calls = [
        _call(1.0, 10, fast),
        _call(1.0, 10, fast),
        dict(_call(1.0, 10, slow), traced=True),
        dict(_call(1.0, 10, slow), ok=False),
    ]
    metrics, notes = generation_times(calls)
    assert math.isclose(metrics["gen_s_p50"][0], 0.1)
    assert math.isclose(metrics["gen_s_p90"][0], 0.1)
    assert notes["gen_s_p90"] == "78 refill generations, too few for a p90"
    calls.append(_call(1.0, 10, slow))
    metrics, notes = generation_times(calls)
    assert notes["gen_s_p90"] == "117 refill generations"
    assert math.isclose(metrics["gen_s_p50"][0], 0.1)
    assert math.isclose(metrics["gen_s_p90"][0], 0.5)


def test_reference_reproduces_the_baseline():
    aux = REFERENCE["workloads"]["infer-aux-desk"]["runs"]
    naive = REFERENCE["workloads"]["infer-naive-desk"]["runs"]
    assert [(r["generations"], r["evaluations"]) for r in aux] == [(22, 2300)]
    assert [(r["generations"], r["evaluations"]) for r in naive] == [(47, 4800)]
    cell = REFERENCE["workloads"]["cell-smoke-w2"]
    assert len(cell["runs"]) == 10
    assert len(cell["replications"]) == 10


def _perturbed(fingerprint, mutate):
    copy = json.loads(json.dumps(fingerprint))
    mutate(copy)
    return copy


@pytest.mark.parametrize("name", sorted(REFERENCE["workloads"]))
def test_fingerprint_matches_itself_and_tolerates_round_off(name):
    reference = REFERENCE["workloads"][name]
    assert compare_fingerprints(reference, json.loads(json.dumps(reference))) == []

    def nudge(fp):
        fp["runs"][0]["posterior_mean"][0] *= 1 + 1e-12

    assert compare_fingerprints(reference, _perturbed(reference, nudge)) == []


@pytest.mark.parametrize(
    "mutate",
    [
        lambda fp: fp["runs"][0].update(evaluations=fp["runs"][0]["evaluations"] + 1),
        lambda fp: fp["runs"][0].update(generations=fp["runs"][0]["generations"] - 1),
        lambda fp: fp["runs"][0].update(final_tolerance=fp["runs"][0]["final_tolerance"] * 1.000001),
        lambda fp: fp["runs"][0]["posterior_mean"].__setitem__(5, 0.0),
        lambda fp: fp["runs"][0].update(simulator_calls=float(fp["runs"][0]["simulator_calls"])),
        lambda fp: fp["runs"].pop(),
        lambda fp: fp["replications"][3].update(ks_I=fp["replications"][3]["ks_I"] + 1e-3),
        lambda fp: fp.pop("replications"),
    ],
)
def test_perturbed_fingerprint_counts_as_failure(mutate):
    reference = REFERENCE["workloads"]["cell-smoke-w2"]
    check = FingerprintCheck(reference)
    assert check.mismatches(json.loads(json.dumps(reference))) == []
    assert check.mismatches(_perturbed(reference, mutate)) != []


def test_without_reference_every_run_agrees_with_the_first(tmp_path):
    store = tmp_path / "fingerprints" / "w-1.json"
    first = {"runs": [{"generations": 3, "final_tolerance": 0.5}]}
    other = {"runs": [{"generations": 4, "final_tolerance": 0.5}]}
    check = FingerprintCheck(None, store)
    assert check.mismatches(first) == []
    assert check.mismatches(first) == []
    assert check.mismatches(other) != []
    # A later benchmark run at the same seed compares against the stored one.
    later = FingerprintCheck(None, store)
    assert later.mismatches(other) != []
    assert later.mismatches(first) == []


def test_benchmark_json_names_every_reported_metric():
    run = {"evaluations": 10, "generations": 2, "simulator_calls": 600}
    calls = [
        dict(_call(1.0, 10, [0.1, 0.2]), fingerprint={"runs": [run]}),
        dict(_call(1.5, 10, [0.1, 0.2]), fingerprint={"runs": [run]}, traced=True),
    ]
    calls[1]["parent_self_s"] = 1.5
    traced, _ = traced_metrics({"calls": calls, "span_stats": {}, "span_counters": {}})
    assert traced["trace.overhead_s"] == (0.5, "s")
    assert traced["trace.coverage"] == (1.0, "ratio")
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(traced)
    assert all(m["unit"] == traced[m["name"]][1] for m in BENCHMARK["per_layer"])

    result = {"calls": [_call(1.0, 10, [0.1, 0.2])], "peak_rss_mb": 40.0}
    metrics, _ = end_to_end("cell-smoke-w2", [0.2], result, {"runs": [{"evaluations": 10}]})
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(metrics)
    assert all(m["unit"] == metrics[m["name"]][1] for m in BENCHMARK["end_to_end"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "infer-aux-desk",
        "infer-naive-desk",
        "cell-smoke-w2",
    ]
