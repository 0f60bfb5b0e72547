import dataclasses
import json

import numpy as np
import pytest

import hybridabc.evaluate as evaluate
from hybridabc import io
from hybridabc import smc
from helpers import brute_force_ks, reference_trajectory
from hybridabc.cli import main
from hybridabc.config import build_config
from hybridabc.evaluate import (
    KS_COLUMNS,
    RATIO_COLUMNS,
    CellResult,
    ReplicationRecord,
    confidence_interval,
    ks_statistic,
    run_cell,
    run_replication,
    sample_posterior_predictive,
    sample_true_predictive,
)
from hybridabc.model import PARAM_NAMES, ErythroblastModel
from hybridabc.smc import AuxiliaryObjective, PosteriorApproximation, SmcSettings

QUICK = SmcSettings(n_particles=30, alpha=0.5, p_acc_min=0.4, max_generations=6)
PRIOR = build_config().prior


def _posterior(thetas, weights):
    thetas = np.asarray(thetas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return PosteriorApproximation(
        thetas=thetas,
        weights=weights / weights.sum(),
        distances=np.zeros(len(thetas)),
        tolerances=np.array([1.0]),
        history=[],
        n_evaluations=len(thetas),
        simulator_calls=len(thetas),
        generations=1,
        stopped_by="acceptance-rate",
        wall_time_s=0.0,
    )


def test_ks_statistic_frozen_values():
    assert ks_statistic([1.0, 2.0, 3.0, 4.0], [3.0, 4.0, 5.0, 6.0]) == 0.5
    assert ks_statistic([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert ks_statistic([0.0, 1.0], [5.0, 6.0]) == 1.0


def test_ks_statistic_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.standard_normal(rng.integers(2, 40))
        b = rng.standard_normal(rng.integers(2, 40)) + rng.uniform(-1, 1)
        assert ks_statistic(a, b) == brute_force_ks(a, b)


def test_ks_statistic_invariances():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(25)
    b = rng.standard_normal(31) + 0.3
    base = ks_statistic(a, b)
    assert ks_statistic(np.exp(a), np.exp(b)) == base
    assert ks_statistic(np.repeat(a, 3), np.repeat(b, 3)) == base
    assert ks_statistic(b, a) == base
    assert 0.0 <= base <= 1.0


def test_ks_statistic_rejects_empty():
    with pytest.raises(ValueError):
        ks_statistic([], [1.0])


def test_confidence_interval_formula():
    values = np.array([1.0, 2.0, 3.0])
    mean, half = confidence_interval(values)
    assert mean == pytest.approx(2.0)
    assert half == pytest.approx(1.96 * values.std(ddof=1) / np.sqrt(3), rel=1e-12)
    mean, half = confidence_interval([4.2])
    assert mean == 4.2 and np.isnan(half)


def test_confidence_interval_shrinks_with_replications():
    half = {}
    for n in (10, 40):
        values = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
        half[n] = confidence_interval(values)[1]
        assert half[n] == pytest.approx(1.96 / np.sqrt(n - 1), rel=1e-12)
    assert half[40] < half[10] / 1.9


def test_true_predictive_hits_deterministic_states():
    model = ErythroblastModel()
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.0, 0.0])
    ref = reference_trajectory(theta, (3.0, 0.0), 10, 3.0)
    first = sample_true_predictive(theta, model, 1, 5, np.random.default_rng(0))
    np.testing.assert_array_equal(first, np.tile([3.0, 0.0], (5, 1)))
    last = sample_true_predictive(theta, model, 11, 5, np.random.default_rng(0))
    np.testing.assert_allclose(last, np.tile(ref[10], (5, 1)), rtol=1e-12)


def test_target_t_bounds():
    model = ErythroblastModel()
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.0, 0.0])
    for bad in (0, 12):
        with pytest.raises(ValueError):
            sample_true_predictive(theta, model, bad, 5, np.random.default_rng(0))


def test_posterior_predictive_draws_by_weight():
    model = ErythroblastModel()
    t1 = np.array([0.057, 3.4, 2.6, 0.005, 0.0, 0.0])
    t2 = np.array([0.2, 3.4, 2.6, 0.005, 0.0, 0.0])
    posterior = _posterior([t1, t2], [1.0, 0.0])
    ref1 = reference_trajectory(t1, (3.0, 0.0), 10, 3.0)[10]

    weighted = sample_posterior_predictive(posterior, model, 11, 64, np.random.default_rng(1))
    np.testing.assert_allclose(weighted, np.tile(ref1, (64, 1)), rtol=1e-12)


def test_run_replication_is_reproducible():
    model = ErythroblastModel()
    theta_true = np.array([0.057, 3.4, 2.6, 0.005, 0.2, 0.2])
    kwargs = dict(
        model=model,
        prior=PRIOR,
        theta_true=theta_true,
        batches=3,
        settings=QUICK,
        sim_replicates=2,
        target_t=11,
        n_predictive=100,
        rep_seed=101,
    )
    rec_a, pred_a = run_replication(**kwargs)
    rec_b, pred_b = run_replication(**kwargs)
    assert set(rec_a) == {"auxiliary", "naive"}
    assert set(pred_a) == {"true-model", "posterior-auxiliary", "posterior-naive"}
    for method in ("auxiliary", "naive"):
        np.testing.assert_array_equal(
            rec_a[method]["posterior"].thetas, rec_b[method]["posterior"].thetas
        )
        assert rec_a[method]["ks_rho"] == rec_b[method]["ks_rho"]
        assert rec_a[method]["ks_inh"] == rec_b[method]["ks_inh"]
        assert 0.0 <= rec_a[method]["ks_rho"] <= 1.0
        assert rec_a[method]["runtime_s"] > 0.0
    for source in pred_a:
        np.testing.assert_array_equal(pred_a[source], pred_b[source])
        assert pred_a[source].shape == (100, 2)


def test_generate_writes_the_data_a_replication_fits(monkeypatch, tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text("model:\n  true_values: {v_rho: 0.2, v_I: 0.2}\n  batches: 6\n")
    path = tmp_path / "dataset.csv"
    args = ["generate", "--quiet", "--config", str(config), "--out", str(path), "--seed", "41"]
    assert main(args) == 0

    class Captured(Exception):
        pass

    def capture(model, prior, observed, *args, **kwargs):
        raise Captured(observed)

    monkeypatch.setattr(evaluate, "run_inference", capture)
    cfg = build_config()
    theta_true = np.concatenate([cfg.kinetics(), [0.2, 0.2]])
    with pytest.raises(Captured) as caught:
        run_replication(cfg.build_model(), PRIOR, theta_true, 6, QUICK, 2, 11, 10, rep_seed=41)
    observed = caught.value.args[0]
    written = io.read_dataset(path)
    assert observed.states.shape == (6, 11, 1) and written.dt == observed.dt
    np.testing.assert_array_equal(written.states, observed.states)


def test_run_cell_aggregates_both_methods():
    model = ErythroblastModel()
    result = run_cell(
        model=model,
        prior=PRIOR,
        kinetics=np.array([0.057, 3.4, 2.6, 0.005]),
        noise=0.2,
        batches=3,
        settings=QUICK,
        sim_replicates=2,
        macro_replications=2,
        target_t=11,
        n_predictive=50,
        seed=300,
    )
    assert len(result.records) == 4
    assert len(result.ratios) == 2
    assert not result.failures
    assert set(result.predictive) == {"true-model", "posterior-auxiliary", "posterior-naive"}
    assert len(result.method_records("auxiliary")) == 2
    rows = [dict(zip(KS_COLUMNS, row)) for row in result.ks_summary()]
    assert len(rows) == 4
    assert {(row["method"], row["state"]) for row in rows} == {
        ("auxiliary", "rho"),
        ("auxiliary", "I"),
        ("naive", "rho"),
        ("naive", "I"),
    }
    for row in rows:
        assert row["replications"] == 2
        assert np.isfinite(row["ks_mean"])
    aux, naive = result.method_records("auxiliary"), result.method_records("naive")
    assert result.ratios == [n.runtime_s / a.runtime_s for a, n in zip(aux, naive)]
    ratio = dict(zip(RATIO_COLUMNS, result.ratio_summary()))
    assert ratio["replications"] == 2
    assert ratio["ratio_mean"] > 0.0
    # Replication seeds are offsets from the cell seed.
    seeds = {r.seed for r in result.records}
    assert seeds == {300, 301}


def test_run_cell_isolates_replication_failures(monkeypatch):
    real = evaluate.run_replication
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        rep_seed = kwargs.get("rep_seed", args[8] if len(args) > 8 else None)
        if rep_seed == 401:
            raise RuntimeError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluate, "run_replication", flaky)
    with pytest.warns(UserWarning, match="skipped replications"):
        result = run_cell(
            model=ErythroblastModel(),
            prior=PRIOR,
            kinetics=np.array([0.057, 3.4, 2.6, 0.005]),
            noise=0.2,
            batches=3,
            settings=QUICK,
            sim_replicates=2,
            macro_replications=6,
            target_t=11,
            n_predictive=20,
            seed=400,
        )
    assert len(result.failures) == 1
    assert result.failures[0][0] == 1
    assert len(result.ratios) == 5


def test_replication_failures_reach_the_replications_file(monkeypatch, tmp_path):
    real = evaluate.run_replication

    def flaky(*args, **kwargs):
        rep_seed = kwargs.get("rep_seed", args[8] if len(args) > 8 else None)
        if rep_seed == 702:
            raise RuntimeError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluate, "run_replication", flaky)
    with pytest.warns(UserWarning, match="skipped replications"):
        cell = run_cell(
            model=ErythroblastModel(),
            prior=PRIOR,
            kinetics=np.array([0.057, 3.4, 2.6, 0.005]),
            noise=0.2,
            batches=3,
            settings=QUICK,
            sim_replicates=2,
            macro_replications=5,
            target_t=11,
            n_predictive=20,
            seed=700,
        )
    path = tmp_path / "replications.csv"
    io.write_replications(path, cell, {"seed": 700})
    meta, columns, rows = io.read_table(path)
    assert json.loads(meta["failures"]) == [[2, "RuntimeError('boom')"]]
    assert sorted({int(row[columns.index("replication")]) for row in rows}) == [0, 1, 3, 4]


def test_replications_file_holds_each_posterior_weighted_mean_and_std(monkeypatch, tmp_path):
    real = evaluate.run_inference
    posteriors = []

    def recorded(*args, **kwargs):
        posteriors.append(real(*args, **kwargs))
        return posteriors[-1]

    monkeypatch.setattr(evaluate, "run_inference", recorded)
    cell = run_cell(
        model=ErythroblastModel(),
        prior=PRIOR,
        kinetics=np.array([0.057, 3.4, 2.6, 0.005]),
        noise=0.2,
        batches=3,
        settings=QUICK,
        sim_replicates=2,
        macro_replications=2,
        target_t=11,
        n_predictive=20,
        seed=800,
    )
    path = tmp_path / "replications.csv"
    io.write_replications(path, cell, {"seed": 800})
    _, columns, rows = io.read_table(path)
    assert len(rows) == len(posteriors) == 4
    for row, posterior in zip(rows, posteriors):
        values = dict(zip(columns, row))
        means = [float(values[f"mean_{name}"]) for name in PARAM_NAMES]
        stds = [float(values[f"std_{name}"]) for name in PARAM_NAMES]
        assert means == posterior.weighted_mean().tolist()
        assert stds == posterior.weighted_std().tolist()


def test_predictive_draws_come_from_the_first_completed_replication(monkeypatch):
    real = evaluate.run_replication
    returned = {}

    def flaky(*args, **kwargs):
        rep_seed = kwargs.get("rep_seed", args[8] if len(args) > 8 else None)
        if rep_seed == 700:
            raise RuntimeError("boom")
        records, returned[rep_seed] = real(*args, **kwargs)
        return records, returned[rep_seed]

    monkeypatch.setattr(evaluate, "run_replication", flaky)
    with pytest.warns(UserWarning, match="skipped replications"):
        cell = run_cell(
            model=ErythroblastModel(),
            prior=PRIOR,
            kinetics=np.array([0.057, 3.4, 2.6, 0.005]),
            noise=0.2,
            batches=3,
            settings=QUICK,
            sim_replicates=2,
            macro_replications=5,
            target_t=11,
            n_predictive=20,
            seed=700,
        )
    assert cell.failures == [(0, "RuntimeError('boom')")]
    assert sorted(cell.predictive) == ["posterior-auxiliary", "posterior-naive", "true-model"]
    assert cell.predictive is returned[701]


def test_run_cell_fails_when_too_many_replications_fail(monkeypatch):
    def always_broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(evaluate, "run_replication", always_broken)
    with pytest.raises(RuntimeError, match="replications"):
        run_cell(
            model=ErythroblastModel(),
            prior=PRIOR,
            kinetics=np.array([0.057, 3.4, 2.6, 0.005]),
            noise=0.2,
            batches=3,
            settings=QUICK,
            sim_replicates=2,
            macro_replications=3,
            target_t=11,
            n_predictive=20,
            seed=500,
        )


def _counted_pools(monkeypatch):
    """Every pool the engine opens from here on, and those shut down, in order."""
    opened, closed = [], []

    class CountedPool(smc.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            closed.append(self)

    monkeypatch.setattr(smc, "ProcessPoolExecutor", CountedPool)
    return opened, closed


def _pools_given(monkeypatch):
    """The pool each engine run of a cell is given, in call order."""
    real = evaluate.run_inference
    given = []

    def recorded(*args, **kwargs):
        given.append(kwargs.get("pool"))
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluate, "run_inference", recorded)
    return given


def _smoke_cell(macro_replications, workers):
    return run_cell(
        model=ErythroblastModel(),
        prior=PRIOR,
        kinetics=np.array([0.057, 3.4, 2.6, 0.005]),
        noise=0.2,
        batches=3,
        settings=QUICK,
        sim_replicates=2,
        macro_replications=macro_replications,
        target_t=11,
        n_predictive=50,
        seed=900,
        workers=workers,
    )


def _without_times(records):
    return [dataclasses.replace(r, runtime_s=0.0, ratio=0.0) for r in records]


def test_a_cell_runs_on_one_pool_and_matches_the_serial_cell(monkeypatch):
    serial = _smoke_cell(2, workers=1)
    opened, closed = _counted_pools(monkeypatch)
    given = _pools_given(monkeypatch)
    pooled = _smoke_cell(2, workers=2)
    assert len(opened) == 1 and closed == opened
    assert given == opened * 4
    assert _without_times(pooled.records) == _without_times(serial.records)
    assert sorted(pooled.predictive) == sorted(serial.predictive)
    for source, draws in serial.predictive.items():
        np.testing.assert_array_equal(pooled.predictive[source].view(np.int64), draws.view(np.int64))


class _FailsInItsSecondRun(AuxiliaryObjective):
    """The auxiliary objective, raising in every chunk of the second one built."""

    built = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        type(self).built += 1
        self.fails = type(self).built == 2

    def __call__(self, thetas, rngs):
        if self.fails:
            raise RuntimeError("objective failed")
        return super().__call__(thetas, rngs)


def test_a_failed_replication_keeps_its_cause_and_the_next_gets_a_fresh_pool(monkeypatch):
    monkeypatch.setattr(_FailsInItsSecondRun, "built", 0)
    monkeypatch.setitem(smc.OBJECTIVES, "auxiliary", _FailsInItsSecondRun)
    opened, closed = _counted_pools(monkeypatch)
    given = _pools_given(monkeypatch)
    with pytest.warns(UserWarning, match="skipped replications"):
        cell = _smoke_cell(5, workers=2)
    assert cell.failures == [(1, "RuntimeError('objective failed')")]
    assert sorted({r.replication for r in cell.records}) == [0, 2, 3, 4]
    # Replication 1 failed in its auxiliary run on the first pool; the
    # replications after it run on a second one.
    assert len(opened) == 2 and closed == opened
    assert given == [opened[0]] * 3 + [opened[1]] * 6


def test_cell_result_callback_sees_partial_state():
    seen = []
    run_cell(
        model=ErythroblastModel(),
        prior=PRIOR,
        kinetics=np.array([0.057, 3.4, 2.6, 0.005]),
        noise=0.2,
        batches=3,
        settings=QUICK,
        sim_replicates=2,
        macro_replications=2,
        target_t=11,
        n_predictive=20,
        seed=600,
        on_replication=lambda result, r: seen.append((r, len(result.ratios))),
    )
    assert seen == [(0, 1), (1, 2)]


def test_replication_record_is_plain_data():
    rec = ReplicationRecord(
        replication=0,
        seed=1,
        method="auxiliary",
        ks_rho=0.1,
        ks_inh=0.2,
        runtime_s=1.0,
        ratio=1.5,
        generations=3,
        simulator_calls=100,
        evaluations=50,
        stopped_by="acceptance-rate",
        ess=7.5,
        posterior_mean=(0.1,) * 6,
        posterior_std=(0.01,) * 6,
    )
    assert rec.method == "auxiliary"
    empty = CellResult(noise=0.1, batches=3)
    assert empty.ks_summary() == []
    assert np.isnan(empty.ratio_summary()[RATIO_COLUMNS.index("ratio_mean")])
