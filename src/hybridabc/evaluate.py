"""Posterior quality evaluation and method comparison.

A posterior is judged through its predictive distribution at a target time
step: draw parameters from the weighted particles, push one fresh simulated
path through each draw, and compare against draws simulated under the true
parameters with a two-sample Kolmogorov-Smirnov statistic. The latent
inhibitor is read off the full simulated state, so the comparison covers
both the observed and the hidden coordinate. ``observed_dataset`` draws
the observed data, for ``generate`` and every macro-replication alike.

``run_cell`` repeats the whole pipeline over independent macro-replications
for both distance methods under common random numbers and aggregates K-S
values and wall-time ratios with normal-approximation confidence intervals.
With more than one worker, all of a cell's engine runs share one process
pool, replaced by a fresh one after a failed replication.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import Dataset, ErythroblastModel, Prior, generate_dataset
from .rng import (
    STREAM_OBSERVED,
    STREAM_POSTERIOR_PREDICTIVE,
    STREAM_TRUE_PREDICTIVE,
    substream,
)
from .smc import OBJECTIVES, PosteriorApproximation, SmcSettings, open_pool, run_inference

#: Columns of the grid tables in file order: the values of each
#: ``CellResult.ks_summary`` row and of ``CellResult.ratio_summary``.
KS_COLUMNS = ("method", "state", "v", "m", "ks_mean", "ks_ci_halfwidth", "replications")
RATIO_COLUMNS = ("v", "m", "ratio_mean", "ratio_ci_halfwidth", "replications")


def observed_dataset(model: ErythroblastModel, theta, m: int, rng) -> Dataset:
    """``m`` observed trajectories of ``model`` under ``theta``, one path each."""
    init = (model.init_rho, model.init_inh)
    return generate_dataset(theta, init, m, 1, model.horizon, model.dt, rng)


def _target_row(model: ErythroblastModel, target_t: int) -> int:
    # target_t is the 1-based position on the time grid, so t = 1 is the
    # initial state and t = horizon + 1 the final one.
    if not 1 <= target_t <= model.horizon + 1:
        raise ValueError(
            f"target_t must lie in [1, {model.horizon + 1}], got {target_t}"
        )
    return target_t - 1


def sample_posterior_predictive(
    posterior: PosteriorApproximation,
    model: ErythroblastModel,
    target_t: int,
    n_samples: int,
    rng,
) -> np.ndarray:
    """Posterior predictive (density, inhibitor) pairs at the target step.

    Parameters are drawn by weight, and each draw gets one fresh path.
    """
    row = _target_row(model, target_t)
    idx = posterior.sample_indices(rng, n_samples)
    return model.simulate_paths_multi(posterior.thetas[idx], rng)[:, row, :]


def sample_true_predictive(
    theta_true: np.ndarray, model: ErythroblastModel, target_t: int, n_samples: int, rng
) -> np.ndarray:
    """Predictive (density, inhibitor) pairs under the data-generating parameters."""
    row = _target_row(model, target_t)
    return model.simulate_paths(theta_true, n_samples, rng)[:, row, :]


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic.

    The supremum of the absolute difference between the two empirical CDFs,
    evaluated over the merged sample points.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def confidence_interval(values) -> tuple[float, float]:
    """Mean and 1.96 * s / sqrt(R) half-width over replications."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size < 2:
        return mean, float("nan")
    return mean, float(1.96 * values.std(ddof=1) / np.sqrt(values.size))


@dataclass(frozen=True)
class ReplicationRecord:
    """Outcome of one method on one macro-replication."""

    replication: int
    seed: int
    method: str
    ks_rho: float
    ks_inh: float
    runtime_s: float
    #: naive over auxiliary wall time of this replication
    ratio: float
    generations: int
    simulator_calls: int
    evaluations: int
    stopped_by: str
    #: Kish effective sample size of the final generation's retained weights
    ess: float
    #: weighted posterior mean and std of each parameter, in ``PARAM_NAMES`` order
    posterior_mean: tuple[float, ...]
    posterior_std: tuple[float, ...]


@dataclass(eq=False)
class CellResult:
    """All replications of one (noise level, batch count) grid cell."""

    noise: float
    batches: int
    records: list = field(default_factory=list)
    predictive: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def method_records(self, method: str) -> list:
        return [r for r in self.records if r.method == method]

    @property
    def ratios(self) -> list[float]:
        """Naive over auxiliary wall time, one per completed replication."""
        return [r.ratio for r in self.method_records("auxiliary")]

    def ks_summary(self) -> list[tuple]:
        """CI rows per (method, state), in ``KS_COLUMNS`` order."""
        rows = []
        for method in OBJECTIVES:
            records = self.method_records(method)
            if not records:
                continue
            for state, attr in (("rho", "ks_rho"), ("I", "ks_inh")):
                mean, half = confidence_interval([getattr(r, attr) for r in records])
                rows.append((method, state, self.noise, self.batches, mean, half, len(records)))
        return rows

    def ratio_summary(self) -> tuple:
        ratios = self.ratios
        mean, half = confidence_interval(ratios) if ratios else (float("nan"), float("nan"))
        return (self.noise, self.batches, mean, half, len(ratios))


def run_replication(
    model: ErythroblastModel,
    prior: Prior,
    theta_true: np.ndarray,
    batches: int,
    settings: SmcSettings,
    sim_replicates: int,
    target_t: int,
    n_predictive: int,
    rep_seed: int,
    workers: int = 1,
    progress=None,
    pool=None,
) -> tuple[dict, dict]:
    """One macro-replication: both methods on one observed dataset.

    Both methods see the same observed data and draw their simulation noise
    from the same seed-derived sub-streams, so their comparison is paired.
    ``pool`` is an open pool from ``open_pool(workers)`` for both engine runs.
    Returns (records keyed by method, predictive samples keyed by source).
    """
    observed = observed_dataset(model, theta_true, batches, substream(rep_seed, STREAM_OBSERVED))
    true_pred = sample_true_predictive(
        theta_true,
        model,
        target_t,
        n_predictive,
        substream(rep_seed, STREAM_TRUE_PREDICTIVE),
    )
    records = {}
    predictive = {"true-model": true_pred}
    for method in OBJECTIVES:
        method_progress = (lambda rec, m=method: progress(m, rec)) if progress else None
        t0 = time.perf_counter()
        posterior = run_inference(
            model,
            prior,
            observed,
            method,
            settings,
            sim_replicates,
            seed=rep_seed,
            workers=workers,
            progress=method_progress,
            pool=pool,
        )
        runtime = time.perf_counter() - t0
        post_pred = sample_posterior_predictive(
            posterior,
            model,
            target_t,
            n_predictive,
            substream(rep_seed, STREAM_POSTERIOR_PREDICTIVE),
        )
        records[method] = {
            "posterior": posterior,
            "runtime_s": runtime,
            "ks_rho": ks_statistic(post_pred[:, 0], true_pred[:, 0]),
            "ks_inh": ks_statistic(post_pred[:, 1], true_pred[:, 1]),
        }
        predictive[f"posterior-{method}"] = post_pred
    return records, predictive


def run_cell(
    model: ErythroblastModel,
    prior: Prior,
    kinetics: np.ndarray,
    noise: float,
    batches: int,
    settings: SmcSettings,
    sim_replicates: int,
    macro_replications: int,
    target_t: int,
    n_predictive: int,
    seed: int,
    workers: int = 1,
    progress=None,
    on_replication=None,
) -> CellResult:
    """Run one grid cell over ``macro_replications`` independent repeats.

    Replication r derives everything from seed + r. Individual replication
    failures are recorded and skipped unless they exceed a fifth of the
    requested count, in which case the cell fails. The predictive draws kept
    are those of the first replication that completes.

    With ``workers > 1`` the replications share one process pool, shut down
    when the cell ends; a failed replication's pool is replaced by a fresh
    one, so a broken worker cannot fail the replications after it.
    """
    theta_true = np.concatenate([np.asarray(kinetics, dtype=float), [noise, noise]])
    result = CellResult(noise=noise, batches=batches)
    pool = open_pool(workers) if workers > 1 else None
    try:
        for r in range(macro_replications):
            rep_seed = seed + r
            try:
                records, predictive = run_replication(
                    model,
                    prior,
                    theta_true,
                    batches,
                    settings,
                    sim_replicates,
                    target_t,
                    n_predictive,
                    rep_seed,
                    workers=workers,
                    progress=progress,
                    pool=pool,
                )
            except Exception as exc:  # noqa: BLE001 - isolate replication failures
                result.failures.append((r, repr(exc)))
                if pool is not None:
                    pool.shutdown()
                    pool = open_pool(workers)
                continue
            ratio = records["naive"]["runtime_s"] / records["auxiliary"]["runtime_s"]
            for method in OBJECTIVES:
                rec = records[method]
                posterior = rec["posterior"]
                result.records.append(
                    ReplicationRecord(
                        replication=r,
                        seed=rep_seed,
                        method=method,
                        ks_rho=rec["ks_rho"],
                        ks_inh=rec["ks_inh"],
                        runtime_s=rec["runtime_s"],
                        ratio=ratio,
                        generations=posterior.generations,
                        simulator_calls=posterior.simulator_calls,
                        evaluations=posterior.n_evaluations,
                        stopped_by=posterior.stopped_by,
                        ess=posterior.history[-1].ess,
                        posterior_mean=tuple(posterior.weighted_mean().tolist()),
                        posterior_std=tuple(posterior.weighted_std().tolist()),
                    )
                )
            if not result.predictive:
                result.predictive = predictive
            if on_replication is not None:
                on_replication(result, r)
    finally:
        if pool is not None:
            pool.shutdown()
    if result.failures:
        if len(result.failures) > 0.2 * macro_replications:
            raise RuntimeError(
                f"{len(result.failures)} of {macro_replications} replications "
                f"failed in cell (v={noise}, m={batches}): {result.failures}"
            )
        warnings.warn(
            f"cell (v={noise}, m={batches}) skipped replications {result.failures}",
            stacklevel=2,
        )
    return result
