"""Posterior quality evaluation and method comparison.

A posterior is judged through its predictive distribution at a target time
step: draw parameters from the weighted particles, push one fresh simulated
path through each draw, and compare against draws simulated under the true
parameters with a two-sample Kolmogorov-Smirnov statistic. The latent
inhibitor is read off the full simulated state, so the comparison covers
both the observed and the hidden coordinate.

``run_cell`` repeats the whole pipeline over independent macro-replications
for both distance methods under common random numbers and aggregates K-S
values and wall-time ratios with normal-approximation confidence intervals.
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
from .smc import PosteriorApproximation, SmcSettings, run_inference

METHODS = ("auxiliary", "naive")


@dataclass(frozen=True, eq=False)
class PredictiveSample:
    """Simulated (density, inhibitor) values at one target time step."""

    values: np.ndarray
    source: str
    target_t: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != 2:
            raise ValueError("values must have shape (n, 2)")
        object.__setattr__(self, "values", values)

    @property
    def rho(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def inhibitor(self) -> np.ndarray:
        return self.values[:, 1]


def _target_row(model: ErythroblastModel, target_t: int) -> int:
    # target_t is the 1-based position on the time grid, so t = 1 is the
    # initial state and t = horizon + 1 the final one.
    if not 1 <= target_t <= model.horizon + 1:
        raise ValueError(
            f"target_t must lie in [1, {model.horizon + 1}], got {target_t}"
        )
    return target_t - 1


def predictive_from_thetas(
    thetas: np.ndarray, model: ErythroblastModel, target_t: int, rng
) -> np.ndarray:
    """One fresh path per parameter row; full state at the target step."""
    row = _target_row(model, target_t)
    states = model.simulate_paths_multi(thetas, rng)
    return states[:, row, :]


def sample_posterior_predictive(
    posterior: PosteriorApproximation,
    model: ErythroblastModel,
    target_t: int,
    n_samples: int,
    rng,
    weighted: bool = True,
) -> PredictiveSample:
    """Posterior predictive at the target step.

    Parameters are drawn from the particles by weight unless ``weighted``
    is False, in which case retained particles are used uniformly.
    """
    idx = posterior.sample_indices(rng, n_samples, weighted=weighted)
    values = predictive_from_thetas(posterior.thetas[idx], model, target_t, rng)
    return PredictiveSample(values=values, source="posterior", target_t=target_t)


def sample_true_predictive(
    theta_true: np.ndarray, model: ErythroblastModel, target_t: int, n_samples: int, rng
) -> PredictiveSample:
    """Predictive under the data-generating parameters."""
    row = _target_row(model, target_t)
    states = model.simulate_paths(theta_true, n_samples, rng)
    return PredictiveSample(
        values=states[:, row, :], source="true-model", target_t=target_t
    )


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
    generations: int
    simulator_calls: int


@dataclass(eq=False)
class CellResult:
    """All replications of one (noise level, batch count) grid cell."""

    noise: float
    batches: int
    records: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    predictive: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def method_records(self, method: str) -> list:
        return [r for r in self.records if r.method == method]

    def ks_summary(self) -> list[dict]:
        """CI rows per (method, state)."""
        rows = []
        for method in METHODS:
            records = self.method_records(method)
            if not records:
                continue
            for state, attr in (("rho", "ks_rho"), ("I", "ks_inh")):
                mean, half = confidence_interval([getattr(r, attr) for r in records])
                rows.append(
                    {
                        "method": method,
                        "state": state,
                        "v": self.noise,
                        "m": self.batches,
                        "ks_mean": mean,
                        "ks_ci_halfwidth": half,
                        "replications": len(records),
                    }
                )
        return rows

    def ratio_summary(self) -> dict:
        mean, half = confidence_interval(self.ratios) if self.ratios else (float("nan"), float("nan"))
        return {
            "v": self.noise,
            "m": self.batches,
            "ratio_mean": mean,
            "ratio_ci_halfwidth": half,
            "replications": len(self.ratios),
        }


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
    naive_variant: str = "trajectory-energy",
) -> tuple[dict, dict]:
    """One macro-replication: both methods on one observed dataset.

    Both methods see the same observed data and draw their simulation noise
    from the same seed-derived sub-streams, so their comparison is paired.
    Returns (records keyed by method, predictive samples keyed by source).
    """
    observed = generate_dataset(
        theta_true,
        (model.init_rho, model.init_inh),
        batches,
        1,
        model.horizon,
        model.dt,
        substream(rep_seed, STREAM_OBSERVED),
    )
    true_pred = sample_true_predictive(
        theta_true,
        model,
        target_t,
        n_predictive,
        substream(rep_seed, STREAM_TRUE_PREDICTIVE),
    )
    records = {}
    predictive = {"true-model": true_pred.values}
    for method in METHODS:
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
            naive_variant=naive_variant,
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
            "ks_rho": ks_statistic(post_pred.rho, true_pred.rho),
            "ks_inh": ks_statistic(post_pred.inhibitor, true_pred.inhibitor),
        }
        predictive[f"posterior-{method}"] = post_pred.values
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
    naive_variant: str = "trajectory-energy",
) -> CellResult:
    """Run one grid cell over ``macro_replications`` independent repeats.

    Replication r derives everything from seed + r. Individual replication
    failures are recorded and skipped unless they exceed a fifth of the
    requested count, in which case the cell fails.
    """
    theta_true = np.concatenate([np.asarray(kinetics, dtype=float), [noise, noise]])
    result = CellResult(noise=noise, batches=batches)
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
                naive_variant=naive_variant,
            )
        except Exception as exc:  # noqa: BLE001 - isolate replication failures
            result.failures.append((r, repr(exc)))
            continue
        for method in METHODS:
            rec = records[method]
            result.records.append(
                ReplicationRecord(
                    replication=r,
                    seed=rep_seed,
                    method=method,
                    ks_rho=rec["ks_rho"],
                    ks_inh=rec["ks_inh"],
                    runtime_s=rec["runtime_s"],
                    generations=rec["posterior"].generations,
                    simulator_calls=rec["posterior"].simulator_calls,
                )
            )
        result.ratios.append(
            records["naive"]["runtime_s"] / records["auxiliary"]["runtime_s"]
        )
        if r == 0:
            result.predictive = predictive
        if on_replication is not None:
            on_replication(result, r)
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
