"""Sequential Monte Carlo engine for approximate Bayesian computation.

The engine keeps the best ``alpha`` fraction of particles each generation,
refills the rest by resampling and Gaussian perturbation, importance-weights
the refills against the retained mixture, and tightens the distance
tolerance to the ``alpha`` quantile of the pooled distances. It stops once
the refill acceptance rate drops to ``p_acc_min`` or below.

The engine is model-agnostic: it sees only a prior and a distance objective
``objective(theta, rng)``. Per-slot random sub-streams make every run a pure
function of the seed, whatever the worker count.

An objective may return one distance or, when it exposes ``replicates``
= L > 1, L replicate distances, each from its own simulated dataset. A
particle then counts as within the tolerance when at least one replicate
is, so its distance is the smallest replicate; the returned posterior
weights multiply each importance weight by the fraction of replicates
within the final tolerance. That fraction is the unbiased replicate
estimate of the ABC likelihood of Del Moral, Doucet & Jasra (2012, Stat.
Comput.), so the weighted particles target the ABC posterior of a single
simulated dataset while each proposal uses all L of them.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distance import (
    AUXILIARY,
    NAIVE_VARIANTS,
    DistanceSpec,
    auxiliary_distance,
    information_weight,
    naive_distance,
)
from .lgdbn import SummaryStatistics, summarize
from .model import Dataset, Prior
from .rng import STREAM_PROPOSAL, STREAM_SIMULATION, substream


@dataclass(frozen=True)
class SmcSettings:
    """Engine controls.

    n_particles : population size N
    alpha : fraction of particles retained between generations
    p_acc_min : stop once the refill acceptance rate is at or below this
    max_generations : safety cap on the number of generations
    """

    n_particles: int
    alpha: float
    p_acc_min: float
    max_generations: int = 200

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be at least 2")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not 0.0 < self.p_acc_min <= 1.0:
            raise ValueError("p_acc_min must lie in (0, 1]")
        if self.max_generations < 1:
            raise ValueError("max_generations must be positive")
        n_keep = math.floor(self.alpha * self.n_particles)
        if n_keep < 1 or n_keep >= self.n_particles:
            raise ValueError("alpha leaves no particles to retain or to refill")


@dataclass(eq=False)
class Population:
    """Retained particles of one generation."""

    thetas: np.ndarray
    weights: np.ndarray
    distances: np.ndarray
    tolerance: float
    generation: int

    def __post_init__(self):
        n = self.thetas.shape[0]
        if n < 1 or self.thetas.ndim != 2:
            raise ValueError("thetas must be a non-empty (n, d) array")
        if self.weights.shape != (n,) or self.distances.shape != (n,):
            raise ValueError("weights and distances must match the particle count")
        if (self.weights < 0).any() or not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite and non-negative")
        if not (self.weights > 0).any():
            raise ValueError("population carries no positive weight")
        if (self.distances > self.tolerance).any():
            raise ValueError("a retained distance exceeds the tolerance")

    def __len__(self) -> int:
        return self.thetas.shape[0]

    def normalized_weights(self) -> np.ndarray:
        return self.weights / self.weights.sum()


@dataclass(frozen=True, eq=False)
class PerturbationKernel:
    """Zero-mean Gaussian move kernel with a fixed covariance."""

    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be square")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        cov = (cov + cov.T) / 2.0
        if np.linalg.eigvalsh(cov).min() < -1e-10:
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "covariance", cov)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            chol = None
        object.__setattr__(self, "_chol", chol)
        if chol is not None:
            d = cov.shape[0]
            log_norm = -0.5 * d * np.log(2.0 * np.pi) - np.log(np.diag(chol)).sum()
            object.__setattr__(self, "_log_norm", float(log_norm))

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    @property
    def is_degenerate(self) -> bool:
        return self._chol is None

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        if self._chol is None:
            return np.zeros(self.dim)
        return self._chol @ rng.standard_normal(self.dim)

    def densities(self, theta: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Kernel density of ``theta`` around each row of ``centers``."""
        diff = np.atleast_2d(centers) - theta
        if self._chol is None:
            at_center = (diff == 0).all(axis=1)
            return np.where(at_center, np.inf, 0.0)
        y = np.linalg.solve(self._chol, diff.T)
        quad = (y * y).sum(axis=0)
        return np.exp(self._log_norm - 0.5 * quad)


@dataclass(eq=False)
class PosteriorApproximation:
    """Weighted particle approximation returned by ``run_abc_smc``."""

    thetas: np.ndarray
    weights: np.ndarray
    distances: np.ndarray
    tolerances: np.ndarray
    acceptance_rates: np.ndarray
    n_evaluations: int
    simulator_calls: int
    generations: int
    stopped_by: str
    wall_time_s: float
    n_target_retained: int
    seed: int

    def __len__(self) -> int:
        return self.thetas.shape[0]

    def weighted_mean(self) -> np.ndarray:
        return self.weights @ self.thetas

    def weighted_std(self) -> np.ndarray:
        mean = self.weighted_mean()
        var = self.weights @ (self.thetas - mean) ** 2
        return np.sqrt(var)

    def weight_within(self, index: int, center: float, halfwidth: float) -> float:
        """Total weight of particles whose component lies in the band."""
        inside = np.abs(self.thetas[:, index] - center) <= halfwidth
        return float(self.weights[inside].sum())

    def sample_indices(self, rng: np.random.Generator, n: int, weighted: bool = True) -> np.ndarray:
        """Particle indices drawn by weight (default) or uniformly."""
        if weighted:
            return resample_indices(self.weights, rng, n)
        return rng.integers(0, len(self), size=n)


@dataclass(frozen=True)
class GenerationRecord:
    """One progress line: state of the engine after a generation."""

    generation: int
    tolerance: float
    p_acc: float
    n_retained: int
    n_evaluations: int
    simulator_calls: int
    elapsed_s: float


def adapt_tolerance(distances: np.ndarray, alpha: float) -> float:
    """The ceil(alpha * n)-th smallest distance."""
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 1 or distances.size == 0:
        raise ValueError("distances must be a non-empty 1-D array")
    if not np.isfinite(distances).all():
        raise ValueError("distances must be finite")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    k = math.ceil(alpha * distances.size)
    return float(np.partition(distances, k - 1)[k - 1])


def resample_index(weights: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn with probability proportional to its weight."""
    return int(resample_indices(weights, rng, 1)[0])


def resample_indices(weights: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    cum = np.cumsum(weights)
    if cum.size == 0 or cum[-1] <= 0.0:
        raise ValueError("weights must carry positive total mass")
    u = rng.random(n) * cum[-1]
    return np.minimum(np.searchsorted(cum, u, side="right"), weights.size - 1)


def adapt_kernel(population: Population) -> PerturbationKernel:
    """Move kernel from a population: twice its weighted covariance.

    A diagonal floor of 1e-10 times the trace keeps the kernel usable when
    the particles nearly collapse.
    """
    w = population.normalized_weights()
    mu = w @ population.thetas
    diff = population.thetas - mu
    cov = (diff * w[:, None]).T @ diff
    cov = 2.0 * cov
    cov[np.diag_indices_from(cov)] += 1e-10 * np.trace(cov)
    return PerturbationKernel(covariance=cov)


def perturb(
    theta_star: np.ndarray,
    kernel: PerturbationKernel,
    prior: Prior,
    rng: np.random.Generator,
    max_tries: int = 1000,
) -> np.ndarray:
    """Gaussian move around ``theta_star``, redrawn until inside the prior."""
    for _ in range(max_tries):
        candidate = theta_star + kernel.sample(rng)
        if prior.density(candidate) > 0.0:
            return candidate
    raise RuntimeError(
        f"no perturbation of particle {np.asarray(theta_star)} landed inside "
        f"the prior support after {max_tries} tries"
    )


def compute_weight(
    theta: np.ndarray,
    previous: Population,
    kernel: PerturbationKernel,
    prior: Prior,
    accepted: bool,
) -> float:
    """Importance weight of a refill particle against the retained mixture."""
    numerator = prior.density(theta) if accepted else 0.0
    if numerator == 0.0:
        return 0.0
    mixture = previous.normalized_weights() @ kernel.densities(theta, previous.thetas)
    if np.isinf(mixture):
        return 0.0
    if mixture <= 0.0:
        raise RuntimeError(
            "mixture kernel density underflowed for an accepted particle; "
            "the move kernel is too narrow for the population spread"
        )
    return float(numerator / mixture)


def replicate_fractions(replicates: np.ndarray, tolerance: float) -> np.ndarray:
    """Per particle (row), the fraction of replicate distances within tolerance."""
    return (np.asarray(replicates) <= tolerance).mean(axis=1)


def _evaluate_chunk(objective, seed, gen_index, slots, thetas):
    out = np.empty((len(slots), int(getattr(objective, "replicates", 1))))
    for j, slot in enumerate(slots):
        rng = substream(seed, STREAM_SIMULATION, gen_index, slot)
        out[j] = objective(thetas[j], rng)
    return out


def _evaluate(objective, seed, gen_index, slots, thetas, executor, workers):
    slots = np.asarray(list(slots))
    if executor is None or len(slots) < 2 * workers:
        return _evaluate_chunk(objective, seed, gen_index, slots, thetas)
    pieces = np.array_split(np.arange(len(slots)), workers)
    futures = [
        executor.submit(_evaluate_chunk, objective, seed, gen_index, slots[p], thetas[p])
        for p in pieces
        if len(p)
    ]
    return np.concatenate([f.result() for f in futures])


def run_abc_smc(
    prior: Prior,
    objective,
    settings: SmcSettings,
    seed: int,
    workers: int = 1,
    progress=None,
) -> PosteriorApproximation:
    """Run the full adaptive ABC-SMC loop.

    Parameters
    ----------
    prior : Prior
        Sampling distribution and density for parameter vectors.
    objective : callable(theta, rng) -> float or array of shape (L,)
        Distance between data simulated under ``theta`` and the observed
        data. May expose ``calls_per_evaluation`` for simulator accounting
        and ``replicates`` (L, default 1) for replicate distances.
    settings : SmcSettings
    seed : int
        Master seed; the run is a pure function of it.
    workers : int
        Process count for distance evaluation. Results do not depend on it.
    progress : callable(GenerationRecord), optional

    Returns
    -------
    PosteriorApproximation
        Retained particles with weights normalized to sum to one, plus the
        tolerance and acceptance-rate histories and effort counters. With
        replicate distances, ``distances`` holds each particle's smallest
        replicate and the weights include the replicate fractions.
    """
    t0 = time.perf_counter()
    N = settings.n_particles
    n_keep = math.floor(settings.alpha * N)
    calls_per_eval = int(getattr(objective, "calls_per_evaluation", 1))
    executor = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None

    def report(pop, p_acc, n_evaluations):
        if progress is not None:
            progress(
                GenerationRecord(
                    generation=pop.generation,
                    tolerance=pop.tolerance,
                    p_acc=p_acc,
                    n_retained=len(pop),
                    n_evaluations=n_evaluations,
                    simulator_calls=n_evaluations * calls_per_eval,
                    elapsed_s=time.perf_counter() - t0,
                )
            )

    try:
        thetas = np.empty((N, prior.dim))
        for slot in range(N):
            thetas[slot] = prior.sample(substream(seed, STREAM_PROPOSAL, 0, slot))
        replicates = _evaluate(objective, seed, 0, range(N), thetas, executor, workers)
        distances = replicates.min(axis=1)
        n_evaluations = N

        tol = adapt_tolerance(distances, settings.alpha)
        keep = distances <= tol
        replicates = replicates[keep]
        population = Population(
            thetas=thetas[keep],
            weights=np.ones(int(keep.sum())),
            distances=distances[keep],
            tolerance=tol,
            generation=1,
        )
        tolerances = [tol]
        acceptance_rates = []
        report(population, 1.0, n_evaluations)

        p_acc = 1.0
        gen_index = 1
        stopped_by = "acceptance-rate"
        while p_acc > settings.p_acc_min:
            if population.generation >= settings.max_generations:
                stopped_by = "max-generations"
                break
            kernel = adapt_kernel(population)
            n_new = N - n_keep
            new_thetas = np.empty((n_new, prior.dim))
            for j in range(n_new):
                slot = n_keep + j
                prop_rng = substream(seed, STREAM_PROPOSAL, gen_index, slot)
                star = population.thetas[resample_index(population.weights, prop_rng)]
                new_thetas[j] = perturb(star, kernel, prior, prop_rng)
            new_reps = _evaluate(
                objective, seed, gen_index, range(n_keep, N), new_thetas, executor, workers
            )
            new_q = new_reps.min(axis=1)
            n_evaluations += n_new

            accepted = new_q <= population.tolerance
            new_w = np.array(
                [
                    compute_weight(new_thetas[j], population, kernel, prior, bool(accepted[j]))
                    for j in range(n_new)
                ]
            )
            p_acc = float(accepted.mean())
            if p_acc > 0.0 and not (new_w > 0.0).any():
                raise RuntimeError(
                    "every refill particle received zero weight despite accepted "
                    "distances; prior and move kernel are inconsistent"
                )

            pool_thetas = np.vstack([population.thetas, new_thetas])
            pool_w = np.concatenate([population.weights, new_w])
            pool_q = np.concatenate([population.distances, new_q])
            tol = adapt_tolerance(pool_q, settings.alpha)
            keep = pool_q <= tol
            replicates = np.vstack([replicates, new_reps])[keep]
            population = Population(
                thetas=pool_thetas[keep],
                weights=pool_w[keep],
                distances=pool_q[keep],
                tolerance=tol,
                generation=population.generation + 1,
            )
            tolerances.append(tol)
            acceptance_rates.append(p_acc)
            report(population, p_acc, n_evaluations)
            gen_index += 1
    finally:
        if executor is not None:
            executor.shutdown()

    weights = population.weights * replicate_fractions(replicates, population.tolerance)
    weights = weights / weights.sum()
    return PosteriorApproximation(
        thetas=population.thetas.copy(),
        weights=weights,
        distances=population.distances.copy(),
        tolerances=np.asarray(tolerances),
        acceptance_rates=np.asarray(acceptance_rates),
        n_evaluations=n_evaluations,
        simulator_calls=n_evaluations * calls_per_eval,
        generations=population.generation,
        stopped_by=stopped_by,
        wall_time_s=time.perf_counter() - t0,
        n_target_retained=n_keep,
        seed=int(seed),
    )


@dataclass(frozen=True, eq=False)
class AuxiliaryObjective:
    """Distance via the auxiliary-summary route."""

    model: object
    n_paths: int
    observed_summary: SummaryStatistics
    spec: DistanceSpec

    @property
    def calls_per_evaluation(self) -> int:
        return self.n_paths

    def __call__(self, theta, rng) -> float:
        states = self.model.simulate_paths(theta, self.n_paths, rng)
        simulated = Dataset(states=states[:, :, : self.model.observed_dim], dt=self.model.dt)
        return auxiliary_distance(self.observed_summary, summarize(simulated), self.spec)


@dataclass(frozen=True, eq=False)
class NaiveObjective:
    """Distance on observable trajectories, route picked by ``variant``."""

    model: object
    n_paths: int
    observed: Dataset
    variant: str = "trajectory-energy"

    @property
    def calls_per_evaluation(self) -> int:
        return self.n_paths

    @property
    def replicates(self) -> int:
        """Distances per evaluation: one per batch of ``len(observed)`` paths."""
        if self.variant == "mean-curve":
            return 1
        return self.n_paths // len(self.observed)

    def __call__(self, theta, rng):
        states = self.model.simulate_paths(theta, self.n_paths, rng)
        simulated = Dataset(states=states[:, :, : self.model.observed_dim], dt=self.model.dt)
        return naive_distance(self.observed, simulated, self.variant)


def build_objective(
    model,
    observed: Dataset,
    method: str,
    sim_replicates: int,
    naive_variant: str = "trajectory-energy",
):
    """Distance objective for ``method``, simulating m * L paths per particle."""
    if sim_replicates < 1:
        raise ValueError("sim_replicates must be positive")
    n_paths = len(observed) * sim_replicates
    if method == "auxiliary":
        eta_obs = summarize(observed)
        spec = DistanceSpec(AUXILIARY, information_weight(eta_obs, len(observed)))
        return AuxiliaryObjective(
            model=model, n_paths=n_paths, observed_summary=eta_obs, spec=spec
        )
    if method == "naive":
        if naive_variant not in NAIVE_VARIANTS:
            raise ValueError(
                f"unknown naive variant {naive_variant!r}; have {list(NAIVE_VARIANTS)}"
            )
        return NaiveObjective(
            model=model, n_paths=n_paths, observed=observed, variant=naive_variant
        )
    raise ValueError(f"unknown method {method!r}; expected 'auxiliary' or 'naive'")


def run_inference(
    model,
    prior: Prior,
    observed: Dataset,
    method: str,
    settings: SmcSettings,
    sim_replicates: int,
    seed: int,
    workers: int = 1,
    progress=None,
    naive_variant: str = "trajectory-energy",
) -> PosteriorApproximation:
    """Infer the posterior for one observed dataset with one method."""
    objective = build_objective(model, observed, method, sim_replicates, naive_variant)
    return run_abc_smc(prior, objective, settings, seed, workers=workers, progress=progress)
