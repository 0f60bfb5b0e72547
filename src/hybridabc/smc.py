"""Sequential Monte Carlo engine for approximate Bayesian computation.

The engine keeps the best ``alpha`` fraction of particles each generation,
exactly n_keep = floor(alpha * N) with ties broken by pool order, refills
the rest by resampling and Gaussian perturbation, and tightens the distance
tolerance to the ``n_keep``-th smallest pooled distance. Importance weights
are computed after that selection, only for the refills it keeps, against
the previous generation's retained mixture. It stops once the refill
acceptance rate drops to ``p_acc_min`` or below.

The engine is model-agnostic: it sees only a prior and a distance objective
that gives each particle one distance or an array of L replicate distances,
each from its own simulated dataset; L is read off the returns and must not
change within a run. The package's objectives score a chunk of particles
per call, ``objective(thetas, rngs)``; any other callable is called as
``objective(theta, rng)`` once per particle. Per-slot random sub-streams
make every run a pure function of the seed, whatever the worker count.

A particle counts as within the tolerance when at least one of its
replicates is, so its distance is the smallest replicate; the returned
posterior weights multiply each importance weight by the fraction of
replicates within the final tolerance. That fraction is the unbiased
replicate estimate of the ABC likelihood of Del Moral, Doucet & Jasra (2012,
Stat. Comput.), so the weighted particles target the ABC posterior of a
single simulated dataset while each proposal uses all L of them.
"""

from __future__ import annotations

import math
import os
import pickle
import queue
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .distance import auxiliary_distance, information_weight, naive_distance
from .distance import observed_energy_terms
from .lgdbn import summarize
from .model import Dataset, Prior
from .rng import STREAM_PROPOSAL, STREAM_SIMULATION, substream

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use and kept in the module."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SmcSettings:
    """Engine controls.

    n_particles : population size N
    alpha : fraction retained between generations: ``n_keep`` = floor(alpha * N)
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
        if self.n_keep < 1 or self.n_keep >= self.n_particles:
            raise ValueError("alpha leaves no particles to retain or to refill")

    @property
    def n_keep(self) -> int:
        """Particles retained each generation, floor(alpha * n_particles)."""
        return math.floor(self.alpha * self.n_particles)


@dataclass(eq=False)
class Population:
    """Retained particles of one generation with their (n, L) replicate distances."""

    thetas: np.ndarray
    weights: np.ndarray
    replicates: np.ndarray
    tolerance: float
    generation: int

    def __post_init__(self):
        n = self.thetas.shape[0]
        if n < 1 or self.thetas.ndim != 2:
            raise ValueError("thetas must be a non-empty (n, d) array")
        if self.weights.shape != (n,) or self.replicates.ndim != 2 or len(self.replicates) != n:
            raise ValueError("weights and replicate rows must match the particle count")
        if (self.weights < 0).any() or not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite and non-negative")
        if not (self.weights > 0).any():
            raise ValueError("population carries no positive weight")
        if (self.distances > self.tolerance).any():
            raise ValueError("a retained distance exceeds the tolerance")

    def __len__(self) -> int:
        return self.thetas.shape[0]

    @property
    def distances(self) -> np.ndarray:
        """Each particle's smallest replicate distance."""
        return self.replicates.min(axis=1)

    def normalized_weights(self) -> np.ndarray:
        return self.weights / self.weights.sum()

    @property
    def ess(self) -> float:
        """Kish effective sample size of the weights, (sum w)^2 / sum w^2."""
        return float(self.weights.sum() ** 2 / (self.weights @ self.weights))

    @property
    def n_distinct(self) -> int:
        """Number of distinct parameter rows, compared bit for bit."""
        return len({row.tobytes() for row in self.thetas})


@dataclass(frozen=True, eq=False)
class PerturbationKernel:
    """Zero-mean Gaussian move kernel with a fixed covariance.

    The covariance is factorized by Cholesky; its eigenvalues are computed
    only when that fails, to tell a singular covariance, which moves
    nothing, from one that is not positive semidefinite.
    """

    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be square")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        cov = (cov + cov.T) / 2.0
        object.__setattr__(self, "covariance", cov)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            if np.linalg.eigvalsh(cov).min() < -1e-10:
                raise ValueError("covariance must be positive semidefinite") from None
            chol = None
        object.__setattr__(self, "_chol", chol)
        if chol is not None:
            d = cov.shape[0]
            log_norm = -0.5 * d * np.log(2.0 * np.pi) - np.log(np.diag(chol)).sum()
            object.__setattr__(self, "_log_norm", float(log_norm))

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    def sample(self, rngs, block: int) -> np.ndarray:
        """(len(rngs), block, d) moves: ``block`` draws from each stream in turn.

        Row i reads ``block * d`` normals from ``rngs[i]``, the ones ``block``
        draws of ``d`` would read one after another, and each move is the
        matrix-vector product ``chol @ z`` with the bits of a single draw. A
        singular kernel moves nothing and reads no stream.
        """
        if self._chol is None:
            return np.zeros((len(rngs), block, self.dim))
        z = np.stack([rng.standard_normal((block, self.dim)) for rng in rngs])
        return (self._chol @ z[..., None])[..., 0]

    def densities(self, thetas: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """(k, n) densities of the points ``thetas`` (k, d) around the ``centers`` (n, d)."""
        diff = centers - thetas[:, None, :]
        if self._chol is None:
            at_center = (diff == 0).all(axis=-1)
            return np.where(at_center, np.inf, 0.0)
        y = np.linalg.solve(self._chol, np.swapaxes(diff, -1, -2))
        quad = (y * y).sum(axis=-2)
        return np.exp(self._log_norm - 0.5 * quad)


@dataclass(eq=False)
class PosteriorApproximation:
    """Weighted particle approximation returned by ``run_abc_smc``."""

    thetas: np.ndarray
    weights: np.ndarray
    distances: np.ndarray
    tolerances: np.ndarray
    history: list[GenerationRecord]
    n_evaluations: int
    simulator_calls: int
    generations: int
    stopped_by: str
    wall_time_s: float

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

    def sample_indices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Particle indices drawn by weight; the engine's weights are never negative or all 0."""
        return _draw_indices(np.cumsum(self.weights), rng.random(n))


@dataclass(frozen=True)
class GenerationRecord:
    """One progress line: state of the engine after a generation.

    ``prior_rejections`` counts the kernel moves of the generation's
    proposals that landed outside the prior; generation 1 draws from the
    prior and counts 0. ``ess`` is the Kish effective sample size of the
    retained particles' weights, and ``n_distinct`` the number of distinct
    parameter rows among the retained particles. ``kernel_trace`` is the
    trace of the move kernel's covariance, 0.0 in generation 1, and
    ``distance_p50`` and ``distance_p90`` are the median and 90th
    percentile of the distances of the generation's freshly evaluated
    particles, each its smallest replicate.

    The ``_s`` fields are wall times in seconds of the calling process.
    ``propose_s`` covers the kernel adaptation and the proposals (for
    generation 1, the prior draws), ``evaluate_s`` the distance evaluation,
    waiting on the pool included, and ``weight_s`` the retention step and
    the importance weights of the refills it kept, which are computed after
    selection. ``elapsed_s`` counts from the start of the run.
    """

    generation: int
    tolerance: float
    p_acc: float
    prior_rejections: int
    n_retained: int
    n_distinct: int
    ess: float
    kernel_trace: float
    distance_p50: float
    distance_p90: float
    n_evaluations: int
    simulator_calls: int
    propose_s: float
    evaluate_s: float
    weight_s: float
    elapsed_s: float


def _draw_indices(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indices picked by uniforms ``u`` under the weights whose running sum is ``cum``."""
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), cum.size - 1)


def _quantiles(values: np.ndarray, qs) -> np.ndarray:
    """Quantiles of ``values`` by linear interpolation, numpy's default method.

    ``np.quantile`` would import ``numpy.ma`` on its first call, which adds
    about 1.6 MiB to a run's peak memory.
    """
    ordered = np.sort(values)
    at = (len(ordered) - 1) * np.asarray(qs)
    below = np.floor(at).astype(int)
    above = np.minimum(below + 1, len(ordered) - 1)
    return ordered[below] + (at - below) * (ordered[above] - ordered[below])


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


#: Kernel draws ``perturb`` makes before it gives up on a particle.
_MAX_PERTURB_TRIES = 1000

#: Kernel draws ``perturb`` makes for each pending particle at a time. The
#: block bounds each (pending, block, d) temporary and divides
#: ``_MAX_PERTURB_TRIES``.
_PERTURB_BLOCK = 8


def perturb(
    stars: np.ndarray,
    kernel: PerturbationKernel,
    prior: Prior,
    rngs,
) -> tuple[np.ndarray, int]:
    """Gaussian moves of the rows of ``stars`` (k, d), each redrawn until inside the prior.

    Row i draws its moves from ``rngs[i]``, ``_PERTURB_BLOCK`` at a time,
    and keeps the first that ``prior.contains``, so each row gets the
    move that drawing one at a time would give it; the draws left in a
    block are read from the stream and dropped. Returns the moved rows and
    the total number of moves that landed outside the prior before the
    rows' kept ones. A row with no move inside after ``_MAX_PERTURB_TRIES``
    draws raises ``RuntimeError`` naming its particle.
    """
    moved = np.empty_like(stars)
    pending = np.arange(len(stars))
    rejections = 0
    for _ in range(_MAX_PERTURB_TRIES // _PERTURB_BLOCK):
        moves = kernel.sample([rngs[i] for i in pending], _PERTURB_BLOCK)
        candidates = stars[pending, None, :] + moves
        inside = prior.contains(candidates)
        found = inside.any(axis=1)
        first = inside.argmax(axis=1)[found]
        moved[pending[found]] = candidates[found, first]
        rejections += int(first.sum()) + _PERTURB_BLOCK * int((~found).sum())
        pending = pending[~found]
        if not pending.size:
            return moved, rejections
    raise RuntimeError(
        f"no perturbation of particle {stars[pending[0]]} landed inside "
        f"the prior support after {_MAX_PERTURB_TRIES} tries"
    )


def _propose(population: Population, kernel: PerturbationKernel, prior: Prior, rngs):
    """Refills (k, d) for the slots whose proposal streams are ``rngs``, and their prior rejections.

    Each stream first gives the uniform that picks its slot's star by
    weight, then the slot's kernel moves.
    """
    u = np.array([rng.random() for rng in rngs])
    stars = population.thetas[_draw_indices(np.cumsum(population.weights), u)]
    return perturb(stars, kernel, prior, rngs)


#: Refills whose mixture densities are solved together. The block bounds
#: each (k, n, d) temporary, near 77 KB at 100 retained particles in 6
#: dimensions, so the batch leaves peak memory where it was.
_WEIGHT_BLOCK = 16


def compute_weight(
    thetas: np.ndarray,
    previous: Population,
    kernel: PerturbationKernel,
    prior: Prior,
) -> np.ndarray:
    """Importance weights of kept refill particles (k, d) against the retained mixture.

    The engine calls it after selection, for the refills a generation keeps,
    each already within the previous tolerance. A refill outside the prior
    weighs 0. The prior and kernel densities are computed for blocks of
    ``_WEIGHT_BLOCK`` refills, and each refill's mixture is its own dot
    product, so every weight is the one a block of its particle alone gets.
    """
    weights = np.zeros(len(thetas))
    mix = previous.normalized_weights()
    for start in range(0, len(thetas), _WEIGHT_BLOCK):
        block = thetas[start : start + _WEIGHT_BLOCK]
        per_row = zip(prior.density(block), kernel.densities(block, previous.thetas))
        for j, (numerator, densities) in enumerate(per_row, start):
            mixture = mix @ densities
            if numerator == 0.0 or np.isinf(mixture):
                continue
            if mixture <= 0.0:
                raise RuntimeError(
                    "mixture kernel density underflowed for a kept refill particle; "
                    "the move kernel is too narrow for the population spread"
                )
            weights[j] = numerator / mixture
    return weights


def replicate_fractions(replicates: np.ndarray, tolerance: float) -> np.ndarray:
    """Per particle (row), the fraction of replicate distances within tolerance."""
    return (np.asarray(replicates) <= tolerance).mean(axis=1)


def _evaluate_chunk(objective, seed, generation, slots, thetas):
    """Replicate distances of each slot, stacked into a (len(slots), L) array.

    The package's objectives score the whole chunk in one call, its slots'
    simulation streams derived in one batched ``substream`` call; any other
    callable is called once per slot.
    """
    if isinstance(objective, _PathObjective):
        return objective(thetas, substream(seed, STREAM_SIMULATION, generation, slots))
    rngs = [substream(seed, STREAM_SIMULATION, generation, slot) for slot in slots]
    return np.stack([np.atleast_1d(objective(theta, rng)) for theta, rng in zip(thetas, rngs)])


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def open_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool of ``workers`` workers, which ``run_abc_smc`` runs can share.

    The pool class is imported on first use, here, before the first worker
    forks, so a single-worker run never loads ``concurrent.futures`` or
    ``multiprocessing``. It is looked up among the module's attributes, so
    a class patched onto ``smc.ProcessPoolExecutor`` is the one built.
    """
    pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
    return pool_class(max_workers=workers)


#: The pickled objective a pool worker last received and the objective
#: unpickled from it; only ``_evaluate_in_worker`` sets them.
_worker_payload = None
_worker_objective = None


def _evaluate_in_worker(payload, seed, generation, slots, thetas):
    """``_evaluate_chunk`` with the objective pickled in ``payload``.

    The worker unpickles a payload only when it differs from the last one it
    saw, so it keeps one objective, and its workspace, for a whole run.
    """
    global _worker_payload, _worker_objective
    if payload != _worker_payload:
        _worker_objective = pickle.loads(payload)
        _worker_payload = payload
    return _evaluate_chunk(_worker_objective, seed, generation, slots, thetas)


def _evaluate(objective, payload, seed, generation, slots, thetas, executor, workers):
    """(len(slots), L) distances of the slot array ``slots``, evaluated here or split over the pool.

    Each submit to the pool carries ``payload``, the run's pickled objective,
    with its chunk of slots and parameter rows.
    """
    if executor is None or len(slots) < 2 * workers:
        return _evaluate_chunk(objective, seed, generation, slots, thetas)
    pieces = np.array_split(np.arange(len(slots)), workers)
    futures = [
        executor.submit(_evaluate_in_worker, payload, seed, generation, slots[p], thetas[p])
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
    pool: ProcessPoolExecutor | None = None,
) -> PosteriorApproximation:
    """Run the full adaptive ABC-SMC loop.

    Each generation keeps the ``n_keep`` smallest distances of its pool,
    ties by pool order, and only then weighs the kept refills with
    ``compute_weight``; generation 1 keeps unit weights. A refill that the
    selection drops is never weighed, so it cannot stop the run.

    Parameters
    ----------
    prior : Prior
        Sampling distribution and density for parameter vectors.
    objective : callable
        Distance between data simulated under a parameter vector and the
        observed data, the same L replicates for every particle. The run
        pickles the objective once, and every chunk it sends to a pool
        worker carries those bytes; a worker unpickles them only when they
        differ from the last it saw, so it keeps one objective per run. A
        generation's slots go to the workers in chunks, and each chunk
        builds every slot's simulation stream, ``substream(seed,
        STREAM_SIMULATION, generation, slot)``. The package's objectives
        (``OBJECTIVES``) take the whole chunk, ``objective(thetas (k, d),
        rngs) -> (k, L)``, row i scored from ``rngs[i]`` alone. Any other
        callable is mapped over the slots one at a time,
        ``objective(theta, rng) -> float or (L,)``, a float counting as
        L = 1. May expose ``calls_per_evaluation`` for simulator
        accounting.
    settings : SmcSettings
    seed : int
        Master seed; the run is a pure function of it.
    workers : int
        Process count for distance evaluation. Results do not depend on it.
        When ``usable_cpus()`` is at least ``2 * workers``, the package's
        objectives draw ahead (``_PathObjective.draw_ahead``): each process
        evaluating them uses up to two CPUs.
    progress : callable(GenerationRecord), optional
    pool : ProcessPoolExecutor, optional
        An open pool from ``open_pool(workers)`` to evaluate on when
        ``workers > 1``; the run neither starts nor shuts it down. Without
        one, such a run opens its own pool and shuts it down at the end.

    Returns
    -------
    PosteriorApproximation
        Retained particles with weights normalized to sum to one, the
        ``GenerationRecord`` of every generation in ``history`` and the
        tolerances and effort counters read off it. With replicate
        distances, ``distances`` holds each particle's smallest replicate
        and the weights include the replicate fractions.
    """
    t0 = time.perf_counter()
    N, n_keep = settings.n_particles, settings.n_keep
    n_new = N - n_keep
    calls_per_eval = int(getattr(objective, "calls_per_evaluation", 1))
    if isinstance(objective, _PathObjective):
        objective.draw_ahead = usable_cpus() >= 2 * workers
    executor, payload = None, None
    if workers > 1:
        executor = pool if pool is not None else open_pool(workers)
        payload = pickle.dumps(objective)
    history = []
    population = None
    stopped_by = "acceptance-rate"
    try:
        for generation in range(settings.max_generations):
            started = time.perf_counter()
            if population is None:
                slots = np.arange(N)
                rngs = substream(seed, STREAM_PROPOSAL, 0, slots)
                fresh = np.array([prior.sample(rng) for rng in rngs])
                p_acc, prior_rejections, kernel_trace = 1.0, 0, 0.0
            else:
                kernel = adapt_kernel(population)
                kernel_trace = float(np.trace(kernel.covariance))
                slots = np.arange(n_keep, N)
                rngs = substream(seed, STREAM_PROPOSAL, generation, slots)
                fresh, prior_rejections = _propose(population, kernel, prior, rngs)
            proposed = time.perf_counter()
            fresh_reps = _evaluate(
                objective, payload, seed, generation, slots, fresh, executor, workers
            )
            evaluated = time.perf_counter()

            thetas, replicates = fresh, fresh_reps
            if population is not None:
                p_acc = float((fresh_reps.min(axis=1) <= population.tolerance).mean())
                thetas = np.vstack([population.thetas, fresh])
                replicates = np.vstack([population.replicates, fresh_reps])
            distances = replicates.min(axis=1)
            if not np.isfinite(distances).all():
                raise ValueError("distances must be finite")
            fresh_p50, fresh_p90 = _quantiles(distances[-len(fresh) :], (0.5, 0.9))
            best = np.argsort(distances, kind="stable")[:n_keep]
            keep = np.sort(best)
            weights = np.ones(n_keep)
            if population is not None:
                old = keep < n_keep
                weights[old] = population.weights[keep[old]]
                weights[~old] = compute_weight(thetas[keep[~old]], population, kernel, prior)
                if not old.all() and not (weights[~old] > 0.0).any():
                    raise RuntimeError(
                        "every kept refill particle received zero weight; "
                        "prior and move kernel are inconsistent"
                    )
            population = Population(
                thetas[keep], weights, replicates[keep], float(distances[best[-1]]), generation + 1
            )

            n_evaluations = N + generation * n_new
            now = time.perf_counter()
            record = GenerationRecord(
                generation=population.generation,
                tolerance=population.tolerance,
                p_acc=p_acc,
                prior_rejections=prior_rejections,
                n_retained=len(population),
                n_distinct=population.n_distinct,
                ess=population.ess,
                kernel_trace=kernel_trace,
                distance_p50=float(fresh_p50),
                distance_p90=float(fresh_p90),
                n_evaluations=n_evaluations,
                simulator_calls=n_evaluations * calls_per_eval,
                propose_s=proposed - started,
                evaluate_s=evaluated - proposed,
                weight_s=now - evaluated,
                elapsed_s=now - t0,
            )
            history.append(record)
            if progress is not None:
                progress(record)
            if p_acc <= settings.p_acc_min:
                break
        else:
            stopped_by = "max-generations"
    finally:
        if executor is not None and executor is not pool:
            executor.shutdown()

    weights = population.weights * replicate_fractions(population.replicates, population.tolerance)
    return PosteriorApproximation(
        thetas=population.thetas,
        weights=weights / weights.sum(),
        distances=population.distances,
        tolerances=np.array([record.tolerance for record in history]),
        history=history,
        n_evaluations=history[-1].n_evaluations,
        simulator_calls=history[-1].simulator_calls,
        generations=population.generation,
        stopped_by=stopped_by,
        wall_time_s=time.perf_counter() - t0,
    )


#: Most paths one simulator call of an objective steps: a chunk's slots are
#: simulated in blocks of as many whole slots as fit, at least one.
PATHS_PER_BLOCK = 1200


class _DrawAhead:
    """A helper thread that draws a chunk's normals one block ahead of its caller.

    ``blocks`` are the chunk's slot slices. The caller draws block 0 itself,
    into ``buffers[0]``; the helper draws block b = 1, 2, ... into
    ``buffers[b % 2]`` with the model's ``draw_normals``, and calls nothing
    else. It refills a buffer only after the caller has ``release``d the
    block that stepped from it, two blocks back. ``take`` waits for the next block's
    normals and raises what drawing them raised; ``close`` stops the helper
    and joins it.
    """

    def __init__(self, model, rngs, blocks, n: int, buffers):
        self._free = threading.Semaphore(1)
        self._ready = queue.SimpleQueue()
        self._stop = False
        self._thread = threading.Thread(target=self._draw, args=(model, rngs, blocks, n, buffers))
        self._thread.start()

    def _draw(self, model, rngs, blocks, n, buffers):
        try:
            for b in range(1, len(blocks)):
                self._free.acquire()
                if self._stop:
                    return
                self._ready.put(model.draw_normals(rngs[blocks[b]], n, buffers[b % 2]))
        except BaseException as exc:  # noqa: BLE001 - handed to the caller by take
            self._ready.put(exc)

    def take(self) -> np.ndarray:
        normals = self._ready.get()
        if isinstance(normals, BaseException):
            raise normals
        return normals

    def release(self) -> None:
        self._free.release()

    def close(self) -> None:
        self._stop = True
        self._free.release()
        self._thread.join()


class _PathObjective:
    """Simulation shared by the objectives: ``n_paths`` paths per slot.

    ``objective(thetas, rngs)`` scores a chunk of k slots, parameter rows
    (k, d) and one simulation stream each, as a (k, L) array. The slots
    are simulated in blocks of up to ``PATHS_PER_BLOCK`` paths, one
    ``simulate_paths`` call each, and each block is scored in one pass
    that gives every slot the bits a chunk of that slot alone gives it.

    With ``draw_ahead`` set, which ``run_abc_smc`` does when the process
    may use two CPUs per worker, a helper thread that lives for one call draws block
    b + 1's normals while the calling thread steps and scores block b;
    every slot still reads its own stream, so the scores keep their bits.

    Each copy of the objective simulates in one block-sized workspace of its
    own, made on first use and reused from block to block; a short last
    block uses its start. Drawing ahead adds one block-sized normals buffer.
    Scratch buffers are left out of pickles. A pool worker unpickles a
    run's objective once, so it keeps one workspace for the whole run.
    """

    def __init__(self, model, observed: Dataset, sim_replicates: int):
        if sim_replicates < 1:
            raise ValueError("sim_replicates must be positive")
        self.model = model
        self.n_paths = self.calls_per_evaluation = len(observed) * sim_replicates
        self.slots_per_block = max(1, PATHS_PER_BLOCK // self.n_paths)
        self.draw_ahead = False
        self._workspace = self._ahead = None

    def __call__(self, thetas, rngs) -> np.ndarray:
        if self._workspace is None:
            self._workspace = self.model.workspace(self.slots_per_block * self.n_paths)
        n, block = self.n_paths, self.slots_per_block
        blocks = [slice(start, start + block) for start in range(0, len(thetas), block)]
        helper = None
        if self.draw_ahead and len(blocks) > 1:
            if self._ahead is None:
                self._ahead = np.empty_like(self._workspace[0])
            helper = _DrawAhead(self.model, rngs, blocks, n, (self._workspace[0], self._ahead))
        scores = []
        try:
            for b, rows in enumerate(blocks):
                normals = helper.take() if helper and b else None
                states = self.model.simulate_paths(
                    thetas[rows], n, rngs[rows], self._workspace, normals
                )
                if helper:
                    helper.release()
                scores.append(self._score(states))
        finally:
            if helper:
                helper.close()
        return np.concatenate(scores)

    def __getstate__(self):
        return dict(self.__dict__, _workspace=None, _ahead=None)


class AuxiliaryObjective(_PathObjective):
    """Information-weighted distance between fitted summaries."""

    def __init__(self, model, observed: Dataset, sim_replicates: int):
        super().__init__(model, observed, sim_replicates)
        self.observed_summary = summarize(observed)
        self.weight = information_weight(self.observed_summary, len(observed))

    def _score(self, states) -> np.ndarray:
        """(k, 1) distances of a block's k slots: one summary fit and one distance call."""
        paths = states[:, :, 0].reshape(-1, self.n_paths, states.shape[1])
        summaries = kernels.aux_summary_1d(paths)
        return auxiliary_distance(self.observed_summary, summaries, self.weight)[:, None]


class NaiveObjective(_PathObjective):
    """Energy distances between the observed and each batch of simulated paths."""

    def __init__(self, model, observed: Dataset, sim_replicates: int):
        super().__init__(model, observed, sim_replicates)
        self.observed = observed
        self.observed_terms = observed_energy_terms(observed)
        self._copy = None

    def _score(self, states) -> np.ndarray:
        """(k, L) distances of a block's k slots from one ``naive_distance`` call.

        naive_distance's results depend on the memory layout of its input,
        so the block is copied into a C-contiguous (paths, H + 1, 2) buffer,
        kept from block to block: each slot's rows are then laid out as a
        fresh array of that slot alone, and the block's k * L batches are
        the slots' own, in order.
        """
        if self._copy is None:
            self._copy = np.empty((self.slots_per_block * self.n_paths,) + states.shape[1:])
        copy = self._copy[: len(states)]
        np.copyto(copy, states)
        simulated = Dataset(states=copy[:, :, :1], dt=self.model.dt)
        distances = naive_distance(self.observed, simulated, self.observed_terms)
        return distances.reshape(len(states) // self.n_paths, -1)

    def __getstate__(self):
        return dict(super().__getstate__(), _copy=None)


#: Distance objectives by method name, in the order a study runs them.
OBJECTIVES = {"auxiliary": AuxiliaryObjective, "naive": NaiveObjective}


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
    pool: ProcessPoolExecutor | None = None,
) -> PosteriorApproximation:
    """Infer the posterior for one observed dataset with one method.

    ``pool`` is passed on to ``run_abc_smc``.
    """
    if method not in OBJECTIVES:
        expected = " or ".join(map(repr, OBJECTIVES))
        raise ValueError(f"unknown method {method!r}; expected {expected}")
    objective = OBJECTIVES[method](model, observed, sim_replicates)
    return run_abc_smc(
        prior, objective, settings, seed, workers=workers, progress=progress, pool=pool
    )
