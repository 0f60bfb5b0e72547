import math
import pickle
import threading

import numpy as np
import pytest

from helpers import (
    AbsoluteObjective,
    RaggedReplicateObjective,
    ScaledReplicateObjective,
    ToyNormalObjective,
)
from hybridabc import rng as rng_mod
from hybridabc import smc as smc_mod
from hybridabc.config import build_config
from hybridabc.distance import auxiliary_distance, naive_distance, observed_energy_terms
from hybridabc.lgdbn import summarize
from hybridabc.model import Dataset, ErythroblastModel, Prior, SimulationError, generate_dataset
from hybridabc.smc import (
    OBJECTIVES,
    AuxiliaryObjective,
    NaiveObjective,
    PerturbationKernel,
    Population,
    PosteriorApproximation,
    SmcSettings,
    _evaluate_chunk,
    adapt_kernel,
    compute_weight,
    perturb,
    replicate_fractions,
    run_abc_smc,
    run_inference,
)

TOY_PRIOR = Prior(names=("mean",), lows=np.array([-5.0]), highs=np.array([5.0]))
TOY = ToyNormalObjective(obs_mean=1.2, obs_std=1.0)
PRIOR = build_config().prior


def _norm_pdf(x, mean, var):
    return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def test_settings_validation():
    good = SmcSettings(n_particles=10, alpha=0.5, p_acc_min=0.1)
    assert good.max_generations == 200
    with pytest.raises(ValueError):
        SmcSettings(n_particles=1, alpha=0.5, p_acc_min=0.1)
    with pytest.raises(ValueError):
        SmcSettings(n_particles=10, alpha=0.0, p_acc_min=0.1)
    with pytest.raises(ValueError):
        SmcSettings(n_particles=10, alpha=1.0, p_acc_min=0.1)
    with pytest.raises(ValueError):
        SmcSettings(n_particles=10, alpha=0.5, p_acc_min=0.0)
    with pytest.raises(ValueError):
        SmcSettings(n_particles=10, alpha=0.5, p_acc_min=1.1)
    with pytest.raises(ValueError):
        SmcSettings(n_particles=10, alpha=0.5, p_acc_min=0.1, max_generations=0)
    with pytest.raises(ValueError):
        SmcSettings(n_particles=3, alpha=0.1, p_acc_min=0.1)  # retains nothing
    assert SmcSettings(n_particles=10, alpha=0.5, p_acc_min=1.0).p_acc_min == 1.0


def _posterior(weights) -> PosteriorApproximation:
    """A one-parameter posterior whose particle i sits at theta = i."""
    n = len(weights)
    return PosteriorApproximation(
        thetas=np.arange(n, dtype=float)[:, None],
        weights=np.asarray(weights, dtype=float),
        distances=np.zeros(n),
        tolerances=np.array([1.0]),
        history=[],
        n_evaluations=n,
        simulator_calls=n,
        generations=1,
        stopped_by="acceptance-rate",
        wall_time_s=0.0,
    )


def test_resampling_matches_weight_proportions():
    weights = np.array([1.0, 2.0, 3.0])
    idx = _posterior(weights).sample_indices(np.random.default_rng(1), 30000)
    freqs = np.bincount(idx, minlength=3) / 30000
    np.testing.assert_allclose(freqs, weights / 6.0, atol=0.02)
    # Inverse-CDF draws: one uniform per index, against the running weight sum.
    u = np.random.default_rng(1).random(30000)
    np.testing.assert_array_equal(idx, np.searchsorted(np.cumsum(weights), u * 6.0, side="right"))
    one = _posterior([0.0, 1.0, 0.0]).sample_indices(np.random.default_rng(2), 1)
    assert one.tolist() == [1]


def test_population_validation():
    theta = np.zeros((2, 1))
    ones = np.ones(2)
    zeros = np.zeros((2, 1))
    with pytest.raises(ValueError):
        Population(theta, np.array([1.0, -1.0]), zeros, 0.0, 1)
    with pytest.raises(ValueError):
        Population(theta, np.zeros(2), zeros, 0.0, 1)
    with pytest.raises(ValueError):
        Population(theta, ones, np.array([[0.0], [1.0]]), 0.5, 1)
    with pytest.raises(ValueError):
        Population(theta, np.ones(3), zeros, 0.0, 1)
    with pytest.raises(ValueError, match="replicate rows"):
        Population(theta, ones, np.zeros((3, 1)), 0.0, 1)
    with pytest.raises(ValueError, match="replicate rows"):
        Population(theta, ones, np.zeros(2), 0.0, 1)


def test_population_distances_are_the_smallest_replicates():
    replicates = np.array([[0.3, 0.1, 0.9], [0.5, 0.6, 0.4]])
    pop = Population(np.zeros((2, 1)), np.ones(2), replicates, 0.5, 1)
    np.testing.assert_array_equal(pop.distances, [0.1, 0.4])


def test_population_ess_is_the_kish_effective_sample_size():
    def ess(weights):
        zeros = np.zeros((len(weights), 1))
        return Population(zeros, np.array(weights), zeros, 0.0, 1).ess

    assert ess(np.full(7, 0.3)) == pytest.approx(7.0, rel=1e-15)
    assert ess(np.ones(5)) == 5.0
    assert ess([0.0, 0.0, 3.0, 0.0]) == 1.0
    assert ess([1.0, 3.0]) == pytest.approx(16.0 / 10.0, rel=1e-15)


def test_adapt_kernel_doubles_weighted_covariance():
    pop = Population(
        thetas=np.array([[-1.0], [1.0]]),
        weights=np.ones(2),
        replicates=np.zeros((2, 1)),
        tolerance=0.0,
        generation=1,
    )
    kernel = adapt_kernel(pop)
    assert kernel.covariance[0, 0] == pytest.approx(2.0, rel=1e-6)


def test_perturbation_kernel_density_closed_form():
    kernel = PerturbationKernel(covariance=np.array([[4.0]]))
    got = kernel.densities(np.array([[2.0]]), np.array([[0.0]]))
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(_norm_pdf(2.0, 0.0, 4.0), rel=1e-12)
    # Mixture over two centers, by hand.
    both = kernel.densities(np.array([[1.0]]), np.array([[0.0], [3.0]]))
    assert both.shape == (1, 2)
    assert both[0, 0] == pytest.approx(_norm_pdf(1.0, 0.0, 4.0), rel=1e-12)
    assert both[0, 1] == pytest.approx(_norm_pdf(1.0, 3.0, 4.0), rel=1e-12)


def test_perturbation_kernel_degenerate():
    kernel = PerturbationKernel(covariance=np.array([[0.0]]))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    moves = kernel.sample([rng], 8)
    assert moves.shape == (1, 8, 1) and not moves.any()
    assert rng.bit_generator.state == state  # a singular kernel draws nothing
    dens = kernel.densities(np.array([[0.5]]), np.array([[0.5], [0.7]]))
    assert dens.shape == (1, 2)
    assert dens[0, 0] == np.inf
    assert dens[0, 1] == 0.0


def test_perturbation_kernel_validation():
    with pytest.raises(ValueError):
        PerturbationKernel(covariance=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PerturbationKernel(covariance=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        PerturbationKernel(covariance=np.array([[-1.0]]))


def test_perturbation_kernel_needs_eigenvalues_only_when_cholesky_fails(monkeypatch):
    def refused(a):
        raise AssertionError("eigvalsh called on a positive definite covariance")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    kernel = PerturbationKernel(covariance=np.array([[4.0, 1.0], [1.0, 9.0]]))
    assert kernel._chol is not None
    thetas = np.random.default_rng(2).uniform(PRIOR.lows, PRIOR.highs, size=(30, PRIOR.dim))
    pop = Population(thetas, np.linspace(1.0, 2.0, 30), np.zeros((30, 1)), 0.0, 1)
    assert adapt_kernel(pop)._chol is not None
    monkeypatch.undo()
    with pytest.raises(ValueError, match="positive semidefinite"):
        PerturbationKernel(covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert PerturbationKernel(covariance=np.array([[0.0]]))._chol is None


def test_perturb_respects_prior_support():
    prior = Prior(names=("p",), lows=np.array([0.0]), highs=np.array([1.0]))
    kernel = PerturbationKernel(covariance=np.array([[100.0]]))
    rngs = [np.random.default_rng(i) for i in range(20)]
    moved, rejections = perturb(np.full((20, 1), 0.5), kernel, prior, rngs)
    assert moved.shape == (20, 1)
    assert ((moved >= prior.lows) & (moved <= prior.highs)).all()
    assert rejections > 0


class _FixedMovesKernel:
    """Kernel stub whose one block of draws is given: (k, block, d)."""

    def __init__(self, moves):
        self.moves = moves

    def sample(self, rngs, block):
        assert len(rngs) == len(self.moves) and block == self.moves.shape[1]
        return self.moves


def test_perturb_keeps_moves_on_the_bounds_and_redraws_one_ulp_outside():
    # Bounds are inclusive: a move landing exactly on a low or a high bound
    # is kept, one ulp outside either is redrawn, as Prior.contains says.
    prior = Prior(names=("a", "b"), lows=np.ones(2), highs=np.full(2, 2.0))
    up, down = np.nextafter(2.0, 3.0), np.nextafter(1.0, 0.0)
    stars = np.full((4, 2), 1.5)
    targets = np.full((4, smc_mod._PERTURB_BLOCK, 2), 1.5)
    targets[0, :2] = [[up, 1.5], [2.0, 1.5]]
    targets[1, :3] = [[down, 1.5], [1.5, up], [1.0, 1.0]]
    targets[2, :1] = [[2.0, 2.0]]
    targets[3, :2] = [[1.5, down], [1.0, 2.0]]
    moves = targets - stars[:, None, :]
    np.testing.assert_array_equal(stars[:, None, :] + moves, targets)  # exact arithmetic
    kept = [1, 2, 0, 1]
    inside = prior.contains(targets)
    assert inside.argmax(axis=1).tolist() == kept
    moved, rejections = perturb(stars, _FixedMovesKernel(moves), prior, [None] * 4)
    np.testing.assert_array_equal(moved, targets[np.arange(4), kept])
    assert rejections == sum(kept)


def test_perturb_exhaustion_raises():
    prior = Prior(names=("p",), lows=np.array([0.0]), highs=np.array([1.0]))
    kernel = PerturbationKernel(covariance=np.array([[0.0]]))
    with pytest.raises(RuntimeError, match=r"particle \[5\.\] .* after 1000 tries"):
        perturb(np.array([[0.5], [5.0]]), kernel, prior, [np.random.default_rng(0)] * 2)


def _sequential_proposals(population, kernel, prior, rngs):
    """Refills drawn one slot and one kernel move at a time, and each slot's prior rejections."""
    cum = np.cumsum(population.weights)
    thetas, rejections = [], []
    for rng in rngs:
        u = rng.random(1) * cum[-1]
        star = population.thetas[min(np.searchsorted(cum, u, side="right")[0], cum.size - 1)]
        for tries in range(smc_mod._MAX_PERTURB_TRIES):
            if kernel._chol is None:
                candidate = star + np.zeros(kernel.dim)
            else:
                candidate = star + kernel._chol @ rng.standard_normal(kernel.dim)
            if ((candidate >= prior.lows) & (candidate <= prior.highs)).all():
                thetas.append(candidate)
                rejections.append(tries)
                break
        else:
            raise RuntimeError(f"slot exhausted after {smc_mod._MAX_PERTURB_TRIES} draws")
    return np.array(thetas), np.array(rejections)


def _streams(n, seed=7, generation=4):
    return [rng_mod.substream(seed, rng_mod.STREAM_PROPOSAL, generation, s) for s in range(n)]


def _check_batched_proposals(population, kernel, prior, n):
    got, rejections = smc_mod._propose(population, kernel, prior, _streams(n))
    want, per_slot = _sequential_proposals(population, kernel, prior, _streams(n))
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert rejections == per_slot.sum()
    return per_slot


def test_batched_proposals_match_one_slot_and_one_move_at_a_time():
    rng = np.random.default_rng(3)
    middle = (PRIOR.lows + PRIOR.highs) / 2.0
    width = PRIOR.highs - PRIOR.lows
    centers = rng.uniform(middle - width / 3.0, middle + width / 3.0, (40, 6))
    pop = Population(centers, rng.uniform(0.0, 2.0, 40), np.zeros((40, 1)), 0.0, 3)
    per_slot = _check_batched_proposals(pop, adapt_kernel(pop), PRIOR, 60)
    assert per_slot.any()
    # A kernel far wider than the box rejects most moves, so many slots
    # need more than one block of draws.
    prior = Prior(names=("a", "b"), lows=np.zeros(2), highs=np.ones(2))
    pop = Population(rng.uniform(0.0, 1.0, (9, 2)), np.ones(9), np.zeros((9, 1)), 0.0, 2)
    wide = PerturbationKernel(covariance=np.array([[4.0, 1.0], [1.0, 9.0]]))
    per_slot = _check_batched_proposals(pop, wide, prior, 40)
    assert (per_slot >= smc_mod._PERTURB_BLOCK).sum() >= 10


def test_batched_proposals_with_a_singular_kernel():
    prior = Prior(names=("a", "b"), lows=np.zeros(2), highs=np.ones(2))
    centers = np.array([[0.2, 0.5], [0.4, 0.5], [0.6, 0.5]])
    pop = Population(centers, np.array([1.0, 2.0, 1.0]), np.zeros((3, 1)), 0.0, 2)
    kernel = PerturbationKernel(covariance=np.array([[0.01, 0.0], [0.0, 0.0]]))
    assert kernel._chol is None
    assert not _check_batched_proposals(pop, kernel, prior, 25).any()


class _ScriptedKernel:
    """Kernel stub: every row's ``hit``-th draw stays put, every other draw leaves the box."""

    def __init__(self, hit):
        self.hit = hit
        self.drawn = 0

    def sample(self, rngs, block):
        draws = np.arange(self.drawn + 1, self.drawn + block + 1)
        self.drawn += block
        moves = np.where(draws == self.hit, 0.0, 10.0)[:, None]
        return np.broadcast_to(moves, (len(rngs), block, 1))


def test_perturb_gives_up_after_exactly_the_maximum_number_of_draws():
    prior = Prior(names=("p",), lows=np.array([0.0]), highs=np.array([1.0]))
    star = np.array([[0.5]])
    last = smc_mod._MAX_PERTURB_TRIES
    moved, rejections = perturb(star, _ScriptedKernel(last), prior, [None])
    assert moved[0, 0] == 0.5 and rejections == last - 1
    kernel = _ScriptedKernel(last + 1)
    with pytest.raises(RuntimeError, match=r"particle \[0\.5\] .* after 1000 tries"):
        perturb(star, kernel, prior, [None])
    assert kernel.drawn == last
    # A real stream has read exactly 1,000 draws of d normals when it gives up.
    rng = np.random.default_rng(5)
    spike = PerturbationKernel(covariance=np.array([[1e-6, 0.0], [0.0, 1e-6]]))
    box = Prior(names=("a", "b"), lows=np.zeros(2), highs=np.ones(2))
    with pytest.raises(RuntimeError):
        perturb(np.array([[5.0, 5.0]]), spike, box, [rng])
    reference = np.random.default_rng(5)
    reference.standard_normal((last, 2))
    assert rng.bit_generator.state == reference.bit_generator.state


def test_compute_weight_hand_case():
    prior = Prior(names=("p",), lows=np.array([0.0]), highs=np.array([1.0]))
    pop = Population(
        thetas=np.array([[0.2], [0.4]]),
        weights=np.array([1.0, 3.0]),
        replicates=np.zeros((2, 1)),
        tolerance=0.0,
        generation=1,
    )
    kernel = PerturbationKernel(covariance=np.array([[0.01]]))
    thetas = np.array([[0.3], [2.0]])
    mixture = 0.25 * _norm_pdf(0.3, 0.2, 0.01) + 0.75 * _norm_pdf(0.3, 0.4, 0.01)
    got = compute_weight(thetas, pop, kernel, prior)
    assert got.shape == (2,)
    assert got[0] == pytest.approx(1.0 / mixture, rel=1e-12)
    assert got[1] == 0.0  # outside the prior


def test_compute_weight_degenerate_and_underflow():
    prior = Prior(names=("p",), lows=np.array([0.0]), highs=np.array([1.0]))
    pop = Population(
        thetas=np.array([[0.2]]),
        weights=np.ones(1),
        replicates=np.zeros((1, 1)),
        tolerance=0.0,
        generation=1,
    )
    spike = PerturbationKernel(covariance=np.array([[0.0]]))
    assert compute_weight(np.array([[0.2]]), pop, spike, prior)[0] == 0.0
    narrow = PerturbationKernel(covariance=np.array([[1e-30]]))
    with pytest.raises(RuntimeError):
        compute_weight(np.array([[0.9]]), pop, narrow, prior)


def _one_weight(theta, previous, kernel, prior):
    """The importance weight of one refill, computed on its own."""
    numerator = prior.density(theta[None])[0]
    if numerator == 0.0:
        return 0.0
    diff = previous.thetas - theta
    if kernel._chol is None:
        densities = np.where((diff == 0).all(axis=1), np.inf, 0.0)
    else:
        y = np.linalg.solve(kernel._chol, diff.T)
        densities = np.exp(kernel._log_norm - 0.5 * (y * y).sum(axis=0))
    mixture = previous.normalized_weights() @ densities
    if np.isinf(mixture):
        return 0.0
    if mixture <= 0.0:
        raise RuntimeError("underflow")
    return float(numerator / mixture)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("n_refills", [2, smc_mod._WEIGHT_BLOCK, 3 * smc_mod._WEIGHT_BLOCK + 5])
def test_blocked_compute_weight_matches_one_particle_at_a_time(n_refills):
    rng = np.random.default_rng(n_refills)
    middle = (PRIOR.lows + PRIOR.highs) / 2.0
    width = PRIOR.highs - PRIOR.lows
    centers = rng.uniform(middle - width / 4.0, middle + width / 4.0, (37, 6))
    pop = Population(centers, rng.uniform(0.0, 2.0, 37), np.zeros((37, 1)), 0.0, 3)
    kernel = adapt_kernel(pop)
    moves = rng.normal(0.0, 0.05, (n_refills, 6)) * width
    thetas = centers[rng.integers(0, 37, n_refills)] + moves
    thetas[::4] = PRIOR.highs + 1.0  # outside the prior: zero numerator
    got = compute_weight(thetas, pop, kernel, PRIOR)
    want = [_one_weight(t, pop, kernel, PRIOR) for t in thetas]
    np.testing.assert_array_equal(_bits(got), _bits(want))
    assert (got > 0.0).any() and (got == 0.0).any()


def test_blocked_compute_weight_with_a_singular_kernel():
    prior = Prior(names=("a", "b"), lows=np.zeros(2), highs=np.ones(2))
    centers = np.array([[0.2, 0.5], [0.4, 0.5], [0.6, 0.5]])
    pop = Population(centers, np.array([1.0, 2.0, 1.0]), np.zeros((3, 1)), 0.0, 2)
    kernel = PerturbationKernel(covariance=np.array([[0.01, 0.0], [0.0, 0.0]]))
    assert kernel._chol is None
    # On a center the mixture density is infinite and the weight 0.
    thetas = np.repeat(centers, 7, axis=0)
    got = compute_weight(thetas, pop, kernel, prior)
    want = [_one_weight(t, pop, kernel, prior) for t in thetas]
    np.testing.assert_array_equal(_bits(got), _bits(want))
    assert not got.any()
    # Off every center it is 0 and both forms raise.
    off = np.vstack([thetas, [[0.3, 0.5]]])
    with pytest.raises(RuntimeError):
        _one_weight(off[-1], pop, kernel, prior)
    with pytest.raises(RuntimeError, match="underflowed"):
        compute_weight(off, pop, kernel, prior)


def _toy_settings(**overrides):
    base = dict(n_particles=120, alpha=0.5, p_acc_min=0.2, max_generations=30)
    base.update(overrides)
    return SmcSettings(**base)


def test_engine_stops_immediately_at_unit_threshold():
    posterior = run_abc_smc(TOY_PRIOR, TOY, _toy_settings(p_acc_min=1.0), seed=5)
    assert posterior.generations == 1
    assert posterior.stopped_by == "acceptance-rate"
    assert posterior.n_evaluations == 120
    assert posterior.tolerances.shape == (1,)
    assert len(posterior.history) == 1
    assert len(posterior) >= 60  # floor(alpha * N)
    np.testing.assert_allclose(posterior.weights, 1.0 / len(posterior))


def test_engine_keeps_floor_alpha_n_when_alpha_n_is_not_whole():
    # 0.5 * 25 = 12.5: every generation keeps 12 and refills 13, so the
    # pool stays at N.
    settings = _toy_settings(n_particles=25, p_acc_min=0.05, max_generations=6)
    assert settings.n_keep == 12
    posterior = run_abc_smc(TOY_PRIOR, TOY, settings, seed=6)
    assert len(posterior.history) > 1
    for record in posterior.history:
        assert record.n_retained == 12
        assert record.n_evaluations == 25 + (record.generation - 1) * 13


def test_engine_keeps_n_keep_particles_when_distances_tie():
    # Whole-number distances tie with the tolerance; the ties are broken by
    # pool order, so the pool stays at N.
    prior = Prior(names=("mean",), lows=np.array([-3.0]), highs=np.array([3.0]))

    def objective(theta, rng):
        return math.floor(abs(theta[0]) + rng.random())

    settings = SmcSettings(n_particles=20, alpha=0.5, p_acc_min=0.05, max_generations=6)
    posterior = run_abc_smc(prior, objective, settings, seed=1)
    assert len(posterior.history) > 1
    for record in posterior.history:
        assert record.n_retained == 10
        assert record.n_evaluations == 20 + (record.generation - 1) * 10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_engine_refuses_non_finite_distances(bad):
    def objective(theta, rng):
        return bad if theta[0] > 0.0 else abs(float(theta[0]))

    with pytest.raises(ValueError, match="distances must be finite"):
        run_abc_smc(TOY_PRIOR, objective, _toy_settings(n_particles=20), seed=3)


def test_engine_weighs_only_the_kept_refills(monkeypatch):
    populations, weighed = [], []

    class RecordedPopulation(Population):
        def __post_init__(self):
            super().__post_init__()
            populations.append(self)

    def recorded_weight(thetas, previous, kernel, prior):
        weights = compute_weight(thetas, previous, kernel, prior)
        weighed.append((previous, thetas.copy(), weights))
        return weights

    monkeypatch.setattr(smc_mod, "Population", RecordedPopulation)
    monkeypatch.setattr(smc_mod, "compute_weight", recorded_weight)
    posterior = run_abc_smc(TOY_PRIOR, TOY, _toy_settings(), seed=6)
    assert len(populations) == posterior.generations == len(weighed) + 1
    # Generation 1 weighs nothing and keeps unit weights.
    np.testing.assert_array_equal(populations[0].weights, 1.0)
    for (previous, thetas, weights), before, after in zip(weighed, populations, populations[1:]):
        assert previous is before
        # Kept rows in pool order: survivors of the previous generation,
        # then the kept refills, which are exactly the rows weighed.
        old_rows = {row.tobytes() for row in before.thetas}
        survived = np.array([row.tobytes() in old_rows for row in after.thetas])
        n_old = int(survived.sum())
        assert survived[:n_old].all()
        np.testing.assert_array_equal(_bits(thetas), _bits(after.thetas[n_old:]))
        np.testing.assert_array_equal(_bits(weights), _bits(after.weights[n_old:]))
    # Refills accepted within the previous tolerance but not kept are not weighed.
    refills = posterior.history[0].n_retained  # alpha = 1/2: as many refills as kept
    accepted = [round(r.p_acc * refills) for r in posterior.history[1:]]
    assert all(len(t) <= a for (_, t, _), a in zip(weighed, accepted))
    assert sum(len(t) for _, t, _ in weighed) < sum(accepted)


def test_engine_histories_and_counters():
    records = []
    posterior = run_abc_smc(
        TOY_PRIOR, TOY, _toy_settings(), seed=6, progress=records.append
    )
    assert posterior.generations == len(posterior.tolerances) == len(records)
    assert posterior.history == records
    np.testing.assert_array_equal(posterior.tolerances, [r.tolerance for r in records])
    acceptance_rates = np.array([r.p_acc for r in posterior.history[1:]])
    # Evaluation counter follows N + k * (N - floor(alpha N)) exactly.
    for k, record in enumerate(records):
        assert record.generation == k + 1
        assert record.n_evaluations == 120 + k * 60
        assert record.simulator_calls == record.n_evaluations
    # Generation 1 draws from the prior; later ones count moves that left it.
    assert records[0].prior_rejections == 0
    # Generation 1 keeps equal weights: its ESS is the retained count, and
    # its prior draws are all distinct.
    assert records[0].ess == records[0].n_retained
    assert records[0].n_distinct == records[0].n_retained
    assert all(1 <= r.n_distinct <= r.n_retained for r in records)
    assert all(0.0 < r.ess <= r.n_retained for r in records)
    assert all(type(r.prior_rejections) is int and r.prior_rejections >= 0 for r in records)
    assert posterior.n_evaluations == records[-1].n_evaluations
    # Tolerances tighten monotonically at alpha = 1/2.
    assert (np.diff(posterior.tolerances) <= 0).all()
    assert (posterior.distances <= posterior.tolerances[-1]).all()
    assert posterior.weights.sum() == pytest.approx(1.0, rel=1e-12)
    # The loop runs exactly while the acceptance rate stays above the floor.
    assert (acceptance_rates[:-1] > 0.2).all()
    assert acceptance_rates[-1] <= 0.2
    assert posterior.stopped_by == "acceptance-rate"
    # The toy posterior concentrates near the observed mean.
    assert posterior.weighted_mean()[0] == pytest.approx(1.2, abs=0.4)


def test_generation_records_report_the_kernel_trace_and_fresh_distance_quantiles(monkeypatch):
    kernels, fresh = [], []

    def recorded_kernel(population):
        kernels.append(adapt_kernel(population))
        return kernels[-1]

    def recorded_evaluate(*args):
        fresh.append(evaluate(*args).min(axis=1))
        return fresh[-1][:, None]

    evaluate = smc_mod._evaluate
    monkeypatch.setattr(smc_mod, "adapt_kernel", recorded_kernel)
    monkeypatch.setattr(smc_mod, "_evaluate", recorded_evaluate)
    records = run_abc_smc(TOY_PRIOR, TOY, _toy_settings(), seed=6).history
    assert len(records) == len(fresh) == len(kernels) + 1
    assert records[0].kernel_trace == 0.0
    for record, kernel in zip(records[1:], kernels):
        assert record.kernel_trace == np.trace(kernel.covariance) > 0.0
    for record, distances in zip(records, fresh):
        assert len(distances) == (120 if record.generation == 1 else 60)
        p50, p90 = np.quantile(distances, [0.5, 0.9])
        assert record.distance_p50 == pytest.approx(p50, rel=1e-15)
        assert record.distance_p90 == pytest.approx(p90, rel=1e-15)
        assert record.distance_p50 <= record.distance_p90


@pytest.mark.parametrize("workers", [1, 2])
def test_generation_records_time_each_phase_within_the_generation(workers):
    posterior = run_abc_smc(TOY_PRIOR, TOY, _toy_settings(), seed=6, workers=workers)
    previous = 0.0
    for record in posterior.history:
        phases = (record.propose_s, record.evaluate_s, record.weight_s)
        assert all(phase >= 0.0 for phase in phases)
        assert sum(phases) <= record.elapsed_s - previous
        previous = record.elapsed_s


def test_engine_respects_generation_cap():
    posterior = run_abc_smc(
        TOY_PRIOR, TOY, _toy_settings(p_acc_min=0.01, max_generations=3), seed=7
    )
    assert posterior.generations == 3
    assert posterior.stopped_by == "max-generations"


def test_engine_is_a_pure_function_of_the_seed():
    a = run_abc_smc(TOY_PRIOR, TOY, _toy_settings(), seed=11)
    b = run_abc_smc(TOY_PRIOR, TOY, _toy_settings(), seed=11)
    c = run_abc_smc(TOY_PRIOR, TOY, _toy_settings(), seed=12)
    np.testing.assert_array_equal(a.thetas, b.thetas)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.tolerances, b.tolerances)
    assert not np.array_equal(a.thetas, c.thetas)


def test_engine_results_do_not_depend_on_worker_count():
    serial = run_abc_smc(TOY_PRIOR, TOY, _toy_settings(), seed=13, workers=1)
    pooled = run_abc_smc(TOY_PRIOR, TOY, _toy_settings(), seed=13, workers=3)
    np.testing.assert_array_equal(serial.thetas, pooled.thetas)
    np.testing.assert_array_equal(serial.weights, pooled.weights)
    np.testing.assert_array_equal(serial.distances, pooled.distances)
    np.testing.assert_array_equal(serial.tolerances, pooled.tolerances)


def test_posterior_summaries():
    weights = np.array([0.25, 0.5, 0.25])
    posterior = _posterior(weights)
    assert posterior.weighted_mean()[0] == pytest.approx(1.0)
    assert posterior.weighted_std()[0] == pytest.approx(math.sqrt(0.5))
    assert posterior.weight_within(0, 1.0, 0.5) == pytest.approx(0.5)
    assert posterior.weight_within(0, 1.0, 1.0) == pytest.approx(1.0)
    idx = posterior.sample_indices(np.random.default_rng(0), 4000)
    freqs = np.bincount(idx, minlength=3) / 4000
    np.testing.assert_allclose(freqs, weights, atol=0.04)


def test_objectives_build_themselves_and_count_paths():
    model = ErythroblastModel()
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    observed = generate_dataset(theta, (3.0, 0.0), 3, 1, 10, 3.0, rng=1)
    aux = AuxiliaryObjective(model, observed, sim_replicates=4)
    naive = NaiveObjective(model, observed, sim_replicates=4)
    assert aux.n_paths == naive.n_paths == 12
    assert aux.calls_per_evaluation == naive.calls_per_evaluation == 12
    # H = 10 transitions of one state: a (32,) summary, and a weight with
    # one row per component a fixed start leaves free (all but mu_0, psi_0
    # and v_0).
    assert aux.observed_summary.shape == (32,)
    assert aux.weight.shape == (29, 32)
    settings = SmcSettings(n_particles=4, alpha=0.5, p_acc_min=0.5)
    with pytest.raises(ValueError, match="unknown method 'other'; expected 'auxiliary' or 'naive'"):
        run_inference(model, PRIOR, observed, "other", settings, sim_replicates=4, seed=0)
    for objective in OBJECTIVES.values():
        with pytest.raises(ValueError, match="sim_replicates must be positive"):
            objective(model, observed, sim_replicates=0)


def test_objectives_are_deterministic_given_the_stream():
    model = ErythroblastModel()
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    observed = generate_dataset(theta, (3.0, 0.0), 3, 1, 10, 3.0, rng=2)
    for method, build in OBJECTIVES.items():
        objective = build(model, observed, sim_replicates=2)
        d1 = objective(theta[None], [rng_mod.substream(9, 0)])
        d2 = objective(theta[None], [rng_mod.substream(9, 0)])
        d3 = objective(theta[None], [rng_mod.substream(9, 1)])
        np.testing.assert_array_equal(d1, d2)
        assert not np.array_equal(d1, d3)
        assert d1.shape == ((1, 2) if method == "naive" else (1, 1))
        assert np.all(d1 >= 0.0) and np.isfinite(d1).all()


def _one_slot_scores(objective, observed, thetas, rngs):
    """Each slot scored on its own fresh C-contiguous simulation, (k, L)."""
    model = objective.model
    terms = observed_energy_terms(observed)
    scores = []
    for theta, rng in zip(thetas, rngs):
        states = model.simulate_paths(theta, objective.n_paths, rng)
        simulated = Dataset(states=states[:, :, :1], dt=model.dt)
        if isinstance(objective, NaiveObjective):
            scores.append(naive_distance(observed, simulated, terms))
        else:
            eta = summarize(simulated)[None]
            scores.append(auxiliary_distance(objective.observed_summary, eta, objective.weight))
    return np.array(scores)


@pytest.mark.parametrize("method", ["auxiliary", "naive"])
def test_one_chunk_matches_one_slot_chunks(method):
    # One objective simulates a chunk of 7 particles in one block-sized
    # workspace; each particle still scores what its own fresh C-contiguous
    # simulation does. With 20 observed paths naive_distance reads a
    # strided view of the workspace differently from a contiguous copy.
    model = ErythroblastModel()
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    observed = generate_dataset(theta, (3.0, 0.0), 20, 1, 10, 3.0, rng=5)
    objective = OBJECTIVES[method](model, observed, sim_replicates=5)
    thetas = np.random.default_rng(6).uniform(PRIOR.lows, PRIOR.highs, (7, 6))
    slots = np.arange(10, 17)
    chunk = _evaluate_chunk(objective, 3, 2, slots, thetas)
    rngs = [rng_mod.substream(3, rng_mod.STREAM_SIMULATION, 2, slot) for slot in slots]
    assert chunk.shape == ((7, 5) if method == "naive" else (7, 1))
    np.testing.assert_array_equal(chunk, _one_slot_scores(objective, observed, thetas, rngs))
    # One workspace holds a whole block of 12 slots of 100 paths, and it
    # stays behind when the objective goes to a pool worker.
    assert objective.slots_per_block == smc_mod.PATHS_PER_BLOCK // 100 == 12
    assert [buffer.size for buffer in objective._workspace] == [24000, 24000, 26400]
    assert pickle.loads(pickle.dumps(objective))._workspace is None
    if method == "naive":
        # The naive route's C-contiguous copy of a block stays behind too.
        assert objective._copy.shape == (1200, 11, 2) and objective._copy.flags.c_contiguous
        assert pickle.loads(pickle.dumps(objective))._copy is None


@pytest.mark.parametrize("method", ["auxiliary", "naive"])
@pytest.mark.parametrize(("replicates", "slots", "blocks"), [(3, 25, [20, 5]), (30, 3, [2, 1])])
def test_chunks_across_block_boundaries_match_one_slot_scoring(
    method, replicates, slots, blocks, monkeypatch
):
    # 20 observed paths times 3 or 30 replicates: 60-path slots go 20 to a
    # 1,200-path block and 600-path slots go 2, so these chunks end in a
    # short block on the workspace's start.
    model = ErythroblastModel()
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    observed = generate_dataset(theta, (3.0, 0.0), 20, 1, 10, 3.0, rng=5)
    objective = OBJECTIVES[method](model, observed, sim_replicates=replicates)
    thetas = np.random.default_rng(slots).uniform(PRIOR.lows, PRIOR.highs, (slots, 6))
    streams = lambda: [rng_mod.substream(4, rng_mod.STREAM_SIMULATION, 1, s) for s in range(slots)]
    calls = []
    simulate = ErythroblastModel.simulate_paths
    monkeypatch.setattr(
        ErythroblastModel,
        "simulate_paths",
        lambda self, rows, *args: calls.append(len(rows)) or simulate(self, rows, *args),
    )
    chunk = objective(thetas, streams())
    monkeypatch.undo()
    assert calls == blocks
    expected = _one_slot_scores(objective, observed, thetas, streams())
    assert chunk.shape == expected.shape == (slots, replicates if method == "naive" else 1)
    np.testing.assert_array_equal(chunk.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("method", ["auxiliary", "naive"])
def test_objective_raises_a_later_slots_simulation_error_as_that_slot_alone(method):
    # Slot 23 of 25 sits in the second block; its paths overflow (see
    # test_model) and its error counts the path within the slot. Slot 24
    # overflows at an earlier step but comes later.
    model = ErythroblastModel(init_rho=0.0)
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    observed = generate_dataset(theta, (0.0, 0.0), 20, 1, 10, 3.0, rng=5)
    objective = OBJECTIVES[method](model, observed, sim_replicates=3)
    thetas = np.tile(theta, (25, 1))
    thetas[23] = [2.3e38, 0.0, 2.6, 0.005, 1.0, 0.0]
    thetas[24] = [1e300, 0.0, 2.6, 0.005, 1.0, 0.0]
    rngs = [rng_mod.substream(2, slot) for slot in range(25)]
    with pytest.raises(SimulationError) as alone:
        model.simulate_paths(thetas[23], 60, rng_mod.substream(2, 23))
    with pytest.raises(SimulationError) as err:
        objective(thetas, rngs)
    assert alone.value.path_index < 60
    assert (err.value.path_index, err.value.step) == (alone.value.path_index, alone.value.step)


class _CountedDrawAhead(smc_mod._DrawAhead):
    """The objectives' helper thread, counting how many start."""

    started = 0

    def __init__(self, *args):
        type(self).started += 1
        super().__init__(*args)


def _draw_ahead_objective(method, model, observed, monkeypatch):
    """An objective of 60-path slots, 20 to a block, drawing ahead with counted helpers."""
    monkeypatch.setattr(smc_mod, "_DrawAhead", _CountedDrawAhead)
    monkeypatch.setattr(_CountedDrawAhead, "started", 0)
    objective = OBJECTIVES[method](model, observed, sim_replicates=3)
    objective.draw_ahead = True
    return objective


@pytest.mark.parametrize("method", ["auxiliary", "naive"])
def test_drawing_ahead_keeps_every_distance_bit(method, monkeypatch):
    # 45 slots of 60 paths go in blocks of 20, 20 and 5: the helper draws
    # blocks 1 and 2 while the caller steps blocks 0 and 1. Each slot still
    # reads its own stream, so the distances are those drawn inline.
    model = ErythroblastModel()
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    observed = generate_dataset(theta, (3.0, 0.0), 20, 1, 10, 3.0, rng=5)
    thetas = np.random.default_rng(45).uniform(PRIOR.lows, PRIOR.highs, (45, 6))
    streams = lambda: [rng_mod.substream(4, rng_mod.STREAM_SIMULATION, 1, s) for s in range(45)]
    inline = OBJECTIVES[method](model, observed, sim_replicates=3)
    ahead = _draw_ahead_objective(method, model, observed, monkeypatch)
    threads = threading.active_count()
    expected = inline(thetas, streams())
    for _ in range(2):  # the second call reuses the first call's buffers
        chunk = ahead(thetas, streams())
        assert chunk.shape == expected.shape == (45, 3 if method == "naive" else 1)
        np.testing.assert_array_equal(chunk.view(np.int64), expected.view(np.int64))
        assert threading.active_count() == threads
    assert _CountedDrawAhead.started == 2
    # A one-block chunk starts no helper.
    np.testing.assert_array_equal(ahead(thetas[:20], streams()[:20]), expected[:20])
    assert _CountedDrawAhead.started == 2
    # The second normals buffer exists only when drawing ahead, and it
    # stays behind in pickles.
    assert inline._ahead is None and not inline.draw_ahead
    assert ahead._ahead.shape == ahead._workspace[0].shape
    copy = pickle.loads(pickle.dumps(ahead))
    assert copy._ahead is None and copy._workspace is None and copy.draw_ahead


@pytest.mark.parametrize("method", ["auxiliary", "naive"])
def test_a_simulation_error_while_drawing_ahead_stops_the_helper(method, monkeypatch):
    # Slot 23 sits in block 1 of 20, 20 and 5 slots and overflows as in
    # test_objective_raises_a_later_slots_simulation_error_as_that_slot_alone,
    # while the helper draws block 2. The error is the slot's own, the helper
    # is joined, and the objective scores its next chunk as before.
    model = ErythroblastModel(init_rho=0.0)
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    observed = generate_dataset(theta, (0.0, 0.0), 20, 1, 10, 3.0, rng=5)
    objective = _draw_ahead_objective(method, model, observed, monkeypatch)
    thetas = np.tile(theta, (45, 1))
    thetas[23] = [2.3e38, 0.0, 2.6, 0.005, 1.0, 0.0]
    rngs = lambda: [rng_mod.substream(2, slot) for slot in range(45)]
    with pytest.raises(SimulationError) as alone:
        model.simulate_paths(thetas[23], 60, rng_mod.substream(2, 23))
    threads = threading.active_count()
    with pytest.raises(SimulationError) as err:
        objective(thetas, rngs())
    assert (err.value.path_index, err.value.step) == (alone.value.path_index, alone.value.step)
    assert threading.active_count() == threads and _CountedDrawAhead.started == 1
    good = np.tile(theta, (45, 1))
    expected = OBJECTIVES[method](model, observed, sim_replicates=3)(good, rngs())
    np.testing.assert_array_equal(objective(good, rngs()).view(np.int64), expected.view(np.int64))
    assert threading.active_count() == threads and _CountedDrawAhead.started == 2


class _BrokenStream:
    def standard_normal(self, *args, **kwargs):
        raise FloatingPointError("broken stream")


@pytest.mark.parametrize("slot", [30, 44])
def test_an_error_while_drawing_ahead_reaches_the_caller(slot, monkeypatch):
    # The helper draws blocks 1 and 2; a stream that raises in either makes
    # the call raise that error, and the helper is gone. The call runs in a
    # thread of its own so that a deadlock fails the test instead of
    # hanging it.
    model = ErythroblastModel()
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    observed = generate_dataset(theta, (3.0, 0.0), 20, 1, 10, 3.0, rng=5)
    objective = _draw_ahead_objective("auxiliary", model, observed, monkeypatch)
    rngs = [rng_mod.substream(2, s) for s in range(45)]
    rngs[slot] = _BrokenStream()
    threads = threading.active_count()
    raised = []

    def call():
        try:
            objective(np.tile(theta, (45, 1)), rngs)
        except FloatingPointError as exc:
            raised.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60.0)
    assert not caller.is_alive(), "the caller deadlocked"
    assert [str(exc) for exc in raised] == ["broken stream"]
    assert threading.active_count() == threads and _CountedDrawAhead.started == 1


@pytest.mark.parametrize(("cpus", "workers", "helpers"), [(1, 1, False), (2, 2, False), (2, 1, True)])
def test_runs_draw_ahead_only_with_two_cpus_per_worker(cpus, workers, helpers, monkeypatch):
    # 48 particles, 24 refills and 60-path slots: every generation's chunk
    # spans two or three blocks when one process evaluates it. A run draws
    # ahead only when the CPUs it may use number at least twice its
    # workers; its pool workers unpickle the objective's flag.
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    observed = generate_dataset(theta, (3.0, 0.0), 20, 1, 10, 3.0, rng=5)
    objective = _draw_ahead_objective("auxiliary", ErythroblastModel(), observed, monkeypatch)
    monkeypatch.setattr(smc_mod, "usable_cpus", lambda: cpus)
    settings = SmcSettings(n_particles=48, alpha=0.5, p_acc_min=0.05, max_generations=3)
    run = run_abc_smc(PRIOR, objective, settings, seed=8, workers=workers)
    assert objective.draw_ahead is helpers
    assert (_CountedDrawAhead.started > 0) is helpers
    inline = OBJECTIVES["auxiliary"](ErythroblastModel(), observed, sim_replicates=3)
    monkeypatch.setattr(smc_mod, "usable_cpus", lambda: 1)
    reference = run_abc_smc(PRIOR, inline, settings, seed=8)
    for name in ("thetas", "weights", "distances", "tolerances"):
        np.testing.assert_array_equal(_bits(getattr(run, name)), _bits(getattr(reference, name)))


@pytest.mark.parametrize("method", ["auxiliary", "naive"])
def test_a_worker_keeps_its_objective_and_buffers_across_chunks(method, monkeypatch):
    # Every chunk a pool worker gets carries the run's pickled objective. The
    # worker unpickles it once and keeps that objective, with its workspace
    # and copy buffers, for each chunk of the same payload; a different
    # payload swaps in its own objective. Every chunk scores what
    # _evaluate_chunk scores with a fresh objective.
    monkeypatch.setattr(smc_mod, "_worker_payload", None)
    monkeypatch.setattr(smc_mod, "_worker_objective", None)
    model = ErythroblastModel()
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    observed = generate_dataset(theta, (3.0, 0.0), 20, 1, 10, 3.0, rng=5)
    build = lambda replicates: OBJECTIVES[method](model, observed, sim_replicates=replicates)
    thetas = np.random.default_rng(9).uniform(PRIOR.lows, PRIOR.highs, (30, 6))

    def buffers(objective):
        return [objective._workspace] + ([objective._copy] if method == "naive" else [])

    kept = []
    for replicates in (3, 3, 2):
        payload = pickle.dumps(build(replicates))
        for slots in (np.arange(0, 25), np.arange(25, 30)):
            chunk = smc_mod._evaluate_in_worker(payload, 4, 2, slots, thetas[slots])
            expected = _evaluate_chunk(build(replicates), 4, 2, slots, thetas[slots])
            np.testing.assert_array_equal(chunk.view(np.int64), expected.view(np.int64))
            kept.append((smc_mod._worker_objective, buffers(smc_mod._worker_objective)))
    (first, first_buffers), *rest = kept
    assert all(b is not None for b in first_buffers) and first.n_paths == 60
    # Equal bytes, even from another pickling, keep the objective and buffers.
    for objective, held in rest[:3]:
        assert objective is first and all(a is b for a, b in zip(held, first_buffers))
    (second, second_buffers), (again, again_buffers) = rest[3:]
    assert second is not first and second.n_paths == 40
    assert again is second and all(a is b for a, b in zip(again_buffers, second_buffers))


@pytest.mark.parametrize("method", ["auxiliary", "naive"])
def test_batched_chunk_streams_match_one_slot_chunks(method):
    # A chunk derives its slots' simulation streams in one batched call; each
    # row scores what a chunk of its slot alone, given that slot's own
    # substream, scores, also for slots that are not consecutive.
    model = ErythroblastModel()
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    observed = generate_dataset(theta, (3.0, 0.0), 20, 1, 10, 3.0, rng=5)
    objective = OBJECTIVES[method](model, observed, sim_replicates=3)
    slots = np.array([3, 7, 8, 40])
    thetas = np.random.default_rng(12).uniform(PRIOR.lows, PRIOR.highs, (4, 6))
    chunk = _evaluate_chunk(objective, 5, 6, slots, thetas)
    for row, (slot, theta_row) in enumerate(zip(slots, thetas)):
        stream = rng_mod.substream(5, rng_mod.STREAM_SIMULATION, 6, slot)
        alone = OBJECTIVES[method](model, observed, sim_replicates=3)(theta_row[None], [stream])
        np.testing.assert_array_equal(chunk[row : row + 1].view(np.int64), alone.view(np.int64))


@pytest.mark.parametrize("method", ["auxiliary", "naive"])
def test_run_inference_does_not_depend_on_worker_count(method):
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    observed = generate_dataset(theta, (3.0, 0.0), 4, 1, 10, 3.0, rng=17)
    settings = SmcSettings(n_particles=24, alpha=0.5, p_acc_min=0.05, max_generations=4)
    runs = [
        run_inference(
            ErythroblastModel(), PRIOR, observed, method, settings,
            sim_replicates=2, seed=19, workers=workers,
        )
        for workers in (1, 2)
    ]
    for name in ("thetas", "weights", "distances", "tolerances"):
        serial, pooled = (getattr(run, name) for run in runs)
        np.testing.assert_array_equal(serial.view(np.int64), pooled.view(np.int64))


def test_plain_callables_are_called_once_per_slot():
    calls = []

    def distance(theta, rng):
        calls.append((float(theta[0]), rng.random()))
        return abs(float(theta[0]))

    thetas = np.array([[0.5], [-0.25], [2.0]])
    chunk = _evaluate_chunk(distance, 8, 3, np.array([4, 5, 6]), thetas)
    np.testing.assert_array_equal(chunk, [[0.5], [0.25], [2.0]])
    expected = [
        (theta, rng_mod.substream(8, rng_mod.STREAM_SIMULATION, 3, slot).random())
        for theta, slot in zip((0.5, -0.25, 2.0), (4, 5, 6))
    ]
    assert calls == expected


def test_run_inference_counts_simulator_calls():
    model = ErythroblastModel()
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.2, 0.2])
    observed = generate_dataset(theta, (3.0, 0.0), 3, 1, 10, 3.0, rng=3)
    settings = SmcSettings(n_particles=24, alpha=0.5, p_acc_min=0.5, max_generations=5)
    posterior = run_inference(
        model, PRIOR, observed, "auxiliary", settings, sim_replicates=2, seed=4
    )
    assert posterior.simulator_calls == posterior.n_evaluations * 6
    assert posterior.n_evaluations == 24 + (posterior.generations - 1) * 12


def test_replicate_fractions_frozen_example():
    replicates = np.array([[0.5, 3.0, 1.0], [4.0, 5.0, 6.0], [1.0, 1.0, 1.0]])
    np.testing.assert_allclose(replicate_fractions(replicates, 1.0), [2 / 3, 0.0, 1.0])


def test_replicate_distances_reweight_by_their_fraction_within_tolerance():
    # The smallest replicate equals the single distance, so both runs keep
    # the same particles; the replicate run's weights are the single run's
    # times each particle's fraction of replicates within the final tolerance.
    settings = _toy_settings()
    single = run_abc_smc(TOY_PRIOR, AbsoluteObjective(), settings, seed=21)
    replicated = run_abc_smc(TOY_PRIOR, ScaledReplicateObjective(4), settings, seed=21)
    np.testing.assert_array_equal(single.thetas, replicated.thetas)
    np.testing.assert_array_equal(single.distances, replicated.distances)
    np.testing.assert_array_equal(single.tolerances, replicated.tolerances)
    tol = single.tolerances[-1]
    size = np.abs(single.thetas[:, 0])
    fraction = np.mean([k * size <= tol for k in (1.0, 2.0, 3.0, 4.0)], axis=0)
    expected = single.weights * fraction
    np.testing.assert_allclose(replicated.weights, expected / expected.sum(), rtol=1e-12)
    assert (fraction < 1.0).any()


def test_single_replicate_arrays_match_scalar_distances():
    settings = _toy_settings()
    scalar = run_abc_smc(TOY_PRIOR, AbsoluteObjective(), settings, seed=5)
    one = run_abc_smc(TOY_PRIOR, ScaledReplicateObjective(1), settings, seed=5)
    np.testing.assert_array_equal(scalar.thetas, one.thetas)
    np.testing.assert_array_equal(scalar.weights, one.weights)


@pytest.mark.parametrize("workers", [1, 2])
def test_replicate_width_must_not_change_within_a_run(workers):
    with pytest.raises(ValueError):
        run_abc_smc(TOY_PRIOR, RaggedReplicateObjective(), _toy_settings(), seed=3, workers=workers)


def test_replicate_runs_do_not_depend_on_worker_count():
    model = ErythroblastModel()
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    observed = generate_dataset(theta, (3.0, 0.0), 4, 1, 10, 3.0, rng=8)
    objective = NaiveObjective(model, observed, sim_replicates=3)
    assert objective(theta[None], [rng_mod.substream(1, 0)]).shape == (1, 3)
    settings = SmcSettings(n_particles=24, alpha=0.5, p_acc_min=0.2, max_generations=3)
    serial = run_abc_smc(PRIOR, objective, settings, seed=6, workers=1)
    pooled = run_abc_smc(PRIOR, objective, settings, seed=6, workers=2)
    np.testing.assert_array_equal(serial.thetas, pooled.thetas)
    np.testing.assert_array_equal(serial.weights, pooled.weights)
    np.testing.assert_array_equal(serial.distances, pooled.distances)


# Recorded before the engine-distance seam was collapsed; any change to the
# summary, the distances or the engine's bookkeeping moves these numbers.
FROZEN_RUNS = {
    "auxiliary": (
        [112.25838237275603, 64.112117228649, 57.530086880528046],
        [0.08246029716109432, 2.107260170405587, 2.560145895673947,
         0.0341224488765574, 0.1173066418402779, 0.10233218839051722],
    ),
    "naive": (
        [3.319406688477146, 2.651760556874487, 2.363003620665099],
        [0.1218998768768193, 1.8149072706185305, 1.1085209315860947,
         0.013935996294794424, 0.06406516885199762, 0.10818099220325281],
    ),
}


@pytest.mark.parametrize("method", sorted(FROZEN_RUNS))
def test_run_inference_frozen_values(method):
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    observed = generate_dataset(theta, (3.0, 0.0), 4, 1, 10, 3.0, rng=17)
    settings = SmcSettings(n_particles=24, alpha=0.5, p_acc_min=0.05, max_generations=3)
    posterior = run_inference(
        ErythroblastModel(), PRIOR, observed, method, settings,
        sim_replicates=2, seed=19,
    )
    tolerances, mean = FROZEN_RUNS[method]
    assert posterior.generations == 3
    assert posterior.n_evaluations == 48
    np.testing.assert_allclose(posterior.tolerances, tolerances, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(posterior.weighted_mean(), mean, rtol=1e-9, atol=0.0)
