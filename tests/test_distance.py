import numpy as np
import pytest

from helpers import sample_lgdbn
from hybridabc.distance import (
    auxiliary_distance,
    information_weight,
    naive_distance,
    observed_energy_terms,
)
from hybridabc.lgdbn import summarize
from hybridabc.model import Dataset, generate_dataset


def test_auxiliary_distance_is_euclidean():
    a = np.zeros(5)  # H = 1: 2 means, 1 lag weight, 2 stds
    b = np.array([3.0, 0.0, 4.0, 0.0, 0.0])
    distances = auxiliary_distance(a, np.stack([b, a]), np.eye(5))
    assert distances.shape == (2,)
    assert distances[0] == pytest.approx(5.0, rel=1e-15)
    assert distances[1] == 0.0


def test_auxiliary_distance_applies_scales():
    a = np.zeros(5)
    b = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
    weight = np.diag([0.5, 1.0, 1.0, 1.0, 1.0])
    assert auxiliary_distance(a, b[None], weight)[0] == pytest.approx(1.0, rel=1e-15)


def test_auxiliary_distance_rejects_layout_mismatch():
    with pytest.raises(ValueError, match="summary shapes differ"):
        auxiliary_distance(np.zeros(5), np.zeros((1, 8)), np.eye(8))
    with pytest.raises(ValueError, match="summary shapes differ"):
        auxiliary_distance(np.zeros(5), np.zeros(5), np.eye(5))  # not a stack
    with pytest.raises(ValueError, match="summary shapes differ"):
        auxiliary_distance(np.zeros(5), np.zeros((3, 8)), np.eye(5))
    with pytest.raises(ValueError, match="summary shapes differ"):
        auxiliary_distance(np.zeros(5), np.zeros((2, 3, 5)), np.eye(5))


def test_auxiliary_distance_of_a_stack_is_each_row_alone_bit_for_bit():
    rng = np.random.default_rng(3)
    for size, rows, count in [(32, 29, 20), (32, 31, 2), (17, 15, 1)]:
        weight = np.tril(rng.normal(size=(rows, size)))
        observed = rng.normal(size=size)
        stack = rng.normal(size=(count, size))
        distances = auxiliary_distance(observed, stack, weight)
        assert distances.shape == (count,)
        for simulated, distance in zip(stack, distances):
            alone = auxiliary_distance(observed, simulated[None], weight)
            diff = weight @ (observed - simulated)
            assert alone.shape == (1,)
            assert distance == alone[0] == np.sqrt(np.dot(diff, diff))


def test_auxiliary_distance_rejects_wrong_scale_length():
    a = np.zeros(5)
    with pytest.raises(ValueError, match="weight width"):
        auxiliary_distance(a, a[None], np.eye(4))


def test_standardization_scales_floor():
    # A start with zero spread is a fixed initial state: mu_0, psi_0 and v_0
    # get no row. H = 2, m = 3, psi_1 = 0.6, v = (0, 0.5, 0.5), so the
    # residual stds are s_1 = v_1 = 0.5 and s_2 = sqrt(0.25 - 0.09) = 0.4.
    summary = np.array([3.0, 3.5, 4.0, 0.0, 0.6, 0.0, 0.5, 0.5])
    weight = information_weight(summary, 3)
    assert weight.shape == (5, 8)
    np.testing.assert_array_equal(weight[:, [0, 3, 5]], 0.0)
    # d mu_1 enters the first transition as 3 / s_1^2 and the second,
    # through -psi_1 d mu_1, as 3 * 0.36 / s_2^2.
    d = np.zeros(8)
    d[1] = 1.0
    assert np.sum((weight @ d) ** 2) == pytest.approx(12.0 + 6.75, rel=1e-12)
    # d v_2 = 1 moves only s_2, by v_2 / s_2 = 1.25: 2 * 3 * 1.25^2 / s_2^2.
    d = np.zeros(8)
    d[7] = 1.0
    assert np.sum((weight @ d) ** 2) == pytest.approx(58.59375, rel=1e-12)


def test_information_weight_two_step_hand_example():
    # H = 2, m = 4, mu = (1, 2, 3), psi = (0.6, 0.6), v = (1, 1, 1): both
    # residual stds are sqrt(1 - 0.36) = 0.8. Expected values are the Fisher
    # quadratic forms worked out term by term.
    summary = np.array([1.0, 2.0, 3.0, 0.6, 0.6, 1.0, 1.0, 1.0])
    weight = information_weight(summary, 4)
    assert weight.shape == (8, 8)
    np.testing.assert_array_equal(weight, np.tril(weight))

    def form(**entries):
        index = {"mu0": 0, "mu1": 1, "mu2": 2, "psi0": 3, "psi1": 4, "v0": 5, "v1": 6, "v2": 7}
        d = np.zeros(8)
        for name, value in entries.items():
            d[index[name]] = value
        return float(np.sum((weight @ d) ** 2))

    # m / v_0^2 + m psi_0^2 / s_1^2
    assert form(mu0=1.0) == pytest.approx(4.0 + 2.25, rel=1e-12)
    # m / s_1^2 + m psi_1^2 / s_2^2
    assert form(mu1=1.0) == pytest.approx(6.25 + 2.25, rel=1e-12)
    # m (1 - psi_1)^2 / s_2^2 on top of m / s_1^2: the innovation form
    assert form(mu1=1.0, mu2=1.0) == pytest.approx(6.25 + 1.0, rel=1e-12)
    # lag weight m v_0^2 / s_1^2, plus its pull on s_1: d s_1 = -psi_0 v_0^2 / s_1
    assert form(psi0=1.0) == pytest.approx(6.25 + 8 * 0.75**2 / 0.64, rel=1e-12)
    # start std 2 m / v_0^2, plus d s_1 = -psi_0^2 v_0 / s_1
    assert form(v0=1.0) == pytest.approx(8.0 + 8 * 0.45**2 / 0.64, rel=1e-12)
    # d s_1 = v_1 / s_1 and d s_2 = -psi_1^2 v_1 / s_2
    assert form(v1=1.0) == pytest.approx(8 * 1.25**2 / 0.64 + 8 * 0.45**2 / 0.64, rel=1e-12)


def test_information_weight_whitens_independent_fits():
    # Two independent fits differ by about twice the inverse information, so
    # the weighted difference has mean squared norm near twice the number
    # of free components: every component with a start spread, all but
    # mu_0, psi_0 and v_0 with a fixed start.
    mu = np.array([[1.0], [2.0], [1.5], [2.5]])
    psi = np.array([[[0.8]], [[0.6]], [[0.7]]])
    rng = np.random.default_rng(20)
    for v0, free in ((0.5, 11), (0.0, 8)):
        v_cond = np.array([[v0], [0.4], [0.3], [0.35]])

        def fit():
            x, _ = sample_lgdbn(
                mu, np.zeros((3, 0)), psi, np.zeros((3, 1, 0)), np.zeros((3, 0)),
                v_cond, 500, rng,
            )
            return summarize(Dataset(states=x))

        norms = []
        for _ in range(300):
            a, b = fit(), fit()
            weight = information_weight(a, 500)
            norms.append(np.sum((weight @ (a - b)) ** 2))
        assert weight.shape[0] == free
        assert np.mean(norms) == pytest.approx(2.0 * free, rel=0.1)


def test_information_weight_rejects_two_trajectories_and_other_layouts():
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    pair = generate_dataset(theta, (3.0, 0.0), 2, 1, 10, 3.0, rng=4)
    with pytest.raises(ValueError, match="zero residual variance"):
        information_weight(summarize(pair), 2)
    three = generate_dataset(theta, (3.0, 0.0), 3, 1, 10, 3.0, rng=4)
    assert np.isfinite(information_weight(summarize(three), 3)).all()
    # Two observed states over H = 1: 4 means, 4 lag weights and 4 stds are
    # 12 components, not 3H + 2; a matrix is no summary either.
    for other in (np.ones(12), np.ones((3, 5))):
        with pytest.raises(ValueError, match="one observed state"):
            information_weight(other, 3)


def test_naive_distance_frozen_example():
    # Every path is constant, 1 observed against 2 simulated, over 11 time
    # points: E|X - Y| = sqrt(11) and both within-set terms are 0.
    ones = np.ones((3, 11, 1))
    observed = Dataset(states=ones)
    d = naive_distance(observed, Dataset(states=2.0 * ones), observed_energy_terms(observed))
    np.testing.assert_allclose(d, [np.sqrt(2.0 * np.sqrt(11.0))], rtol=1e-15)


def test_naive_distance_rejects_shape_mismatch():
    observed = Dataset(states=np.ones((2, 4, 1)))
    terms = observed_energy_terms(observed)
    with pytest.raises(ValueError):
        naive_distance(observed, Dataset(states=np.ones((2, 5, 1))), terms)
    with pytest.raises(ValueError):
        naive_distance(observed, Dataset(states=np.ones((2, 4, 2))), terms)


def test_trajectory_energy_frozen_example():
    # Observed paths (0, 0) and (0, 2). Batch 1 repeats them: energy 0.
    # Batch 2 is (0, 1) twice: E|X - Y| = 1, E|X - X'| = (0 + 2 + 2 + 0) / 4
    # = 1, E|Y - Y'| = 0, so the distance is sqrt(2 - 1 - 0) = 1.
    observed = Dataset(states=np.array([[[0.0], [0.0]], [[0.0], [2.0]]]))
    simulated = Dataset(
        states=np.array([[[0.0], [0.0]], [[0.0], [2.0]], [[0.0], [1.0]], [[0.0], [1.0]]])
    )
    terms = observed_energy_terms(observed)
    d = naive_distance(observed, simulated, terms)
    np.testing.assert_allclose(d, [0.0, 1.0], rtol=0.0, atol=1e-12)
    with pytest.raises(ValueError, match="batches of 2"):
        naive_distance(observed, Dataset(states=np.zeros((3, 2, 1))), terms)


def test_trajectory_energy_sees_spread_not_only_the_mean():
    # Same mean curve, different spread: the energy distance still sees it.
    rng = np.random.default_rng(3)
    base = rng.standard_normal((20, 5, 1))
    base -= base.mean(axis=0)
    observed = Dataset(states=base)
    wide = Dataset(states=np.concatenate([3.0 * base, base]))
    np.testing.assert_allclose(wide.states.mean(axis=0), 0.0, atol=1e-12)
    d = naive_distance(observed, wide, observed_energy_terms(observed))
    assert d[0] > 0.5 and d[1] == pytest.approx(0.0, abs=1e-6)


def _mean_pair_from_scratch(a, b):
    sq = np.matmul(a, np.swapaxes(b, -1, -2))
    sq *= -2.0
    sq += np.einsum("...ik,...ik->...i", a, a)[..., :, None]
    sq += np.einsum("...jk,...jk->...j", b, b)[..., None, :]
    np.maximum(sq, 0.0, out=sq)
    np.sqrt(sq, out=sq)
    return sq.reshape(sq.shape[:-2] + (-1,)).mean(axis=-1)


@pytest.mark.parametrize("m", [3, 6, 20])
def test_naive_distance_with_cached_observed_terms_is_bit_identical(m):
    # The objective's layout: the density column of a C-contiguous
    # (n, H + 1, 2) array, L = 5 batches.
    rng = np.random.default_rng(m)
    observed = Dataset(states=rng.normal(3.0, 1.0, (m, 11, 1)))
    both = np.ascontiguousarray(rng.normal(3.0, 1.0, (5 * m, 11, 2)))
    simulated = Dataset(states=both[:, :, :1])
    x = observed.states.reshape(m, -1)
    y = simulated.states.reshape(5, m, -1)
    energy = (
        2.0 * _mean_pair_from_scratch(y, x)
        - _mean_pair_from_scratch(x, x)
        - _mean_pair_from_scratch(y, y)
    )
    want = np.sqrt(np.maximum(energy, 0.0)).view(np.int64)
    terms = observed_energy_terms(observed)
    cached = naive_distance(observed, simulated, terms)
    np.testing.assert_array_equal(cached.view(np.int64), want)
    np.testing.assert_array_equal(terms[0], np.einsum("ik,ik->i", x, x))
