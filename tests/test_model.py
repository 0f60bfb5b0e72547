import math

import numpy as np
import pytest

from helpers import reference_trajectory
from hybridabc import rng as rng_mod
from hybridabc.model import (
    TRUE_KINETICS,
    Dataset,
    ErythroblastModel,
    Prior,
    SimulationError,
    erythroblast_prior,
    generate_dataset,
)

THETA_REF = np.array([0.057, 3.4, 2.6, 0.005, 0.0, 0.0])


def test_first_step_matches_hand_computation():
    model = ErythroblastModel()
    states = model.simulate_paths(THETA_REF, 1, np.random.default_rng(0))[0]
    gate = 1.0 - 1.0 / (1.0 + math.exp(3.4 * (2.6 - 0.0)))
    rho_2 = 3.0 + 3.0 * 0.057 * 3.0 * gate
    inh_2 = 0.0 + 3.0 * ((rho_2 - 3.0) / 3.0 - 0.005 * 0.0)
    assert states[1, 0] == pytest.approx(rho_2, rel=1e-14)
    assert states[1, 1] == pytest.approx(inh_2, rel=1e-14)


def test_noise_free_paths_match_reference_recurrence():
    model = ErythroblastModel()
    states = model.simulate_paths(THETA_REF, 3, np.random.default_rng(1))
    ref = reference_trajectory(THETA_REF, (3.0, 0.0), 10, 3.0)
    assert states.shape == (3, 11, 2)
    for i in range(3):
        np.testing.assert_allclose(states[i], ref, rtol=1e-12)


def test_noisy_paths_match_reference_given_same_shocks():
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.2])
    model = ErythroblastModel()
    states = model.simulate_paths(theta, 5, rng_mod.substream(123, 9))
    # Replay the same stream to recover the exact shocks the model drew.
    eps = rng_mod.substream(123, 9).standard_normal((5, 10, 2)) * theta[4:6]
    for i in range(5):
        ref = reference_trajectory(theta, (3.0, 0.0), 10, 3.0, eps=eps[i])
        np.testing.assert_allclose(states[i], ref, rtol=1e-12, atol=1e-12)


def test_multi_theta_rows_match_single_theta_batches():
    theta = np.array([0.1, 2.0, 3.0, 0.01, 0.05, 0.08])
    thetas = np.tile(theta, (4, 1))
    model = ErythroblastModel()
    a = model.simulate_paths(theta, 4, rng_mod.substream(7, 1))
    b = model.simulate_paths_multi(thetas, rng_mod.substream(7, 1))
    np.testing.assert_array_equal(a, b)


def test_inhibitor_integrates_density_increments_without_decay():
    theta = np.array([0.12, 3.0, 2.0, 0.0, 0.0, 0.0])
    model = ErythroblastModel()
    states = model.simulate_paths(theta, 1, np.random.default_rng(0))[0]
    rho, inh = states[:, 0], states[:, 1]
    np.testing.assert_allclose(np.diff(inh), np.diff(rho), rtol=1e-12)


def test_states_may_go_negative_without_error():
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.2, 0.2])
    model = ErythroblastModel(init_rho=0.05)
    states = model.simulate_paths(theta, 200, np.random.default_rng(3))
    assert np.isfinite(states).all()
    assert (states < 0).any()


def test_nonfinite_state_reports_earliest_step():
    theta = np.array([1e300, 3.4, 2.6, 0.005, 0.0, 0.0])
    model = ErythroblastModel()
    with pytest.raises(SimulationError) as err:
        model.simulate_paths(theta, 2, np.random.default_rng(0))
    assert err.value.step == 2


def test_theta_validation():
    model = ErythroblastModel()
    with pytest.raises(ValueError):
        model.simulate_paths(np.ones(5), 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.simulate_paths(
            np.array([0.1, 1.0, 1.0, 0.01, -0.1, 0.1]), 1, np.random.default_rng(0)
        )
    with pytest.raises(ValueError):
        ErythroblastModel(horizon=0)
    with pytest.raises(ValueError):
        ErythroblastModel(dt=0.0)


def test_default_prior_density_is_box_volume_reciprocal():
    prior = erythroblast_prior()
    theta_c = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    volume = 0.5 * 5.0 * 5.0 * 0.05 * 0.2 * 0.2
    assert prior.density(theta_c) == pytest.approx(1.0 / volume, rel=1e-12)
    assert prior.density(theta_c) == pytest.approx(40.0, rel=1e-12)
    assert prior.density(np.array([0.6, 3.4, 2.6, 0.005, 0.1, 0.1])) == 0.0
    assert prior.density(np.array([-0.01, 3.4, 2.6, 0.005, 0.1, 0.1])) == 0.0


def test_prior_samples_fill_the_box():
    prior = erythroblast_prior()
    rng = np.random.default_rng(4)
    draws = np.array([prior.sample(rng) for _ in range(20000)])
    assert draws.shape == (20000, 6)
    assert (draws >= prior.lows).all() and (draws <= prior.highs).all()
    mid = (prior.lows + prior.highs) / 2.0
    se = (prior.highs - prior.lows) / math.sqrt(12.0) / math.sqrt(20000)
    assert (np.abs(draws.mean(axis=0) - mid) < 5 * se).all()


def test_prior_validation():
    with pytest.raises(ValueError):
        Prior(names=("a", "b"), lows=np.array([0.0, 1.0]), highs=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Prior(names=("a",), lows=np.array([0.0, 0.0]), highs=np.array([1.0, 1.0]))
    prior = erythroblast_prior()
    with pytest.raises(ValueError):
        prior.contains(np.ones(3))


def test_true_kinetics_values():
    assert TRUE_KINETICS == {"r_g": 0.057, "k_s": 3.4, "k_c": 2.6, "r_d": 0.005}


def test_dataset_shape_and_round_trip():
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    data = generate_dataset(theta, (3.0, 0.0), m=3, L=2, horizon=10, dt=3.0, rng=17)
    assert len(data) == 6
    assert data.horizon == 10
    assert data.state_dim == 1


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(states=np.zeros((2, 1, 1)))
    with pytest.raises(ValueError):
        Dataset(states=np.zeros((0, 3, 1)))
    with pytest.raises(ValueError):
        Dataset(states=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Dataset(states=np.zeros((2, 3, 1)), dt=0.0)


def test_generate_dataset_is_seed_deterministic():
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    a = generate_dataset(theta, (3.0, 0.0), m=4, L=3, horizon=10, dt=3.0, rng=99)
    b = generate_dataset(theta, (3.0, 0.0), m=4, L=3, horizon=10, dt=3.0, rng=99)
    c = generate_dataset(theta, (3.0, 0.0), m=4, L=3, horizon=10, dt=3.0, rng=100)
    np.testing.assert_array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def test_generate_dataset_trajectories_use_independent_streams():
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    data = generate_dataset(theta, (3.0, 0.0), m=2, L=3, horizon=10, dt=3.0, rng=21)
    model = ErythroblastModel()
    streams = rng_mod.normalize_rng(21).spawn(6)
    # Realize the same streams in reverse order; results must not change.
    redone = np.empty_like(data.states)
    for i in reversed(range(6)):
        redone[i, :, 0] = model.simulate_paths(theta, 1, streams[i])[0, :, 0]
    np.testing.assert_array_equal(redone, data.states)


def test_generate_dataset_argument_validation():
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    with pytest.raises(ValueError):
        generate_dataset(theta, (3.0, 0.0), m=0, L=1, horizon=10, dt=3.0, rng=0)
    with pytest.raises(ValueError):
        generate_dataset(theta, (3.0, 0.0), m=1, L=0, horizon=10, dt=3.0, rng=0)
