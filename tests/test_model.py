import math

import numpy as np
import pytest

from helpers import reference_trajectory
from hybridabc import kernels
from hybridabc import rng as rng_mod
from hybridabc.config import build_config
from hybridabc.model import (
    TRUE_KINETICS,
    Dataset,
    ErythroblastModel,
    Prior,
    SimulationError,
    generate_dataset,
)

THETA_REF = np.array([0.057, 3.4, 2.6, 0.005, 0.0, 0.0])
PRIOR = build_config().prior


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


def test_multi_theta_gives_each_row_its_own_parameters():
    t2 = np.array([0.2, 3.4, 2.6, 0.005, 0.0, 0.0])
    states = ErythroblastModel().simulate_paths_multi(
        np.vstack([THETA_REF, t2]), np.random.default_rng(0)
    )
    for path, theta in zip(states, (THETA_REF, t2)):
        np.testing.assert_allclose(path, reference_trajectory(theta, (3.0, 0.0), 10, 3.0), rtol=1e-12)


def test_paths_are_the_kernel_on_path_major_shocks_bit_for_bit():
    # The model scales its shocks after the step-major transpose and passes
    # the kinetics as scalars; that is the kernel fed path-major shocks
    # draws * theta[4:6] and per-path parameter arrays, to the last bit,
    # whether the model allocates its arrays or reuses a workspace.
    theta = np.array([0.1, 2.0, 3.0, 0.01, 0.05, 0.08])
    n = 300
    model = ErythroblastModel()
    workspace = model.workspace(n)
    for seed in (4, 5):  # the second call reuses the first call's buffers
        fresh = model.simulate_paths(theta, n, rng_mod.substream(seed, 2))
        reused = model.simulate_paths(theta, n, rng_mod.substream(seed, 2), workspace)
        eps = rng_mod.substream(seed, 2).standard_normal((n, 10, 2)) * theta[4:6]
        kinetics = [np.full(n, value) for value in theta[:4]]
        expected = kernels.simulate_paths_raw(*kinetics, 3.0, 3.0, 0.0, eps, np.empty((11, 2, n)))
        assert fresh.flags.c_contiguous
        np.testing.assert_array_equal(fresh, expected)
        np.testing.assert_array_equal(reused, expected)
    # Fewer paths use the workspace's start; more than it holds are refused.
    fewer = model.simulate_paths(theta, 200, rng_mod.substream(6, 2), workspace)
    np.testing.assert_array_equal(fewer, model.simulate_paths(theta, 200, rng_mod.substream(6, 2)))
    with pytest.raises(ValueError, match="holds 300 paths, fewer than 400"):
        model.simulate_paths(theta, 400, 1, workspace)


@pytest.mark.parametrize("n", [60, 600])
def test_parameter_rows_with_their_own_streams_match_one_row_calls(n):
    # k rows through one call equal k one-row calls bit for bit, whether
    # the call allocates its arrays or uses the start of a larger workspace.
    model = ErythroblastModel()
    thetas = np.random.default_rng(n).uniform(PRIOR.lows, PRIOR.highs, (5, 6))
    streams = lambda: [rng_mod.substream(8, 3, slot) for slot in range(5)]
    singles = np.concatenate(
        [model.simulate_paths(theta, n, rng) for theta, rng in zip(thetas, streams())]
    )
    fresh = model.simulate_paths(thetas, n, streams())
    reused = model.simulate_paths(thetas, n, streams(), model.workspace(7 * n))
    assert fresh.shape == (5 * n, 11, 2) and fresh.flags.c_contiguous
    np.testing.assert_array_equal(fresh.view(np.int64), singles.view(np.int64))
    np.testing.assert_array_equal(reused.view(np.int64), singles.view(np.int64))
    with pytest.raises(ValueError, match="5 parameter rows, 4 streams"):
        model.simulate_paths(thetas, n, streams()[:4])


@pytest.mark.parametrize("rows", [1, 5])
def test_stepping_from_drawn_normals_matches_stepping_from_the_streams(rows):
    # draw_normals gives stream i's (n, H, 2) draws in rows i * n to
    # (i + 1) * n, into the start of a flat buffer when given one, and
    # simulate_paths steps from them to the states it steps to from the
    # streams, reading no stream.
    model = ErythroblastModel()
    n = 40
    thetas = np.random.default_rng(rows).uniform(PRIOR.lows, PRIOR.highs, (rows, 6))
    streams = lambda: [rng_mod.substream(3, slot) for slot in range(rows)]
    normals = model.draw_normals(streams(), n)
    expected = np.concatenate([rng.standard_normal((n, 10, 2)) for rng in streams()])
    assert normals.shape == (rows * n, 10, 2)
    np.testing.assert_array_equal(normals.view(np.int64), expected.view(np.int64))
    buffer = np.full(model.workspace(6 * n)[0].size, np.nan)
    into = model.draw_normals(streams(), n, buffer)
    assert np.shares_memory(into, buffer) and into.ctypes.data == buffer.ctypes.data
    np.testing.assert_array_equal(into, normals)
    theta, rng = (thetas, streams()) if rows > 1 else (thetas[0], streams()[0])
    from_streams = model.simulate_paths(theta, n, rng)
    from_normals = model.simulate_paths(theta, n, None, None, normals)
    reused = model.simulate_paths(theta, n, None, model.workspace(6 * n), into)
    assert from_normals.flags.c_contiguous
    np.testing.assert_array_equal(from_normals.view(np.int64), from_streams.view(np.int64))
    np.testing.assert_array_equal(reused.view(np.int64), from_streams.view(np.int64))


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
    with pytest.raises(SimulationError) as err:
        model.simulate_paths_multi(np.vstack([THETA_REF, theta, theta]), np.random.default_rng(0))
    assert (err.value.path_index, err.value.step) == (1, 2)


def test_nonfinite_state_in_a_later_row_raises_as_that_row_alone():
    # With no switch and a huge growth rate each density multiplies by about
    # 3e38 a step from its first shock, so row 2's path 0 overflows at step
    # 10 and its paths 1 and 2 at step 9. Row 3 overflows at step 3 but
    # comes later; the error names row 2's path 1 at step 9, counted within
    # the row, as a call with row 2 alone does.
    model = ErythroblastModel(init_rho=0.0)
    thetas = np.tile(THETA_REF, (4, 1))
    thetas[2] = [2.3e38, 0.0, 2.6, 0.005, 1.0, 0.0]
    thetas[3] = [1e300, 0.0, 2.6, 0.005, 1.0, 0.0]
    streams = lambda: [rng_mod.substream(5, slot) for slot in range(4)]
    with pytest.raises(SimulationError) as alone:
        model.simulate_paths(thetas[2], 3, streams()[2])
    with pytest.raises(SimulationError) as err:
        model.simulate_paths(thetas, 3, streams(), model.workspace(20))
    assert (alone.value.path_index, alone.value.step) == (1, 9)
    assert (err.value.path_index, err.value.step) == (1, 9)
    with pytest.raises(SimulationError) as last:
        model.simulate_paths(thetas[3], 3, streams()[3])
    assert last.value.step < 9
    # An inhibitor that overflows while the density stays finite counts too:
    # a growing inhibitor (r_d = -1) from 1e308 shuts the density's growth off.
    inhibitor = ErythroblastModel(init_inh=1e308)
    growing = np.tile([0.057, 3.4, 2.6, -1.0, 0.0, 0.0], (2, 1))
    with pytest.raises(SimulationError) as err:
        inhibitor.simulate_paths(growing, 2, streams()[:2])
    assert (err.value.path_index, err.value.step) == (0, 1)


def test_theta_validation():
    model = ErythroblastModel()
    with pytest.raises(ValueError):
        model.simulate_paths(np.ones(5), 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.simulate_paths(
            np.array([0.1, 1.0, 1.0, 0.01, -0.1, 0.1]), 1, np.random.default_rng(0)
        )
    with pytest.raises(ValueError, match="shock stds"):
        model.simulate_paths_multi(
            np.array([THETA_REF, [0.1, 1.0, 1.0, 0.01, 0.1, -0.1]]), np.random.default_rng(0)
        )
    with pytest.raises(ValueError):
        ErythroblastModel(horizon=0)
    with pytest.raises(ValueError):
        ErythroblastModel(dt=0.0)
    with pytest.raises(ValueError, match="finite and positive"):
        ErythroblastModel(dt=float("nan"))


def test_default_prior_density_is_box_volume_reciprocal():
    theta_c = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    volume = 0.5 * 5.0 * 5.0 * 0.05 * 0.2 * 0.2
    inside, above, below = PRIOR.density(
        np.array([theta_c, [0.6, 3.4, 2.6, 0.005, 0.1, 0.1], [-0.01, 3.4, 2.6, 0.005, 0.1, 0.1]])
    )
    assert inside == pytest.approx(1.0 / volume, rel=1e-12)
    assert inside == pytest.approx(40.0, rel=1e-12)
    assert above == below == 0.0


def test_prior_block_form_equals_per_row_calls():
    rng = np.random.default_rng(9)
    inside = np.array([PRIOR.sample(rng) for _ in range(5)])
    below, above = PRIOR.lows.copy(), PRIOR.highs.copy()
    below[2] -= 1e-9
    above[4] += 1e-9
    block = np.vstack([inside, PRIOR.lows, PRIOR.highs, below, above])
    contained = PRIOR.contains(block)
    densities = PRIOR.density(block)
    assert contained.shape == densities.shape == (len(block),)
    assert contained.tolist() == [PRIOR.contains(row[None])[0] for row in block]
    assert densities.tolist() == [PRIOR.density(row[None])[0] for row in block]
    assert contained.tolist() == [True] * 7 + [False] * 2
    # Points along the last axis: any leading shape, a single point included.
    grid = block[:8].reshape(2, 4, 6)
    assert PRIOR.contains(grid).tolist() == contained[:8].reshape(2, 4).tolist()
    assert PRIOR.density(grid).tolist() == densities[:8].reshape(2, 4).tolist()
    assert PRIOR.contains(block[0]).shape == PRIOR.density(block[0]).shape == ()
    assert PRIOR.density(block[:0]).shape == (0,)


def test_prior_samples_fill_the_box():
    rng = np.random.default_rng(4)
    draws = np.array([PRIOR.sample(rng) for _ in range(20000)])
    assert draws.shape == (20000, 6)
    assert (draws >= PRIOR.lows).all() and (draws <= PRIOR.highs).all()
    mid = (PRIOR.lows + PRIOR.highs) / 2.0
    se = (PRIOR.highs - PRIOR.lows) / math.sqrt(12.0) / math.sqrt(20000)
    assert (np.abs(draws.mean(axis=0) - mid) < 5 * se).all()


def test_prior_validation():
    with pytest.raises(ValueError):
        Prior(names=("a", "b"), lows=np.array([0.0, 1.0]), highs=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Prior(names=("a",), lows=np.array([0.0, 0.0]), highs=np.array([1.0, 1.0]))
    for shape in [(3,), (2, 3), ()]:
        with pytest.raises(ValueError):
            PRIOR.contains(np.ones(shape))
        with pytest.raises(ValueError):
            PRIOR.density(np.ones(shape))
    grid = np.ones((2, 2, 6))
    assert PRIOR.contains(grid).shape == PRIOR.density(grid).shape == (2, 2)


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
    for dt in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            Dataset(states=np.zeros((2, 3, 1)), dt=dt)


def test_generate_dataset_is_seed_deterministic():
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    a = generate_dataset(theta, (3.0, 0.0), m=4, L=3, horizon=10, dt=3.0, rng=99)
    b = generate_dataset(theta, (3.0, 0.0), m=4, L=3, horizon=10, dt=3.0, rng=99)
    c = generate_dataset(theta, (3.0, 0.0), m=4, L=3, horizon=10, dt=3.0, rng=100)
    np.testing.assert_array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def test_generate_dataset_trajectories_use_independent_streams(monkeypatch):
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    simulate = ErythroblastModel.simulate_paths
    calls = []

    def counted(self, thetas, *args):
        calls.append(len(thetas))
        return simulate(self, thetas, *args)

    monkeypatch.setattr(ErythroblastModel, "simulate_paths", counted)
    data = generate_dataset(theta, (3.0, 0.0), m=2, L=3, horizon=10, dt=3.0, rng=21)
    assert calls == [6]  # one simulator call steps every trajectory
    assert data.states.flags.c_contiguous
    monkeypatch.undo()
    model = ErythroblastModel()
    streams = np.random.default_rng(21).spawn(6)
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
