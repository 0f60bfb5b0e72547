import numpy as np

from hybridabc import kernels


def _simulation_inputs(seed, n=64, steps=10):
    rng = np.random.default_rng(seed)
    r_g = rng.uniform(0.0, 0.5, n)
    k_s = rng.uniform(0.0, 5.0, n)
    k_c = rng.uniform(0.0, 5.0, n)
    r_d = rng.uniform(0.0, 0.05, n)
    # Large shocks push the gate argument deep into both tails.
    eps = rng.standard_normal((n, steps, 2)) * 4.0
    return r_g, k_s, k_c, r_d, eps


def test_summary_matches_direct_formulas():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((40, 6)) * 3.0 + 5.0
    eta = kernels.aux_summary_1d(x)
    T = x.shape[1]
    mu = x.mean(axis=0)
    centered = x - mu
    psi = np.array(
        [
            centered[:, t] @ centered[:, t + 1] / (centered[:, t] @ centered[:, t])
            for t in range(T - 1)
        ]
    )
    sd = np.sqrt((centered**2).mean(axis=0))
    assert eta.shape == (3 * T - 1,)
    np.testing.assert_allclose(eta[:T], mu, rtol=1e-12)
    np.testing.assert_allclose(eta[T : 2 * T - 1], psi, rtol=1e-10)
    np.testing.assert_allclose(eta[2 * T - 1 :], sd, rtol=1e-12)


def test_summary_constant_column_regresses_to_zero():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 4))
    x[:, 1] = 7.5
    eta = kernels.aux_summary_1d(x)
    T = 4
    assert eta[T + 1] == 0.0       # regression out of the constant column
    assert eta[2 * T - 1 + 1] == 0.0  # its spread


def test_summary_reads_a_step_major_view_like_its_copy():
    # The workspace hands over the (n, T) view of a (T, 2, n) buffer: its
    # time-major rows are contiguous and read in place. The result is the
    # one a contiguous copy of the same paths gives, bit for bit.
    rng = np.random.default_rng(4)
    buffer = rng.normal(3.0, 1.0, (11, 2, 600))
    view = buffer.transpose(2, 0, 1)[:, :, 0]
    in_place = kernels.aux_summary_1d(view)
    copied = kernels.aux_summary_1d(np.ascontiguousarray(view))
    np.testing.assert_array_equal(in_place.view(np.int64), copied.view(np.int64))


def test_summary_of_a_stack_is_each_bundle_alone_bit_for_bit():
    # A block of k slots of n paths arrives as the (k, n, T) view of a
    # step-major (T, 2, k * n) workspace. Slot 1 has a step with no spread,
    # so its regression weight out of that step is exactly 0.
    rng = np.random.default_rng(8)
    for k, n, T in [(20, 60, 11), (2, 600, 11), (5, 3, 4)]:
        buffer = rng.normal(3.0, 1.0, (T, 2, k * n))
        buffer[2, 0, n : 2 * n] = 2.5
        view = buffer.transpose(2, 0, 1)[:, :, 0]
        stacked = kernels.aux_summary_1d(view.reshape(k, n, T))
        assert stacked.shape == (k, 3 * T - 1)
        assert stacked[1, T + 2] == 0.0
        alone = np.stack([kernels.aux_summary_1d(view[i * n : (i + 1) * n]) for i in range(k)])
        np.testing.assert_array_equal(stacked.view(np.int64), alone.view(np.int64))
        copied = kernels.aux_summary_1d(np.ascontiguousarray(view.reshape(k, n, T)))
        np.testing.assert_array_equal(copied.view(np.int64), alone.view(np.int64))


def _reference_recurrence(r_g, k_s, k_c, r_d, dt, init_rho, init_inh, eps):
    """The recurrence with the gate written as the logistic of k_s (k_c - I)."""
    n, steps, _ = eps.shape
    out = np.empty((n, steps + 1, 2))
    growth = dt * r_g
    retained = 1.0 - dt * r_d
    rho = np.full(n, float(init_rho))
    inh = np.full(n, float(init_inh))
    out[:, 0, 0] = rho
    out[:, 0, 1] = inh
    for t in range(steps):
        u = k_s * (k_c - inh)
        with np.errstate(over="ignore", under="ignore"):
            f = 1.0 / (1.0 + np.exp(-u))
        rho_next = rho + growth * rho * f + eps[:, t, 0]
        inh = retained * inh + (rho_next - rho) + eps[:, t, 1]
        rho = rho_next
        out[:, t + 1, 0] = rho
        out[:, t + 1, 1] = inh
    return out


def test_simulation_matches_reference_recurrence_bit_for_bit():
    r_g, k_s, k_c, r_d, eps = _simulation_inputs(7)
    # One inhibitor shock large enough that the gate's exponential
    # overflows, next to the underflows the other paths already reach.
    k_s[0] = 5.0
    eps[0, 0, 1] = 500.0
    with np.errstate(all="raise"):
        out = kernels.simulate_paths_raw(
            r_g, k_s, k_c, r_d, 3.0, 3.0, 0.0, eps, np.empty((11, 2, 64))
        )
    expected = _reference_recurrence(r_g, k_s, k_c, r_d, 3.0, 3.0, 0.0, eps)
    assert np.isfinite(out).all()
    np.testing.assert_array_equal(out, expected)


def test_logistic_tails_are_saturated_and_finite():
    # One step from rho = 1 with dt r_g = 1 and no shocks gives rho' = 1 + f,
    # with the gate f the logistic of k_c at k_s = 1 and I = 0. At k_c = -30
    # and 30 the gate is about 9e-14 from 0 and from 1, still visible in
    # 1 + f; at -800 and 800 it is exactly 0 and 1.
    k_c = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    ones = np.ones(5)
    with np.errstate(all="raise"):
        out = kernels.simulate_paths_raw(
            ones, ones, k_c, 0.0 * ones, 1.0, 1.0, 0.0, np.zeros((5, 1, 2)), np.empty((2, 2, 5))
        )
    rho = out[:, 1, 0]
    assert np.isfinite(rho).all()
    assert rho[0] == 1.0 and rho[2] == 1.5 and rho[4] == 2.0
    assert 0.0 < rho[1] - 1.0 < 1e-12
    assert 0.0 < 2.0 - rho[3] < 1e-12


def test_dispatchers_report_active_backend():
    assert kernels.BACKEND == "numpy"
    r_g, k_s, k_c, r_d, eps = _simulation_inputs(0, n=4, steps=3)
    buffer = np.empty((4, 2, 4))
    out = kernels.simulate_paths_raw(r_g, k_s, k_c, r_d, 3.0, 3.0, 0.0, eps, buffer)
    assert out.shape == (4, 4, 2) and np.shares_memory(out, buffer)
    assert np.all(out[:, 0, 0] == 3.0)
    assert np.all(out[:, 0, 1] == 0.0)
