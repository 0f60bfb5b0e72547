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


def test_logistic_tails_are_saturated_and_finite():
    u = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
    out = kernels._logistic(u)
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0
    assert out[2] == 0.5
    assert out[4] == 1.0
    assert 0.0 < out[1] < 1e-15
    assert 1.0 - out[3] < 1e-15


def test_dispatchers_report_active_backend():
    assert kernels.BACKEND == "numpy"
    r_g, k_s, k_c, r_d, eps = _simulation_inputs(0, n=4, steps=3)
    out = kernels.simulate_paths_raw(r_g, k_s, k_c, r_d, 3.0, 3.0, 0.0, eps)
    assert out.shape == (4, 4, 2)
    assert np.all(out[:, 0, 0] == 3.0)
    assert np.all(out[:, 0, 1] == 0.0)
