import numpy as np
import pytest

from helpers import interleave, sample_lgdbn
from hybridabc.lgdbn import AuxiliaryFit, fit_mle, joint_distribution, summarize
from hybridabc.model import Dataset


def _random_fit(rng, H=3, d_x=2, d_a=1):
    return AuxiliaryFit(
        mu_x=rng.standard_normal((H + 1, d_x)),
        mu_a=rng.standard_normal((H, d_a)),
        psi_x=rng.standard_normal((H, d_x, d_x)) * 0.3,
        psi_a=rng.standard_normal((H, d_x, d_a)) * 0.3,
        sigma=rng.uniform(0.5, 1.5, (H, d_a)),
        v_x=rng.uniform(0.5, 1.5, (H + 1, d_x)),
    )


def test_layout_size_for_scalar_state_no_actions():
    # H = 10 transitions: 11 means, 10 lag weights, 11 stds.
    x = np.random.default_rng(2).standard_normal((5, 11, 1))
    summary = summarize(Dataset(states=x))
    assert summary.shape == (11 + 10 + 11,)
    np.testing.assert_allclose(summary[:11], x[:, :, 0].mean(axis=0), rtol=1e-13)
    np.testing.assert_allclose(summary[21:], x[:, :, 0].std(axis=0), rtol=1e-13)


def test_flatten_order_is_blockwise_time_major():
    data = Dataset(states=np.random.default_rng(1).standard_normal((7, 3, 1)))
    fit = fit_mle(data)
    v = summarize(data)
    np.testing.assert_array_equal(v[0:3], fit.mu_x.ravel())
    np.testing.assert_array_equal(v[3:5], fit.psi_x.ravel())
    np.testing.assert_array_equal(v[5:8], fit.v_x.ravel())


def test_summary_statistics_validation():
    with pytest.raises(ValueError, match="at least 2 trajectories"):
        summarize(Dataset(states=np.zeros((1, 3, 1))))
    with pytest.raises(ValueError, match="one observed state"):
        summarize(Dataset(states=np.zeros((4, 3, 2))))


def test_fit_shapes_and_dispatch_consistency():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 5, 1)) + 2.0
    data = Dataset(states=x)
    fit = fit_mle(data)
    assert fit.mu_x.shape == (5, 1)
    assert fit.psi_x.shape == (4, 1, 1)
    assert fit.psi_a.shape == (4, 1, 0)
    assert summarize(data).shape == (3 * 4 + 2,)


def test_fit_requires_two_trajectories():
    with pytest.raises(ValueError):
        fit_mle(Dataset(states=np.zeros((1, 3, 1))))
    with pytest.raises(ValueError, match="one observed state"):
        fit_mle(Dataset(states=np.zeros((4, 3, 2))))


def test_identity_dynamics_recover_unit_weight():
    rng = np.random.default_rng(4)
    col = rng.standard_normal(25)
    x = np.repeat(col[:, None], 4, axis=1)[:, :, None]
    fit = fit_mle(Dataset(states=x))
    np.testing.assert_array_equal(fit.psi_x[:, 0, 0], np.ones(3))


def test_fit_recovers_scalar_generating_process():
    rng = np.random.default_rng(5)
    H = 4
    mu_x = np.array([[1.0], [1.5], [2.5], [3.0], [3.2]])
    psi_x = np.array([[[0.8]], [[0.6]], [[0.7]], [[0.5]]])
    v_cond = np.array([0.5, 0.4, 0.3, 0.35, 0.45])
    x, _ = sample_lgdbn(
        mu_x, np.zeros((H, 0)), psi_x, np.zeros((H, 1, 0)),
        np.zeros((H, 0)), v_cond, m=6000, rng=rng,
    )
    fit = fit_mle(Dataset(states=x))
    np.testing.assert_allclose(fit.mu_x, mu_x, atol=0.05)
    np.testing.assert_allclose(fit.psi_x, psi_x, atol=0.05)
    # Marginal stds accumulate variance through the recurrence.
    marg = [v_cond[0]]
    for t in range(H):
        marg.append(np.sqrt((psi_x[t, 0, 0] * marg[-1]) ** 2 + v_cond[t + 1] ** 2))
    np.testing.assert_allclose(fit.v_x[:, 0], marg, atol=0.05)


def test_fit_scale_equivariance():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 6, 1)) * 1.5 + 4.0
    base = fit_mle(Dataset(states=x))
    scaled = fit_mle(Dataset(states=2.0 * x))
    np.testing.assert_allclose(scaled.mu_x, 2.0 * base.mu_x, rtol=1e-12)
    np.testing.assert_allclose(scaled.v_x, 2.0 * base.v_x, rtol=1e-12)
    np.testing.assert_allclose(scaled.psi_x, base.psi_x, rtol=1e-12)


def test_constant_scalar_step_regresses_to_zero():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 4, 1))
    x[:, 2, 0] = 5.0
    fit = fit_mle(Dataset(states=x))
    assert fit.psi_x[2, 0, 0] == 0.0
    assert fit.v_x[2, 0] == 0.0


def test_joint_distribution_single_transition_closed_form():
    psi = 0.8
    fit = AuxiliaryFit(
        mu_x=np.array([[1.0], [2.0]]),
        mu_a=np.zeros((1, 0)),
        psi_x=np.array([[[psi]]]),
        psi_a=np.zeros((1, 1, 0)),
        sigma=np.zeros((1, 0)),
        v_x=np.array([[0.5], [0.3]]),
    )
    mean, cov = joint_distribution(fit)
    np.testing.assert_array_equal(mean, [1.0, 2.0])
    # x2 = mu2 + psi (x1 - mu1) + e2 with conditional std 0.3.
    expected = np.array(
        [[0.25, psi * 0.25], [psi * 0.25, (psi * 0.5) ** 2 + 0.09]]
    )
    np.testing.assert_allclose(cov, expected, rtol=1e-12)


def test_joint_distribution_matches_sampler_moments():
    rng = np.random.default_rng(10)
    H, d_x, d_a, m = 2, 1, 1, 40000
    mu_x = np.array([[0.5], [1.0], [2.0]])
    mu_a = np.array([[1.0], [-1.0]])
    psi_x = np.array([[[0.7]], [[0.4]]])
    psi_a = np.array([[[0.3]], [[-0.5]]])
    sigma = np.array([[1.1], [0.9]])
    v_cond = np.array([0.8, 0.6, 0.7])
    x, a = sample_lgdbn(mu_x, mu_a, psi_x, psi_a, sigma, v_cond, m=m, rng=rng)
    rows = interleave(x, a)

    # The sampler and the joint expansion both treat v_x entries as the
    # conditional stds of the one-step recurrence.
    fit = AuxiliaryFit(
        mu_x=mu_x, mu_a=mu_a, psi_x=psi_x, psi_a=psi_a,
        sigma=sigma, v_x=v_cond[:, None],
    )
    mean, cov = joint_distribution(fit)
    dim = (H + 1) * d_x + H * d_a
    assert mean.shape == (dim,) and cov.shape == (dim, dim)

    sample_mean = rows.mean(axis=0)
    sample_cov = np.cov(rows.T)
    np.testing.assert_allclose(mean, sample_mean, atol=5 * 1.5 / np.sqrt(m))
    se = 5 * (np.abs(cov) + np.sqrt(np.outer(np.diag(cov), np.diag(cov)))) / np.sqrt(m)
    assert (np.abs(cov - sample_cov) < se).all()


def test_joint_distribution_with_vector_state_and_action():
    rng = np.random.default_rng(11)
    fit, m = _random_fit(rng, H=3, d_x=2, d_a=1), 40000
    mean, cov = joint_distribution(fit)
    np.testing.assert_array_equal(mean, interleave(fit.mu_x[None], fit.mu_a[None])[0])

    x, a = sample_lgdbn(
        fit.mu_x, fit.mu_a, fit.psi_x, fit.psi_a, fit.sigma, fit.v_x, m=m, rng=rng
    )
    sample_cov = np.cov(interleave(x, a).T)
    se = 5 * (np.abs(cov) + np.sqrt(np.outer(np.diag(cov), np.diag(cov)))) / np.sqrt(m)
    assert (np.abs(cov - sample_cov) < se).all()


def test_auxiliary_fit_validation():
    with pytest.raises(ValueError):
        AuxiliaryFit(
            mu_x=np.zeros((3, 1)),
            mu_a=np.zeros((2, 0)),
            psi_x=np.zeros((1, 1, 1)),  # wrong horizon
            psi_a=np.zeros((2, 1, 0)),
            sigma=np.zeros((2, 0)),
            v_x=np.zeros((3, 1)),
        )
    with pytest.raises(ValueError):
        AuxiliaryFit(
            mu_x=np.zeros((2, 1)),
            mu_a=np.zeros((1, 0)),
            psi_x=np.zeros((1, 1, 1)),
            psi_a=np.zeros((1, 1, 0)),
            sigma=np.zeros((1, 0)),
            v_x=np.full((2, 1), -1.0),
        )
