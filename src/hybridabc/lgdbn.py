"""Linear-Gaussian auxiliary model fitted to trajectory batches.

The auxiliary model treats each state transition as a linear regression on
the previous (centered) state and action with independent Gaussian residuals
whose variance may change over time. Its maximum-likelihood fit is cheap and
closed-form. ``summarize`` returns it for one observed state without
actions, the only data the package produces, as one flat vector of length
3H + 2: the summary statistic of the auxiliary distance. ``fit_mle`` reads
the same vector into an ``AuxiliaryFit``; fits with action blocks are built
directly. ``joint_distribution`` expands a fit into the mean and covariance
of the implied joint normal over a whole trajectory, which is useful for
validating the fit against sampled data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import Dataset


@dataclass(frozen=True, eq=False)
class AuxiliaryFit:
    """Maximum-likelihood parameters of the auxiliary model.

    mu_x : (H + 1, d_x) per-time state means
    mu_a : (H, d_a) per-time action means
    psi_x : (H, d_x, d_x) regression weights on the previous centered state
    psi_a : (H, d_x, d_a) regression weights on the centered action
    sigma : (H, d_a) per-time action stds
    v_x : (H + 1, d_x) per-time state stds

    ``v_x`` has two readings. ``fit_mle`` fills it with marginal stds, the
    spread of x_t itself (acceptance criterion 2 checks this), while
    ``joint_distribution`` reads it as the conditional stds of the
    regression residuals (criterion 3 checks this). For one state without
    actions they are linked by s_{t+1}^2 = v_{t+1}^2 - psi_t^2 v_t^2, which
    ``distance.information_weight`` uses on a fitted summary.
    """

    mu_x: np.ndarray
    mu_a: np.ndarray
    psi_x: np.ndarray
    psi_a: np.ndarray
    sigma: np.ndarray
    v_x: np.ndarray

    def __post_init__(self):
        H1, d_x = np.shape(self.mu_x)
        H = H1 - 1
        d_a = np.shape(self.mu_a)[1] if np.ndim(self.mu_a) == 2 else 0
        expected = {
            "mu_x": (H + 1, d_x),
            "mu_a": (H, d_a),
            "psi_x": (H, d_x, d_x),
            "psi_a": (H, d_x, d_a),
            "sigma": (H, d_a),
            "v_x": (H + 1, d_x),
        }
        for name, shape in expected.items():
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
            object.__setattr__(self, name, value)
        if (self.sigma < 0).any() or (self.v_x < 0).any():
            raise ValueError("stds must be non-negative")


def summarize(data: Dataset) -> np.ndarray:
    """Summary-statistic vector of a dataset: the auxiliary fit, flattened.

    For H transitions of one observed state the vector has length 3H + 2:
    the H + 1 per-time means, the H lag-one regression weights and the
    H + 1 marginal stds, each block time-major (``kernels.aux_summary_1d``).
    Only one observed state is supported, which is what every dataset the
    package reads or generates holds.
    """
    if len(data) < 2:
        raise ValueError("auxiliary fit needs at least 2 trajectories")
    if data.state_dim != 1:
        raise ValueError(
            f"auxiliary fit needs one observed state, got {data.state_dim}"
        )
    return kernels.aux_summary_1d(data.states[:, :, 0])


def fit_mle(data: Dataset) -> AuxiliaryFit:
    """Closed-form maximum-likelihood fit of the auxiliary model.

    Means are sample means per time step. Stds are square roots of the
    per-time second moments of the centered values (divisor m). Each
    regression weight is the ordinary least-squares slope of centered step
    t + 1 on centered step t, and zero where step t has no spread.
    """
    eta = summarize(data)
    T = data.horizon + 1
    H = T - 1
    return AuxiliaryFit(
        mu_x=eta[:T].reshape(T, 1),
        mu_a=np.zeros((H, 0)),
        psi_x=eta[T : T + H].reshape(H, 1, 1),
        psi_a=np.zeros((H, 1, 0)),
        sigma=np.zeros((H, 0)),
        v_x=eta[T + H :].reshape(T, 1),
    )


def joint_distribution(fit: AuxiliaryFit) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the joint normal the fit implies.

    The trajectory vector interleaves states and actions in time order:
    x_1, a_1, x_2, a_2, ..., x_H, a_H, x_{H+1}. Writing the one-step
    regressions as tau = mu + B (tau - mu) + noise with B strictly lower
    block-triangular, the joint covariance is
    (I - B)^{-1} S (I - B)^{-T} where S is the diagonal of squared stds.
    """
    H, d_x, d_a = fit.psi_a.shape
    step = d_x + d_a  # x_t starts at t * step and a_t at t * step + d_x
    mean = np.concatenate([np.hstack([fit.mu_x[:H], fit.mu_a]).ravel(), fit.mu_x[H]])
    scale = np.concatenate([np.hstack([fit.v_x[:H], fit.sigma]).ravel(), fit.v_x[H]])
    dim = mean.size
    psi = np.concatenate([fit.psi_x, fit.psi_a], axis=2)
    B = np.zeros((dim, dim))
    for t in range(H):
        B[(t + 1) * step : (t + 1) * step + d_x, t * step : (t + 1) * step] = psi[t]

    transfer = np.linalg.solve(np.eye(dim) - B, np.diag(scale))
    cov = transfer @ transfer.T
    return mean, cov
