"""Linear-Gaussian auxiliary model fitted to trajectory batches.

The auxiliary model treats each state transition as a linear regression on
the previous (centered) state and action with independent Gaussian residuals
whose variance may change over time. Its maximum-likelihood fit is cheap and
closed-form, and the flattened fit doubles as the summary-statistic vector
used by the auxiliary distance. ``fit_mle`` fits one observed state without
actions, the only data the package produces; fits with action blocks are
built directly. ``joint_distribution`` expands a fit into
the mean and covariance of the implied joint normal over a whole trajectory,
which is useful for validating the fit against sampled data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import Dataset


@dataclass(frozen=True)
class SummaryLayout:
    """Shape key for a flattened fit: transitions, state dim, action dim."""

    horizon: int
    d_x: int
    d_a: int

    def __post_init__(self):
        if self.horizon < 1 or self.d_x < 1 or self.d_a < 0:
            raise ValueError("invalid summary layout")

    @property
    def size(self) -> int:
        H, d_x, d_a = self.horizon, self.d_x, self.d_a
        return (H + 1) * d_x + H * d_a + H * d_x * d_x + H * d_x * d_a + H * d_a + (H + 1) * d_x

    def slices(self) -> dict[str, slice]:
        """Component positions inside the flat vector, in canonical order."""
        H, d_x, d_a = self.horizon, self.d_x, self.d_a
        sizes = {
            "mu_x": (H + 1) * d_x,
            "mu_a": H * d_a,
            "psi_x": H * d_x * d_x,
            "psi_a": H * d_x * d_a,
            "sigma": H * d_a,
            "v_x": (H + 1) * d_x,
        }
        out = {}
        start = 0
        for name, size in sizes.items():
            out[name] = slice(start, start + size)
            start += size
        return out


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

    @property
    def layout(self) -> SummaryLayout:
        return SummaryLayout(
            horizon=self.mu_x.shape[0] - 1,
            d_x=self.mu_x.shape[1],
            d_a=self.mu_a.shape[1],
        )


@dataclass(frozen=True, eq=False)
class SummaryStatistics:
    """Flattened auxiliary fit plus the layout needed to interpret it."""

    values: np.ndarray
    layout: SummaryLayout

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.layout.size,):
            raise ValueError(
                f"summary length {values.shape} does not match layout size {self.layout.size}"
            )
        object.__setattr__(self, "values", values)


def flatten(fit: AuxiliaryFit) -> SummaryStatistics:
    """Concatenate fit components in canonical order.

    Order: state means, action means, state regression weights, action
    regression weights, action stds, state stds; each block time-major and
    row-major within a time step.
    """
    values = np.concatenate(
        [
            fit.mu_x.ravel(),
            fit.mu_a.ravel(),
            fit.psi_x.ravel(),
            fit.psi_a.ravel(),
            fit.sigma.ravel(),
            fit.v_x.ravel(),
        ]
    )
    return SummaryStatistics(values=values, layout=fit.layout)


def fit_mle(data: Dataset) -> AuxiliaryFit:
    """Closed-form maximum-likelihood fit of the auxiliary model.

    Means are sample means per time step. Stds are square roots of the
    per-time second moments of the centered values (divisor m). Each
    regression weight is the ordinary least-squares slope of centered step
    t + 1 on centered step t, and zero where step t has no spread.

    Only one observed state is supported, which is what every dataset the
    package reads or generates holds.
    """
    if len(data) < 2:
        raise ValueError("auxiliary fit needs at least 2 trajectories")
    if data.state_dim != 1:
        raise ValueError(
            f"auxiliary fit needs one observed state, got {data.state_dim}"
        )
    T = data.horizon + 1
    H = T - 1
    eta = kernels.aux_summary_1d(data.states[:, :, 0])
    return AuxiliaryFit(
        mu_x=eta[:T].reshape(T, 1),
        mu_a=np.zeros((H, 0)),
        psi_x=eta[T : T + H].reshape(H, 1, 1),
        psi_a=np.zeros((H, 1, 0)),
        sigma=np.zeros((H, 0)),
        v_x=eta[T + H :].reshape(T, 1),
    )


def summarize(data: Dataset) -> SummaryStatistics:
    """Summary-statistic vector of a dataset: the flattened auxiliary fit."""
    return flatten(fit_mle(data))


def joint_distribution(fit: AuxiliaryFit) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the joint normal the fit implies.

    The trajectory vector interleaves states and actions in time order:
    x_1, a_1, x_2, a_2, ..., x_H, a_H, x_{H+1}. Writing the one-step
    regressions as tau = mu + B (tau - mu) + noise with B strictly lower
    block-triangular, the joint covariance is
    (I - B)^{-1} S (I - B)^{-T} where S is the diagonal of squared stds.
    """
    layout = fit.layout
    H, d_x, d_a = layout.horizon, layout.d_x, layout.d_a
    dim = (H + 1) * d_x + H * d_a

    x_off = np.empty(H + 1, dtype=int)
    a_off = np.empty(H, dtype=int)
    off = 0
    for t in range(H):
        x_off[t] = off
        off += d_x
        a_off[t] = off
        off += d_a
    x_off[H] = off

    mean = np.empty(dim)
    scale = np.empty(dim)
    for t in range(H + 1):
        mean[x_off[t] : x_off[t] + d_x] = fit.mu_x[t]
        scale[x_off[t] : x_off[t] + d_x] = fit.v_x[t]
    for t in range(H):
        mean[a_off[t] : a_off[t] + d_a] = fit.mu_a[t]
        scale[a_off[t] : a_off[t] + d_a] = fit.sigma[t]

    B = np.zeros((dim, dim))
    for t in range(H):
        rows = slice(x_off[t + 1], x_off[t + 1] + d_x)
        B[rows, x_off[t] : x_off[t] + d_x] = fit.psi_x[t]
        if d_a:
            B[rows, a_off[t] : a_off[t] + d_a] = fit.psi_a[t]

    transfer = np.linalg.solve(np.eye(dim) - B, np.diag(scale))
    cov = transfer @ transfer.T
    return mean, cov
