"""Independent reference implementations shared by the tests.

Everything here is deliberately written from the model equations and basic
definitions, without reusing package internals, so tests compare two
separate routes to the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def reference_trajectory(theta, init, horizon, dt, eps=None):
    """Scalar transcription of the growth-inhibition recurrence.

    ``eps`` holds pre-scaled shocks with shape (horizon, 2); zero when None.
    Returns states of shape (horizon + 1, 2).
    """
    r_g, k_s, k_c, r_d = (float(v) for v in theta[:4])
    rho, inh = float(init[0]), float(init[1])
    out = [(rho, inh)]
    for t in range(horizon):
        e_rho = float(eps[t][0]) if eps is not None else 0.0
        e_inh = float(eps[t][1]) if eps is not None else 0.0
        gate = 1.0 - 1.0 / (1.0 + math.exp(k_s * (k_c - inh)))
        rho_next = rho + dt * r_g * rho * gate + e_rho
        inh = inh + dt * ((rho_next - rho) / dt - r_d * inh) + e_inh
        rho = rho_next
        out.append((rho, inh))
    return np.array(out)


def sample_lgdbn(mu_x, mu_a, psi_x, psi_a, sigma, v_x, m, rng):
    """Draw trajectories directly from the linear-Gaussian recurrence."""
    mu_x = np.asarray(mu_x, dtype=float)
    mu_a = np.asarray(mu_a, dtype=float)
    psi_x = np.asarray(psi_x, dtype=float)
    psi_a = np.asarray(psi_a, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    v_x = np.asarray(v_x, dtype=float)
    H, d_x = psi_x.shape[0], mu_x.shape[1]
    d_a = mu_a.shape[1]
    x = np.empty((m, H + 1, d_x))
    a = np.zeros((m, H, d_a))
    x[:, 0] = mu_x[0] + rng.standard_normal((m, d_x)) * v_x[0]
    for t in range(H):
        drive = (x[:, t] - mu_x[t]) @ psi_x[t].T
        if d_a:
            a[:, t] = mu_a[t] + rng.standard_normal((m, d_a)) * sigma[t]
            drive = drive + (a[:, t] - mu_a[t]) @ psi_a[t].T
        x[:, t + 1] = mu_x[t + 1] + drive + rng.standard_normal((m, d_x)) * v_x[t + 1]
    return x, a


def interleave(x, a):
    """Stack trajectories as x_1, a_1, x_2, ..., x_{H+1} row vectors."""
    H = a.shape[1]
    parts = []
    for t in range(H):
        parts.append(x[:, t])
        parts.append(a[:, t])
    parts.append(x[:, H])
    return np.concatenate(parts, axis=1)


def brute_force_ks(a, b) -> float:
    """Double-loop empirical-CDF supremum difference."""
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    best = 0.0
    for s in a + b:
        fa = sum(1 for v in a if v <= s) / len(a)
        fb = sum(1 for v in b if v <= s) / len(b)
        best = max(best, abs(fa - fb))
    return best


@dataclass(frozen=True)
class ToyNormalObjective:
    """Distance for the one-parameter normal-mean toy model.

    Simulates ``n_obs`` draws centered at theta with unit std and compares
    (mean, std) summaries against the observed ones.
    """

    obs_mean: float
    obs_std: float
    n_obs: int = 20

    def __call__(self, theta, rng) -> float:
        x = float(theta[0]) + rng.standard_normal(self.n_obs)
        return math.hypot(x.mean() - self.obs_mean, x.std() - self.obs_std)


@dataclass(frozen=True)
class ScaledReplicateObjective:
    """Deterministic replicate distances k |theta_0| for k = 1..count.

    The smallest replicate equals ``AbsoluteObjective``'s single distance, so
    the engine keeps the same particles under both; only the replicate
    fractions, min(count, floor(tol / |theta_0|)) / count, differ.
    """

    count: int = 4

    def __call__(self, theta, rng):
        return abs(float(theta[0])) * np.arange(1.0, self.count + 1.0)


@dataclass(frozen=True)
class RaggedReplicateObjective:
    """|theta_0| once for negative theta_0, twice otherwise: no fixed width."""

    def __call__(self, theta, rng):
        return np.full(1 if theta[0] < 0.0 else 2, abs(float(theta[0])))


@dataclass(frozen=True)
class AbsoluteObjective:
    """Deterministic single distance |theta_0|."""

    def __call__(self, theta, rng) -> float:
        return abs(float(theta[0]))
