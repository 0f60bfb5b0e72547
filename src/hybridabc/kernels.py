"""Hot numeric kernels, vectorized in numpy.

The simulator and the one-dimensional auxiliary-summary fit sit inside the
ABC-SMC particle loop and dominate runtime. Each has one implementation,
vectorized over the batch of paths. Callers look both up as attributes of
this module at call time (``kernels.simulate_paths_raw``), so a wrapper
installed on the module sees every call.
"""

from __future__ import annotations

import numpy as np

#: The only backend. Benchmark output reports it next to its timings.
BACKEND = "numpy"


def _logistic(u: np.ndarray) -> np.ndarray:
    # Stable on both tails without branching: for u below about -709 the
    # exponential overflows to inf and the quotient is exactly 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-u))


def simulate_paths_raw(r_g, k_s, k_c, r_d, dt, init_rho, init_inh, eps):
    """Vectorized growth-inhibition recurrence over a batch of paths.

    All four kinetic parameters are (n,) arrays so that every path may carry
    its own parameter draw; broadcast shared values with ``np.full`` first.
    ``eps`` holds the pre-scaled Gaussian shocks with shape (n, steps, 2)
    where the last axis is (density shock, inhibitor shock). Returns states
    (n, steps + 1, 2).
    """
    n, n_steps, _ = eps.shape
    # Step-major buffers keep every per-step read and write contiguous.
    shocks = np.ascontiguousarray(eps.transpose(1, 2, 0))
    out = np.empty((n_steps + 1, 2, n))
    growth = dt * r_g
    retained = 1.0 - dt * r_d
    rho = np.full(n, float(init_rho))
    inh = np.full(n, float(init_inh))
    out[0, 0] = rho
    out[0, 1] = inh
    for t in range(n_steps):
        f = _logistic(k_s * (k_c - inh))
        rho_next = rho + growth * rho * f + shocks[t, 0]
        # I + dt ((rho' - rho) / dt - r_d I), with the dt factors cancelled.
        inh = retained * inh + (rho_next - rho) + shocks[t, 1]
        rho = rho_next
        out[t + 1, 0] = rho
        out[t + 1, 1] = inh
    return np.ascontiguousarray(out.transpose(2, 0, 1))


def aux_summary_1d(x: np.ndarray) -> np.ndarray:
    """Per-time mean, lag-one regression weight, and marginal std of paths.

    ``x`` has shape (n, T). The result concatenates the T means, the T - 1
    regression weights of centered step t + 1 on centered step t, and the T
    marginal stds (maximum-likelihood, divisor n), in that order.
    """
    # Time-major copy: every reduction below runs along contiguous rows.
    xt = np.ascontiguousarray(np.asarray(x, dtype=float).T)
    n = xt.shape[1]
    mu = xt.sum(axis=1) / n
    xc = xt - mu[:, None]
    sq = np.einsum("ij,ij->i", xc, xc)
    sd = np.sqrt(sq / n)
    num = np.einsum("ij,ij->i", xc[:-1], xc[1:])
    den = sq[:-1]
    psi = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    return np.concatenate([mu, psi, sd])


def warmup() -> None:
    """Run both kernels once on tiny inputs.

    Numpy has nothing to compile, so this does no work that later calls
    depend on. It stays because the pipeline benchmark's set-up calls it.
    """
    eps = np.zeros((2, 3, 2))
    ones = np.ones(2)
    simulate_paths_raw(ones * 0.1, ones, ones, ones * 0.01, 1.0, 1.0, 0.0, eps)
    aux_summary_1d(np.arange(8.0).reshape(2, 4))
