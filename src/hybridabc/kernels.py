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


def simulate_paths_raw(r_g, k_s, k_c, r_d, dt, init_rho, init_inh, eps, out):
    """Vectorized growth-inhibition recurrence over a batch of paths.

    Each of the four kinetic parameters is a scalar shared by every path or
    an (n,) array giving each path its own parameter draw.
    ``eps`` holds the pre-scaled Gaussian shocks indexed (path, step,
    channel), the channels being (density shock, inhibitor shock); a
    transposed view of a step-major (steps, 2, n) buffer is read without a
    copy. The states are written step-major into the caller's buffer ``out``
    (steps + 1, 2, n) and returned as its (n, steps + 1, 2) view.

    Each step is 13 ufunc calls writing into preallocated (n,) rows, listed
    once per call, so at the tens of paths of a small evaluation the cost
    is mostly those calls' fixed overhead.
    """
    n = eps.shape[0]
    # Step-major buffers keep every per-step read and write contiguous.
    shocks = np.ascontiguousarray(eps.transpose(1, 2, 0))
    growth = dt * r_g
    retained = 1.0 - dt * r_d
    gate = np.empty(n)
    step = np.empty(n)
    out[0, 0] = init_rho
    out[0, 1] = init_inh
    # The gate 1 / (1 + exp(k_s (I - k_c))) is the logistic of k_s (k_c - I),
    # exactly. Far past the threshold the exponential overflows to inf and
    # the gate is exactly 0; below it, it underflows to 0 and the gate is 1.
    # Overflow elsewhere makes a state non-finite, and inf - inf or 0 * inf
    # then give nan; callers check for both.
    rhos, inhs = list(out[:, 0]), list(out[:, 1])
    steps = zip(rhos, inhs, rhos[1:], inhs[1:], list(shocks[:, 0]), list(shocks[:, 1]))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for rho, inh, rho_next, inh_next, rho_shock, inh_shock in steps:
            np.subtract(inh, k_c, gate)
            np.multiply(gate, k_s, gate)
            np.exp(gate, gate)
            np.add(gate, 1.0, gate)
            np.divide(1.0, gate, gate)
            np.multiply(growth, rho, step)
            np.multiply(step, gate, step)
            np.add(rho, step, rho_next)
            np.add(rho_next, rho_shock, rho_next)
            # I + dt ((rho' - rho) / dt - r_d I), with the dt factors cancelled.
            np.subtract(rho_next, rho, step)
            np.multiply(retained, inh, inh_next)
            np.add(inh_next, step, inh_next)
            np.add(inh_next, inh_shock, inh_next)
    return out.transpose(2, 0, 1)


def aux_summary_1d(x: np.ndarray) -> np.ndarray:
    """Per-time mean, lag-one regression weight, and marginal std of paths.

    ``x`` has shape (..., n, T): one bundle of n paths of T steps, or a
    stack of bundles. For each bundle the result concatenates the T means,
    the T - 1 regression weights of centered step t + 1 on centered step t,
    and the T marginal stds (maximum-likelihood, divisor n), in that order,
    so it has shape (..., 3T - 1). Each bundle gets the bits it gets alone.
    """
    # Every reduction below runs along contiguous time-major rows; the
    # workspace's (k, n, T) view of a block has them already, other inputs
    # are copied.
    xt = np.swapaxes(np.asarray(x, dtype=float), -1, -2)
    xt = xt if xt.strides[-1] == xt.itemsize else np.ascontiguousarray(xt)
    n = xt.shape[-1]
    mu = xt.sum(axis=-1) / n
    xc = xt - mu[..., None]
    sq = np.einsum("...ij,...ij->...i", xc, xc)
    sd = np.sqrt(sq / n)
    num = np.einsum("...ij,...ij->...i", xc[..., :-1, :], xc[..., 1:, :])
    den = sq[..., :-1]
    psi = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    return np.concatenate([mu, psi, sd], axis=-1)


def warmup() -> None:
    """Run both kernels once on tiny inputs.

    Numpy has nothing to compile, so this does no work that later calls
    depend on. It stays because the pipeline benchmark's set-up calls it.
    """
    eps = np.zeros((2, 3, 2))
    ones = np.ones(2)
    out = np.empty((4, 2, 2))
    simulate_paths_raw(ones * 0.1, ones, ones, ones * 0.01, 1.0, 1.0, 0.0, eps, out)
    aux_summary_1d(np.arange(8.0).reshape(2, 4))
