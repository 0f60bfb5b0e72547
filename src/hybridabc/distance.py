"""Distances between observed and simulated data.

The auxiliary distance compares summary-statistic vectors, the flattened
LG-DBN fits of the observed and of the simulated bundle
(``lgdbn.summarize``), after one fixed linear map ``W`` with ``W.T @ W``
equal to the auxiliary model's Fisher information at the observed fit
(``information_weight``). This is the indirect-inference weighting of
Drovandi, Pettitt & Faddy (2011, JRSS-C): a difference counts by how many
observed-data standard errors it spans, so the per-time means, whose
standard errors are small, pin the growth rate.

The naive distance works on the observable trajectories themselves, the
"match output trajectories" route of the source abstract. The m * L
simulated paths are split into L batches of m, the size of the observed
dataset, and each batch is compared with the observed trajectories by the
energy distance between the two sets of whole trajectories. The L replicate
distances reach the engine unreduced; it weights a particle by the fraction
of them within the tolerance (Del Moral, Doucet & Jasra 2012), so acceptance
keeps the sampling noise of an m-trajectory dataset while every proposal
uses all m * L paths.
"""

from __future__ import annotations

import numpy as np

from .model import Dataset

#: A conditional residual variance at or below this fraction of the step's
#: marginal variance counts as zero (round-off of an exact fit).
RESIDUAL_RTOL = 1e-9


def information_weight(observed: np.ndarray, n_trajectories: int) -> np.ndarray:
    """Square root ``W`` of the LG-DBN Fisher information at the observed fit.

    For one observed state without actions, the auxiliary model says
    x_{t+1} = mu_{t+1} + psi_t (x_t - mu_t) + e_{t+1} with residual
    variance s2_{t+1} = v_{t+1}^2 - psi_t^2 v_t^2, where ``v`` are the
    marginal stds that ``fit_mle`` reports. For m trajectories the rows of
    ``W`` are, per transition t -> t + 1,

    - mean, innovation form: sqrt(m) (d mu_{t+1} - psi_t d mu_t) / s_{t+1};
    - lag weight: sqrt(m) v_t d psi_t / s_{t+1};
    - conditional std: sqrt(2 m) d s_{t+1} / s_{t+1}, with d s_{t+1}
      linearised at the observed fit:
      (v_{t+1} d v_{t+1} - psi_t^2 v_t d v_t - psi_t v_t^2 d psi_t) / s_{t+1};

    plus sqrt(m) d mu_0 / v_0 and sqrt(2 m) d v_0 / v_0 for the start. So
    ``|W d|^2`` is the information quadratic form of a summary difference
    ``d``. ``W`` is lower triangular in the summary's column order.

    Degenerate cases: a start with zero spread (v_0 = 0) is a fixed
    initial state, identical in every dataset, so its mean, its std and
    the first lag weight carry no information and get no row. A zero
    conditional residual variance at a later step (always so with two
    trajectories) makes the information infinite and raises ValueError.
    """
    size = observed.size
    H, rest = divmod(size - 2, 3)
    if observed.ndim != 1 or H < 1 or rest:
        raise ValueError(
            "the information weight needs the (3H + 2,) summary of one "
            "observed state without actions"
        )
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be positive")
    psi0, v0 = H + 1, 2 * H + 1
    psi = observed[psi0:v0]
    v = observed[v0:]
    s2 = v[1:] ** 2 - psi**2 * v[:-1] ** 2
    flat = np.flatnonzero(s2 <= RESIDUAL_RTOL * v[1:] ** 2)
    if flat.size:
        raise ValueError(
            f"the auxiliary fit has zero residual variance at step {flat[0] + 1}; "
            "the information weight needs at least 3 trajectories with "
            "non-degenerate transitions"
        )
    s = np.sqrt(s2)
    root_m = np.sqrt(float(n_trajectories))
    t = np.arange(H)

    mean = np.zeros((H, size))
    mean[t, t + 1] = root_m / s
    mean[t, t] = -psi * root_m / s
    lag = np.zeros((H, size))
    lag[t, psi0 + t] = root_m * v[:-1] / s
    c = np.sqrt(2.0) * root_m / s2
    spread = np.zeros((H, size))
    spread[t, v0 + t + 1] = c * v[1:]
    spread[t, v0 + t] = -c * psi**2 * v[:-1]
    spread[t, psi0 + t] = -c * psi * v[:-1] ** 2
    if v[0] == 0.0:
        return np.vstack([mean, lag[1:], spread])
    start_mean = np.zeros((1, size))
    start_mean[0, 0] = root_m / v[0]
    start_spread = np.zeros((1, size))
    start_spread[0, v0] = np.sqrt(2.0) * root_m / v[0]
    return np.vstack([start_mean, mean, lag, start_spread, spread])


def auxiliary_distance(
    observed: np.ndarray, simulated: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Euclidean norm of each summary difference mapped by ``weight``.

    ``simulated`` is a stack (b, S) of summaries and ``weight`` a (k, S)
    matrix; the result is (b,). Row i gets the bits a stack of row i alone
    gets: each difference is mapped by its own matrix-vector product and
    each norm is its own dot product.
    """
    if simulated.ndim != 2 or observed.shape != simulated.shape[1:]:
        raise ValueError(f"summary shapes differ: {observed.shape} vs {simulated.shape}")
    if weight.shape[1] != observed.shape[0]:
        raise ValueError("weight width does not match the summary length")
    diff = np.matmul(weight, (observed - simulated)[..., None])[..., 0]
    return np.sqrt([np.dot(row, row) for row in diff])


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of ``a`` (..., m, k)."""
    return np.einsum("...ik,...ik->...i", a, a)


def _mean_pair_distance(a, b, a_sq, b_sq) -> np.ndarray:
    """Mean distance over all row pairs of ``a`` and ``b``, given their squared row norms."""
    sq = np.matmul(a, np.swapaxes(b, -1, -2))
    sq *= -2.0
    sq += a_sq[..., :, None]
    sq += b_sq[..., None, :]
    np.maximum(sq, 0.0, out=sq)
    np.sqrt(sq, out=sq)
    return sq.reshape(sq.shape[:-2] + (-1,)).mean(axis=-1)


def observed_energy_terms(observed: Dataset) -> tuple[np.ndarray, float]:
    """The observed paths' squared norms and E|X - X'|: ``naive_distance``'s fixed part."""
    x = observed.states.reshape(len(observed), -1)
    x_sq = _sq_norms(x)
    return x_sq, _mean_pair_distance(x, x, x_sq, x_sq)


def naive_distance(observed: Dataset, simulated: Dataset, observed_terms) -> np.ndarray:
    """Energy distance between the observed and each batch of simulated paths.

    Each trajectory is one point in R^((H + 1) d_x). The simulated paths are
    split, in order, into L batches of m = ``len(observed)``; for batch l
    with paths Y and observed paths X the result holds
    sqrt(2 E|X - Y| - E|X - X'| - E|Y - Y'|), every mean over all m^2
    pairs (Szekely & Rizzo 2013). It is zero when the two sets coincide and
    grows as they differ anywhere in distribution, not only in the mean.
    ``observed_terms`` is ``observed_energy_terms(observed)``.

    The results depend on the memory layout of ``simulated.states``, because
    ``matmul`` takes its BLAS path or its no-BLAS loop by stride: at seed 11
    a contiguous (n, H + 1, 1) input instead of the (n, H + 1, 1) view of a
    contiguous (n, H + 1, 2) array moved the distances by up to 5.9e-8
    relative and the final tolerance by 1.6e-8.
    """
    if (
        observed.horizon != simulated.horizon
        or observed.state_dim != simulated.state_dim
    ):
        raise ValueError("datasets must share horizon and state dimension")
    m = len(observed)
    if len(simulated) % m:
        raise ValueError(
            f"{len(simulated)} simulated paths do not split into batches of {m}"
        )
    x_sq, within_observed = observed_terms
    x = observed.states.reshape(m, -1)
    y = simulated.states.reshape(len(simulated) // m, m, -1)
    y_sq = _sq_norms(y)
    cross = _mean_pair_distance(y, x, y_sq, x_sq)
    energy = 2.0 * cross - within_observed - _mean_pair_distance(y, y, y_sq, y_sq)
    return np.sqrt(np.maximum(energy, 0.0))
