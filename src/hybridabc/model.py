"""Growth-inhibition process model, priors, and the observed-data container.

The built-in process is an erythroblast culture: cell density grows
logistically until an accumulated inhibitory signal switches growth off, and
both states receive additive Gaussian shocks each step. Only the density is
observable; the inhibitor stays latent. Everything here is expressed through
a small simulator contract (``simulate_paths`` on a model object) so the
inference engine stays model-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels

#: Canonical parameter order used everywhere: growth rate, switch steepness,
#: switch threshold, inhibitor decay, density shock std, inhibitor shock std.
PARAM_NAMES = ("r_g", "k_s", "k_c", "r_d", "v_rho", "v_I")

#: Reference parameter values used to generate synthetic observed data.
TRUE_KINETICS = {"r_g": 0.057, "k_s": 3.4, "k_c": 2.6, "r_d": 0.005}


class SimulationError(RuntimeError):
    """A simulated state became non-finite."""

    def __init__(self, path_index: int, step: int):
        self.path_index = int(path_index)
        self.step = int(step)
        super().__init__(
            f"non-finite state at step {self.step} of path {self.path_index}"
        )


@dataclass(frozen=True, eq=False)
class Prior:
    """Independent uniform box prior.

    Density is the product of reciprocal box widths inside the box and zero
    outside. Bounds are inclusive, which matters only on a null set.
    ``contains`` holds this rule for every caller, the engine's
    perturbation step included.
    """

    names: tuple[str, ...]
    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self):
        lows = np.asarray(self.lows, dtype=float)
        highs = np.asarray(self.highs, dtype=float)
        if lows.shape != (len(self.names),) or highs.shape != lows.shape:
            raise ValueError("prior bounds must match the parameter names")
        if not (lows < highs).all():
            bad = [n for n, lo, hi in zip(self.names, lows, highs) if lo >= hi]
            raise ValueError(f"prior lower bound must be below upper bound for {bad}")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)
        object.__setattr__(self, "_inside", float(1.0 / np.prod(highs - lows)))

    @property
    def dim(self) -> int:
        return len(self.names)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lows, self.highs)

    def contains(self, theta: np.ndarray) -> np.ndarray:
        """Whether each point (..., d) lies in the box: an array of the leading shape."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim < 1 or theta.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} parameters, got shape {theta.shape}")
        return ((theta >= self.lows) & (theta <= self.highs)).all(axis=-1)

    def density(self, theta: np.ndarray) -> np.ndarray:
        """Density at each point (..., d): an array of the leading shape."""
        return np.where(self.contains(theta), self._inside, 0.0)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Homogeneous batch of observed trajectories, stored stacked.

    ``states`` has shape (m, H + 1, d_x) and contains observable columns
    only.
    """

    states: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 3 or states.shape[0] < 1 or states.shape[1] < 2:
            raise ValueError("states must be (m, H + 1, d_x) with m >= 1, H >= 1")
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1] - 1

    @property
    def state_dim(self) -> int:
        return self.states.shape[2]


@dataclass(frozen=True)
class ErythroblastModel:
    """Two-state growth-inhibition simulator on a fixed time grid.

    Density rho grows at rate ``r_g`` gated by a logistic switch of steepness
    ``k_s`` around threshold ``k_c`` on the inhibitor; the inhibitor
    integrates density increments and decays at rate ``r_d``. Both updates
    take additive Gaussian shocks with stds ``v_rho`` and ``v_I``. The
    inhibitor update reuses the shocked density increment, so density shocks
    propagate into the inhibitor within the same step.
    """

    init_rho: float = 3.0
    init_inh: float = 0.0
    dt: float = 3.0
    horizon: int = 10

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")

    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1] != 6:
            raise ValueError(f"expected 6 parameters, got shape {theta.shape}")
        if (theta[..., 4:] < 0).any():
            raise ValueError("shock stds must be non-negative")
        return theta

    def workspace(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Buffers ``simulate_paths`` can reuse from call to call for up to ``n`` paths.

        They hold the standard normals, the scaled shocks and the states,
        flat, so a call for fewer paths lays its arrays out contiguously at
        their start.
        """
        size = self.horizon * 2 * n
        return np.empty(size), np.empty(size), np.empty(size + 2 * n)

    def draw_normals(self, rngs, n: int, out=None) -> np.ndarray:
        """The standard normals of ``n`` paths per stream, (len(rngs) * n, horizon, 2).

        Stream i fills rows i * n to (i + 1) * n, in the order
        ``simulate_paths`` reads them, so stepping from these normals gives
        the states that stepping from the streams gives. They go to the
        start of the flat buffer ``out`` when one is given, as the first
        buffer of ``self.workspace``.
        """
        shape = (len(rngs) * n, self.horizon, 2)
        normals = np.empty(shape) if out is None else out[: math.prod(shape)].reshape(shape)
        for i, rng in enumerate(rngs):
            rng.standard_normal((n, self.horizon, 2), out=normals[i * n : (i + 1) * n])
        return normals

    def simulate_paths(self, theta, n: int, rng, workspace=None, normals=None) -> np.ndarray:
        """Simulate ``n`` full paths under each parameter vector.

        ``theta`` is one vector (6,) drawn from the stream ``rng``, or k rows
        (k, 6) with a sequence of k streams, each a numpy ``Generator``:
        stream i draws the n paths of row i, exactly as a call with that
        row alone would, into rows i * n to (i + 1) * n of the result, and
        one kernel call steps all k * n paths. Given ``normals``, the
        (k * n, horizon, 2) array ``draw_normals`` draws from those
        streams, the call steps from them and reads no stream. Returns
        states of shape (k * n, horizon + 1, 2) with
        columns (rho, I): a fresh C-contiguous array, or, given a
        ``workspace`` from ``self.workspace(size)`` with size >= k * n, a
        view of its start that the next call overwrites. Reusing one
        workspace spares a process the page faults of allocating and
        freeing these arrays on every call.

        Raises SimulationError if any state becomes non-finite: for the
        first row with such a state, its earliest bad step and the path's
        index among that row's n paths, as a call with that row alone
        would raise it.
        """
        theta = self._check_theta(theta)
        rows = len(theta) if theta.ndim == 2 else 1
        if theta.ndim == 2:
            theta = np.repeat(theta.T, n, axis=1)
        fresh = workspace is None
        workspace = self.workspace(rows * n) if fresh else workspace
        capacity = workspace[2].size // (2 * (self.horizon + 1))
        if rows * n > capacity:
            raise ValueError(f"the workspace holds {capacity} paths, fewer than {rows * n}")
        if normals is None:
            rngs = list(rng) if theta.ndim == 2 else [rng]
            if len(rngs) != rows:
                raise ValueError(f"{rows} parameter rows, {len(rngs)} streams")
            normals = self.draw_normals(rngs, n, workspace[0])
        out = self._simulate(theta, normals, n, workspace)
        return np.ascontiguousarray(out) if fresh else out

    def simulate_paths_multi(self, thetas, rng) -> np.ndarray:
        """Simulate one full path per row of ``thetas`` (shape (n, 6))."""
        thetas = np.atleast_2d(self._check_theta(thetas))
        workspace = self.workspace(len(thetas))
        normals = self.draw_normals([rng], len(thetas), workspace[0])
        return self._simulate(thetas.T, normals, len(thetas), workspace)

    def _simulate(self, per_param, normals, n: int, workspace) -> np.ndarray:
        """States of the paths whose standard normals are ``normals``, as (paths, horizon + 1, 2).

        ``per_param`` holds the parameters in rows, (6,) shared by every
        path or (6, paths) one column per path. Raises SimulationError for
        the first group of ``n`` paths with a non-finite state, at their
        earliest bad step.
        """
        H = self.horizon
        paths = len(normals)
        shocks = workspace[1][: H * 2 * paths].reshape(H, 2, paths)
        states = workspace[2][: (H + 1) * 2 * paths].reshape(H + 1, 2, paths)
        per_param = np.ascontiguousarray(per_param)
        # Scaling after the step-major transpose runs each multiply along a
        # whole row of paths instead of over the two shock channels.
        np.multiply(normals.transpose(1, 2, 0), per_param[4:6].reshape(2, -1), out=shocks)
        out = kernels.simulate_paths_raw(
            *per_param[:4],
            self.dt,
            self.init_rho,
            self.init_inh,
            shocks.transpose(2, 0, 1),
            out=states,
        )
        finite = np.isfinite(states)
        if not finite.all():
            bad = ~finite.all(axis=1)
            first = int(np.flatnonzero(bad.any(axis=0))[0]) // n
            bad = bad[:, first * n : (first + 1) * n]
            step = int(np.flatnonzero(bad.any(axis=1))[0])
            raise SimulationError(path_index=np.flatnonzero(bad[step])[0], step=step)
        return out


def generate_dataset(theta, init, m: int, L: int, horizon: int, dt: float, rng) -> Dataset:
    """Generate ``m * L`` observed trajectories under one parameter vector.

    Each trajectory draws from its own sub-stream spawned off ``rng``, so the
    dataset is a pure function of the seed no matter in which order the
    trajectories are realized. One ``simulate_paths`` call steps them all,
    one parameter row and one path per stream.

    Parameters
    ----------
    theta : array-like, shape (6,)
        Model parameters in canonical order.
    init : pair of floats
        Initial (density, inhibitor) state.
    m, L : int
        Batch count and per-batch replicate count; the dataset holds the
        flat concatenation of all m * L trajectories.
    rng : Generator, SeedSequence, or int seed

    Returns
    -------
    Dataset with states of shape (m * L, horizon + 1, 1).
    """
    if m < 1 or L < 1:
        raise ValueError("m and L must be positive")
    model = ErythroblastModel(
        init_rho=float(init[0]), init_inh=float(init[1]), dt=dt, horizon=horizon
    )
    streams = np.random.default_rng(rng).spawn(m * L)
    states = model.simulate_paths(np.tile(theta, (m * L, 1)), 1, streams)
    return Dataset(states=np.ascontiguousarray(states[:, :, :1]), dt=dt)
