"""Growth-inhibition process model, priors, and the observed-data container.

The built-in process is an erythroblast culture: cell density grows
logistically until an accumulated inhibitory signal switches growth off, and
both states receive additive Gaussian shocks each step. Only the density is
observable; the inhibitor stays latent. Everything here is expressed through
a small simulator contract (``simulate_paths`` on a model object) so the
inference engine stays model-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .rng import normalize_rng

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

    @property
    def dim(self) -> int:
        return len(self.names)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lows, self.highs)

    def contains(self, theta: np.ndarray) -> bool:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} parameters, got shape {theta.shape}")
        return bool((theta >= self.lows).all() and (theta <= self.highs).all())

    def density(self, theta: np.ndarray) -> float:
        if not self.contains(theta):
            return 0.0
        return float(1.0 / np.prod(self.highs - self.lows))


def erythroblast_prior() -> Prior:
    """Default box prior for the growth-inhibition model."""
    return Prior(
        names=PARAM_NAMES,
        lows=np.zeros(6),
        highs=np.array([0.5, 5.0, 5.0, 0.05, 0.2, 0.2]),
    )


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
        if self.dt <= 0:
            raise ValueError("dt must be positive")
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

    param_names = PARAM_NAMES
    state_dim = 2
    observed_dim = 1

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1] != 6:
            raise ValueError(f"expected 6 parameters, got shape {theta.shape}")
        if (theta[..., 4:] < 0).any():
            raise ValueError("shock stds must be non-negative")
        return theta

    def simulate_paths(self, theta, n: int, rng) -> np.ndarray:
        """Simulate ``n`` full paths under one parameter vector.

        Returns states of shape (n, horizon + 1, 2) with columns (rho, I).
        Raises SimulationError if any state becomes non-finite.
        """
        theta = self._check_theta(theta)
        rng = normalize_rng(rng)
        eps = rng.standard_normal((n, self.horizon, 2)) * theta[4:6]
        out = kernels.simulate_paths_raw(
            np.full(n, theta[0]),
            np.full(n, theta[1]),
            np.full(n, theta[2]),
            np.full(n, theta[3]),
            self.dt,
            self.init_rho,
            self.init_inh,
            eps,
        )
        _raise_on_nonfinite(out)
        return out

    def simulate_paths_multi(self, thetas, rng) -> np.ndarray:
        """Simulate one full path per row of ``thetas`` (shape (n, 6))."""
        thetas = self._check_theta(np.atleast_2d(thetas))
        rng = normalize_rng(rng)
        n = thetas.shape[0]
        eps = rng.standard_normal((n, self.horizon, 2)) * thetas[:, None, 4:6]
        out = kernels.simulate_paths_raw(
            np.ascontiguousarray(thetas[:, 0]),
            np.ascontiguousarray(thetas[:, 1]),
            np.ascontiguousarray(thetas[:, 2]),
            np.ascontiguousarray(thetas[:, 3]),
            self.dt,
            self.init_rho,
            self.init_inh,
            eps,
        )
        _raise_on_nonfinite(out)
        return out


def _raise_on_nonfinite(states: np.ndarray) -> None:
    finite = np.isfinite(states)
    if finite.all():
        return
    bad = np.argwhere(~finite)
    j = int(bad[:, 1].argmin())
    raise SimulationError(path_index=bad[j, 0], step=bad[j, 1])


def generate_dataset(theta, init, m: int, L: int, horizon: int, dt: float, rng) -> Dataset:
    """Generate ``m * L`` observed trajectories under one parameter vector.

    Each trajectory draws from its own sub-stream spawned off ``rng``, so the
    dataset is a pure function of the seed no matter in which order the
    trajectories are realized.

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
    parent = normalize_rng(rng)
    streams = parent.spawn(m * L)
    observed = np.empty((m * L, horizon + 1, 1))
    for i, stream in enumerate(streams):
        observed[i, :, 0] = model.simulate_paths(theta, 1, stream)[0, :, 0]
    return Dataset(states=observed, dt=dt)
