"""Declarative experiment configuration.

Configs are YAML mappings with five blocks (model, prior, engine,
experiment) plus a seed and an output directory. A config may start from a
named preset and override any subset of keys; unknown keys are rejected so
typos fail loudly. ``ExperimentConfig`` is the validated, typed result.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import PARAM_NAMES, TRUE_KINETICS, ErythroblastModel, Prior
from .smc import OBJECTIVES, SmcSettings


class ConfigError(ValueError):
    """Invalid configuration; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


_BASE = {
    "seed": 20260822,
    "output_dir": "out",
    "model": {
        "true_values": dict(TRUE_KINETICS, v_rho=0.1, v_I=0.1),
        "init": [3.0, 0.0],
        "dt": 3.0,
        "horizon": 10,
        "batches": 20,
    },
    "prior": {
        "r_g": [0.0, 0.5],
        "k_s": [0.0, 5.0],
        "k_c": [0.0, 5.0],
        "r_d": [0.0, 0.05],
        "v_rho": [0.0, 0.2],
        "v_I": [0.0, 0.2],
    },
    "engine": {
        "n_particles": 200,
        "alpha": 0.5,
        "sim_replicates": 30,
        # Smaller stopping rate than the full-scale 0.15: with 100 refills the
        # acceptance-rate estimate is noisy enough to halt runs mid-schedule.
        "p_acc_min": 0.05,
        "distance": "auxiliary",
        "max_generations": 200,
    },
    "experiment": {
        "noise_levels": [0.1, 0.2],
        "batch_sizes": [3, 6, 20],
        "macro_replications": 10,
        "predictive_samples": 2000,
        "target_t": 11,
    },
}

#: Named presets. "full" is the full-scale comparison study; "desk"
#: (the default) finishes on a laptop; "smoke" is for quick checks.
PRESETS = {
    "desk": {},
    "full": {
        "engine": {"n_particles": 400, "sim_replicates": 60, "p_acc_min": 0.15},
        "experiment": {"macro_replications": 30},
    },
    "smoke": {
        "engine": {"n_particles": 100, "sim_replicates": 10},
        "experiment": {
            "noise_levels": [0.2],
            "batch_sizes": [6],
            "macro_replications": 5,
            "predictive_samples": 500,
        },
    },
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else str(key)
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _is_number(value) -> bool:
    """A finite int or float; YAML booleans are ints to Python but not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _expect(mapping: dict, key: str, kind, path: str):
    where = f"{path}.{key}" if path else key
    if key not in mapping:
        raise ConfigError(where, "missing")
    value = mapping[key]
    if kind is float:
        if not _is_number(value):
            raise ConfigError(where, f"expected a finite number, got {value!r}")
        return float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(where, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed, path: str):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else str(key), "unknown key")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated configuration; ``raw`` keeps the merged mapping for echoes."""

    seed: int
    output_dir: str
    true_values: dict
    init: tuple[float, float]
    dt: float
    horizon: int
    batches: int
    prior: Prior
    engine: SmcSettings
    sim_replicates: int
    distance: str
    noise_levels: tuple[float, ...]
    batch_sizes: tuple[int, ...]
    macro_replications: int
    predictive_samples: int
    target_t: int
    raw: dict

    def build_model(self) -> ErythroblastModel:
        return ErythroblastModel(
            init_rho=self.init[0],
            init_inh=self.init[1],
            dt=self.dt,
            horizon=self.horizon,
        )

    def true_theta(self) -> np.ndarray:
        return np.array([self.true_values[name] for name in PARAM_NAMES])

    def kinetics(self) -> np.ndarray:
        return np.array([self.true_values[name] for name in PARAM_NAMES[:4]])


def build_config(overrides: dict | None = None, preset: str = "desk") -> ExperimentConfig:
    """Merge preset and overrides onto the base config and validate."""
    if preset not in PRESETS:
        raise ConfigError("preset", f"unknown preset {preset!r}; have {sorted(PRESETS)}")
    merged = _merge(_BASE, PRESETS[preset])
    if overrides:
        if not isinstance(overrides, dict):
            raise ConfigError("", "config root must be a mapping")
        merged = _merge(merged, overrides)
    return _validate(merged)


def load_config(path: str | Path | None, preset: str = "desk") -> ExperimentConfig:
    """Read a YAML config file (optional) on top of a preset."""
    overrides = None
    if path is not None:
        # Imported here: only a config file needs the YAML parser.
        import yaml

        try:
            overrides = yaml.safe_load(Path(path).read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(str(path), f"not valid YAML: {exc}") from exc
        if overrides is None:
            overrides = {}
    return build_config(overrides, preset=preset)


def _validate(cfg: dict) -> ExperimentConfig:
    _reject_unknown(cfg, {"seed", "output_dir", "model", "prior", "engine", "experiment"}, "")
    seed = _expect(cfg, "seed", int, "")
    if seed < 0:
        raise ConfigError("seed", "must be non-negative")
    output_dir = _expect(cfg, "output_dir", str, "")

    model = _expect(cfg, "model", dict, "")
    _reject_unknown(model, {"true_values", "init", "dt", "horizon", "batches"}, "model")
    true_block = _expect(model, "true_values", dict, "model")
    _reject_unknown(true_block, PARAM_NAMES, "model.true_values")
    true_values = {n: _expect(true_block, n, float, "model.true_values") for n in PARAM_NAMES}
    init = _expect(model, "init", list, "model")
    if len(init) != 2 or not all(_is_number(v) for v in init):
        raise ConfigError("model.init", "expected two numbers (density, inhibitor)")
    dt = _expect(model, "dt", float, "model")
    if dt <= 0:
        raise ConfigError("model.dt", "must be positive")
    horizon = _expect(model, "horizon", int, "model")
    if horizon < 1:
        raise ConfigError("model.horizon", "must be at least 1")
    batches = _expect(model, "batches", int, "model")
    if batches < 1:
        raise ConfigError("model.batches", "must be at least 1")

    prior_block = _expect(cfg, "prior", dict, "")
    _reject_unknown(prior_block, PARAM_NAMES, "prior")
    lows, highs = [], []
    for name in PARAM_NAMES:
        bounds = _expect(prior_block, name, list, "prior")
        if len(bounds) != 2 or not all(_is_number(v) for v in bounds):
            raise ConfigError(f"prior.{name}", "expected [low, high]")
        if not bounds[0] < bounds[1]:
            raise ConfigError(f"prior.{name}", "low must be below high")
        lows.append(float(bounds[0]))
        highs.append(float(bounds[1]))
    prior = Prior(names=PARAM_NAMES, lows=np.array(lows), highs=np.array(highs))

    engine = _expect(cfg, "engine", dict, "")
    _reject_unknown(
        engine,
        {
            "n_particles",
            "alpha",
            "sim_replicates",
            "p_acc_min",
            "distance",
            "max_generations",
        },
        "engine",
    )
    n_particles = _expect(engine, "n_particles", int, "engine")
    alpha = _expect(engine, "alpha", float, "engine")
    sim_replicates = _expect(engine, "sim_replicates", int, "engine")
    p_acc_min = _expect(engine, "p_acc_min", float, "engine")
    distance = _expect(engine, "distance", str, "engine")
    max_generations = _expect(engine, "max_generations", int, "engine")
    if sim_replicates < 1:
        raise ConfigError("engine.sim_replicates", "must be at least 1")
    if distance not in OBJECTIVES:
        raise ConfigError("engine.distance", f"expected {' or '.join(map(repr, OBJECTIVES))}")
    try:
        settings = SmcSettings(
            n_particles=n_particles,
            alpha=alpha,
            p_acc_min=p_acc_min,
            max_generations=max_generations,
        )
    except ValueError as exc:
        raise ConfigError("engine", str(exc)) from exc

    experiment = _expect(cfg, "experiment", dict, "")
    _reject_unknown(
        experiment,
        {"noise_levels", "batch_sizes", "macro_replications", "predictive_samples", "target_t"},
        "experiment",
    )
    noise_levels = _expect(experiment, "noise_levels", list, "experiment")
    if not noise_levels or not all(_is_number(v) and v >= 0 for v in noise_levels):
        raise ConfigError("experiment.noise_levels", "expected non-negative numbers")
    batch_sizes = _expect(experiment, "batch_sizes", list, "experiment")
    # The auxiliary information weight needs a non-zero residual variance,
    # which two trajectories never leave.
    if not batch_sizes or not all(isinstance(v, int) and v >= 3 for v in batch_sizes):
        raise ConfigError("experiment.batch_sizes", "expected integers of at least 3")
    macro_replications = _expect(experiment, "macro_replications", int, "experiment")
    if macro_replications < 1:
        raise ConfigError("experiment.macro_replications", "must be at least 1")
    predictive_samples = _expect(experiment, "predictive_samples", int, "experiment")
    if predictive_samples < 1:
        raise ConfigError("experiment.predictive_samples", "must be at least 1")
    target_t = _expect(experiment, "target_t", int, "experiment")
    if not 1 <= target_t <= horizon + 1:
        raise ConfigError("experiment.target_t", f"must lie in [1, {horizon + 1}]")

    return ExperimentConfig(
        seed=seed,
        output_dir=output_dir,
        true_values=true_values,
        init=(float(init[0]), float(init[1])),
        dt=dt,
        horizon=horizon,
        batches=batches,
        prior=prior,
        engine=settings,
        sim_replicates=sim_replicates,
        distance=distance,
        noise_levels=tuple(float(v) for v in noise_levels),
        batch_sizes=tuple(int(v) for v in batch_sizes),
        macro_replications=macro_replications,
        predictive_samples=predictive_samples,
        target_t=target_t,
        raw=cfg,
    )
