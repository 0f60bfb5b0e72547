"""Declarative experiment configuration.

Configs are YAML mappings with four blocks (model, prior, engine,
experiment) plus a seed and an output directory. A config may start from a
named preset and override any subset of keys. The built-in defaults,
``_BASE``, are the schema: unknown keys are rejected so typos fail loudly,
and each value must have its default's kind. ``ExperimentConfig`` is the
validated, typed result.
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


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
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


def _check_kinds(mapping: dict, schema: dict, path: str) -> None:
    """Hold ``mapping`` to the keys of ``schema`` and the kinds of its defaults.

    A key ``schema`` lacks is unknown and one it has is required. A float
    default takes any finite number; any other default takes its own type
    and never a bool. Dict defaults are checked block by block.
    """
    for key in mapping:
        if key not in schema:
            raise ConfigError(f"{path}.{key}" if path else str(key), "unknown key")
    for key, default in schema.items():
        where = f"{path}.{key}" if path else key
        if key not in mapping:
            raise ConfigError(where, "missing")
        value = mapping[key]
        if isinstance(default, float):
            if not _is_number(value):
                raise ConfigError(where, f"expected a finite number, got {value!r}")
        elif not isinstance(value, type(default)) or isinstance(value, bool):
            kind = type(default).__name__
            raise ConfigError(where, f"expected {kind}, got {type(value).__name__}")
        if isinstance(default, dict):
            _check_kinds(value, default, where)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated configuration; ``raw`` keeps the merged mapping for echoes."""

    seed: int
    output_dir: str
    true_values: dict
    model: ErythroblastModel
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
        return self.model

    def true_theta(self) -> np.ndarray:
        return np.array([self.true_values[name] for name in PARAM_NAMES])

    def kinetics(self) -> np.ndarray:
        return np.array([self.true_values[name] for name in PARAM_NAMES[:4]])


def build_config(overrides: dict | None = None, preset: str = "desk") -> ExperimentConfig:
    """Merge preset and overrides onto the base config and validate."""
    if preset not in PRESETS:
        raise ConfigError("preset", f"unknown preset {preset!r}; have {sorted(PRESETS)}")
    merged = _merge(_BASE, PRESETS[preset])
    if overrides is not None:
        if not isinstance(overrides, dict):
            raise ConfigError("", "config root must be a mapping")
        merged = _merge(merged, overrides)
    return _validate(merged)


def load_config(path: str | Path | None, preset: str = "desk") -> ExperimentConfig:
    """Read a YAML config file (optional) on top of a preset; an empty file is no override."""
    overrides = None
    if path is not None:
        # Imported here: only a config file needs the YAML parser.
        import yaml

        try:
            overrides = yaml.safe_load(Path(path).read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(str(path), f"not valid YAML: {exc}") from exc
    return build_config(overrides, preset=preset)


def _validate(cfg: dict) -> ExperimentConfig:
    """Check keys and kinds against ``_BASE``, then the ranges, and type the result."""
    _check_kinds(cfg, _BASE, "")
    model, engine, experiment = cfg["model"], cfg["engine"], cfg["experiment"]
    if cfg["seed"] < 0:
        raise ConfigError("seed", "must be non-negative")
    init = model["init"]
    if len(init) != 2 or not all(_is_number(v) for v in init):
        raise ConfigError("model.init", "expected two numbers (density, inhibitor)")
    if model["dt"] <= 0:
        raise ConfigError("model.dt", "must be positive")
    for where in (
        "model.horizon",
        "model.batches",
        "engine.sim_replicates",
        "experiment.macro_replications",
        "experiment.predictive_samples",
    ):
        block, key = where.split(".")
        if cfg[block][key] < 1:
            raise ConfigError(where, "must be at least 1")

    for name, bounds in cfg["prior"].items():
        if len(bounds) != 2 or not all(_is_number(v) for v in bounds):
            raise ConfigError(f"prior.{name}", "expected [low, high]")
        if not bounds[0] < bounds[1]:
            raise ConfigError(f"prior.{name}", "low must be below high")
    for name in PARAM_NAMES[4:]:
        if model["true_values"][name] < 0:
            raise ConfigError(f"model.true_values.{name}", "shock std must be non-negative")
        if cfg["prior"][name][0] < 0:
            raise ConfigError(f"prior.{name}", "shock std bounds must be non-negative")
    box = np.array([cfg["prior"][name] for name in PARAM_NAMES], dtype=float)
    prior = Prior(names=PARAM_NAMES, lows=box[:, 0], highs=box[:, 1])

    if engine["distance"] not in OBJECTIVES:
        raise ConfigError("engine.distance", f"expected {' or '.join(map(repr, OBJECTIVES))}")
    try:
        settings = SmcSettings(
            n_particles=engine["n_particles"],
            alpha=float(engine["alpha"]),
            p_acc_min=float(engine["p_acc_min"]),
            max_generations=engine["max_generations"],
        )
    except ValueError as exc:
        raise ConfigError("engine", str(exc)) from exc

    noise_levels = experiment["noise_levels"]
    if not noise_levels or not all(_is_number(v) and v >= 0 for v in noise_levels):
        raise ConfigError("experiment.noise_levels", "expected non-negative numbers")
    batch_sizes = experiment["batch_sizes"]
    # The auxiliary information weight needs a non-zero residual variance,
    # which two trajectories never leave.
    if not batch_sizes or not all(isinstance(v, int) and v >= 3 for v in batch_sizes):
        raise ConfigError("experiment.batch_sizes", "expected integers of at least 3")
    horizon = model["horizon"]
    if not 1 <= experiment["target_t"] <= horizon + 1:
        raise ConfigError("experiment.target_t", f"must lie in [1, {horizon + 1}]")

    return ExperimentConfig(
        seed=cfg["seed"],
        output_dir=cfg["output_dir"],
        true_values={name: float(model["true_values"][name]) for name in PARAM_NAMES},
        model=ErythroblastModel(float(init[0]), float(init[1]), float(model["dt"]), horizon),
        batches=model["batches"],
        prior=prior,
        engine=settings,
        sim_replicates=engine["sim_replicates"],
        distance=engine["distance"],
        noise_levels=tuple(float(v) for v in noise_levels),
        batch_sizes=tuple(int(v) for v in batch_sizes),
        macro_replications=experiment["macro_replications"],
        predictive_samples=experiment["predictive_samples"],
        target_t=experiment["target_t"],
        raw=cfg,
    )
