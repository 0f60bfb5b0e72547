"""Delimited text files with self-describing headers.

Every file starts with comment lines carrying the artifact version, the
seed, and a compact JSON echo of the effective configuration, so any output
can be reproduced from its own header. Floats are written with ``repr`` and
round-trip exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from ._version import __version__
from .model import PARAM_NAMES, Dataset
from .smc import GenerationRecord

_COMMENT = "#"


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _header(kind: str, config_echo: dict, meta: dict | None = None) -> list[str]:
    lines = [f"{_COMMENT} hybridabc v{__version__} {kind}"]
    if "seed" in config_echo:
        lines.append(f"{_COMMENT} seed: {config_echo['seed']}")
    lines.append(
        f"{_COMMENT} config: "
        + json.dumps(config_echo, sort_keys=True, separators=(",", ":"))
    )
    for key, value in (meta or {}).items():
        lines.append(f"{_COMMENT} {key}: {value}")
    return lines


def _write(path, lines) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_table(path, kind: str, config_echo: dict, columns, rows, meta=None) -> None:
    """Generic writer: header comments, a column line, one CSV row per item."""
    lines = _header(kind, config_echo, meta)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    _write(path, lines)


def read_table(path) -> tuple[dict, list[str], list[list[str]]]:
    """Parse any file written here: (meta, column names, raw string rows)."""
    meta: dict = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith(_COMMENT):
            body = line[len(_COMMENT) :].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                meta[key.strip()] = value.strip()
            continue
        if not columns:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def write_dataset(path, dataset: Dataset, config_echo: dict) -> None:
    """One row per (trajectory, time step) with the observed density."""
    if dataset.state_dim != 1:
        raise ValueError("dataset files hold a single observed state column")
    rows = []
    for i in range(len(dataset)):
        for t in range(dataset.horizon + 1):
            rows.append((i, t, dataset.states[i, t, 0]))
    write_table(
        path,
        "dataset",
        config_echo,
        ["trajectory", "t", "rho"],
        rows,
        meta={
            "trajectories": len(dataset),
            "horizon": dataset.horizon,
            "dt": _fmt(dataset.dt),
        },
    )


def read_dataset(path) -> Dataset:
    meta, columns, raw = read_table(path)
    if columns != ["trajectory", "t", "rho"]:
        raise ValueError(f"{path} is not a dataset file (columns {columns})")
    header = {}
    for key, kind in (("trajectories", int), ("horizon", int), ("dt", float)):
        if key not in meta:
            raise ValueError(f"{path} is missing the {key} header")
        where = f"{path}: the {key} header"
        try:
            header[key] = kind(meta[key])
        except ValueError:
            raise ValueError(f"{where} {meta[key]!r} is not {kind.__name__}") from None
        if kind is int and header[key] < 1:
            raise ValueError(f"{where} must be at least 1, got {header[key]}")
        if kind is float and not 0.0 < header[key] < math.inf:
            raise ValueError(f"{where} must be finite and positive, got {meta[key]}")
    m, horizon, dt = header.values()
    states = np.full((m, horizon + 1, 1), np.nan)
    for row in raw:
        where = f"{path}: row {','.join(row)!r}"
        if len(row) != 3:
            raise ValueError(f"{where} does not hold three fields")
        try:
            i, t, value = int(row[0]), int(row[1]), float(row[2])
        except ValueError:
            raise ValueError(f"{where} does not hold two integers and a number") from None
        if not (0 <= i < m and 0 <= t <= horizon):
            raise ValueError(f"{path}: row ({i}, {t}) outside the declared shape")
        if not math.isfinite(value):
            raise ValueError(f"{path}: row ({i}, {t}) holds the non-finite value {row[2]!r}")
        if not np.isnan(states[i, t, 0]):
            raise ValueError(f"{path}: row ({i}, {t}) appears more than once")
        states[i, t, 0] = value
    missing = np.argwhere(np.isnan(states[:, :, 0]))
    if missing.size:
        i, t = missing[0]
        raise ValueError(f"{path}: missing rows for the declared shape, the first ({i}, {t})")
    return Dataset(states=states, dt=dt)


def write_posterior(path, posterior, config_echo: dict) -> None:
    """Retained particles: one column per ``PARAM_NAMES`` entry, weight, distance."""
    rows = [
        tuple(posterior.thetas[i]) + (posterior.weights[i], posterior.distances[i])
        for i in range(len(posterior))
    ]
    write_table(
        path,
        "posterior",
        config_echo,
        [*PARAM_NAMES, "weight", "distance"],
        rows,
        meta={
            "generations": posterior.generations,
            "final_tolerance": _fmt(posterior.tolerances[-1]),
            "simulator_calls": posterior.simulator_calls,
            "stopped_by": posterior.stopped_by,
        },
    )


def write_history(path, records, config_echo: dict) -> None:
    """Per-generation engine trace, one column per ``GenerationRecord`` field."""
    columns = [f.name for f in dataclasses.fields(GenerationRecord)]
    rows = [dataclasses.astuple(rec) for rec in records]
    write_table(path, "history", config_echo, columns, rows)


def write_replications(path, cell, config_echo: dict) -> None:
    """Per-replication records of one grid cell, both methods.

    Each row ends with the weighted posterior mean of every parameter, then
    its weighted std, as columns ``mean_<name>`` and ``std_<name>``.
    Replications that failed have no rows; the ``failures`` header holds
    them as a JSON list of ``[replication, repr of the exception]`` pairs.
    """
    rows = [
        (
            rec.method,
            cell.noise,
            cell.batches,
            rec.ks_rho,
            rec.ks_inh,
            rec.runtime_s,
            rec.ratio,
            rec.replication,
            rec.seed,
            rec.generations,
            rec.simulator_calls,
            rec.evaluations,
            rec.stopped_by,
            rec.ess,
            *rec.posterior_mean,
            *rec.posterior_std,
        )
        for rec in cell.records
    ]
    write_table(
        path,
        "replications",
        config_echo,
        [
            "method",
            "v",
            "m",
            "ks_rho",
            "ks_I",
            "runtime_s",
            "ratio",
            "replication",
            "seed",
            "generations",
            "simulator_calls",
            "evaluations",
            "stopped_by",
            "ess",
            *(f"mean_{name}" for name in PARAM_NAMES),
            *(f"std_{name}" for name in PARAM_NAMES),
        ],
        rows,
        meta={"failures": json.dumps([[r, reason] for r, reason in cell.failures])},
    )


def write_predictive(path, predictive: dict, target_t: int, config_echo: dict) -> None:
    """Predictive draws at the target step, one block per source."""
    columns = ["sample_index", f"rho_{target_t}", f"I_{target_t}", "source"]
    rows = []
    for source in sorted(predictive):
        values = predictive[source]
        for i in range(values.shape[0]):
            rows.append((i, values[i, 0], values[i, 1], source))
    write_table(
        path,
        "predictive",
        config_echo,
        columns,
        rows,
        meta={"target_t": target_t},
    )
