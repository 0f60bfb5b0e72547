import argparse
import dataclasses
import importlib
import importlib.metadata
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import hybridabc
from hybridabc import io
from hybridabc.cli import _print_record, build_parser, main
from hybridabc.config import PRESETS, ConfigError, build_config, load_config
from hybridabc.model import PARAM_NAMES, generate_dataset
from hybridabc.smc import OBJECTIVES, GenerationRecord, SmcSettings, run_abc_smc

TINY_ENGINE = textwrap.dedent(
    """
    engine:
      n_particles: 24
      sim_replicates: 2
      p_acc_min: 0.5
      max_generations: 4
    model:
      batches: 3
    experiment:
      noise_levels: [0.2]
      batch_sizes: [3]
      macro_replications: 2
      predictive_samples: 50
    """
)


def test_defaults_match_documented_protocol():
    cfg = build_config()
    assert cfg.seed == 20260822
    assert cfg.engine.n_particles == 200
    assert cfg.engine.alpha == 0.5
    assert cfg.engine.p_acc_min == 0.05
    assert cfg.engine.max_generations == 200
    assert cfg.sim_replicates == 30
    assert cfg.distance == "auxiliary"
    model = cfg.build_model()
    assert model.horizon == 10
    assert model.dt == 3.0
    assert (model.init_rho, model.init_inh) == (3.0, 0.0)
    assert cfg.batches == 20
    assert cfg.noise_levels == (0.1, 0.2)
    assert cfg.batch_sizes == (3, 6, 20)
    assert cfg.macro_replications == 10
    assert cfg.predictive_samples == 2000
    assert cfg.target_t == 11
    np.testing.assert_array_equal(cfg.prior.lows, np.zeros(6))
    np.testing.assert_array_equal(cfg.prior.highs, [0.5, 5.0, 5.0, 0.05, 0.2, 0.2])
    np.testing.assert_allclose(
        cfg.true_theta(), [0.057, 3.4, 2.6, 0.005, 0.1, 0.1], rtol=1e-12
    )


def test_presets():
    assert set(PRESETS) == {"desk", "full", "smoke"}
    full = build_config(preset="full")
    assert full.engine.n_particles == 400
    assert full.sim_replicates == 60
    assert full.macro_replications == 30
    assert full.engine.p_acc_min == 0.15
    assert full.engine.alpha == 0.5  # untouched by the preset
    smoke = build_config(preset="smoke")
    assert smoke.engine.n_particles == 100
    assert smoke.noise_levels == (0.2,)
    assert smoke.batch_sizes == (6,)
    with pytest.raises(ConfigError, match="preset"):
        build_config(preset="huge")


def test_overrides_merge_deeply():
    cfg = build_config({"engine": {"n_particles": 64}})
    assert cfg.engine.n_particles == 64
    assert cfg.engine.alpha == 0.5
    assert cfg.sim_replicates == 30


def test_true_theta_noise_override_and_kinetics():
    cfg = build_config({"model": {"true_values": {"v_rho": 0.2, "v_I": 0.3}}})
    theta = cfg.true_theta()
    np.testing.assert_allclose(theta[4:], [0.2, 0.3])
    np.testing.assert_allclose(theta[:4], cfg.kinetics())
    model = cfg.build_model()
    assert model.horizon == 10 and model.dt == 3.0
    assert model.init_rho == 3.0 and model.init_inh == 0.0


@pytest.mark.parametrize(
    ("override", "path"),
    [
        ({"model": {"dt": 0}}, "model.dt"),
        ({"model": {"horizon": 0}}, "model.horizon"),
        ({"model": {"horizon": True}}, "model.horizon"),
        ({"model": {"typo": 1}}, "model.typo"),
        ({"model": {"true_values": {"r_g": "fast"}}}, "model.true_values.r_g"),
        ({"model": {"true_values": {"extra": 1.0}}}, "model.true_values.extra"),
        ({"model": {"init": [1.0]}}, "model.init"),
        ({"seed": -1}, "seed"),
        ({"nonsense": {}}, "nonsense"),
        ({"prior": {"r_g": [1.0, 0.5]}}, "prior.r_g"),
        ({"prior": {"r_g": [0.0]}}, "prior.r_g"),
        ({"engine": {"distance": "fancy"}}, "engine.distance"),
        ({"engine": {"naive_variant": "trajectory-energy"}}, "engine.naive_variant"),
        ({"engine": {"sim_replicates": 0}}, "engine.sim_replicates"),
        ({"engine": {"alpha": 1.5}}, "engine"),
        ({"engine": {"n_particles": 1}}, "engine"),
        ({"experiment": {"batch_sizes": [1]}}, "experiment.batch_sizes"),
        ({"experiment": {"batch_sizes": []}}, "experiment.batch_sizes"),
        ({"experiment": {"noise_levels": [-0.1]}}, "experiment.noise_levels"),
        ({"experiment": {"target_t": 12}}, "experiment.target_t"),
        ({"experiment": {"target_t": 0}}, "experiment.target_t"),
        ({"experiment": {"macro_replications": 0}}, "experiment.macro_replications"),
        ({"model": {"init": [True, 0]}}, "model.init"),
        ({"prior": {"r_g": [False, 0.5]}}, "prior.r_g"),
        ({"experiment": {"noise_levels": [True]}}, "experiment.noise_levels"),
        ({"model": {"dt": float("nan")}}, "model.dt"),
        ({"model": {"dt": float("inf")}}, "model.dt"),
        ({"prior": {"r_g": [0.0, float("inf")]}}, "prior.r_g"),
        ({"model": {"true_values": {"r_g": float("nan")}}}, "model.true_values.r_g"),
        ({"experiment": {"noise_levels": [10**400]}}, "experiment.noise_levels"),
        ({"model": {"true_values": {"v_rho": -0.1}}}, "model.true_values.v_rho"),
        ({"model": {"true_values": {"v_I": -0.1}}}, "model.true_values.v_I"),
        ({"prior": {"v_rho": [-0.1, 0.2]}}, "prior.v_rho"),
        ({"prior": {"v_I": [-0.1, 0.2]}}, "prior.v_I"),
    ],
)
def test_validation_reports_field_paths(override, path):
    with pytest.raises(ConfigError) as err:
        build_config(override)
    assert err.value.path == path


def test_prior_must_cover_all_parameters():
    import copy

    from hybridabc.config import _validate

    raw = copy.deepcopy(build_config().raw)
    del raw["prior"]["v_I"]
    with pytest.raises(ConfigError) as err:
        _validate(raw)
    assert err.value.path == "prior.v_I"
    with pytest.raises(ConfigError) as err2:
        build_config({"prior": {"extra": [0.0, 1.0]}})
    assert err2.value.path == "prior.extra"


#: Every path of the built-in config with the kind its value must have,
#: written out here rather than read from the defaults, so that a default
#: rewritten with another kind (``dt: 3`` for ``dt: 3.0``) fails a test.
CONFIG_KINDS = {
    "seed": int,
    "output_dir": str,
    "model": dict,
    "model.true_values": dict,
    **{f"model.true_values.{name}": float for name in ("r_g", "k_s", "k_c", "r_d", "v_rho", "v_I")},
    "model.init": list,
    "model.dt": float,
    "model.horizon": int,
    "model.batches": int,
    "prior": dict,
    **{f"prior.{name}": list for name in ("r_g", "k_s", "k_c", "r_d", "v_rho", "v_I")},
    "engine": dict,
    "engine.n_particles": int,
    "engine.alpha": float,
    "engine.sim_replicates": int,
    "engine.p_acc_min": float,
    "engine.distance": str,
    "engine.max_generations": int,
    "experiment": dict,
    "experiment.noise_levels": list,
    "experiment.batch_sizes": list,
    "experiment.macro_replications": int,
    "experiment.predictive_samples": int,
    "experiment.target_t": int,
}

#: Values of the wrong kind for each kind; a bool is never an int here.
WRONG_KIND = {
    float: ["0.5", True, None, [0.5]],
    int: [2.0, True, "2", None],
    str: [1, True, None, ["out"]],
    list: ["0, 1", 1, {"low": 0}, None],
    dict: [[], 1, "block", None],
}


def _config_paths(mapping, prefix=""):
    for key, value in mapping.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _config_paths(value, f"{prefix}{key}.")


def _nested(path, value):
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


def test_the_kind_table_holds_every_path_of_the_defaults():
    assert list(_config_paths(build_config().raw)) == list(CONFIG_KINDS)


@pytest.mark.parametrize(("path", "kind"), CONFIG_KINDS.items())
def test_each_value_must_have_its_defaults_kind_and_be_present(path, kind):
    import copy

    from hybridabc.config import _validate

    expected = "expected a finite number" if kind is float else f"expected {kind.__name__}, got"
    for value in WRONG_KIND[kind]:
        with pytest.raises(ConfigError, match=expected) as err:
            build_config(_nested(path, value))
        assert err.value.path == path, value
    raw = copy.deepcopy(build_config().raw)
    *blocks, leaf = path.split(".")
    parent = raw
    for key in blocks:
        parent = parent[key]
    del parent[leaf]
    with pytest.raises(ConfigError, match=": missing$") as err:
        _validate(raw)
    assert err.value.path == path


@pytest.mark.parametrize(
    "block", [""] + [path for path, kind in CONFIG_KINDS.items() if kind is dict]
)
def test_every_block_refuses_an_unknown_key(block):
    where = f"{block}.typo" if block else "typo"
    with pytest.raises(ConfigError, match=": unknown key$") as err:
        build_config(_nested(where, 1))
    assert err.value.path == where


def test_load_config_reads_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("engine:\n  n_particles: 32\n")
    cfg = load_config(path)
    assert cfg.engine.n_particles == 32
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert load_config(empty).engine.n_particles == 200
    # Only an empty file stands for no overrides; falsy roots are refused too.
    for root in ("- 1\n- 2\n", "[]\n", "0\n", "false\n", '""\n'):
        bad = tmp_path / "badroot.yaml"
        bad.write_text(root)
        with pytest.raises(ConfigError, match="^config root must be a mapping$"):
            load_config(bad)
    broken = tmp_path / "broken.yaml"
    broken.write_text("engine: [1, 2\n")
    with pytest.raises(ConfigError, match="not valid YAML") as err:
        load_config(broken)
    assert err.value.path == str(broken)


def test_example_config_holds_the_defaults():
    example = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"
    assert load_config(example).raw == build_config().raw


def test_dataset_file_round_trip(tmp_path):
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    dataset = generate_dataset(theta, (3.0, 0.0), 3, 1, 10, 3.0, rng=5)
    path = tmp_path / "d.csv"
    io.write_dataset(path, dataset, {"seed": 5})
    back = io.read_dataset(path)
    np.testing.assert_array_equal(back.states, dataset.states)
    assert back.dt == dataset.dt
    meta, columns, rows = io.read_table(path)
    assert meta["seed"] == "5"
    assert columns == ["trajectory", "t", "rho"]
    assert len(rows) == 3 * 11


def test_read_dataset_rejects_foreign_and_incomplete_files(tmp_path):
    other = tmp_path / "other.csv"
    other.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        io.read_dataset(other)
    theta = np.array([0.057, 3.4, 2.6, 0.005, 0.1, 0.1])
    dataset = generate_dataset(theta, (3.0, 0.0), 2, 1, 4, 3.0, rng=6)
    path = tmp_path / "d.csv"
    io.write_dataset(path, dataset, {"seed": 6})
    text = path.read_text()
    path.write_text(text + "0,0,999.0\n")  # a second row for (0, 0)
    with pytest.raises(ValueError, match=r"row \(0, 0\) appears more than once"):
        io.read_dataset(path)
    lines = text.splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one data row
    missing = "missing rows for the declared shape, the first"
    with pytest.raises(ValueError, match=rf"{missing} \(1, 4\)$"):
        io.read_dataset(path)
    first = lines.index("0,0,3.0")
    path.write_text("\n".join(lines[: first + 2] + lines[first + 4 :]) + "\n")  # (0, 2), (0, 3)
    with pytest.raises(ValueError, match=rf"{missing} \(0, 2\)$"):
        io.read_dataset(path)
    path.write_text(text + "0,3\n")
    with pytest.raises(ValueError, match="row '0,3' does not hold three fields"):
        io.read_dataset(path)
    last = lines[-1].rsplit(",", 1)[0]
    for bad in ("inf", "nan"):
        path.write_text("\n".join(lines[:-1] + [f"{last},{bad}"]) + "\n")
        with pytest.raises(ValueError, match=rf"row \(1, 4\) holds the non-finite value '{bad}'"):
            io.read_dataset(path)
    # Every parse failure names the file and the row or the header key.
    for row in ("0,three,3.0", "0,0,x3.0"):
        path.write_text("\n".join(lines[:first] + [row] + lines[first + 1 :]) + "\n")
        with pytest.raises(
            ValueError, match=f"^{re.escape(str(path))}: row '{row}' does not hold two integers"
        ):
            io.read_dataset(path)
    for header, message in (
        ("# horizon: ten", "the horizon header 'ten' is not int"),
        ("# dt: abc", "the dt header 'abc' is not float"),
        ("# trajectories: -1", "the trajectories header must be at least 1, got -1"),
        ("# horizon: 0", "the horizon header must be at least 1, got 0"),
        ("# dt: -3", "the dt header must be finite and positive, got -3"),
        ("# dt: 0", "the dt header must be finite and positive, got 0"),
        ("# dt: inf", "the dt header must be finite and positive, got inf"),
        ("# dt: nan", "the dt header must be finite and positive, got nan"),
    ):
        key = header.split(":")[0]
        edited = [header if line.startswith(key + ":") else line for line in lines]
        assert edited != lines
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            io.read_dataset(path)


def test_posterior_file_contents(tmp_path):
    from helpers import ToyNormalObjective
    from hybridabc.model import Prior

    prior = Prior(names=("mean",), lows=np.array([-5.0]), highs=np.array([5.0]))
    toy = ToyNormalObjective(obs_mean=0.5, obs_std=1.0)
    settings = SmcSettings(n_particles=40, alpha=0.5, p_acc_min=0.5, max_generations=3)
    posterior = run_abc_smc(prior, toy, settings, seed=2)
    # Posterior files hold the model's six parameters.
    posterior = dataclasses.replace(posterior, thetas=np.tile(posterior.thetas, (1, 6)))
    path = tmp_path / "posterior.csv"
    io.write_posterior(path, posterior, {"seed": 2})
    meta, columns, rows = io.read_table(path)
    assert columns == [*PARAM_NAMES, "weight", "distance"]
    assert meta["generations"] == str(posterior.generations)
    assert meta["stopped_by"] == posterior.stopped_by
    weights = np.array([float(r[6]) for r in rows])
    assert weights.sum() == pytest.approx(1.0, rel=1e-9)
    assert len(rows) == len(posterior)


def test_default_workers_count_the_cpus_this_process_may_use(monkeypatch):
    from argparse import Namespace

    from hybridabc import cli

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._workers(Namespace(workers=None)) == 1
    assert cli._workers(Namespace(workers=3)) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._workers(Namespace(workers=None)) == 8


def test_cli_validate_config(tmp_path, capsys):
    assert main(["validate-config"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: seed 20260822,") and out.endswith(", output 'out'\n")
    assert main(["validate-config", "--out", "foo", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: seed 5,") and out.endswith(", output 'foo'\n")
    bad = tmp_path / "bad.yaml"
    bad.write_text("engine:\n  distance: fancy\n")
    assert main(["validate-config", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "engine.distance" in err
    broken = tmp_path / "broken.yaml"
    broken.write_text("engine: [1, 2\n")
    assert main(["validate-config", "--config", str(broken)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {broken}: not valid YAML")
    listroot = tmp_path / "listroot.yaml"
    listroot.write_text("- 1\n")
    assert main(["validate-config", "--config", str(listroot)]) == 2
    assert capsys.readouterr().err == "config error: config root must be a mapping\n"
    nan_dt = tmp_path / "nan_dt.yaml"
    nan_dt.write_text("model:\n  dt: .nan\n")
    assert main(["validate-config", "--config", str(nan_dt)]) == 2
    assert "model.dt" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate-config", "generate", "experiment"])
def test_cli_rejects_a_negative_seed_override(command, tmp_path, capsys):
    assert main([command, "--quiet", "--seed", "-3", "--out", str(tmp_path / "x")]) == 2
    assert "config error: seed: must be non-negative" in capsys.readouterr().err


def test_cli_version_and_bad_preset():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit):
        main(["generate", "--preset", "nope"])


def test_cli_generate_is_byte_deterministic(tmp_path):
    out = tmp_path / "data.csv"
    assert main(["generate", "--quiet", "--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(["generate", "--quiet", "--out", str(out)]) == 0
    assert out.read_bytes() == first
    assert main(["generate", "--quiet", "--seed", "7", "--out", str(out)]) == 0
    assert out.read_bytes() != first
    data = io.read_dataset(out)
    assert len(data) == 20 and data.horizon == 10


def test_cli_infer_round_trip(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(TINY_ENGINE)
    data = tmp_path / "data.csv"
    assert main(["generate", "--quiet", "--config", str(cfg), "--out", str(data)]) == 0
    run_a = tmp_path / "run_a"
    base = ["infer", "--quiet", "--config", str(cfg), "--data", str(data), "--workers", "1"]
    assert main(base + ["--out", str(run_a)]) == 0
    first = (run_a / "posterior.csv").read_bytes()
    assert main(base + ["--out", str(run_a)]) == 0
    assert (run_a / "posterior.csv").read_bytes() == first
    assert (run_a / "history.csv").exists()
    meta, columns, rows = io.read_table(run_a / "posterior.csv")
    assert columns[:6] == list(("r_g", "k_s", "k_c", "r_d", "v_rho", "v_I"))
    assert len(rows) >= 12  # at least floor(alpha N) retained particles
    naive_dir = tmp_path / "run_naive"
    assert main(base + ["--method", "naive", "--out", str(naive_dir)]) == 0
    n_meta, _, _ = io.read_table(naive_dir / "posterior.csv")
    assert '"distance":"naive"' in n_meta["config"]


def test_progress_lines_and_history_columns_follow_the_generation_record(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(TINY_ENGINE)
    data = tmp_path / "data.csv"
    assert main(["generate", "--quiet", "--config", str(cfg), "--out", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    argv = ["infer", "--config", str(cfg), "--data", str(data), "--workers", "1", "--out", str(out)]
    assert main(argv) == 0
    fields = [f.name for f in dataclasses.fields(GenerationRecord)]
    lines = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert lines
    for line in lines:
        assert list(line) == ["method"] + fields
    _, columns, rows = io.read_table(out / "history.csv")
    assert columns == fields
    assert len(rows) == len(lines)


def test_progress_line_is_the_labels_then_the_rounded_record_fields(capsys):
    record = GenerationRecord(
        generation=3,
        tolerance=0.123456789,
        p_acc=0.25,
        prior_rejections=7,
        n_retained=12,
        n_distinct=11,
        ess=9.87654321,
        kernel_trace=0.0123456789,
        distance_p50=0.2345678,
        distance_p90=0.3456789,
        n_evaluations=48,
        simulator_calls=288,
        propose_s=0.0123456,
        evaluate_s=1.0004999,
        weight_s=0.0,
        elapsed_s=2.3456789,
    )
    _print_record(argparse.Namespace(quiet=False), record, cell="v0.2_m3", method="naive")
    fields = dataclasses.asdict(record)
    rounded = {k: round(v, 3) if k.endswith("_s") else v for k, v in fields.items()}
    want = json.dumps(dict(cell="v0.2_m3", method="naive", **rounded))
    assert capsys.readouterr().err == want + "\n"
    _print_record(argparse.Namespace(quiet=True), record, method="naive")
    assert capsys.readouterr().err == ""


def test_cli_infer_rejects_mismatched_dataset(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(TINY_ENGINE)
    data = tmp_path / "data.csv"
    assert main(["generate", "--quiet", "--config", str(cfg), "--out", str(data)]) == 0
    short = tmp_path / "short.yaml"
    short.write_text(
        textwrap.dedent(
            """
            model:
              horizon: 5
              batches: 3
            engine:
              n_particles: 24
              sim_replicates: 2
              p_acc_min: 0.5
              max_generations: 4
            experiment:
              target_t: 6
            """
        )
    )
    code = main(
        ["infer", "--quiet", "--config", str(short), "--data", str(data), "--out", str(tmp_path / "x")]
    )
    assert code == 1
    assert "horizon" in capsys.readouterr().err
    # The same grid, started elsewhere: the data begin at 3.0, the config at 1.0.
    moved = tmp_path / "moved.yaml"
    moved.write_text(TINY_ENGINE.replace("  batches: 3\n", "  batches: 3\n  init: [1.0, 0.0]\n"))
    code = main(
        ["infer", "--quiet", "--config", str(moved), "--data", str(data), "--out", str(tmp_path / "y")]
    )
    assert code == 1
    assert "trajectory 0 start 3.0 does not match the config's 1.0" in capsys.readouterr().err
    assert not (tmp_path / "y").exists()


def test_cli_experiment_smoke(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(TINY_ENGINE)
    out = tmp_path / "exp"
    code = main(
        ["experiment", "--quiet", "--config", str(cfg), "--out", str(out), "--workers", "1"]
    )
    assert code == 0
    cell = out / "cells" / "v0.2_m3"
    assert (cell / "replications.csv").exists()
    assert (cell / "predictive_t11.csv").exists()
    _, _, ks_rows = io.read_table(out / "ks_table.csv")
    assert len(ks_rows) == 4  # 2 methods x 2 states x 1 cell
    _, _, ratio_rows = io.read_table(out / "ratio_table.csv")
    assert len(ratio_rows) == 1
    assert float(ratio_rows[0][2]) > 0.0
    meta, columns, pred_rows = io.read_table(cell / "predictive_t11.csv")
    assert meta["target_t"] == "11"
    assert columns == ["sample_index", "rho_11", "I_11", "source"]
    assert len(pred_rows) == 3 * 50
    sources = {row[3] for row in pred_rows}
    assert sources == {"true-model", "posterior-auxiliary", "posterior-naive"}
    _, columns, rep_rows = io.read_table(cell / "replications.csv")
    assert columns == [
        "method", "v", "m", "ks_rho", "ks_I", "runtime_s", "ratio",
        "replication", "seed", "generations", "simulator_calls",
        "evaluations", "stopped_by", "ess",
        "mean_r_g", "mean_k_s", "mean_k_c", "mean_r_d", "mean_v_rho", "mean_v_I",
        "std_r_g", "std_k_s", "std_k_c", "std_r_d", "std_v_rho", "std_v_I",
    ]
    assert len(rep_rows) == 4  # 2 methods x 2 replications
    reps = [dict(zip(columns, row)) for row in rep_rows]
    runtime = {(r["replication"], r["method"]): float(r["runtime_s"]) for r in reps}
    for r in reps:
        rep = r["replication"]
        assert float(r["ratio"]) == runtime[rep, "naive"] / runtime[rep, "auxiliary"]
        # 24 particles refill 12 a generation; each evaluation simulates
        # 3 observed paths times 2 replicates.
        generations, evaluations = int(r["generations"]), int(r["evaluations"])
        assert evaluations == 24 + (generations - 1) * 12
        assert int(r["simulator_calls"]) == 6 * evaluations
        capped = "max-generations" if generations == 4 else "acceptance-rate"
        assert r["stopped_by"] in {"acceptance-rate", capped}
        assert 0.0 < float(r["ess"]) <= 24


def test_console_script_entry_point():
    # The child imports the package this test imported, installed or not.
    src = str(Path(hybridabc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hybridabc.cli", "validate-config"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok:")


def test_single_worker_runs_never_load_the_pool_stack(tmp_path):
    # The child imports the package this test imported, installed or not.
    src = str(Path(hybridabc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = textwrap.dedent(
        """
        import sys
        from hybridabc.cli import main

        data, out = sys.argv[1:]
        common = ["--quiet", "--preset", "smoke"]
        assert main(["generate", *common, "--out", data]) == 0
        assert main(["infer", *common, "--data", data, "--workers", "1", "--out", out]) == 0
        print(sorted({"concurrent.futures", "multiprocessing"} & set(sys.modules)))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "data.csv"), str(tmp_path / "run")],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "run" / "posterior.csv").exists()


def _canonical(dist: str) -> str:
    return re.sub(r"[-_.]+", "-", dist).lower()


def test_declared_dependencies_are_installed_and_import():
    # An offline install needs every declared dependency to be present.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    requirements = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    modules: dict[str, list[str]] = {}
    for module, dists in importlib.metadata.packages_distributions().items():
        for dist in dists:
            modules.setdefault(_canonical(dist), []).append(module)
    assert requirements
    for requirement in requirements:
        name = _canonical(re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0])
        assert modules.get(name), f"{requirement!r} is not installed"
        for module in modules[name]:
            if not module.startswith("_"):
                importlib.import_module(module)


def test_methods_are_the_objective_registry_in_study_order():
    # A study runs the auxiliary route first, then the naive one.
    assert tuple(OBJECTIVES) == ("auxiliary", "naive")
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    method = next(a for a in commands.choices["infer"]._actions if a.dest == "method")
    assert tuple(method.choices) == tuple(OBJECTIVES)
    for name in OBJECTIVES:
        assert build_config({"engine": {"distance": name}}).distance == name
    with pytest.raises(ConfigError, match="expected 'auxiliary' or 'naive'"):
        build_config({"engine": {"distance": "fancy"}})


def test_naive_variant_and_batch_size_choices():
    # The energy distance is the only naive route, so a config that still
    # picks a variant is stale and names an unknown key.
    with pytest.raises(ConfigError, match="unknown key") as err:
        build_config({"engine": {"naive_variant": "mean-curve"}})
    assert err.value.path == "engine.naive_variant"
    # Two trajectories leave the auxiliary fit no residual variance.
    with pytest.raises(ConfigError) as err:
        build_config({"experiment": {"batch_sizes": [2, 6]}})
    assert err.value.path == "experiment.batch_sizes"
