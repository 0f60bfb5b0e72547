import importlib
import importlib.metadata
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from hybridabc import io
from hybridabc.cli import main
from hybridabc.config import PRESETS, ConfigError, build_config, load_config
from hybridabc.model import Dataset, generate_dataset
from hybridabc.smc import SmcSettings, run_abc_smc

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
    assert cfg.naive_variant == "trajectory-energy"
    assert cfg.horizon == 10
    assert cfg.dt == 3.0
    assert cfg.init == (3.0, 0.0)
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
    cfg = build_config()
    theta = cfg.true_theta(0.2)
    np.testing.assert_allclose(theta[4:], [0.2, 0.2])
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
        ({"engine": {"naive_variant": "pairwise"}}, "engine.naive_variant"),
        ({"engine": {"sim_replicates": 0}}, "engine.sim_replicates"),
        ({"engine": {"alpha": 1.5}}, "engine"),
        ({"engine": {"n_particles": 1}}, "engine"),
        ({"experiment": {"batch_sizes": [1]}}, "experiment.batch_sizes"),
        ({"experiment": {"batch_sizes": []}}, "experiment.batch_sizes"),
        ({"experiment": {"noise_levels": [-0.1]}}, "experiment.noise_levels"),
        ({"experiment": {"target_t": 12}}, "experiment.target_t"),
        ({"experiment": {"target_t": 0}}, "experiment.target_t"),
        ({"experiment": {"macro_replications": 0}}, "experiment.macro_replications"),
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


def test_load_config_reads_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("engine:\n  n_particles: 32\n")
    cfg = load_config(path)
    assert cfg.engine.n_particles == 32
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert load_config(empty).engine.n_particles == 200
    bad = tmp_path / "listroot.yaml"
    bad.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        load_config(bad)


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
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one data row
    with pytest.raises(ValueError, match="missing rows"):
        io.read_dataset(path)


def test_posterior_file_contents(tmp_path):
    from helpers import ToyNormalObjective
    from hybridabc.model import Prior

    prior = Prior(names=("mean",), lows=np.array([-5.0]), highs=np.array([5.0]))
    toy = ToyNormalObjective(obs_mean=0.5, obs_std=1.0)
    settings = SmcSettings(n_particles=40, alpha=0.5, p_acc_min=0.5, max_generations=3)
    posterior = run_abc_smc(prior, toy, settings, seed=2)
    path = tmp_path / "posterior.csv"
    io.write_posterior(path, posterior, ("mean",), {"seed": 2})
    meta, columns, rows = io.read_table(path)
    assert columns == ["mean", "weight", "distance"]
    assert meta["generations"] == str(posterior.generations)
    assert meta["stopped_by"] == posterior.stopped_by
    weights = np.array([float(r[1]) for r in rows])
    assert weights.sum() == pytest.approx(1.0, rel=1e-9)
    assert len(rows) == len(posterior)


def test_cli_validate_config(tmp_path, capsys):
    assert main(["validate-config"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok:")
    bad = tmp_path / "bad.yaml"
    bad.write_text("engine:\n  distance: fancy\n")
    assert main(["validate-config", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "engine.distance" in err


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
    _, _, rep_rows = io.read_table(cell / "replications.csv")
    assert len(rep_rows) == 4  # 2 methods x 2 replications


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hybridabc.cli", "validate-config"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok:")


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


def test_naive_variant_and_batch_size_choices():
    assert build_config({"engine": {"naive_variant": "mean-curve"}}).naive_variant == "mean-curve"
    with pytest.raises(ConfigError) as err:
        build_config({"engine": {"naive_variant": "batch-mean-curve"}})
    assert err.value.path == "engine.naive_variant"
    # Two trajectories leave the auxiliary fit no residual variance.
    with pytest.raises(ConfigError) as err:
        build_config({"experiment": {"batch_sizes": [2, 6]}})
    assert err.value.path == "experiment.batch_sizes"
