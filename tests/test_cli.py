"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from plapsim import verify
from plapsim.cli import EXIT_BLOW_UP, EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, main
from plapsim.config import parse_config_text, ConfigError, load_config
from plapsim.spatial import Grid, initial_from_csv

HEAT_CONFIG = """
# deterministic linear benchmark
grid.n_interior = 32
coeff.type = "linear"
coeff.p = 2.0
noise.enabled = false
pert.enabled = false
solver.n = 0
solver.dt = 0.0002
solver.t_end = 0.05
solver.record_every = 50
initial.type = "sine"
initial.amplitude = 1.0
run.paths = 1
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -------------------------------------------------------------------- parsing


def test_parse_config_text_value_kinds():
    cfg = parse_config_text(
        'a.flag = true\nb.num = 3\nc.x = 2.5    # trailing comment\n'
        'd.name = "gaussian"\ne.bare = sine\nf.list = [4, 8, 16]\n')
    assert cfg == {"a.flag": True, "b.num": 3, "c.x": 2.5,
                   "d.name": "gaussian", "e.bare": "sine",
                   "f.list": [4, 8, 16]}


def test_parse_config_text_rejects_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a.b = 1\na.b = 2\n")
    with pytest.raises(ConfigError, match="unterminated"):
        parse_config_text("a.b = [1, 2\n")


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, "sigma.alpa = 0.5\n")
    with pytest.raises(ConfigError, match="sigma.alpa"):
        load_config(path)


def test_load_config_rejects_unknown_keys_in_a_manifest(tmp_path):
    out = tmp_path / "out"
    assert main(["regcheck", "--out", str(out), "--n-list", "2,4"]) == EXIT_PASS
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"]["solver.dtt"] = 0.5
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="unknown configuration key solver.dtt"):
        load_config(path)


# ------------------------------------------------------------------- regcheck


def test_regcheck_passes_and_writes_outputs(tmp_path):
    out = tmp_path / "out"
    code = main(["regcheck", "--out", str(out), "--n-list", "2,4"])
    assert code == EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert len(report["levels"]) == 2
    lines = (out / "regcheck.csv").read_text().strip().splitlines()
    assert lines[0] == "n,measured_gap,gap_bound"
    assert len(lines) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "plapsim"
    assert manifest["config"]["regcheck.n_list"] == [2, 4]


def test_regcheck_refuses_a_single_level(tmp_path, capsys):
    code = main(["regcheck", "--out", str(tmp_path / "out"), "--n-list", "2"])
    assert code == EXIT_CONFIG
    assert "regcheck.n_list" in capsys.readouterr().err


def test_invalid_alpha_exits_config_error(tmp_path, capsys):
    path = write_config(tmp_path, "sigma.alpha = 1.5\n")
    code = main(["regcheck", "--config", str(path), "--out",
                 str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "sigma.alpha" in capsys.readouterr().err


def test_unknown_key_exits_config_error(tmp_path, capsys):
    path = write_config(tmp_path, "solver.dx = 0.1\n")
    code = main(["simulate", "--config", str(path), "--out",
                 str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "solver.dx" in capsys.readouterr().err


# ------------------------------------------------------------------- simulate


def test_simulate_heat_matches_exact_profile(tmp_path):
    path = write_config(tmp_path, HEAT_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) \
        == EXIT_PASS
    grid = Grid(1, 32)
    final = initial_from_csv(grid, out / "final_state_000.csv")
    x = grid.nodes()[:, 0]
    exact = np.exp(-np.pi ** 2 * 0.05) * np.sin(np.pi * x)
    err = np.linalg.norm(final - exact) / np.linalg.norm(exact)
    assert err < 5e-3
    lines = (out / "trajectory_000.csv").read_text().strip().splitlines()
    assert lines[0] == "t,l2_sq,grad_lp_p,hm0_sq,wmq_q,newton_iters"
    assert len(lines) == 1 + 6   # t = 0 and five thinned snapshots


def test_simulate_is_deterministic_and_seed_sensitive(tmp_path):
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    assert main(["simulate", "--out", str(out1), "--paths", "1"]) == EXIT_PASS
    assert main(["simulate", "--out", str(out2), "--paths", "1"]) == EXIT_PASS
    assert main(["simulate", "--out", str(out3), "--paths", "1",
                 "--seed", "99"]) == EXIT_PASS
    tr = "trajectory_000.csv"
    assert (out1 / tr).read_bytes() == (out2 / tr).read_bytes()
    assert (out1 / tr).read_bytes() != (out3 / tr).read_bytes()
    manifest = json.loads((out3 / "manifest.json").read_text())
    assert manifest["master_seed"] == 99
    assert manifest["config"]["run.seed"] == 99


def test_simulate_rerun_from_manifest_is_bitwise(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--out", str(out1), "--paths", "2"]) == EXIT_PASS
    assert main(["simulate", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == EXIT_PASS
    for name in ("trajectory_000.csv", "trajectory_001.csv",
                 "final_state_000.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_blow_up_exits_three(tmp_path, capsys):
    path = write_config(tmp_path, """
coeff.p = 3.0
noise.enabled = false
pert.enabled = false
solver.n = 0
solver.scheme = "explicit"
solver.dt = 0.05
solver.t_end = 1.0
initial.amplitude = 2.0
grid.n_interior = 24
run.paths = 1
""")
    with pytest.warns(RuntimeWarning):
        code = main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "out")])
    assert code == EXIT_BLOW_UP
    assert "blow-up" in capsys.readouterr().err


def test_simulate_newton_failure_exits_three(tmp_path, capsys):
    path = write_config(tmp_path, "solver.newton_max_iter = 0\nrun.paths = 1\n")
    code = main(["simulate", "--config", str(path), "--out",
                 str(tmp_path / "out")])
    assert code == EXIT_BLOW_UP
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("newton failure: step 0 (t = 0.0): 0 iterations, "
                             "residual ")


def test_simulate_failure_names_path_and_seed(tmp_path, capsys):
    path = write_config(tmp_path, "solver.newton_max_iter = 0\nrun.paths = 2\n"
                        "run.seed = 77\n")
    code = main(["simulate", "--config", str(path), "--out",
                 str(tmp_path / "out")])
    assert code == EXIT_BLOW_UP
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("newton failure: step 0 (t = 0.0): 0 iterations, ")
    assert err[0].endswith("(path 0, seed 77)")


def test_simulate_bisection_without_noise_exits_three(tmp_path, capsys):
    path = write_config(tmp_path, "noise.enabled = false\nrun.paths = 1\n"
                        "solver.newton_max_iter = 0\nsolver.newton_dt_retries = 1\n")
    code = main(["simulate", "--config", str(path), "--out",
                 str(tmp_path / "out")])
    assert code == EXIT_BLOW_UP
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("newton failure: step 0 (t = 0.0): 0 iterations, "
                             "residual ")


def test_verify_newton_failure_in_a_worker_exits_three(tmp_path, capsys):
    # the error is raised in a pool worker and must reach cli.main intact
    path = write_config(tmp_path, "solver.newton_max_iter = 0\n")
    code = main(["verify", "--config", str(path), "--out",
                 str(tmp_path / "out"), "--workers", "2"])
    assert code == EXIT_BLOW_UP
    assert capsys.readouterr().err.startswith("newton failure: step 0 (t = 0.0)")


@pytest.mark.parametrize("workers, retries", [
    pytest.param(1, 0, id="1"), pytest.param(2, 0, id="2"),
    pytest.param(1, 1, id="1-retries1"), pytest.param(2, 1, id="2-retries1")])
def test_verify_path_failure_keeps_the_battery(tmp_path, capsys, workers, retries):
    # with a dt retry every study bisects the failing step, fails again and
    # reports the same failure
    path = write_config(tmp_path, "solver.newton_max_iter = 0\nrun.seed = 11\n"
                        f"solver.newton_dt_retries = {retries}\n")
    out = tmp_path / "out"
    code = main(["verify", "--config", str(path), "--out", str(out),
                 "--workers", str(workers)])
    assert code == EXIT_BLOW_UP
    assert (out / "manifest.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    studies = {s["name"]: s for s in report["studies"]}
    assert list(studies) == ["energy_boundedness", "l1_contraction",
                             "cauchy_in_level", "heat_oracle"]
    assert studies["heat_oracle"]["pass"] is True
    for name, level in (("energy_boundedness", 4), ("l1_contraction", None),
                        ("cauchy_in_level", 4)):
        (check,) = studies[name]["checks"]
        assert check["pass"] is False
        failure = check["failure"]
        assert failure["kind"] == "newton_failure"
        assert (failure["study"], failure["level"], failure["path"],
                failure["seed"], failure["step"], failure["t"]) == (
                    name, level, 0, 11, 0, 0.0)
        assert failure["iterations"] == 0 and failure["residual"] > 0.0

    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 4
    assert err[0].startswith("newton failure: step 0 (t = 0.0): 0 iterations")
    assert err[0].endswith("(study energy_boundedness, level 4, path 0, seed 11)")
    assert err[3] == (f"reproduce: plapsim verify --config {out / 'manifest.json'} "
                      f"--out <dir>")

    # the reproducer, run serially, rewrites the same report byte for byte
    again = tmp_path / "again"
    assert main(["verify", "--config", str(out / "manifest.json"),
                 "--out", str(again)]) == EXIT_BLOW_UP
    assert (again / "report.json").read_bytes() == (out / "report.json").read_bytes()


def test_outputs_stay_inside_out_dir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "result"
    assert main(["simulate", "--out", str(out), "--paths", "1"]) == EXIT_PASS
    assert list(workdir.iterdir()) == []
    names = {p.name for p in out.iterdir()}
    assert names == {"manifest.json", "report.json", "trajectory_000.csv",
                     "final_state_000.csv"}


# --------------------------------------------------------------------- verify


def test_verify_desk_scale_passes(tmp_path):
    out = tmp_path / "out"
    code = main(["verify", "--out", str(out)])
    assert code == EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert [s["name"] for s in report["studies"]] == [
        "energy_boundedness", "l1_contraction", "cauchy_in_level",
        "heat_oracle"]
    for name in ("energy_levels.csv", "contraction_curve.csv",
                 "cauchy_levels.csv", "heat_errors.csv"):
        assert (out / name).exists()


def test_verify_follows_noise_decay(tmp_path):
    reports = []
    for decay in (2.0, 6.0):
        path = write_config(tmp_path, f"noise.decay = {decay}\nrun.paths = 2\n",
                            name=f"decay{decay}.cfg")
        out = tmp_path / f"out{decay}"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == EXIT_PASS
        reports.append((out / "report.json").read_bytes())
    assert reports[0] != reports[1]


def test_verify_single_path_exits_config_error(tmp_path, capsys):
    code = main(["verify", "--out", str(tmp_path / "out"), "--paths", "1"])
    assert code == EXIT_CONFIG
    assert "run.paths" in capsys.readouterr().err


def test_verify_low_alpha_refused(tmp_path, capsys):
    path = write_config(tmp_path, "sigma.alpha = 0.3\n")
    code = main(["verify", "--config", str(path), "--out",
                 str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("config, flags, named", [
    pytest.param("sigma.alpha = 0.4\n", [], "alpha in [1/2, 1)", id="alpha"),
    pytest.param("run.n_list = [4, 12]\n", [], "run.n_list", id="not-doubling"),
    pytest.param("", ["--n-list", "4"], "run.n_list", id="one-level")])
def test_verify_refuses_before_running_a_trajectory(tmp_path, capsys, monkeypatch,
                                                     config, flags, named):
    calls = []
    monkeypatch.setattr(verify, "_trajectory",
                        lambda plan, job: calls.append(job))
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = main(["verify", "--config", str(path), "--out", str(out)] + flags)
    assert code == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert calls == []
    assert not out.exists() or list(out.iterdir()) == []


def test_regcheck_refuses_flags_it_does_not_read(tmp_path):
    for flag in ("--paths", "--workers"):
        with pytest.raises(SystemExit) as exc:
            main(["regcheck", "--out", str(tmp_path / "out"), flag, "2"])
        assert exc.value.code == EXIT_CONFIG


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "plapsim", "--version"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "plapsim 0.1.0"


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--out", "/tmp/x"])
    assert exc.value.code == EXIT_CONFIG
