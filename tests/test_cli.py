"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from plapsim import cli, evolution, verify
from plapsim.cli import EXIT_BLOW_UP, EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, main
from plapsim.config import (ConfigError, load_config, make_coeff, make_drift, make_grid,
                            make_initial, make_kernel, make_pert, make_sampler,
                            make_solver_config, make_spec, parse_config_text)
from plapsim.evolution import build_system, simulate_path
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


@pytest.mark.parametrize("command, config, key", [
    pytest.param("simulate", "initial.amplitude = nan\n", "initial.amplitude",
                 id="simulate-amplitude-nan"),
    pytest.param("simulate", "kernel.ell = inf\n", "kernel.ell", id="simulate-ell-inf"),
    pytest.param("regcheck", "sigma.scale = inf\n", "sigma.scale", id="regcheck-scale-inf"),
    pytest.param("regcheck", "regcheck.lam_max = -inf\n", "regcheck.lam_max",
                 id="regcheck-lam-max-minus-inf")])
def test_a_non_finite_number_in_a_config_file_exits_config_error(tmp_path, capsys,
                                                                 command, config, key):
    path = write_config(tmp_path, config)
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{key} must be finite" in err


@pytest.mark.parametrize("command, key", [
    ("simulate", "grid.n_interior"), ("simulate", "sigma.scale"),
    ("regcheck", "sigma.scale")])
def test_an_integer_beyond_the_float_range_exits_config_error(tmp_path, capsys,
                                                               command, key):
    path = write_config(tmp_path, f"{key} = 1{'0' * 400}\n")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{key} must be finite" in err


@pytest.mark.parametrize("name, text", [
    ("run.cfg", f"grid.n_interior = 1{'0' * 5000}\n"),
    ("manifest.json", f'{{"config": {{"grid.n_interior": 1{"0" * 5000}}}}}'),
    ("manifest.json", '{"config": {')],
    ids=["flat-int-past-digit-limit", "manifest-int-past-digit-limit", "manifest-not-json"])
def test_an_unreadable_config_file_exits_config_error(tmp_path, capsys, name, text):
    path = write_config(tmp_path, text, name)
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, value, token", [
    ("regcheck", "sigma.scale", float("inf"), "Infinity"),
    ("simulate", "initial.amplitude", float("nan"), "NaN")],
    ids=["regcheck-infinity", "simulate-nan"])
def test_a_non_finite_number_in_a_manifest_exits_config_error(tmp_path, capsys,
                                                              command, key, value, token):
    out = tmp_path / "out"
    assert main(["regcheck", "--out", str(out), "--n-list", "2,4"]) == EXIT_PASS
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"][key] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert token in path.read_text()
    code = main([command, "--config", str(path), "--out", str(tmp_path / "rerun")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{key} must be finite" in err


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


@pytest.mark.parametrize("command, key", [("regcheck", "regcheck.n_list"),
                                          ("verify", "run.n_list")])
def test_a_malformed_n_list_names_the_key_it_sets(tmp_path, capsys, command, key):
    args = cli.build_parser().parse_args(
        [command, "--out", str(tmp_path / "out"), "--n-list", "4,a"])
    with pytest.raises(ConfigError, match="comma-separated integers") as exc:
        cli._resolve(args)
    assert exc.value.field == key
    assert main([command, "--out", str(tmp_path / "out"), "--n-list", "4,a"]) \
        == EXIT_CONFIG
    assert "'4,a'" in capsys.readouterr().err


def test_regcheck_below_n0_exits_two_with_no_outputs(tmp_path, capsys):
    # sigma.scale = 3 puts n0 at 3, above the default list's first level 2
    path = write_config(tmp_path, "sigma.scale = 3\n")
    out = tmp_path / "out"
    assert main(["regcheck", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: regcheck.n_list: " in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []
    cfg = load_config(path)
    with pytest.raises(ConfigError) as exc:
        cli.cmd_regcheck(cfg, 1, out, str(path))
    assert exc.value.field == "regcheck.n_list"
    assert main(["regcheck", "--config", str(path), "--out", str(out),
                 "--n-list", "3,6"]) == EXIT_PASS


@pytest.mark.parametrize("text, field", [
    # sigma.scale = 3 puts n0 at 3, above the list's first level 2
    pytest.param("sigma.scale = 3\nrun.n_list = [2, 4]\n", "run.n_list",
                 id="level-below-n0"),
    pytest.param('grid.n_interior = 4\nkernel.type = "csv"\nkernel.path = "{kernel}"\n',
                 "kernel.path", id="kernel-csv-shape"),
    # verify runs the 1/n term at its own order, verify.pert_m, not pert.m
    pytest.param("grid.n_interior = 1\nverify.pert_m = 2\n", "verify.pert_m",
                 id="grid-coarser-than-the-order")])
def test_verify_config_errors_name_their_key(tmp_path, capsys, text, field):
    kernel = tmp_path / "kernel.csv"
    kernel.write_text("n,4,d,1\n1,0.5\n")   # one row of two values for a 4-node grid
    path = write_config(tmp_path, text.format(kernel=kernel))
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as exc:
        cli.cmd_verify(load_config(path), 1, out, str(path))
    assert exc.value.field == field
    assert main(["verify", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {field}: " in capsys.readouterr().err
    assert not (out / "report.json").exists()


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


def test_a_manifest_runs_at_its_run_seed(tmp_path):
    # the manifest's master_seed mirrors run.seed and is not read back
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--out", str(out1), "--paths", "1",
                 "--seed", "5"]) == EXIT_PASS
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["master_seed"] == manifest["config"]["run.seed"] == 5
    manifest["master_seed"] = 6
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(manifest))
    assert main(["simulate", "--config", str(path), "--out", str(out2)]) == EXIT_PASS
    assert json.loads((out2 / "manifest.json").read_text())["master_seed"] == 5
    for name in ("trajectory_000.csv", "final_state_000.csv", "report.json"):
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


def test_simulate_runaway_2d_explicit_exits_three_under_warnings_as_errors(tmp_path):
    # the blow-up guard sees the runaway state before any of its energies
    # is formed, so no overflow warning turns into a traceback first
    path = write_config(tmp_path, 'grid.dimension = 2\nsolver.scheme = "explicit"\n'
                        "solver.dt = 0.001\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "plapsim", "simulate", "--config",
         str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == EXIT_BLOW_UP, done.stderr
    (line,) = done.stderr.splitlines()
    assert line.startswith("blow-up: blow-up at step 2 (t = 0.002): ||u||_2 = ")
    assert line.endswith("(path 0, seed 1)")


@pytest.mark.filterwarnings("ignore:explicit dt")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_writes_the_paths_before_the_failing_one(tmp_path, capsys, workers):
    # on seed 24 the noise drives path 2 alone past the blow-up guard
    path = write_config(tmp_path, 'solver.scheme = "explicit"\npert.enabled = false\n'
                        "solver.dt = 0.003\nsolver.t_end = 0.06\nkernel.scale = 3.0\n"
                        "run.paths = 3\nrun.seed = 24\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out),
                 "--workers", workers]) == EXIT_BLOW_UP
    assert {p.name for p in out.iterdir()} == {
        "manifest.json", "trajectory_000.csv", "trajectory_001.csv",
        "final_state_000.csv", "final_state_001.csv"}
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("blow-up: blow-up at step 15 (t = 0.045)")
    assert line.endswith("(path 2, seed 24)")


@pytest.mark.parametrize("caller", ["simulate_path", "cli", "cli_workers2", "cli_verify"])
def test_stability_warning_names_the_caller(tmp_path, caller):
    # the warning names the line that asked for the run: this file's, or
    # cli.py's for plapsim simulate, once, before a pool of workers starts;
    # plapsim verify warns once for each of its three stepping studies
    paths = 1 if caller in ("simulate_path", "cli") else 2
    path = write_config(tmp_path, 'solver.scheme = "explicit"\npert.enabled = false\n'
                        f"solver.dt = 0.003\nsolver.t_end = 0.006\nrun.paths = {paths}\n")
    with pytest.warns(RuntimeWarning, match="stability heuristic") as caught:
        if caller == "cli_verify":
            main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
        elif caller.startswith("cli"):
            main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
                  "--workers", str(paths)])
        else:
            cfg = load_config(path)
            grid, solver_cfg = make_grid(cfg), make_solver_config(cfg)
            system = build_system(grid, make_coeff(cfg), make_drift(cfg), make_pert(cfg),
                                  solver_cfg, spec=make_spec(cfg),
                                  kernel=make_kernel(cfg, grid))
            simulate_path(system, solver_cfg, make_initial(cfg, grid),
                          make_sampler(cfg, grid, 1, 0))
    expect = cli.__file__ if caller.startswith("cli") else __file__
    count = 3 if caller == "cli_verify" else 1
    assert [Path(w.filename) for w in caught] == [Path(expect)] * count


@pytest.mark.filterwarnings("error")   # as python -W error runs the command line
@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("key, text", [
    pytest.param("kernel", "n,4,d,3\n", id="kernel-dimension"),
    pytest.param("kernel", "m,4,d,1\n", id="kernel-header"),
    pytest.param("initial", "nan\n" * 12, id="initial-nan"),
    # files with no data rows, which numpy warns of before the size check
    pytest.param("kernel", "n,12,d,1\n", id="kernel-header-only"),
    pytest.param("initial", "", id="initial-empty"),
    pytest.param("initial", "# no values\n", id="initial-comments-only")])
def test_a_malformed_csv_input_exits_config_error(tmp_path, capsys, command, key, text):
    data = tmp_path / f"{key}.csv"
    data.write_text(text)
    path = write_config(tmp_path, f'{key}.type = "csv"\n{key}.path = "{data}"\n')
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: {key}.path: ")


def _dense_kernel_csv(tmp_path):
    """A 4-node 1d Gaussian kernel in kernel_from_csv's layout; its path."""
    x = np.arange(1, 5) / 5.0
    values = np.exp(-(x[:, None] - x[None, :]) ** 2 / (2.0 * 0.25 ** 2))
    path = tmp_path / "kernel.csv"
    path.write_text("n,4,d,1\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in values))
    return path


@pytest.mark.filterwarnings("error")   # as python -W error runs the command line
@pytest.mark.parametrize("command, text", [
    pytest.param("simulate", 'kernel.type = "rank_one"\n', id="simulate-rank-one-1d"),
    pytest.param("simulate", 'kernel.type = "rank_one"\ngrid.dimension = 2\n'
                 'grid.n_interior = 8\nrun.paths = 2\n', id="simulate-rank-one-2d"),
    pytest.param("verify", 'kernel.type = "rank_one"\n', id="verify-rank-one-1d"),
    pytest.param("simulate", 'grid.n_interior = 4\nkernel.type = "csv"\n'
                 'kernel.path = "{csv}"\n', id="simulate-csv-kernel")])
def test_a_dense_kernel_run_reruns_from_its_manifest(tmp_path, command, text):
    # a kernel kept as its (size, size) node values, rerun from the manifest
    path = write_config(tmp_path, text.format(csv=_dense_kernel_csv(tmp_path)))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", str(path), "--out", str(out1)]) == EXIT_PASS
    assert main([command, "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == EXIT_PASS
    names = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
    assert "report.json" in names and any(n.endswith(".csv") for n in names)
    assert names == sorted(p.name for p in out2.iterdir() if p.name != "manifest.json")
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_workers_do_not_change_outputs(tmp_path):
    outs = [tmp_path / w for w in ("1", "3")]
    for out in outs:
        assert main(["simulate", "--out", str(out), "--paths", "3",
                     "--workers", out.name]) == EXIT_PASS
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
    assert len(names) == 7
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("config, named", [
    pytest.param("solver.n = 0\n", "solver.n", id="no-level"),
    pytest.param("solver.n = 1\nsigma.scale = 3.0\n", "solver.n", id="below-n0"),
    pytest.param("noise.modes = 500\n", "noise.modes", id="modes"),
    pytest.param("grid.dimension = 2\ngrid.n_interior = 1\npert.m = 2\n", "pert.m",
                 id="grid-coarser-than-the-order")])
def test_simulate_config_errors_exit_two_with_no_outputs(tmp_path, capsys, config,
                                                         named):
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


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
        assert failure["cause"] == "budget"

    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 4
    assert err[0].startswith("newton failure: step 0 (t = 0.0): 0 iterations")
    assert "the Newton iteration budget is spent (study" in err[0]
    assert err[0].endswith("(study energy_boundedness, level 4, path 0, seed 11)")
    assert err[3] == (f"reproduce: plapsim verify --config {out / 'manifest.json'} "
                      f"--out <dir>")

    # the reproducer, run serially, rewrites the same report byte for byte
    again = tmp_path / "again"
    assert main(["verify", "--config", str(out / "manifest.json"),
                 "--out", str(again)]) == EXIT_BLOW_UP
    assert (again / "report.json").read_bytes() == (out / "report.json").read_bytes()


def test_verify_heat_oracle_failure_keeps_the_battery(tmp_path, capsys, monkeypatch):
    # the heat path meets a singular Newton matrix: its study fails with
    # the failure as a check, the others pass, and report.json is written
    heat_error, newton_matrix = verify._heat_error, evolution._newton_matrix

    def failing(*args):
        with monkeypatch.context() as patch:
            patch.setattr(evolution, "_newton_matrix", lambda *a: 0.0 * newton_matrix(*a))
            return heat_error(*args)

    monkeypatch.setattr(verify, "_heat_error", failing)
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out), "--seed", "7"]) == EXIT_BLOW_UP
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    studies = {s["name"]: s for s in report["studies"]}
    assert list(studies) == ["energy_boundedness", "l1_contraction",
                             "cauchy_in_level", "heat_oracle"]
    assert all(studies[name]["pass"] for name in list(studies)[:3])
    (check,) = studies["heat_oracle"]["checks"]
    failure = check["failure"]
    assert check["pass"] is False and failure["kind"] == "newton_failure"
    assert (failure["study"], failure["level"], failure["path"], failure["seed"],
            failure["step"], failure["t"], failure["cause"]) == (
                "heat_oracle", None, None, 7, 0, 0.0, "singular")
    assert not (out / "heat_errors.csv").exists()
    for name in ("energy_levels.csv", "contraction_curve.csv", "cauchy_levels.csv"):
        assert (out / name).exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2
    assert err[0].endswith("(study heat_oracle, level None, path None, seed 7)")
    assert err[1].startswith("reproduce: plapsim verify --config")


def test_verify_writes_the_same_bytes_with_every_energy_formed(tmp_path, monkeypatch):
    # the studies that read states alone skip the energies; forcing them
    # on must not move a byte of the report or the CSVs
    assert main(["verify", "--out", str(tmp_path / "skip")]) == EXIT_PASS
    batch = verify.simulate_batch
    monkeypatch.setattr(verify, "simulate_batch",
                        lambda *args, energies=True, **kw: batch(*args, energies=True, **kw))
    assert main(["verify", "--out", str(tmp_path / "full")]) == EXIT_PASS
    names = sorted(p.name for p in (tmp_path / "skip").iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in (tmp_path / "full").iterdir()
                           if p.name != "manifest.json")
    assert len(names) == 5
    for name in names:
        assert (tmp_path / "skip" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


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


@pytest.mark.filterwarnings("error")   # as python -W error runs the command line
@pytest.mark.parametrize("text", [
    pytest.param('coeff.type = "convective"\npert.enabled = false\n',
                 id="convective-without-perturbation"),
    pytest.param("initial.amplitude = 0\n", id="zero-data")])
def test_verify_runs_every_study(tmp_path, text):
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert [s["pass"] for s in report["studies"]] == [True] * 4
    if "amplitude" in text:   # zero data: equal, zero, sup means
        (ratio,) = [c["estimate"] for c in report["studies"][0]["checks"]
                    if c["name"] == "uniform_l2_bound"]
        assert ratio == 1.0


def test_energy_levels_columns_follow_the_report(tmp_path, monkeypatch):
    # each estimate of the energy study gives energy_levels.csv a mean and
    # a standard-error column, in the report's order
    def with_extra(*args, **kwargs):
        report = verify.energy_report(*args, **kwargs)
        for est in report["estimates"].values():
            est["extra"] = {"mean": 1.5, "std_error": 0.25, "num_paths": 4}
        return report

    monkeypatch.setattr(cli, "energy_report", with_extra)
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out)]) == EXIT_PASS
    lines = (out / "energy_levels.csv").read_text().splitlines()
    assert lines[0] == ("n,sup_l2_sq_mean,sup_l2_sq_se,int_grad_lp_p_mean,"
                        "int_grad_lp_p_se,int_hm0_sq_over_n_mean,int_hm0_sq_over_n_se,"
                        "int_wmq_q_over_n_mean,int_wmq_q_over_n_se,extra_mean,extra_se")
    assert [line.split(",")[-2:] for line in lines[1:]] == [["1.5", "0.25"]] * 2


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
    pytest.param("", ["--n-list", "4"], "run.n_list", id="one-level"),
    pytest.param("noise.modes = 500\n", [], "noise.modes", id="modes")])
def test_verify_refuses_before_running_a_trajectory(tmp_path, capsys, monkeypatch,
                                                     config, flags, named):
    calls = []
    monkeypatch.setattr(verify, "_trajectories",
                        lambda plan, study, jobs, energies: calls.append(jobs))
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


def test_cli_runs_with_scipy_unimportable(tmp_path):
    # sys.modules["scipy"] = None makes every "import scipy..." raise
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for command in ("regcheck", "simulate"):
        code = ("import runpy, sys\n"
                "sys.modules['scipy'] = None\n"
                f"sys.argv = ['plapsim', {command!r}, '--out', {str(tmp_path / command)!r}]\n"
                "runpy.run_module('plapsim', run_name='__main__')\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / command / "report.json").is_file()


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--out", "/tmp/x"])
    assert exc.value.code == EXIT_CONFIG
