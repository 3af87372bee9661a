"""Command-line front end: regularization checks, simulation, verification.

Every command reads one flat config file (or a previously written
manifest.json for an exact re-run), writes all of its outputs into the
directory named by --out, and finishes with a single summary line.  Exit
codes: 0 all checks passed, 1 a quantitative check failed, 2 configuration
or usage error, 3 numerical blow-up or Newton failure.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, DEFAULTS, load_config, make_coeff,
                     make_drift, make_grid, make_initial, make_kernel,
                     make_pert, make_solver_config, make_spec,
                     manifest_payload, validate_config, write_csv, write_json)
from .evolution import NEWTON_CAUSES, NewtonDivergedError, build_system
from .regularize import gap_decay_study
from .spatial import GridMismatchError, initial_profile, initial_to_csv
from .verify import (HEAT_SLOPE_GRIDS, PATH_FAILURES, Ensemble, ExperimentPlan,
                     cauchy_in_n_study, contraction_experiment, energy_report,
                     failure_report, heat_oracle_study, run_jobs)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BLOW_UP = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plapsim",
        description="Finite-difference simulation and Monte Carlo checks for "
                    "stochastic p-Laplace evolutions.")
    parser.add_argument("--version", action="version",
                        version=f"plapsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("regcheck", cmd_regcheck,
         "check the regularized coefficient against its closed-form bounds"),
        ("simulate", cmd_simulate,
         "integrate trajectories and write them as CSV"),
        ("verify", cmd_verify,
         "run the Monte Carlo bound checks and write a combined report"),
    ]
    for name, handler, help_text in specs:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None, metavar="PATH",
                         help="flat config file, or a manifest.json to re-run")
        cmd.add_argument("--out", required=True, metavar="DIR",
                         help="output directory (created if missing)")
        cmd.add_argument("--seed", type=int, default=None, metavar="U64",
                         help="master seed (overrides run.seed)")
        if name != "regcheck":   # regcheck runs no paths
            cmd.add_argument("--paths", type=int, metavar="N",
                             help="Monte Carlo path count (overrides run.paths)")
            cmd.add_argument("--workers", type=int, metavar="N",
                             help="worker processes for path jobs (default 1)")
        if name != "simulate":   # simulate runs at solver.n alone
            cmd.add_argument("--n-list", metavar="CSV",
                             help="comma-separated levels (overrides the n list)")
        cmd.set_defaults(handler=handler, paths=None, n_list=None, workers=1)
    return parser


def _resolve(args):
    """The config file or manifest (else the defaults) with the flags over
    it -> (cfg, workers).  The master seed is cfg["run.seed"]."""
    cfg = load_config(args.config) if args.config is not None else dict(DEFAULTS)
    if args.n_list is not None:
        key = "regcheck.n_list" if args.handler is cmd_regcheck else "run.n_list"
        try:
            cfg[key] = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"--n-list must be comma-separated integers, "
                              f"got {args.n_list!r}", field=key) from exc
    if args.paths is not None:
        cfg["run.paths"] = args.paths
    if args.seed is not None:
        cfg["run.seed"] = args.seed
    validate_config(cfg)
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    return cfg, args.workers


def _write_manifest(out, cfg, config_path):
    write_json(out / "manifest.json", manifest_payload(cfg, config_path, out))


def _failure_line(exc):
    """One stderr line for a BlowUpError or NewtonDivergedError."""
    if isinstance(exc, NewtonDivergedError):
        return (f"newton failure: step {exc.step} (t = {exc.time}): "
                f"{exc.iterations} iterations, residual {exc.residual:.3g}, "
                f"{NEWTON_CAUSES[exc.cause]}")
    return f"blow-up: {exc}"


def _summary(name, passed, out):
    state = "pass" if passed else "FAIL"
    print(f"{name}: {state} (outputs in {out})")


# ------------------------------------------------------------------- commands


def cmd_regcheck(cfg, workers, out, config_path):
    spec = make_spec(cfg)
    if spec.alpha >= 1.0:
        raise ConfigError("sigma.alpha must lie in (0, 1) for regularization "
                          f"checks; got {spec.alpha!r}", field="sigma.alpha")
    lam_max = cfg["regcheck.lam_max"]
    try:   # with alpha checked, a ValueError here is a level below n0
        study = gap_decay_study(spec, cfg["regcheck.n_list"], -lam_max, lam_max)
    except ValueError as exc:
        raise ConfigError(f"regcheck.n_list: {exc}", field="regcheck.n_list") from exc
    passed = all(r["pass"] for r in study["levels"])
    report = {
        "name": "regcheck",
        "statement": "the regularized coefficient stays below the original, "
                     "is n-Lipschitz, and meets the closed-form gap bound",
        "levels": study["levels"],
        "gap_slope": study["slope"],
        "predicted_slope": study["predicted_slope"],
        "pass": passed,
    }
    _write_manifest(out, cfg, config_path)
    write_json(out / "report.json", report)
    write_csv(out / "regcheck.csv", ["n", "measured_gap", "gap_bound"],
              [(r["n"], r["max_gap"], r["bound"])
               for r in sorted(study["levels"], key=lambda r: r["n"])])
    _summary("regcheck", passed, out)
    return EXIT_PASS if passed else EXIT_FAIL


def _trajectory_rows(rec, config):
    """One row per snapshot: t, the record's energies in their order, and
    the Newton iterations since the snapshot before."""
    rows = []
    prev_step = 0
    for j, t in enumerate(rec.times):
        step = int(round(t / config.dt))
        row = [float(t)]
        for values in rec.energies.values():
            row.append(values[j])
        row.append(int(np.sum(rec.newton_iters[prev_step:step])))
        rows.append(row)
        prev_step = step
    return rows


def cmd_simulate(cfg, workers, out, config_path):
    grid = make_grid(cfg)
    solver_cfg = make_solver_config(cfg)
    parts = (grid, make_coeff(cfg), make_drift(cfg), make_pert(cfg))
    spec, kernel = ((make_spec(cfg), make_kernel(cfg, grid)) if cfg["noise.enabled"]
                    else (None, None))
    try:   # build_system's ValueErrors are about the level: unset, or below n0
        build_system(*parts, solver_cfg, spec=spec, kernel=kernel)
    except ValueError as exc:
        raise ConfigError(f"solver.n: {exc}", field="solver.n") from exc
    u0 = make_initial(cfg, grid)
    ensemble = Ensemble(*parts, spec, kernel, master_seed=cfg["run.seed"],
                        workers=workers, num_modes=cfg["noise.modes"],
                        decay=cfg["noise.decay"])

    _write_manifest(out, cfg, config_path)
    records, failure = run_jobs(ensemble, "simulate",
                                [(solver_cfg, u0, k) for k in range(cfg["run.paths"])])
    summaries = []
    for k, rec in enumerate(records):   # the paths before a failing one
        write_csv(out / f"trajectory_{k:03d}.csv",
                  ["t", *rec.energies, "newton_iters"],
                  _trajectory_rows(rec, solver_cfg))
        initial_to_csv(grid, rec.final_state(), out / f"final_state_{k:03d}.csv")
        summaries.append({
            "path": k,
            "final_l2_sq": rec.energies["l2_sq"][-1],
            "sup_l2_sq": rec.sup_l2_sq,
            "integrals": rec.integrals,
            "newton_iters_total": int(np.sum(rec.newton_iters)),
        })
    if failure is not None:
        print(f"{_failure_line(failure)} (path {failure.path}, seed {cfg['run.seed']})",
              file=sys.stderr)
        return EXIT_BLOW_UP
    report = {"name": "simulate", "paths": summaries, "pass": True}
    write_json(out / "report.json", report)
    _summary("simulate", True, out)
    return EXIT_PASS


def cmd_verify(cfg, workers, out, config_path):
    grid = make_grid(cfg)
    if cfg["run.paths"] < 2:
        raise ConfigError("run.paths must be at least 2 for verification "
                          f"statistics; got {cfg['run.paths']}",
                          field="run.paths")
    if not cfg["noise.enabled"]:
        raise ConfigError("verification studies need the noise enabled",
                          field="noise.enabled")
    alpha = cfg["sigma.alpha"]
    if not 0.5 <= alpha < 1.0:   # the contraction study's coupling bound
        raise ConfigError(f"the coupling bound needs alpha in [1/2, 1), got "
                          f"alpha = {alpha}", field="sigma.alpha")
    # the builders raise ConfigErrors that name their own keys
    pieces = dict(coeff=make_coeff(cfg), drift=make_drift(cfg),
                  pert=make_pert(cfg, "verify.pert_m"),
                  spec=make_spec(cfg), kernel=make_kernel(cfg, grid),
                  config=make_solver_config(cfg))
    try:   # with the pieces built, a ValueError here is a level below the minimum
        plan = ExperimentPlan(
            grid=grid, **pieces, n_list=tuple(cfg["run.n_list"]),
            num_paths=cfg["run.paths"], master_seed=cfg["run.seed"],
            slack=cfg["verify.slack"], se_mult=cfg["verify.se_mult"],
            checkpoints=cfg["verify.checkpoints"], workers=workers,
            num_modes=cfg["noise.modes"], decay=cfg["noise.decay"])
    except ValueError as exc:
        raise ConfigError(f"run.n_list: {exc}", field="run.n_list") from exc

    u0 = make_initial(cfg, grid)
    u0_b = initial_profile(grid, "bump",
                           amplitude=0.5 * cfg["initial.amplitude"])
    failures = []

    def attempt(study, *args, **kwargs):
        # a failing path fails its study; the other studies still run
        try:
            return study(*args, **kwargs)
        except PATH_FAILURES as exc:
            failures.append(exc)
            return failure_report(exc, cfg["run.seed"])

    energy = attempt(energy_report, plan, u0=u0,
                     ratio_bound=cfg["verify.ratio_bound"])
    contraction = attempt(contraction_experiment, plan, u0, u0_b)
    cauchy = attempt(cauchy_in_n_study, plan, u0=u0)
    heat = attempt(heat_oracle_study)
    studies = [energy, contraction, cauchy, heat]

    passed = all(s["pass"] for s in studies)
    report = {"name": "verify", "studies": studies, "pass": passed}
    _write_manifest(out, cfg, config_path)
    write_json(out / "report.json", report)

    if "estimates" in energy:
        header, rows = ["n"], []
        for name in energy["estimates"][str(energy["levels"][0])]:
            header += [f"{name}_mean", f"{name}_se"]
        for n in energy["levels"]:
            row = [n]
            for est in energy["estimates"][str(n)].values():
                row += [est["mean"], est["std_error"]]
            rows.append(row)
        write_csv(out / "energy_levels.csv", header, rows)

    if "curve" in contraction:
        write_csv(out / "contraction_curve.csv",
                  ["t", "mean", "std_error", "bound"],
                  [(pt["t"], pt["mean"], pt["std_error"], pt["bound"])
                   for pt in contraction["curve"]])

    if "estimates" in cauchy:
        write_csv(out / "cauchy_levels.csv", ["n", "distance_mean", "distance_se"],
                  [(n, cauchy["estimates"][str(n)]["mean"],
                    cauchy["estimates"][str(n)]["std_error"])
                   for n in cauchy["levels"]])

    if "slope_errors" in heat:
        write_csv(out / "heat_errors.csv", ["n_interior", "relative_error"],
                  list(zip(HEAT_SLOPE_GRIDS, heat["slope_errors"])))

    _summary("verify", passed, out)
    if failures:
        for exc in failures:
            print(f"{_failure_line(exc)} (study {exc.study}, level {exc.level}, "
                  f"path {exc.path}, seed {cfg['run.seed']})", file=sys.stderr)
        print(f"reproduce: plapsim verify --config {out / 'manifest.json'} "
              f"--out <dir>", file=sys.stderr)
        return EXIT_BLOW_UP
    return EXIT_PASS if passed else EXIT_FAIL


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, workers = _resolve(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.handler(cfg, workers, out, args.config)
    except (ConfigError, GridMismatchError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
