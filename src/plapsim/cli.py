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
                     make_pert, make_sampler, make_solver_config, make_spec,
                     manifest_payload, validate_config, write_csv, write_json)
from .evolution import NewtonDivergedError, build_system, simulate_path
from .regularize import gap_decay_study, verify_regularization
from .spatial import GridMismatchError, initial_profile, initial_to_csv
from .verify import (PATH_FAILURES, ExperimentPlan, cauchy_in_n_study,
                     contraction_experiment, energy_report, failure_report,
                     heat_oracle_study)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BLOW_UP = 3

# fixed desk-scale linear benchmark run by the verify command; the full-size
# variant is driven directly through heat_oracle_study
_VERIFY_HEAT = dict(n_interior=32, dt=2e-4, t_end=0.05, rel_tol=5e-3,
                    slope_grids=(4, 8, 16), slope_dt=1e-4)


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
    """Config file, manifest, and flag precedence -> (cfg, seed, workers)."""
    if args.config is not None:
        cfg, manifest_seed = load_config(args.config)
    else:
        cfg, manifest_seed = validate_config(dict(DEFAULTS)), None
    if args.n_list is not None:
        try:
            levels = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"--n-list must be comma-separated integers, "
                              f"got {args.n_list!r}", field="run.n_list") from exc
        key = "regcheck.n_list" if args.handler is cmd_regcheck else "run.n_list"
        cfg[key] = levels
    if args.paths is not None:
        cfg["run.paths"] = args.paths
    seed = args.seed if args.seed is not None else (
        manifest_seed if manifest_seed is not None else cfg["run.seed"])
    cfg["run.seed"] = seed
    validate_config(cfg)
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    return cfg, seed, args.workers


def _write_manifest(out, cfg, seed, config_path):
    write_json(out / "manifest.json",
               manifest_payload(cfg, seed, config_path, out))


def _failure_line(exc):
    """One stderr line for a BlowUpError or NewtonDivergedError."""
    if isinstance(exc, NewtonDivergedError):
        return (f"newton failure: step {exc.step} (t = {exc.time}): "
                f"{exc.iterations} iterations, residual {exc.residual:.3g}")
    return f"blow-up: {exc}"


def _summary(name, passed, out):
    state = "pass" if passed else "FAIL"
    print(f"{name}: {state} (outputs in {out})")


# ------------------------------------------------------------------- commands


def cmd_regcheck(cfg, seed, workers, out, config_path):
    spec = make_spec(cfg)
    if spec.alpha >= 1.0:
        raise ConfigError("sigma.alpha must lie in (0, 1) for regularization "
                          f"checks; got {spec.alpha!r}", field="sigma.alpha")
    lam_max = cfg["regcheck.lam_max"]
    lam_grid = np.linspace(-lam_max, lam_max, 10001)
    levels = [verify_regularization(spec, n, lam_grid=lam_grid)
              for n in cfg["regcheck.n_list"]]
    study = gap_decay_study(spec, cfg["regcheck.n_list"],
                            lam_lo=-lam_max, lam_hi=lam_max)
    passed = all(r["pass"] for r in levels)
    report = {
        "name": "regcheck",
        "statement": "the regularized coefficient stays below the original, "
                     "is n-Lipschitz, and meets the closed-form gap bound",
        "levels": levels,
        "gap_slope": study["slope"],
        "predicted_slope": study["predicted_slope"],
        "pass": passed,
    }
    _write_manifest(out, cfg, seed, config_path)
    write_json(out / "report.json", report)
    write_csv(out / "regcheck.csv", ["n", "measured_gap", "gap_bound"],
              zip(study["n"].tolist(), study["measured_gap"].tolist(),
                  study["bound"].tolist()))
    _summary("regcheck", passed, out)
    return EXIT_PASS if passed else EXIT_FAIL


def _trajectory_rows(rec, config):
    rows = []
    prev_step = 0
    for j, t in enumerate(rec.times):
        step = int(round(t / config.dt))
        iters = int(np.sum(rec.newton_iters[prev_step:step]))
        rows.append((float(t),
                     rec.energies["l2_sq"][j],
                     rec.energies["grad_lp_p"][j],
                     rec.energies["hm0_sq"][j],
                     rec.energies["wmq_q"][j],
                     iters))
        prev_step = step
    return rows


def cmd_simulate(cfg, seed, workers, out, config_path):
    grid = make_grid(cfg)
    solver_cfg = make_solver_config(cfg)
    noise_on = cfg["noise.enabled"]
    system = build_system(
        grid, make_coeff(cfg), make_drift(cfg), make_pert(cfg), solver_cfg,
        spec=make_spec(cfg) if noise_on else None,
        kernel=make_kernel(cfg, grid) if noise_on else None)
    u0 = make_initial(cfg, grid)

    _write_manifest(out, cfg, seed, config_path)
    summaries = []
    for k in range(cfg["run.paths"]):
        sampler = make_sampler(cfg, grid, seed, k) if noise_on else None
        try:
            rec = simulate_path(system, solver_cfg, u0, sampler)
        except PATH_FAILURES as exc:
            print(f"{_failure_line(exc)} (path {k}, seed {seed})", file=sys.stderr)
            return EXIT_BLOW_UP
        write_csv(out / f"trajectory_{k:03d}.csv",
                  ["t", "l2_sq", "grad_lp_p", "hm0_sq", "wmq_q", "newton_iters"],
                  _trajectory_rows(rec, solver_cfg))
        initial_to_csv(grid, rec.final_state(), out / f"final_state_{k:03d}.csv")
        summaries.append({
            "path": k,
            "final_l2_sq": rec.energies["l2_sq"][-1],
            "sup_l2_sq": rec.sup_l2_sq,
            "integrals": rec.integrals,
            "newton_iters_total": int(np.sum(rec.newton_iters)),
        })
    report = {"name": "simulate", "paths": summaries, "pass": True}
    write_json(out / "report.json", report)
    _summary("simulate", True, out)
    return EXIT_PASS


def cmd_verify(cfg, seed, workers, out, config_path):
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
    try:
        plan = ExperimentPlan(
            grid=grid,
            coeff=make_coeff(cfg),
            drift=make_drift(cfg),
            pert=make_pert(cfg, m=cfg["verify.pert_m"]),
            spec=make_spec(cfg),
            kernel=make_kernel(cfg, grid),
            config=make_solver_config(cfg),
            n_list=tuple(cfg["run.n_list"]),
            num_paths=cfg["run.paths"],
            master_seed=seed,
            slack=cfg["verify.slack"],
            se_mult=cfg["verify.se_mult"],
            checkpoints=cfg["verify.checkpoints"],
            workers=workers,
            num_modes=cfg["noise.modes"] if cfg["noise.modes"] > 0 else None,
            decay=cfg["noise.decay"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

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
            return failure_report(exc, seed)

    energy = attempt(energy_report, plan, u0=u0,
                     ratio_bound=cfg["verify.ratio_bound"])
    contraction = attempt(contraction_experiment, plan, u0, u0_b)
    cauchy = attempt(cauchy_in_n_study, plan, u0=u0)
    heat = heat_oracle_study(**_VERIFY_HEAT)
    studies = [energy, contraction, cauchy, heat]

    passed = all(s["pass"] for s in studies)
    report = {"name": "verify", "studies": studies, "pass": passed}
    _write_manifest(out, cfg, seed, config_path)
    write_json(out / "report.json", report)

    if "estimates" in energy:
        rows = []
        for n in energy["levels"]:
            est = energy["estimates"][str(n)]
            rows.append((n,
                         est["sup_l2_sq"]["mean"], est["sup_l2_sq"]["std_error"],
                         est["int_grad_lp_p"]["mean"], est["int_grad_lp_p"]["std_error"],
                         est["int_hm0_sq_over_n"]["mean"], est["int_hm0_sq_over_n"]["std_error"],
                         est["int_wmq_q_over_n"]["mean"], est["int_wmq_q_over_n"]["std_error"]))
        write_csv(out / "energy_levels.csv",
                  ["n", "sup_l2_sq_mean", "sup_l2_sq_se",
                   "int_grad_lp_p_mean", "int_grad_lp_p_se",
                   "int_hm0_sq_over_n_mean", "int_hm0_sq_over_n_se",
                   "int_wmq_q_over_n_mean", "int_wmq_q_over_n_se"], rows)

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

    write_csv(out / "heat_errors.csv", ["n_interior", "relative_error"],
              list(zip(_VERIFY_HEAT["slope_grids"], heat["slope_errors"])))

    _summary("verify", passed, out)
    if failures:
        for exc in failures:
            print(f"{_failure_line(exc)} (study {exc.study}, level {exc.level}, "
                  f"path {exc.path}, seed {seed})", file=sys.stderr)
        print(f"reproduce: plapsim verify --config {out / 'manifest.json'} "
              f"--out <dir>", file=sys.stderr)
        return EXIT_BLOW_UP
    return EXIT_PASS if passed else EXIT_FAIL


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, seed, workers = _resolve(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.handler(cfg, seed, workers, out, args.config)
    except (ConfigError, GridMismatchError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PATH_FAILURES as exc:
        print(_failure_line(exc), file=sys.stderr)
        return EXIT_BLOW_UP
