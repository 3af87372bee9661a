"""The benchmark's workloads, driven through plapsim's public functions.

Each workload builds its inputs from a seed (``setup``, timed as set-up),
then makes one main call (``run``, timed as the run).  Calls go through
module attributes (``verify.cauchy_in_n_study``, not a name imported once)
so that the tracer's wrappers are the ones called.  Everything runs in one
process with ``workers = 1``.

Sizes follow the studies the workloads come from (the Cauchy and L1
contraction acceptance studies, `plapsim simulate`, `plapsim regcheck`),
with time spans shortened so that one run holds several main calls:
cauchy_1d T = 0.25 -> 0.04, contraction_2d T = 0.05 -> 0.01, explicit_2d
T = 0.01 -> 0.005 and one path per call instead of two.  regcheck runs
unchanged.
"""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import plapsim.cli as cli
import plapsim.config as config
import plapsim.evolution as evolution
import plapsim.noise as noise
import plapsim.verify as verify
from plapsim.evolution import SolverConfig
from plapsim.regularize import power_sigma
from plapsim.spatial import (Grid, initial_profile, p_laplacian_coeff,
                             perturbation_for, tanh_drift, zero_drift)

CHECKOUT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    """``report_checks(output)`` lists the pass flags of the program's own
    report; ``expected_checks`` is their number, charged as failed when the
    main call raises.  ``headline(output)`` gives the values compared with
    the committed reference values at their seed.  ``guards`` name per-layer
    metrics that must read 0 in the traced run.  ``setup_reps`` is fixed,
    not timed, so that the allocator's history, and with it the peak RSS,
    is the same in every run; it is large where the set-up is cheap."""

    name: str
    setup: object
    run: object
    report_checks: object
    expected_checks: int
    headline: object
    setup_reps: int
    guards: tuple = ()


# ------------------------------------------------------------------ cauchy_1d


def _cauchy_setup(seed):
    grid = Grid(1, 32)
    plan = verify.ExperimentPlan(
        grid=grid,
        coeff=p_laplacian_coeff(2.5),
        drift=zero_drift(),
        pert=perturbation_for(2.5, m=1),
        spec=power_sigma(0.75),
        kernel=noise.gaussian_kernel(grid, ell=0.25),
        config=SolverConfig(dt=1e-3, t_end=0.04),
        n_list=(4, 8, 16, 32),
        num_paths=2,
        master_seed=seed,
    )
    return plan, initial_profile(grid, "sine", amplitude=0.25)


def _cauchy_run(inputs):
    plan, u0 = inputs
    return verify.cauchy_in_n_study(plan, u0=u0)


def _cauchy_headline(report):
    return {f"distance_{n}": report["estimates"][str(n)]["mean"]
            for n in report["levels"]}


# ------------------------------------------------------------- contraction_2d


def _contraction_setup(seed):
    grid = Grid(2, 32)
    plan = verify.ExperimentPlan(
        grid=grid,
        coeff=p_laplacian_coeff(2.5),
        drift=tanh_drift(1.0),
        pert=None,
        spec=power_sigma(0.75),
        kernel=noise.gaussian_kernel(grid, ell=0.25, scale=0.3),
        config=SolverConfig(dt=2.5e-3, t_end=0.01),
        n_list=(4, 8, 16, 32),
        num_paths=2,
        master_seed=seed,
    )
    u0_a = initial_profile(grid, "sine", amplitude=0.25)
    return plan, u0_a, u0_a + initial_profile(grid, "bump", amplitude=0.125)


def _contraction_run(inputs):
    return verify.contraction_experiment(*inputs)


def _contraction_headline(report):
    return {f"mean_t{pt['t']:.6g}": pt["mean"] for pt in report["curve"]}


def _study_checks(report):
    return [c["pass"] for c in report["checks"]]


# ---------------------------------------------------------------- explicit_2d


def _explicit_setup(seed):
    # the same builders `plapsim simulate` uses
    cfg = config.validate_config({
        **config.DEFAULTS,
        "grid.dimension": 2,
        "grid.n_interior": 64,
        "solver.scheme": "explicit",
        "sigma.mode": "raw",
        "pert.enabled": False,
        "solver.dt": 5e-5,
        "solver.t_end": 0.005,
        "run.paths": 1,
        "run.seed": seed,
    })
    grid = config.make_grid(cfg)
    solver_cfg = config.make_solver_config(cfg)
    system = evolution.build_system(
        grid, config.make_coeff(cfg), config.make_drift(cfg),
        config.make_pert(cfg), solver_cfg, spec=config.make_spec(cfg),
        kernel=config.make_kernel(cfg, grid))
    return cfg, grid, solver_cfg, system, config.make_initial(cfg, grid)


def _explicit_run(inputs):
    cfg, grid, solver_cfg, system, u0 = inputs
    paths = []
    for k in range(cfg["run.paths"]):
        sampler = config.make_sampler(cfg, grid, cfg["run.seed"], k)
        rec = evolution.simulate_path(system, solver_cfg, u0, sampler)
        paths.append({"sup_l2_sq": rec.sup_l2_sq,
                      "l2_sq": float(rec.energies["l2_sq"][-1]),
                      "finite": all(math.isfinite(v) for e in rec.energies.values()
                                    for v in e)})
    return paths


def _explicit_checks(paths):
    return [p["finite"] for p in paths]


def _explicit_headline(paths):
    out = {}
    for k, p in enumerate(paths):
        out[f"path{k}_sup_l2_sq"] = p["sup_l2_sq"]
        out[f"path{k}_l2_sq"] = p["l2_sq"]
    return out


# ------------------------------------------------------------------- regcheck


def _regcheck_setup(seed):
    # config load and validation, as `plapsim regcheck` does without --config
    config.validate_config(dict(config.DEFAULTS))
    return seed


def _regcheck_run(seed):
    # `plapsim regcheck` in process; its outputs go to a scratch directory
    # at the root of the checkout
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=CHECKOUT) as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["regcheck", "--out", out, "--seed", str(seed)])
        report = json.loads((Path(out) / "report.json").read_text())
    return code, report


def _regcheck_checks(output):
    code, report = output
    flags = [code == cli.EXIT_PASS]
    for level in report["levels"]:
        flags += [level["overshoot_pass"], level["slope_pass"], level["gap_pass"]]
    return flags


def _regcheck_headline(output):
    return {"gap_slope": output[1]["gap_slope"]}


_NO_SOLVER = ("regularize.sigma_n.calls", "spatial.j_operator.calls")

WORKLOADS = {w.name: w for w in (
    Workload("cauchy_1d", _cauchy_setup, _cauchy_run, _study_checks, 3,
             _cauchy_headline, setup_reps=1000),
    Workload("contraction_2d", _contraction_setup, _contraction_run,
             _study_checks, 5, _contraction_headline, setup_reps=7,
             guards=_NO_SOLVER),
    Workload("explicit_2d", _explicit_setup, _explicit_run, _explicit_checks,
             1, _explicit_headline, setup_reps=3,
             guards=_NO_SOLVER + ("evolution.newton_iters_per_step",)),
    Workload("regcheck", _regcheck_setup, _regcheck_run, _regcheck_checks,
             25, _regcheck_headline, setup_reps=1000, guards=("evolution.steps",)),
)}
