"""Monte Carlo verification of the quantitative bounds the scheme must obey.

Each study returns a JSON-ready report dict: a list of named checks, each
carrying the measured estimate, the bound it is held against, a standard
error where the estimate is a Monte Carlo mean, and a pass flag.  Every
trajectory is a job (config, initial state, path index), its level being
the config's n, and run_jobs steps a study's jobs as a few stacks (one per
worker, cut to a fixed memory budget) through evolution.simulate_batch.
The Wiener path is a pure function of (master_seed, path_index), so jobs
that share a path index are coupled across levels and initial data whether
or not they share a stack; a job's record is bitwise the same in any stack,
and each study reduces its records into paired differences.
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .evolution import (BlowUpError, NewtonDivergedError, SolverConfig,
                        build_system, simulate_batch, warn_explicit_dt)
from .noise import default_sampler
from .spatial import (Grid, initial_profile, linear_coeff, n_min_default,
                      norm_l1, norm_l2, zero_drift)

__all__ = [
    "MCEstimate",
    "ExperimentPlan",
    "Ensemble",
    "run_jobs",
    "energy_report",
    "contraction_experiment",
    "cauchy_in_n_study",
    "heat_oracle_study",
    "HEAT_SLOPE_GRIDS",
    "PATH_FAILURES",
    "failure_report",
]


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with its standard error over independent paths."""

    mean: float
    std_error: float
    num_paths: int

    @staticmethod
    def from_samples(values):
        values = np.asarray(values, dtype=float)
        if values.size < 2:
            raise ValueError("standard errors need at least two paths")
        return MCEstimate(mean=float(np.mean(values)),
                          std_error=float(np.std(values, ddof=1)
                                          / math.sqrt(values.size)),
                          num_paths=int(values.size))


@dataclass(frozen=True)
class Ensemble:
    """The model trajectory jobs run on: grid, operator, noise and the
    sampler of each Wiener path, keyed by (master_seed, path_index).  spec
    and kernel are None to run without noise.  `plapsim simulate` runs its
    paths on an Ensemble; a study's ExperimentPlan is one.  workers > 1
    fans the jobs out to a process pool."""

    grid: object
    coeff: object
    drift: object
    pert: object
    spec: object
    kernel: object
    master_seed: int
    workers: int = 1
    num_modes: int = 0   # every mode, as noise.modes = 0
    decay: float = 2.0

    def sampler(self, path_index):
        return default_sampler(self.grid, self.master_seed, path_index,
                               num_modes=self.num_modes, decay=self.decay)


@dataclass(frozen=True, kw_only=True)
class ExperimentPlan(Ensemble):
    """Everything a study needs: its Ensemble, the levels, the solver
    configuration and the statistics.

    n_list must be sorted.  When spec is given, every level must stay at
    or above n_min_default: the growth threshold n0, sharpened by the
    dissipativity bound when the coefficient has a nontrivial c2.  The
    minimum is computed and checked on construction and not stored.
    num_paths >= 2 so standard errors exist.  The aggregates are
    independent of the pool size because every path is keyed by
    (master_seed, path_index), every record is independent of the stack it
    runs in, and records are merged in job order.
    """

    config: SolverConfig
    n_list: tuple
    num_paths: int
    slack: float = 0.05
    se_mult: float = 3.0
    checkpoints: int = 10

    def __post_init__(self):
        if self.num_paths < 2:
            raise ValueError("num_paths must be at least 2")
        n_list = tuple(int(n) for n in self.n_list)
        if list(n_list) != sorted(n_list):
            raise ValueError("n_list must be sorted")
        object.__setattr__(self, "n_list", n_list)
        if self.spec is not None:
            level = n_min_default(self.grid, self.coeff, self.pert,
                                  self.spec.c_sigma)
            low = [n for n in n_list if n < level]
            if low:
                raise ValueError(f"levels {low} fall below the minimum "
                                 f"admissible level {level:g}")


PATH_FAILURES = (BlowUpError, NewtonDivergedError)

# Bytes of Newton matrix one stack of jobs may hold (System.slab_bytes per
# member).  In 2d each member carries its factors from step to step
# (simulate_batch), and a round in which every member refactors makes the
# new ones in those slabs.  A round in which only some refactor makes
# their new matrices beside the round's factors, so the peak is below
# twice this.  It bounds a stack's memory, not its results: a job's
# record is the same in a stack of any size.
_STACK_BYTES = 2 ** 20


def _trajectories(plan, study, jobs, energies):
    """The trajectory jobs (cfg, u0, path_index) of one stack, which differ
    only in level, initial state and path, stepped as one: per job its
    TrajectoryRecord, or its path failure tagged with the study, its level
    cfg.n and its path.  energies as in simulate_batch."""
    cfg = jobs[0][0]
    system = build_system(plan.grid, plan.coeff, plan.drift, plan.pert, cfg,
                          spec=plan.spec, kernel=plan.kernel,
                          levels=None if cfg.n is None else [job[0].n for job in jobs])
    paths = sorted({path for _, _, path in jobs})
    samplers = [plan.sampler(p) for p in paths] if plan.kernel is not None else None
    results = simulate_batch(system, cfg, [u0 for _, u0, _ in jobs], samplers,
                             rows=[paths.index(path) for _, _, path in jobs],
                             energies=energies)
    for (cfg, _, path), res in zip(jobs, results):
        if isinstance(res, PATH_FAILURES):
            res.study, res.level, res.path = study, cfg.n, path
    return results


def _stacks(plan, jobs):
    """The jobs cut into contiguous stacks: one run per worker (at most one
    per job), cut where the configuration changes other than in its level,
    and into stacks whose Newton matrices fit _STACK_BYTES."""
    stacks = []
    runs = max(1, min(plan.workers, len(jobs)))
    for run in np.array_split(np.arange(len(jobs)), runs):
        kinds = itertools.groupby(run, key=lambda j: (replace(jobs[j][0], n=None),
                                                      jobs[j][0].n is None))
        for _, group in kinds:
            group = [jobs[j] for j in group]
            cfg = group[0][0]
            slab = build_system(plan.grid, plan.coeff, plan.drift, plan.pert,
                                cfg).slab_bytes
            per = max(1, _STACK_BYTES // slab)
            stacks += [group[i:i + per] for i in range(0, len(group), per)]
    return stacks


def run_jobs(plan, study, jobs, stacklevel=1, energies=True):
    """Run the trajectory jobs (cfg, u0, path_index) of a study as stacks on
    an Ensemble (a study's ExperimentPlan, say), in plan.workers processes.
    energies, as in simulate_batch, says whether the records carry the
    energies beyond ||u||_2^2 and their integrals: a caller that reads
    states alone turns it off.

    Returns (records, failure): the records of the jobs before the first
    failing job in job order, and that job's path failure, tagged with
    study, level and path (None if every job ran to the end).  Which job
    fails first does not depend on the stacks or the timing; a serial run
    stops at the stack that holds it.
    An explicit dt above the stability heuristic warns once per
    configuration, before any job runs; stacklevel counts as in
    warnings.warn from the caller of run_jobs, which 1 names.
    """
    explicit = {}
    for cfg, u0, _ in jobs:
        if cfg.scheme == "explicit":
            explicit.setdefault(replace(cfg, n=None), []).append(u0)
    for cfg, states in explicit.items():
        warn_explicit_dt(build_system(plan.grid, plan.coeff, plan.drift, plan.pert, cfg),
                         cfg, np.array(states), stacklevel=stacklevel + 1)
    stacks = _stacks(plan, jobs)
    run = functools.partial(_trajectories, plan, study, energies=energies)
    if plan.workers <= 1 or len(stacks) <= 1:
        results = map(run, stacks)   # lazy: a serial run stops at the failure
    else:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(processes=min(plan.workers, len(stacks))) as pool:
            results = pool.map(run, stacks)
    records = []
    for res in itertools.chain.from_iterable(results):
        if isinstance(res, PATH_FAILURES):
            return records, res
        records.append(res)
    return records, None


def _map_jobs(plan, study, jobs, energies=True):
    """Records of the study's trajectory jobs in job order; the first
    failing job in job order raises its path failure.  A study calls this,
    and its explicit-dt warning names the study's caller."""
    records, failure = run_jobs(plan, study, jobs, stacklevel=3, energies=energies)
    if failure is not None:
        raise failure
    return records


def _check(name, statement, estimate, bound, passed, std_error=None):
    return {"name": name, "statement": statement,
            "estimate": None if estimate is None else float(estimate),
            "bound": None if bound is None else float(bound),
            "std_error": None if std_error is None else float(std_error),
            "pass": bool(passed)}


def _finish(name, statement, checks, extra=None):
    """Study report; a study with no checks does not pass."""
    report = {"name": name, "statement": statement, "checks": checks,
              "pass": bool(checks) and all(c["pass"] for c in checks)}
    if extra:
        report.update(extra)
    return report


def failure_report(exc, seed):
    """Report of a study stopped by a path failure (a BlowUpError or
    NewtonDivergedError tagged by its trajectory job): one failed check
    carrying the study, level, path, seed, step and time that rerun it,
    and a Newton failure's cause."""
    finite = lambda x: float(x) if math.isfinite(x) else None
    failure = {"study": exc.study, "level": exc.level, "path": exc.path,
               "seed": int(seed), "step": exc.step, "t": exc.time}
    if isinstance(exc, NewtonDivergedError):
        failure.update(kind="newton_failure", cause=exc.cause,
                       iterations=int(exc.iterations), residual=finite(exc.residual))
    else:
        failure.update(kind="blow_up", norm=finite(exc.norm))
    check = _check("path_failure", "every path of the study runs to the end",
                   None, None, False)
    check["failure"] = failure
    return _finish(exc.study, "the study stopped at a failing path", [check])


def _paired_monotone_checks(label, statement, levels, per_path, se_mult):
    """Checks that per-path values do not increase along consecutive levels,
    within se_mult standard errors plus an absolute floor of 1e-12."""
    checks = []
    for a, b in zip(range(len(levels) - 1), range(1, len(levels))):
        diffs = per_path[b] - per_path[a]
        est = MCEstimate.from_samples(diffs)
        tol = se_mult * est.std_error + 1e-12
        checks.append(_check(
            f"{label}_{levels[a]}_to_{levels[b]}",
            statement.format(a=levels[a], b=levels[b]),
            est.mean, tol, est.mean <= tol, est.std_error))
    return checks


# -------------------------------------------------------------- energy study


def energy_report(plan, u0=None, ratio_bound=2.0):
    """Uniform-in-n energy boundedness of the approximating trajectories.

    Estimates E sup_t ||u_n||_2^2, E int ||grad u_n||_p^p, and the
    (1/n)-weighted H^m and W^{m,q} energies for every level, on coupled
    Wiener paths.  Checks: every estimate finite; the sup-norm estimates
    stay within ratio_bound of each other across levels; the weighted
    W^{m,q} energy does not increase with n (paired, within se_mult
    standard errors).
    """
    if u0 is None:
        u0 = initial_profile(plan.grid, "sine", amplitude=0.25)
    record_every = max(1, plan.config.num_steps)
    jobs = [(replace(plan.config, n=n, record_every=record_every), u0, p)
            for n in plan.n_list for p in range(plan.num_paths)]
    records = _map_jobs(plan, "energy_boundedness", jobs)
    stats = np.asarray([
        (rec.sup_l2_sq, rec.integrals["grad_lp_p"],
         rec.integrals["hm0_sq"] / cfg.n, rec.integrals["wmq_q"] / cfg.n)
        for (cfg, _, _), rec in zip(jobs, records)
    ]).reshape(len(plan.n_list), plan.num_paths, 4)

    names = ("sup_l2_sq", "int_grad_lp_p", "int_hm0_sq_over_n",
             "int_wmq_q_over_n")
    estimates = {}
    for i, n in enumerate(plan.n_list):
        estimates[str(n)] = {
            name: MCEstimate.from_samples(stats[i, :, k]).__dict__
            for k, name in enumerate(names)}

    checks = [_check(
        "energies_finite",
        "every second-moment and dissipation estimate is finite at every level",
        float(np.max(stats)), None, bool(np.all(np.isfinite(stats))))]

    sup_means = np.array([np.mean(stats[i, :, 0]) for i in range(len(plan.n_list))])
    lo, hi = np.min(sup_means), np.max(sup_means)
    ratio = 1.0 if hi == lo else float(hi / lo)   # zero data stays at 0: ratio 1
    checks.append(_check(
        "uniform_l2_bound",
        f"E sup_t ||u_n||_2^2 varies by at most a factor {ratio_bound} over levels",
        ratio, ratio_bound, ratio <= ratio_bound))

    checks.extend(_paired_monotone_checks(
        "weighted_wmq_monotone",
        "(1/n) E int ||u_n||_Wmq^q does not increase from level {a} to {b}",
        plan.n_list, stats[:, :, 3], plan.se_mult))

    return _finish("energy_boundedness",
                   "uniform-in-level second-moment and dissipation bounds",
                   checks, extra={"levels": list(plan.n_list),
                                  "estimates": estimates})


# --------------------------------------------------------- contraction study


def contraction_experiment(plan, u0_a, u0_b):
    """L1 coupling bound between two solutions driven by the same noise.

    Requires the Holder exponent to sit in [1/2, 1).  Both trajectories
    run the limit dynamics (raw coefficient, no higher-order term) from
    different initial data under identical increments; at each checkpoint
    the Monte Carlo mean of ||u1 - u2||_1 is held against
    exp(l_f t) ||u0_1 - u0_2||_1 with the plan's slack and standard errors.
    """
    if plan.spec is not None and not 0.5 <= plan.spec.alpha < 1.0:
        raise ValueError(f"the coupling bound needs alpha in [1/2, 1), got "
                         f"alpha = {plan.spec.alpha}")
    grid = plan.grid
    u0_a, u0_b = grid.check(u0_a), grid.check(u0_b)
    steps = plan.config.num_steps
    snap_idx = np.unique(np.round(   # more checkpoints than steps add none
        np.linspace(0, steps, min(plan.checkpoints, steps) + 1)).astype(int))
    t_snap = snap_idx * plan.config.dt

    cfg = replace(plan.config, n=None, sigma_mode="raw", record_every=1)
    jobs = [(cfg, u0, p) for p in range(plan.num_paths) for u0 in (u0_a, u0_b)]
    records = _map_jobs(plan, "l1_contraction", jobs, energies=False)
    curves = np.asarray([norm_l1(grid, rec_a.states[snap_idx] - rec_b.states[snap_idx])
                         for rec_a, rec_b in zip(records[::2], records[1::2])])

    d0 = norm_l1(grid, u0_a - u0_b)
    l_f = plan.drift.l_f if plan.drift is not None else 0.0
    checks = []
    curve_out = []
    for j, t in enumerate(t_snap):
        est = MCEstimate.from_samples(curves[:, j])
        bound = math.exp(l_f * t) * d0
        limit = bound * (1.0 + plan.slack) + plan.se_mult * est.std_error
        checks.append(_check(
            f"l1_coupling_t_{t:.6g}",
            f"E ||u1(t) - u2(t)||_1 at t = {t:.6g} stays below "
            f"exp(l_f t) * ||u0_1 - u0_2||_1 with slack",
            est.mean, limit, est.mean <= limit, est.std_error))
        curve_out.append({"t": float(t), "mean": est.mean,
                          "std_error": est.std_error, "bound": bound})

    return _finish("l1_contraction",
                   "expected L1 distance of coupled solutions grows at most "
                   "like exp(l_f t), tested pointwise in t",
                   checks, extra={"initial_distance": d0, "curve": curve_out})


# -------------------------------------------------------------- cauchy study


def cauchy_in_n_study(plan, u0=None):
    """Successive-level distances D_n = E ||u_n - u_2n||_{L2((0,T) x D)}.

    Every level of a path runs on the same Wiener path.  n_list
    must be a doubling chain; the study simulates the union of levels and
    checks that D_n does not increase along the chain (paired differences
    within se_mult standard errors).
    """
    for a, b in zip(plan.n_list, plan.n_list[1:]):
        if b != 2 * a:
            raise ValueError(f"n_list must double at each step, got {a} -> {b}")
    if u0 is None:
        u0 = initial_profile(plan.grid, "sine", amplitude=0.25)
    u0 = plan.grid.check(u0)
    levels = list(plan.n_list) + [2 * plan.n_list[-1]]

    cfgs = [replace(plan.config, n=n, record_every=1) for n in levels]
    jobs = [(cfg, u0, p) for p in range(plan.num_paths) for cfg in cfgs]
    records = _map_jobs(plan, "cauchy_in_level", jobs, energies=False)

    w, dt = plan.grid.weight, plan.config.dt
    values = np.empty((len(plan.n_list), plan.num_paths))
    for p in range(plan.num_paths):
        chain = records[p * len(levels):(p + 1) * len(levels)]
        for i, (rec_n, rec_2n) in enumerate(zip(chain, chain[1:])):
            diff = rec_n.states[:-1] - rec_2n.states[:-1]   # left endpoints
            values[i, p] = math.sqrt(float(np.sum(diff * diff) * w * dt))

    estimates = {str(n): MCEstimate.from_samples(values[i]).__dict__
                 for i, n in enumerate(plan.n_list)}
    checks = _paired_monotone_checks(
        "cauchy_monotone",
        "E ||u_n - u_2n||_L2 does not increase from level {a} to {b}",
        plan.n_list, values, plan.se_mult)
    return _finish("cauchy_in_level",
                   "successive-level L2 distances shrink as the level doubles",
                   checks, extra={"levels": list(plan.n_list),
                                  "estimates": estimates})


# ---------------------------------------------------------------- heat oracle


# The heat study's fixed sizes.  The continuous runs go from sin(pi x) to
# t = _HEAT_T_END in 1d: one on _HEAT_N nodes at _HEAT_DT, held to a
# relative _HEAT_TOL, and one on each of HEAT_SLOPE_GRIDS at _HEAT_SLOPE_DT,
# whose errors give the refinement slope (and plapsim verify's
# heat_errors.csv).
_HEAT_N, _HEAT_DT, _HEAT_T_END, _HEAT_TOL = 32, 2e-4, 0.05, 5e-3
HEAT_SLOPE_GRIDS, _HEAT_SLOPE_DT = (4, 8, 16), 1e-4
# K drift-implicit heat steps from the product sine, checked against their
# exact discrete value: (dimension, n_interior, dt, K) of each run
_DISCRETE_HEAT = ((1, 32, 1e-3, 100), (2, 16, 1e-3, 50))
_DISCRETE_HEAT_TOL = 1e-12


def _heat_error(grid, dt, t_end, decay):
    """Relative L2 error at t_end of the noise-free heat path from the
    product sine against decay times it.  The path is one job on a
    noise-free Ensemble with Newton tolerance 1e-12; a path failure raises,
    tagged with study heat_oracle (its level and path are None)."""
    u0 = initial_profile(grid, "sine")
    cfg = SolverConfig(dt=dt, t_end=t_end, newton_tol=1e-12,
                       record_every=max(1, int(round(t_end / dt))))
    heat = Ensemble(grid, linear_coeff(), zero_drift(), None, None, None, master_seed=0)
    (rec,) = _map_jobs(heat, "heat_oracle", [(cfg, u0, None)], energies=False)
    exact = decay * u0
    return norm_l2(grid, rec.final_state() - exact) / norm_l2(grid, exact)


def heat_oracle_study():
    """Deterministic linear benchmark with the exact separable solution.

    With p = 2, a = grad, zero noise and drift, and no perturbation, the
    solution from sin(pi x) is exp(-pi^2 t) sin(pi x).  The semi-implicit
    scheme runs it, with Newton tolerance 1e-12, at the fixed sizes above.
    Checks the relative L2 error at _HEAT_T_END on the main grid against
    _HEAT_TOL, and that the log-log slope of the error across
    HEAT_SLOPE_GRIDS lies in [1.7, 2.3], second order.  Also checks, in 1d
    and 2d at a coarse dt (_DISCRETE_HEAT), that the scheme gives the exact
    discrete solution from the product sine to a relative 1e-12: the
    product sine is an eigenvector of the face stencil with eigenvalue
    lam_h = (4 d / h^2) sin^2(pi h / 2), so each drift-implicit step scales
    it by exactly 1 / (1 + dt lam_h), at any dt.  This holds the face
    stencil, the Newton matrix and the solve to twelve digits.
    """
    decay = math.exp(-math.pi ** 2 * _HEAT_T_END)
    err = _heat_error(Grid(1, _HEAT_N), _HEAT_DT, _HEAT_T_END, decay)
    checks = [_check(
        "heat_relative_error",
        f"relative L2 error against the exact solution at t = {_HEAT_T_END}",
        err, _HEAT_TOL, err <= _HEAT_TOL)]

    errors = [_heat_error(Grid(1, n), _HEAT_SLOPE_DT, _HEAT_T_END, decay)
              for n in HEAT_SLOPE_GRIDS]
    hs = [1.0 / (n + 1) for n in HEAT_SLOPE_GRIDS]
    slope = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    checks.append(_check(
        "heat_richardson_slope",
        f"log-log error slope across grids {HEAT_SLOPE_GRIDS} is second order",
        slope, 2.3, 1.7 <= slope <= 2.3))

    for dimension, n, dt, num_steps in _DISCRETE_HEAT:
        grid = Grid(dimension, n)
        lam_h = 4.0 * dimension / grid.h ** 2 * math.sin(math.pi * grid.h / 2.0) ** 2
        discrete = _heat_error(grid, dt, num_steps * dt,
                               (1.0 + dt * lam_h) ** (-num_steps))
        checks.append(_check(
            f"heat_discrete_{dimension}d",
            f"{num_steps} drift-implicit steps of dt = {dt} on the {dimension}d "
            f"grid with {n} nodes per axis take the product sine to exactly "
            f"(1 + dt lam_h)^-{num_steps} times it, to a relative {_DISCRETE_HEAT_TOL}",
            discrete, _DISCRETE_HEAT_TOL, discrete <= _DISCRETE_HEAT_TOL))

    return _finish("heat_oracle",
                   "the scheme reproduces the exact linear decay profile",
                   checks, extra={"relative_error": float(err),
                                  "slope": slope,
                                  "slope_errors": [float(e) for e in errors]})
