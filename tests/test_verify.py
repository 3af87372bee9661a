"""Desk-scale runs of the Monte Carlo studies and their plan validation."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from plapsim import cli, evolution, verify
from plapsim.config import DEFAULTS, make_solver_config, validate_config
from plapsim.evolution import (BlowUpError, NewtonDivergedError, SolverConfig,
                               build_system, simulate_path)
from plapsim.noise import default_sampler, gaussian_kernel
from plapsim.regularize import power_sigma
from plapsim.spatial import (Grid, HigherOrderPerturbation, LerayLionsCoeff,
                             initial_profile, linear_coeff, p_laplacian_coeff,
                             perturbation_for, q_of_p, tanh_drift)
from plapsim.verify import (
    ExperimentPlan,
    MCEstimate,
    cauchy_in_n_study,
    contraction_experiment,
    energy_report,
    heat_oracle_study,
)


def desk_plan(grid=None, paths=3, workers=1, m=2, alpha=0.75, **config_kw):
    grid = grid or Grid(1, 12)
    kw = dict(dt=4e-3, t_end=0.04, use_perturbation=True)
    kw.update(config_kw)
    return ExperimentPlan(
        grid=grid,
        coeff=p_laplacian_coeff(2.5),
        drift=tanh_drift(1.0),
        pert=HigherOrderPerturbation(m=m, q=q_of_p(2.5)),
        spec=power_sigma(alpha, 1.0),
        kernel=gaussian_kernel(grid, ell=0.25),
        config=SolverConfig(**kw),
        n_list=(4, 8),
        num_paths=paths,
        master_seed=13,
        workers=workers,
    )


# ------------------------------------------------------------------ estimates


def test_mc_estimate_frozen_values():
    est = MCEstimate.from_samples([1.0, 2.0, 3.0, 4.0])
    assert est.mean == 2.5
    assert np.isclose(est.std_error, np.std([1, 2, 3, 4], ddof=1) / 2.0)
    assert est.num_paths == 4
    with pytest.raises(ValueError):
        MCEstimate.from_samples([1.0])


def test_plan_validation():
    with pytest.raises(ValueError):
        desk_plan(paths=1)
    plan = desk_plan()
    with pytest.raises(ValueError):
        ExperimentPlan(**{**plan.__dict__, "n_list": (8, 4)})
    # growth threshold: c_sigma = 81 forces levels >= 9
    with pytest.raises(ValueError):
        ExperimentPlan(**{**plan.__dict__, "spec": power_sigma(0.75, 9.0)})


# -------------------------------------------------------------------- studies


def test_energy_report_desk_scale():
    report = energy_report(desk_plan())
    assert report["pass"], report
    assert report["levels"] == [4, 8]
    names = {c["name"] for c in report["checks"]}
    assert "energies_finite" in names
    assert "uniform_l2_bound" in names
    assert any(n.startswith("weighted_wmq_monotone") for n in names)
    json.dumps(report)   # must be serializable as produced


def test_energy_report_propagates_blow_ups():
    # the explicit-dt warning names the line that called the study
    plan = desk_plan(scheme="explicit", dt=0.02, t_end=0.2)
    with pytest.warns(RuntimeWarning, match="stability heuristic") as caught:
        with pytest.raises(BlowUpError):
            energy_report(plan, u0=initial_profile(plan.grid, "sine",
                                                   amplitude=3.0))
    assert [Path(w.filename) for w in caught] == [Path(__file__)]


def test_contraction_requires_alpha_at_least_half():
    plan = desk_plan(alpha=0.3)
    u0 = initial_profile(plan.grid, "sine", amplitude=0.3)
    v0 = initial_profile(plan.grid, "bump", amplitude=0.2)
    with pytest.raises(ValueError, match="alpha"):
        contraction_experiment(plan, u0, v0)


def test_contraction_desk_scale():
    plan = desk_plan()
    u0 = initial_profile(plan.grid, "sine", amplitude=0.3)
    v0 = initial_profile(plan.grid, "bump", amplitude=0.2)
    report = contraction_experiment(plan, u0, v0)
    assert report["pass"], report
    curve = report["curve"]
    assert curve[0]["t"] == 0.0
    assert np.isclose(curve[0]["mean"], report["initial_distance"])
    assert curve[-1]["t"] == plan.config.t_end
    json.dumps(report)


def test_cauchy_requires_doubling_chain():
    plan = desk_plan()
    bad = ExperimentPlan(**{**plan.__dict__, "n_list": (4, 12)})
    with pytest.raises(ValueError, match="double"):
        cauchy_in_n_study(bad)


def test_cauchy_single_level_does_not_pass():
    # one level gives no successive distances to compare, hence no checks
    plan = desk_plan()
    report = cauchy_in_n_study(ExperimentPlan(**{**plan.__dict__, "n_list": (4,)}))
    assert report["checks"] == []
    assert report["pass"] is False


def test_cauchy_desk_scale_first_order_perturbation():
    report = cauchy_in_n_study(desk_plan(m=1, paths=4))
    assert report["pass"], report
    d4 = report["estimates"]["4"]["mean"]
    d8 = report["estimates"]["8"]["mean"]
    assert d8 < d4
    json.dumps(report)


def test_cauchy_levels_share_the_wiener_path():
    # each (level, path) run on its own fresh sampler keyed by (seed, path):
    # the study's distances couple the levels through the path index alone
    plan = desk_plan(m=1, paths=3)
    report = cauchy_in_n_study(plan)
    u0 = initial_profile(plan.grid, "sine", amplitude=0.25)
    states = {}
    for n in plan.n_list + (2 * plan.n_list[-1],):
        cfg = replace(plan.config, n=n)
        system = build_system(plan.grid, plan.coeff, plan.drift, plan.pert, cfg,
                              spec=plan.spec, kernel=plan.kernel)
        for p in range(plan.num_paths):
            sampler = default_sampler(plan.grid, plan.master_seed, p)
            states[n, p] = simulate_path(system, cfg, u0, sampler).states[:-1]
    for n in plan.n_list:
        distances = [np.sqrt(np.sum((states[n, p] - states[2 * n, p]) ** 2)
                             * plan.grid.weight * plan.config.dt)
                     for p in range(plan.num_paths)]
        assert report["estimates"][str(n)]["mean"] == pytest.approx(
            np.mean(distances), rel=1e-12, abs=0.0)


def test_heat_oracle_quick():
    report = heat_oracle_study(n_interior=32, dt=2e-4, t_end=0.05,
                               rel_tol=5e-3, slope_grids=(4, 8, 16),
                               slope_dt=1e-4)
    assert report["pass"], report
    assert 1.7 <= report["slope"] <= 2.3
    # the drift-implicit steps from the product sine meet (1 + dt lam_h)^-K
    # times it to 1e-12 in 1d and 2d
    assert [c["name"] for c in report["checks"]] == [
        "heat_relative_error", "heat_richardson_slope", "heat_discrete_1d", "heat_discrete_2d"]
    for check in report["checks"][2:]:
        assert check["estimate"] <= check["bound"] == 1e-12
    json.dumps(report)


class SlightlyFastHeatFlux:
    """a = (1 + 1e-9) xi: a heat flux off by one part in 10^9."""

    def __call__(self, x, lam, xi):
        return (1.0 + 1e-9) * xi

    def derivative(self, x, lam, xi):
        a_xi, a_lam = linear_coeff().a_eval.derivative(x, lam, xi)
        return (1.0 + 1e-9) * a_xi, a_lam


def test_the_exact_heat_checks_fail_a_flux_off_by_one_part_in_a_billion(monkeypatch):
    # as `plapsim verify` runs it: the continuous checks pass, the exact
    # discrete ones fail
    monkeypatch.setattr(verify, "linear_coeff", lambda: LerayLionsCoeff(
        a_eval=SlightlyFastHeatFlux(), p=2.0, c1=1.0))
    report = heat_oracle_study(**cli._VERIFY_HEAT)
    assert [c["pass"] for c in report["checks"]] == [True, True, False, False]


def test_heat_oracle_tags_its_path_failure(monkeypatch):
    # a singular Newton matrix fails the heat path at its first step
    newton_matrix = evolution._newton_matrix
    monkeypatch.setattr(evolution, "_newton_matrix", lambda *args: 0.0 * newton_matrix(*args))
    with pytest.raises(NewtonDivergedError) as info:
        heat_oracle_study(n_interior=8, dt=1e-3, t_end=0.01, slope_grids=(4, 8))
    exc = info.value
    assert (exc.study, exc.level, exc.path, exc.step, exc.time, exc.iterations) == (
        "heat_oracle", None, None, 0, 0.0, 0)


def test_only_the_callers_that_read_energies_form_them(monkeypatch, tmp_path):
    # the Cauchy, contraction and heat studies read states alone; the
    # energy study and `plapsim simulate` take the energies of every
    # member at every step
    energies, measured = evolution._energies, []

    def counted(system, u, l2_sq):
        measured.append(len(u))
        return energies(system, u, l2_sq)

    monkeypatch.setattr(evolution, "_energies", counted)
    plan = desk_plan(m=1)
    u0 = initial_profile(plan.grid, "sine", amplitude=0.25)
    cauchy_in_n_study(plan, u0=u0)
    contraction_experiment(plan, u0, initial_profile(plan.grid, "bump", amplitude=0.2))
    heat_oracle_study(n_interior=8, dt=1e-3, t_end=0.01, slope_grids=(4, 8))
    assert measured == []

    energy_report(plan, u0=u0)   # one stack of every job
    jobs = len(plan.n_list) * plan.num_paths
    assert measured == [jobs] * (plan.config.num_steps + 1)

    measured.clear()
    assert cli.main(["simulate", "--out", str(tmp_path), "--paths", "2"]) == cli.EXIT_PASS
    steps = make_solver_config(validate_config(dict(DEFAULTS))).num_steps
    assert measured == [2] * (steps + 1)


# ------------------------------------------------------------------- workers


def test_worker_pool_does_not_change_results():
    serial = energy_report(desk_plan(workers=1))
    pooled = energy_report(desk_plan(workers=2))
    assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)

    plan1, plan2 = desk_plan(m=1, paths=4), desk_plan(m=1, paths=4, workers=3)
    assert json.dumps(cauchy_in_n_study(plan1), sort_keys=True) \
        == json.dumps(cauchy_in_n_study(plan2), sort_keys=True)

    u0 = initial_profile(plan1.grid, "sine", amplitude=0.25)
    v0 = initial_profile(plan1.grid, "bump", amplitude=0.2)
    assert json.dumps(contraction_experiment(plan1, u0, v0), sort_keys=True) \
        == json.dumps(contraction_experiment(plan2, u0, v0), sort_keys=True)


# -------------------------------------------------------------------- stacks


def job_record(plan, job):
    """The record, or path failure, of one job run alone by simulate_path."""
    cfg, u0, path = job
    system = build_system(plan.grid, plan.coeff, plan.drift, plan.pert, cfg,
                          spec=plan.spec, kernel=plan.kernel)
    try:
        return simulate_path(system, cfg, u0, plan.sampler(path))
    except BlowUpError as exc:
        return exc


def test_jobs_in_one_stack_are_bitwise_their_lone_runs(monkeypatch):
    plan = desk_plan(m=1, paths=3)
    u0 = initial_profile(plan.grid, "sine", amplitude=0.25)
    v0 = initial_profile(plan.grid, "bump", amplitude=0.3)
    jobs = [(replace(plan.config, n=n), start, p)
            for n, start, p in ((4, u0, 0), (16, v0, 2), (8, u0, 0), (64, u0, 1))]
    records = verify._map_jobs(plan, "mix", jobs)
    monkeypatch.setattr(verify, "_STACK_BYTES", 1)   # a stack per job
    for rec, one, job in zip(records, verify._map_jobs(plan, "mix", jobs), jobs):
        alone = job_record(plan, job)
        for r in (rec, one):
            assert r.states.tobytes() == alone.states.tobytes()
            assert r.newton_iters.tobytes() == alone.newton_iters.tobytes()
            assert r.integrals == alone.integrals and r.sup_l2_sq == alone.sup_l2_sq


@pytest.mark.filterwarnings("ignore:explicit dt")
@pytest.mark.parametrize("workers", [1, 2])
def test_first_failing_job_in_job_order_raises(workers):
    # the explicit scheme at dt = 0.004 blows up sooner from a larger
    # amplitude: job 0 fails late, job 2 early, and job 0 must be the one
    plan = desk_plan(scheme="explicit", dt=0.004, t_end=0.08,
                     use_perturbation=False, workers=workers)
    sine = lambda amp: initial_profile(plan.grid, "sine", amplitude=amp)
    jobs = [(replace(plan.config, n=4), sine(0.5), 0),
            (replace(plan.config, n=8), sine(0.05), 1),
            (replace(plan.config, n=8), sine(4.0), 2)]
    late, calm, early = (job_record(plan, job) for job in jobs)
    assert isinstance(late, BlowUpError) and isinstance(early, BlowUpError)
    assert not isinstance(calm, BlowUpError)
    assert early.step < late.step
    with pytest.raises(BlowUpError) as info:
        verify._map_jobs(plan, "order", jobs)
    exc = info.value
    assert (exc.study, exc.level, exc.path, exc.step, exc.time, exc.norm) == (
        "order", 4, 0, late.step, late.time, late.norm)
