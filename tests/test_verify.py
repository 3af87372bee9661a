"""Desk-scale runs of the Monte Carlo studies and their plan validation."""

import json
from dataclasses import replace

import numpy as np
import pytest

from plapsim.evolution import BlowUpError, SolverConfig, build_system, simulate_path
from plapsim.noise import default_sampler, gaussian_kernel
from plapsim.regularize import power_sigma
from plapsim.spatial import (Grid, HigherOrderPerturbation, initial_profile,
                             p_laplacian_coeff, perturbation_for, q_of_p,
                             tanh_drift)
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
    plan = desk_plan(scheme="explicit", dt=0.02, t_end=0.2)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(BlowUpError):
            energy_report(plan, u0=initial_profile(plan.grid, "sine",
                                                   amplitude=3.0))


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
    json.dumps(report)


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
