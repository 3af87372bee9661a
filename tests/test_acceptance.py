"""Full-scale acceptance runs for every quantitative guarantee of the scheme.

Each test prints one [PASS]/[FAIL] summary line past the output capture and
then asserts both the quantitative claim and a wall-clock budget.  Experiment
sizes are fixed so the whole module finishes in well under half an hour on
one core.
"""

import json
import time

import numpy as np
import pytest

from plapsim.cli import main
from plapsim.evolution import SolverConfig
from plapsim.noise import gaussian_kernel, kernel_from_matrix, rank_one_kernel
from plapsim.regularize import (RegularizedSigma, gap_bound, power_sigma,
                                sup_gap_scan, verify_regularization)
from plapsim.spatial import (Grid, initial_profile, p_laplacian_coeff,
                             perturbation_for, tanh_drift, zero_drift)
from plapsim.verify import (ExperimentPlan, cauchy_in_n_study,
                            contraction_experiment, energy_report,
                            heat_oracle_study)

from oracles import holder_modulus_check, hs_norm_sq, hs_norm_sq_parseval

pytestmark = pytest.mark.slow

LEVELS = (2, 4, 8, 16, 32, 64, 128, 256)
ALPHAS = (0.5, 0.3, 0.7)


def _emit(capfd, name, ok, elapsed, budget, detail):
    tag = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"\n[{tag}] {name}: {detail} ({elapsed:.1f}s of {budget:.0f}s)",
              flush=True)


def test_regularization_gap_tightness(capfd):
    budget, t0 = 10.0, time.monotonic()
    failures, slopes, worst_rel = [], {}, 0.0
    for alpha in ALPHAS:
        spec = power_sigma(alpha)
        gaps = []
        for n in LEVELS:
            gap, _ = sup_gap_scan(RegularizedSigma(spec, n))
            bound = gap_bound(alpha, 1.0, n)
            if gap > bound * (1.0 + 1e-9) + 1e-15:
                failures.append(f"alpha={alpha} n={n}: gap {gap:.3e} "
                                f"above bound {bound:.3e}")
            if alpha == 0.5:
                rel = abs(gap - 0.25 / n) * 4.0 * n
                worst_rel = max(worst_rel, rel)
                if rel > 1e-4:
                    failures.append(f"n={n}: sqrt-case gap off by {rel:.2e}")
            gaps.append(gap)
        slope = float(np.polyfit(np.log(LEVELS), np.log(gaps), 1)[0])
        predicted = alpha / (alpha - 1.0)
        slopes[alpha] = slope
        if abs(slope - predicted) > 0.05:
            failures.append(f"alpha={alpha}: slope {slope:.3f} "
                            f"vs predicted {predicted:.3f}")
    elapsed = time.monotonic() - t0
    detail = (f"sqrt-case sup-gap rel err {worst_rel:.1e}; decay slopes "
              + ", ".join(f"{a}: {s:.3f}" for a, s in slopes.items()))
    _emit(capfd, "regularization gap tightness", not failures and elapsed < budget,
          elapsed, budget, detail)
    assert not failures, failures
    assert elapsed < budget


def test_lipschitz_certificate(capfd):
    budget, t0 = 5.0, time.monotonic()
    failures, ratios = [], []
    for alpha in ALPHAS:
        spec = power_sigma(alpha)
        for n in LEVELS:
            rep = verify_regularization(spec, n)
            ratios.append(rep["max_slope"] / n)
            # the scan reaches the linear piece n|lam| near zero, so the
            # measured slope is n itself
            if not 1.0 - 1e-6 <= ratios[-1] <= 1.0 + 1e-6:
                failures.append(f"alpha={alpha} n={n}: "
                                f"slope {rep['max_slope']:.9g}")
    elapsed = time.monotonic() - t0
    _emit(capfd, "lipschitz certificate", not failures and elapsed < budget,
          elapsed, budget,
          f"slope/n in [{min(ratios):.12f}, {max(ratios):.12f}] over "
          f"{len(ratios)} pairs, each on its level's lambda set")
    assert not failures, failures
    assert elapsed < budget


def test_parseval_identity(capfd):
    budget, t0 = 10.0, time.monotonic()
    grid = Grid(1, 64)
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for draw in range(100):
        kind = draw % 3
        if kind == 0:
            raw = rng.normal(size=(grid.size, grid.size))
            kernel = kernel_from_matrix(grid, 0.5 * (raw + raw.T))
        elif kind == 1:
            kernel = gaussian_kernel(grid, ell=rng.uniform(0.05, 0.6),
                                     scale=rng.uniform(0.3, 2.0))
        else:
            kernel = rank_one_kernel(grid, rng.normal(size=grid.size))
        spec = power_sigma(rng.uniform(0.3, 0.9),
                           scale=rng.uniform(0.5, 2.0))
        sigma = (RegularizedSigma(spec, n=8) if draw % 4 == 0
                 else spec.eval)
        v = rng.uniform(0.2, 3.0) * rng.normal(size=grid.size)
        closed = hs_norm_sq(kernel, sigma, 0.0, v)
        basis_sum = hs_norm_sq_parseval(kernel, sigma, 0.0, v)
        worst = max(worst, abs(closed - basis_sum)
                    / max(abs(basis_sum), 1e-300))
    elapsed = time.monotonic() - t0
    _emit(capfd, "hilbert-schmidt parseval identity", worst <= 1e-10
          and elapsed < budget, elapsed, budget,
          f"worst relative disagreement {worst:.2e} over 100 draws, N=64")
    assert worst <= 1e-10
    assert elapsed < budget


def test_holder_modulus(capfd):
    budget, t0 = 10.0, time.monotonic()
    grid = Grid(1, 64)
    rng = np.random.default_rng(4099)
    checked, failed = 0, 0
    for alpha in (0.5, 0.75):
        spec = power_sigma(alpha)
        for block in range(10):
            if block % 2 == 0:
                kernel = gaussian_kernel(grid, ell=rng.uniform(0.05, 0.5),
                                         scale=rng.uniform(0.3, 1.5))
            else:
                raw = rng.normal(size=(grid.size, grid.size))
                kernel = kernel_from_matrix(grid, 0.5 * (raw + raw.T))
            for pair in range(100):
                v = rng.uniform(0.1, 2.0) * rng.normal(size=grid.size)
                if pair % 5 == 0:      # nearly identical states
                    w = v + 1e-8 * rng.normal(size=grid.size)
                else:
                    w = rng.uniform(0.1, 2.0) * rng.normal(size=grid.size)
                checked += 1
                failed += not holder_modulus_check(kernel, spec, v, w)["pass"]
    elapsed = time.monotonic() - t0
    _emit(capfd, "holder modulus of the diffusion operator", failed == 0
          and elapsed < budget, elapsed, budget,
          f"{checked} random pairs, {failed} violations")
    assert failed == 0
    assert elapsed < budget


def test_heat_oracle(capfd):
    # the fixed study `plapsim verify` runs: the continuous error and its
    # refinement slope, and the drift-implicit steps from the product sine
    # against (1 + dt lam_h)^-K times it, to 1e-12 in 1d and 2d
    budget, t0 = 60.0, time.monotonic()
    rep = heat_oracle_study()
    elapsed = time.monotonic() - t0
    checks = rep["checks"]
    _emit(capfd, "linear decay oracle", rep["pass"] and elapsed < budget, elapsed,
          budget, f"relative L2 error {rep['relative_error']:.2e} "
          f"(tol {checks[0]['bound']:.0e}), refinement slope {rep['slope']:.3f}, "
          f"exact discrete errors {checks[2]['estimate']:.1e} (1d), "
          f"{checks[3]['estimate']:.1e} (2d)")
    assert rep["pass"], checks
    assert 1.7 <= rep["slope"] <= 2.3
    assert [c["name"] for c in checks] == [
        "heat_relative_error", "heat_richardson_slope", "heat_discrete_1d", "heat_discrete_2d"]
    for check in checks[2:]:
        assert check["estimate"] <= check["bound"] == 1e-12
    json.dumps(rep)
    assert elapsed < budget


def _stochastic_plan(dt, t_end, m, seed, kernel_scale=1.0, drift=None,
                     pert=True):
    grid = Grid(1, 32)
    return ExperimentPlan(
        grid=grid,
        coeff=p_laplacian_coeff(2.5),
        drift=zero_drift() if drift is None else drift,
        pert=perturbation_for(2.5, m=m) if pert else None,
        spec=power_sigma(0.75),
        kernel=gaussian_kernel(grid, ell=0.25, scale=kernel_scale),
        config=SolverConfig(dt=dt, t_end=t_end),
        n_list=(4, 8, 16, 32),
        num_paths=64,
        master_seed=seed,
    )


def test_uniform_energy_bounds(capfd):
    budget, t0 = 600.0, time.monotonic()
    plan = _stochastic_plan(dt=2e-3, t_end=0.25, m=1, seed=614)
    rep = energy_report(plan)
    elapsed = time.monotonic() - t0
    ratio = next(c["estimate"] for c in rep["checks"]
                 if c["name"] == "uniform_l2_bound")
    sups = [rep["estimates"][str(n)]["sup_l2_sq"]["mean"]
            for n in plan.n_list]
    _emit(capfd, "uniform energy bounds", rep["pass"] and elapsed < budget, elapsed,
          budget, f"64 paths, levels {plan.n_list}; sup-norm ratio "
          f"{ratio:.3f} (tol 2), E sup ||u||^2 = "
          + ", ".join(f"{s:.5f}" for s in sups))
    assert rep["pass"], [c for c in rep["checks"] if not c["pass"]]
    assert elapsed < budget


def test_l1_contraction(capfd):
    budget, t0 = 600.0, time.monotonic()
    grid = Grid(1, 32)
    u0_a = initial_profile(grid, "sine", amplitude=0.25)
    u0_b = u0_a + initial_profile(grid, "bump", amplitude=0.125)
    margins = {}
    reports = []
    for l_f, drift in ((0, zero_drift()), (1, tanh_drift(1.0))):
        plan = _stochastic_plan(dt=2.5e-3, t_end=0.5, m=1, seed=1129,
                                kernel_scale=0.3, drift=drift, pert=False)
        rep = contraction_experiment(plan, u0_a, u0_b)
        reports.append(rep)
        margins[l_f] = min(c["bound"] - c["estimate"] for c in rep["checks"])
    elapsed = time.monotonic() - t0
    ok = all(r["pass"] for r in reports) and elapsed < budget
    _emit(capfd, "pathwise L1 contraction", ok, elapsed, budget,
          "64 coupled paths, 10 checkpoints to T=0.5; worst margin "
          + ", ".join(f"l_f={k}: {v:.2e}" for k, v in margins.items()))
    for rep in reports:
        assert rep["pass"], [c for c in rep["checks"] if not c["pass"]]
    assert elapsed < budget


def test_cauchy_in_level(capfd):
    budget, t0 = 600.0, time.monotonic()
    plan = _stochastic_plan(dt=1e-3, t_end=0.25, m=1, seed=2711)
    rep = cauchy_in_n_study(plan)
    elapsed = time.monotonic() - t0
    dists = [rep["estimates"][str(n)]["mean"] for n in plan.n_list]
    _emit(capfd, "cauchy property in the level", rep["pass"] and elapsed < budget,
          elapsed, budget, "successive-level L2 distances "
          + " > ".join(f"{d:.2e}" for d in dists)
          + f" over levels {plan.n_list}, 64 coupled paths")
    assert rep["pass"], [c for c in rep["checks"] if not c["pass"]]
    assert elapsed < budget


def test_deterministic_reports(tmp_path, capfd):
    t0 = time.monotonic()
    base = tmp_path / "base"
    assert main(["verify", "--out", str(base), "--seed", "7"]) == 0
    manifest = str(base / "manifest.json")
    outputs = ("report.json", "energy_levels.csv", "contraction_curve.csv",
               "cauchy_levels.csv", "heat_errors.csv")

    reruns = []
    for workers in (1, 2):
        out = tmp_path / f"rerun_w{workers}"
        assert main(["verify", "--config", manifest, "--out", str(out),
                     "--workers", str(workers)]) == 0
        reruns.append(out)
    mismatched = [name for name in outputs for out in reruns
                  if (base / name).read_bytes() != (out / name).read_bytes()]
    elapsed = time.monotonic() - t0
    _emit(capfd, "deterministic reports", not mismatched, elapsed, 600.0,
          f"{len(outputs)} outputs byte-identical across a manifest rerun "
          f"and a two-worker rerun")
    assert not mismatched, mismatched
