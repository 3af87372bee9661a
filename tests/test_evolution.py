"""Oracle tests for the time steppers: exact linear decay, solver identities,
determinism of the stochastic trajectories, and the failure modes."""

import os
import pickle
import subprocess
import sys
import textwrap
import weakref
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import plapsim.evolution as evolution
from plapsim.evolution import (
    BlowUpError,
    NewtonDivergedError,
    SolverConfig,
    TrajectoryRecord,
    _newton_matrix,
    _apply_factors,
    _factor_lines,
    _line_order,
    build_system,
    explicit_dt_heuristic,
    simulate_batch,
    simulate_path,
    step_explicit,
    step_semi_implicit,
)
from plapsim.noise import default_sampler, gaussian_kernel
from plapsim.regularize import power_sigma
from plapsim.spatial import (Grid, GridMismatchError, HigherOrderPerturbation,
                             apply_divergence_form, initial_profile,
                             linear_coeff, norm_l1, norm_l2, p_laplacian_coeff,
                             perturbation_for, q_of_p, remark_flux_coeff,
                             tanh_drift, zero_drift)

from oracles import laplacian_min_eigenvalue


def heat_system(n_interior):
    grid = Grid(1, n_interior)
    return grid, build_system(grid, linear_coeff(), zero_drift(), None,
                              SolverConfig(dt=1e-3, t_end=1e-3))


def stochastic_pieces(grid, n=8, use_pert=True, dt=1e-3, t_end=0.02, **kw):
    config = SolverConfig(dt=dt, t_end=t_end, n=n,
                          use_perturbation=use_pert, **kw)
    system = build_system(grid, p_laplacian_coeff(2.5), tanh_drift(1.0),
                          perturbation_for(2.5), config,
                          spec=power_sigma(0.75, 1.0),
                          kernel=gaussian_kernel(grid))
    return system, config


# --------------------------------------------------------------- single steps


def test_explicit_step_matches_eigen_decay():
    grid, system = heat_system(32)
    mu = laplacian_min_eigenvalue(grid)
    u = np.sin(np.pi * grid.nodes()[:, 0])
    config = SolverConfig(dt=1e-4, t_end=1e-4, scheme="explicit")
    (v,), _, iters, outcomes = step_explicit(system, config, u[None], 0.0,
                                             np.zeros((1, grid.size)))
    assert iters == 0 and outcomes == [0]
    assert np.allclose(v, (1.0 - config.dt * mu) * u, rtol=1e-12)


def test_explicit_step_adds_the_noise_term():
    grid = Grid(1, 16)
    system, config = stochastic_pieces(grid)
    u = initial_profile(grid, "sine", amplitude=0.25)
    dw = default_sampler(grid, seed=3, path_index=0).sample_increment(0, config.dt)
    (v,), (noise,), _, _ = step_explicit(system, config, u[None], 0.0, dw[None])
    by_hand = u - config.dt * system.apply_drift_operator(u) \
        + system.noise_term(0.0, u, dw)
    assert np.array_equal(v, by_hand)
    assert np.array_equal(noise, system.noise_term(0.0, u, dw))


def test_semi_implicit_linear_step_equals_direct_solve():
    grid, system = heat_system(24)
    config = SolverConfig(dt=2e-3, t_end=2e-3)
    u = initial_profile(grid, "bump", amplitude=1.0)
    (v,), _, _, _ = step_semi_implicit(system, config, u[None], 0.0, np.zeros((1, grid.size)))
    # assemble I + dt L column by column and solve directly
    lap = np.column_stack([
        apply_divergence_form(grid, linear_coeff(), e)
        for e in np.eye(grid.size)])
    direct = np.linalg.solve(np.eye(grid.size) + config.dt * lap, u)
    assert np.allclose(v, direct, rtol=1e-10, atol=1e-12)


def test_semi_implicit_residual_meets_tolerance():
    grid = Grid(1, 16)
    system, config = stochastic_pieces(grid, newton_tol=1e-11)
    u = initial_profile(grid, "sine", amplitude=0.25)
    dw = default_sampler(grid, seed=1, path_index=0).sample_increment(0, config.dt)
    (v,), (noise,), iters, outcomes = step_semi_implicit(system, config, u[None], 0.0, dw[None])
    residual = v + config.dt * system.apply_drift_operator(v) - u - noise
    assert np.sqrt(np.sum(residual ** 2) * grid.weight) <= config.newton_tol
    assert iters >= 1 and outcomes == [iters]


def level_system(dimension, n_interior, m, p=2.5, convective=False):
    """Level-8 system with tanh drift and a perturbation of order m (None: off)."""
    grid = Grid(dimension, n_interior)
    coeff = remark_flux_coeff(p) if convective else p_laplacian_coeff(p)
    pert = HigherOrderPerturbation(m=m, q=q_of_p(p)) if m else None
    config = SolverConfig(dt=1e-3, t_end=1e-3, n=8, use_perturbation=bool(m))
    return grid, build_system(grid, coeff, tanh_drift(1.0), pert, config)


# the tiny grids have fewer nodes per axis than the stencil has colors; in
# 2d, 7 lines at r = 1 have a middle line, and 3 lines at r = 1 are all
# middle system (_factor_lines)
STENCIL_CASES = [
    (1, 32, 1, 2.5, False), (1, 16, 2, 2.5, True), (1, 2, 1, 2.5, False),
    (1, 3, 2, 1.5, False), (2, 8, 1, 2.5, False), (2, 9, 2, 2.5, False),
    (2, 4, 2, 2.5, True), (2, 12, None, 2.5, False), (2, 10, 3, 2.5, False),
    (2, 7, 1, 2.5, False), (2, 3, 1, 2.5, True)]


def slab_to_dense(slab):
    """The size x size matrix a line slab stores, its lines in the order of
    _line_order; the blocks it holds for lines past either end of the grid
    must be zero."""
    lines, n, width = slab.shape
    reach = (width // n - 1) // 2
    position, sign = _line_order(lines)
    dense = np.zeros((lines * n, lines * n))
    for i, b in np.ndindex(lines, 2 * reach + 1):
        j = i + sign[i] * (b - reach)
        block = slab[position[i], :, b * n:(b + 1) * n]
        if 0 <= j < lines:
            dense[i * n:(i + 1) * n, j * n:(j + 1) * n] = block
        else:
            assert not block.any()
    return dense


def colored_newton_matrix(system, dt, v, base):
    """I + dt J at the state v, base = A_n(v), by colored finite
    differences, in the line slab of _newton_matrix: the oracle the exact
    matrix is held to.

    Nodes within Chebyshev distance hw, the stencil's half-width, may
    couple.  A node's color is its coordinates mod 2 hw + 1 (mod n_interior
    on coarser grids), so two nodes of one color have disjoint stencil
    boxes: the columns of one color are perturbed together, and each takes
    the response on its own box's rows only.
    """
    grid, hw, n = system.grid, system.jacobian_half_width, system.grid.n_interior
    side = min(2 * hw + 1, n)
    coords = np.indices(grid.shape).reshape(grid.dimension, 1, -1)
    offsets = np.array(list(product(range(-hw, hw + 1), repeat=grid.dimension)))
    out = coords + offsets.T[:, :, None]
    ok = np.all((out >= 0) & (out < n), axis=0)
    rows, cols = np.ravel_multi_index(out[:, ok], grid.shape), np.nonzero(ok)[1]
    color = np.ravel_multi_index(coords[:, 0] % side, (side,) * grid.dimension)
    members = color == np.arange(side ** grid.dimension)[:, None]
    lines = grid.size // n
    reach = min(hw, lines - 1)
    width = (2 * reach + 1) * n
    eps = np.sqrt(np.finfo(float).eps) * (1.0 + np.abs(v))
    resp = system.apply_drift_operator(v + members * eps) - base
    slab = np.zeros((lines, n, width))
    # row (i, a) and col (j, c) go to slab[position, a, (sign (j - i) + reach) n
    # + c], the position and sign of line i
    position, sign = _line_order(lines)
    line = rows // n
    slab.reshape(-1)[(position[line] * n + rows % n) * width
                     + (sign[line] * (cols // n - line) + reach) * n + cols % n] = \
        resp[color[cols], rows] / eps[cols]
    slab *= dt
    nodes = np.arange(grid.size)
    slab.reshape(-1)[(position[nodes // n] * n + nodes % n) * width + reach * n
                     + nodes % n] += 1.0
    return slab


def jacobian_at_random_state(dimension, n_interior, m, p, convective, dt=1e-3):
    """(grid, system, v, A_n(v), colored line slab of I + dt J at v)."""
    grid, system = level_system(dimension, n_interior, m, p, convective)
    v = 0.5 * np.random.default_rng(n_interior).standard_normal(grid.size)
    base = system.apply_drift_operator(v)
    return grid, system, v, base, colored_newton_matrix(system, dt, v, base)


@pytest.mark.parametrize("dimension, n_interior, m, p, convective",
                         STENCIL_CASES)
def test_colored_jacobian_equals_column_by_column_differences(
        dimension, n_interior, m, p, convective):
    dt = 1e-3
    grid, system, v, base, slab = jacobian_at_random_state(
        dimension, n_interior, m, p, convective, dt)
    hw = m or 1
    lines = grid.size // n_interior
    assert slab.shape == (lines, n_interior,
                          (2 * min(hw, lines - 1) + 1) * n_interior)
    # no padding line, for odd and even line counts
    assert system.slab_bytes == 8 * slab.size
    eps = np.sqrt(np.finfo(float).eps) * (1.0 + np.abs(v))
    full = np.empty((grid.size, grid.size))
    for j in range(grid.size):
        w = v.copy()
        w[j] += eps[j]
        full[:, j] = (system.apply_drift_operator(w) - base) / eps[j]
    full = np.eye(grid.size) + dt * full
    # every stencil entry bitwise, and zero off the stencil
    assert np.array_equal(slab_to_dense(slab), full)


@pytest.mark.parametrize("dimension, n_interior, m, p, convective",
                         STENCIL_CASES)
def test_line_solve_matches_the_dense_solve(
        dimension, n_interior, m, p, convective):
    grid, system, v, _, _ = jacobian_at_random_state(
        dimension, n_interior, m, p, convective)
    slab = _newton_matrix(system, 1e-3, v)
    dense = slab_to_dense(slab)
    rhs = np.random.default_rng(7).standard_normal(grid.size)
    x, direct = _apply_factors(_factor_lines(slab), rhs), np.linalg.solve(dense, rhs)
    if dimension == 1:   # one line: the same dense solve
        assert np.array_equal(x, direct)
    # backward stable like the dense LU, so the two agree to cond * eps
    eps = np.finfo(float).eps
    assert np.linalg.norm(dense @ x - rhs) <= 4.0 * eps * (
        np.linalg.norm(dense, 2) * np.linalg.norm(x) + np.linalg.norm(rhs))
    assert np.linalg.norm(x - direct) <= \
        np.linalg.cond(dense) * eps * np.linalg.norm(direct)


@pytest.mark.parametrize("dimension, n_interior, m, p, convective",
                         STENCIL_CASES)
def test_stacked_factors_are_bitwise_each_members_own(
        dimension, n_interior, m, p, convective):
    grid, system = level_system(dimension, n_interior, m, p, convective)
    rng = np.random.default_rng(n_interior)
    v, rhs = 0.5 * rng.standard_normal((3, grid.size)), rng.standard_normal((3, grid.size))
    factors = _factor_lines(_newton_matrix(system, 1e-3, v))
    x = _apply_factors(factors, rhs)
    for b in range(3):
        alone = _factor_lines(_newton_matrix(system, 1e-3, v[b]))
        assert factors[b].tobytes() == alone.tobytes()
        assert x[b].tobytes() == _apply_factors(alone, rhs[b]).tobytes()


@pytest.mark.parametrize("dimension, n_interior, m, p, convective",
                         STENCIL_CASES)
def test_exact_newton_matrix_matches_the_coloring(
        dimension, n_interior, m, p, convective):
    dt = 1e-3
    _, system, v, base, colored = jacobian_at_random_state(
        dimension, n_interior, m, p, convective, dt)
    exact = _newton_matrix(system, dt, v)
    assert exact.shape == colored.shape
    slab_to_dense(exact)   # the blocks past either end of the grid are zero
    # the coloring's error is about sqrt(eps) of each row's scale
    scale = np.abs(colored).max(axis=2, keepdims=True)
    assert np.all(np.abs(exact - colored) <= 1e-5 * scale)


def test_exact_newton_matrix_of_the_heat_system():
    dt = 1e-3
    grid, system = heat_system(16)
    v = np.random.default_rng(3).standard_normal(grid.size)
    base = system.apply_drift_operator(v)
    exact = _newton_matrix(system, dt, v)[0]
    lap = (2.0 * np.eye(16) - np.eye(16, k=1) - np.eye(16, k=-1)) / grid.h ** 2
    assert np.allclose(exact, np.eye(16) + dt * lap, rtol=1e-14, atol=0.0)
    assert np.allclose(exact, colored_newton_matrix(system, dt, v, base)[0],
                       rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("part", ["flux", "drift", "perturbation"])
def test_2d_newton_step_meets_the_tolerance_in_the_colored_iterations(
        part, monkeypatch):
    # the nonlinearity sits in the convective flux, in the tanh drift, or
    # in a perturbation of order 2
    grid = Grid(2, 8)
    coeff, drift, m = {"flux": (remark_flux_coeff(2.5), zero_drift(), 1),
                       "drift": (linear_coeff(), tanh_drift(1.0), 1),
                       "perturbation": (p_laplacian_coeff(2.5), tanh_drift(1.0), 2)}[part]
    config = SolverConfig(dt=1e-3, t_end=1e-3, n=8)
    system = build_system(grid, coeff, drift, perturbation_for(2.5, m=m), config)
    u = initial_profile(grid, "sine", amplitude=0.5)
    dw = np.full(grid.size, 0.3)
    (v,), (noise,), iters, _ = step_semi_implicit(system, config, u[None], 0.0, dw[None])
    residual = v + config.dt * system.apply_drift_operator(v) - u - noise
    assert norm_l2(grid, residual) <= config.newton_tol
    monkeypatch.setattr(evolution, "_newton_matrix", lambda system, dt, v, out=None: np.stack([
        colored_newton_matrix(system, dt, w, system.apply_drift_operator(w)) for w in v]))
    _, _, iters_colored, _ = step_semi_implicit(system, config, u[None], 0.0, dw[None])
    assert iters_colored >= 1 and abs(iters - iters_colored) <= 1


def test_chord_steps_refactor_only_the_members_that_renew(monkeypatch):
    # member 1 refactors at its state; members 0 and 2 solve with the
    # factors they had, made at other states
    grid, system = level_system(2, 6, 1)
    rng = np.random.default_rng(5)
    v, residual = 0.5 * rng.standard_normal((3, grid.size)), rng.standard_normal((3, grid.size))
    old = _factor_lines(_newton_matrix(system, 1e-3, v + 0.5))
    renew = np.array([False, True, False])
    steps, factors, singular = evolution._chord_steps(system, 1e-3, v, residual,
                                                      old.copy(), renew)
    fresh = _factor_lines(_newton_matrix(system, 1e-3, v[1]))
    assert singular == [] and factors[1].tobytes() == fresh.tobytes()
    for b, own in ((0, old[0]), (1, fresh), (2, old[2])):
        assert steps[b].tobytes() == _apply_factors(own, -residual[b]).tobytes()
    # a singular new matrix fails that member alone, in the member-by-member
    # fallback, and the others keep their factors and steps
    newton_matrix = evolution._newton_matrix
    monkeypatch.setattr(evolution, "_newton_matrix", lambda *args: 0.0 * newton_matrix(*args))
    again, kept, singular = evolution._chord_steps(system, 1e-3, v, residual, old.copy(), renew)
    assert singular == [1] and np.isnan(again[1]).all()
    for b in (0, 2):
        assert kept[b].tobytes() == old[b].tobytes()
        assert again[b].tobytes() == steps[b].tobytes()


def test_line_solve_raises_on_a_singular_line_block():
    _, _, _, _, slab = jacobian_at_random_state(2, 8, 1, 2.5, False)
    slab[3] = 0.0   # line 3's rows: its block stays zero through elimination
    with pytest.raises(np.linalg.LinAlgError):
        _factor_lines(slab)
    # one line is its own factor, and its dense solve raises
    _, _, _, _, slab = jacobian_at_random_state(1, 16, 1, 2.5, False)
    slab[0] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        _apply_factors(_factor_lines(slab), np.ones(16))


def test_newton_solve_leaves_scipy_linalg_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import plapsim.cli
        from plapsim.evolution import SolverConfig, build_system, step_semi_implicit
        from plapsim.spatial import (Grid, initial_profile, p_laplacian_coeff,
                                     perturbation_for, tanh_drift)
        grid = Grid(2, 8)
        config = SolverConfig(dt=1e-3, t_end=1e-3, n=8)
        system = build_system(grid, p_laplacian_coeff(2.5), tanh_drift(1.0),
                              perturbation_for(2.5, m=2), config)
        u = initial_profile(grid, "sine", amplitude=0.5)
        _, _, iters, _ = step_semi_implicit(system, config, u[None], 0.0,
                                           np.zeros((1, grid.size)))
        assert iters >= 1
        assert "scipy.linalg" not in sys.modules
        assert "scipy" not in sys.modules
        """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr


# the Newton matrix is exact, so it has no colors to evaluate
@pytest.mark.parametrize("make, colors, iterations", [
    (lambda: heat_system(16), 0, 1), (lambda: level_system(1, 16, 1), 0, 3),
    (lambda: level_system(2, 8, None), 0, 3)],
    ids=["heat", "tanh_m1", "no_perturbation_2d"])
def test_newton_evaluates_the_drift_once_per_color_and_trial(
        make, colors, iterations):
    grid, system = make()
    config = SolverConfig(dt=1e-3, t_end=1e-3)
    u = initial_profile(grid, "sine", amplitude=0.5)
    evaluate, calls = system.apply_drift_operator, []

    def counted(w):   # the number of states evaluated in one call
        calls.append(int(np.prod(w.shape[:-1])))
        return evaluate(w)

    system.apply_drift_operator = counted
    _, _, iters, _ = step_semi_implicit(system, config, u[None], 0.0, np.zeros((1, grid.size)))
    assert iters == iterations
    # one for the initial residual, then per iteration one per color plus
    # one full line-search trial; A_n at the iterate comes from its residual
    assert sum(calls) == 1 + iters * (colors + 1)
    # and every color goes through one call
    assert len(calls) == 1 + iters * (2 if colors else 1)


def test_a_start_that_meets_the_tolerance_takes_no_iteration(monkeypatch):
    # the iteration starts from u + noise; a noise of -u makes that start
    # the solution 0, whose residual dt A_n(0) vanishes, so the step
    # evaluates A_n once, factors nothing and returns its start
    grid = Grid(1, 16)
    system, config = stochastic_pieces(grid)
    u = np.stack([initial_profile(grid, "sine", amplitude=0.25),
                  initial_profile(grid, "bump", amplitude=0.4)])

    def unused(*args):
        raise AssertionError("a Newton matrix was assembled")

    monkeypatch.setattr(evolution.System, "noise_term", lambda self, t, u, dw: -u)
    monkeypatch.setattr(evolution, "_newton_matrix", unused)
    evaluate, calls = system.apply_drift_operator, []

    def counted(w):
        calls.append(len(w))
        return evaluate(w)

    system.apply_drift_operator = counted
    v, noise, iters, outcomes = step_semi_implicit(system, config, u, 0.0, np.zeros_like(u))
    assert iters == 0 and outcomes == [0, 0]
    assert calls == [2]
    assert v.tobytes() == (u + noise).tobytes() and not v.any()


def test_1d_newton_evaluates_the_drift_only_for_its_trials(monkeypatch):
    # a large increment makes the line search halve some steps; every trial
    # takes one residual norm, and so does the initial residual
    grid = Grid(1, 16)
    system, config = stochastic_pieces(grid, dt=0.008)
    u = initial_profile(grid, "sine", amplitude=0.25)
    evaluate, calls, norms = system.apply_drift_operator, [], []

    def counted(w):
        calls.append(1)
        return evaluate(w)

    def counted_norm(g, r):
        norms.append(1)
        return norm_l2(g, r)

    system.apply_drift_operator = counted
    monkeypatch.setattr(evolution, "norm_l2", counted_norm)
    _, _, iters, _ = step_semi_implicit(system, config, u[None], 0.0,
                                        np.full((1, grid.size), 20.0))
    trials = len(norms) - 1
    assert trials > iters >= 1
    assert len(calls) == 1 + trials


def test_2d_chord_step_refactors_where_it_fails_and_fails_only_on_fresh_factors(
        monkeypatch):
    # with no halving allowed, a trial that fails Armijo fails the line
    # search.  The flux at p = 1.3 is concave in the gradient, so a Newton
    # step from the start u + noise can overshoot.  From a tall sine, a
    # chord step on older factors fails: the member refactors at its
    # iterate, retries and converges.  From a near-zero sine the first
    # Newton step fails, on factors at the iterate, and the member fails.
    monkeypatch.setattr(evolution, "MIN_LINE_STEP", 1.0)
    grid = Grid(2, 8)
    config = SolverConfig(dt=0.01, t_end=0.01, n=8)
    system = build_system(grid, p_laplacian_coeff(1.3), tanh_drift(1.0),
                          perturbation_for(1.3, m=2), config,
                          spec=power_sigma(0.75, 1.0), kernel=gaussian_kernel(grid))
    u = initial_profile(grid, "sine", amplitude=4.0)
    newton_matrix, apply_factors, log = evolution._newton_matrix, evolution._apply_factors, []

    def logged_matrix(system, dt, v, out=None):   # the state each matrix is made at
        log.append(("factor", v.copy()))
        return newton_matrix(system, dt, v, out)

    def logged_solve(factors, rhs):   # the right-hand side of each solve
        log.append(("solve", rhs.copy()))
        return apply_factors(factors, rhs)

    monkeypatch.setattr(evolution, "_newton_matrix", logged_matrix)
    monkeypatch.setattr(evolution, "_apply_factors", logged_solve)
    (v,), (noise,), iters, _ = step_semi_implicit(system, config, u[None], 0.0,
                                                  np.full((1, grid.size), -2.5))
    residual = v + config.dt * system.apply_drift_operator(v) - u - noise
    assert norm_l2(grid, residual) <= config.newton_tol
    kinds = [kind for kind, _ in log]
    assert kinds.count("solve") == iters
    retries = [i for i in range(len(log) - 2)
               if kinds[i:i + 3] == ["solve", "factor", "solve"]
               and np.array_equal(log[i][1], log[i + 2][1])]
    assert retries and not np.array_equal(log[retries[0] + 1][1], (u + noise)[None])

    log.clear()
    low = initial_profile(grid, "sine", amplitude=0.01)
    _, (noise,), _, (failed,) = step_semi_implicit(system, config, low[None], 0.0,
                                                   np.full((1, grid.size), -1.5))
    assert isinstance(failed, NewtonDivergedError)
    assert failed.iterations == 0 and failed.cause == "line_search"
    assert [kind for kind, _ in log] == ["factor", "solve"]
    assert np.array_equal(log[0][1], (low + noise)[None])


def stiff_step(grid):
    # p = 4, m = 2 and a kick of 1.6: a step of many Newton iterations
    config = SolverConfig(dt=0.01, t_end=0.01, n=8)
    system = build_system(grid, p_laplacian_coeff(4.0), tanh_drift(1.0),
                          perturbation_for(4.0, m=2), config,
                          spec=power_sigma(0.75, 1.0), kernel=gaussian_kernel(grid))
    return (system, config, initial_profile(grid, "sine", amplitude=0.15),
            np.full(grid.size, 1.6))


def test_the_newton_budget_caps_the_solves_on_fresh_factors(monkeypatch):
    # a stiff 2d step that Newton solves in 40 iterations: the chord
    # iteration takes more solves than the default budget of 40 but fewer
    # factorizations, and newton_max_iter caps those
    grid = Grid(2, 6)
    system, config, u, dw = stiff_step(grid)
    newton_matrix, made = evolution._newton_matrix, []

    def counted_matrix(system, dt, v, out=None):
        made.append(v)
        return newton_matrix(system, dt, v, out)

    monkeypatch.setattr(evolution, "_newton_matrix", counted_matrix)
    (v,), (noise,), iters, _ = step_semi_implicit(system, config, u[None], 0.0, dw[None])
    residual = v + config.dt * system.apply_drift_operator(v) - u - noise
    assert norm_l2(grid, residual) <= config.newton_tol
    factored = len(made)
    assert factored <= config.newton_max_iter < iters

    exact = replace(config, newton_max_iter=factored)
    assert np.array_equal(step_semi_implicit(system, exact, u[None], 0.0, dw[None])[0][0], v)
    short = replace(config, newton_max_iter=factored - 1)
    _, _, _, (failed,) = step_semi_implicit(system, short, u[None], 0.0, dw[None])
    assert isinstance(failed, NewtonDivergedError) and failed.cause == "budget"


class Steady:
    """A sampler whose increment is dw at every step."""

    def __init__(self, dw):
        self.dw = dw

    def sample_increment(self, k, dt):
        return self.dw


@pytest.mark.parametrize("dimension", [1, 2])
def test_a_refactoring_round_lets_the_old_factors_go_first(monkeypatch, dimension):
    # a stack holds one set of factors at a time: in a bare step of a stack
    # of one, and along a stack's path, whose 2d members carry their
    # factors from step to step.  When the matrix of new factors is
    # assembled, every earlier set is freed but the round's own: in 1d
    # that too, and in 2d the new matrix is made in its slabs where every
    # member refactors, and beside it where only some do
    system, config, u, dw = stiff_step(Grid(dimension, 6))
    newton_matrix, factor_lines = evolution._newton_matrix, evolution._factor_lines
    chord_steps, step = evolution._chord_steps, evolution.step_semi_implicit
    made, own, into, partial, steps, step_calls = [], [None], [], [], [], []

    def owner(a):   # the array that holds a's memory
        return None if a is None else a if a.base is None else a.base

    def assembled(system, dt, v, out=None):
        assert all(ref() is None or ref() is own[0] for ref in made)
        assert out is None or owner(out) is own[0]
        into.append(out is not None)
        steps.append(len(step_calls))
        return newton_matrix(system, dt, v, out)

    def factored(slab):
        factors = factor_lines(slab)
        made.append(weakref.ref(owner(factors)))
        return factors

    def spied_chord_steps(system, dt, v, residual, factors, renew):
        own[0] = owner(factors)   # the round's factors
        partial.append(renew.any() and not renew.all())
        delta, factors, singular = chord_steps(system, dt, v, residual, factors, renew)
        made.append(weakref.ref(owner(factors)))
        return delta, factors, singular

    class Carry(evolution._Carry):   # the factors carried between steps
        def __setattr__(self, name, value):
            if name == "factors" and value is not None:
                made.append(weakref.ref(owner(value)))
            super().__setattr__(name, value)

    def counted_step(*args):
        step_calls.append(1)
        return step(*args)

    monkeypatch.setattr(evolution, "_newton_matrix", assembled)
    monkeypatch.setattr(evolution, "_factor_lines", factored)
    monkeypatch.setattr(evolution, "_chord_steps", spied_chord_steps)
    step_semi_implicit(system, config, u[None], 0.0, dw[None])
    assert len(into) > 2 and any(into) == (dimension == 2)
    monkeypatch.setattr(evolution, "_Carry", Carry)
    monkeypatch.setattr(evolution, "step_semi_implicit", counted_step)
    del made[:], into[:], partial[:], steps[:]
    config = replace(config, t_end=3 * config.dt)
    # half the kick at every step keeps each step within the budget
    recs = simulate_batch(system, config, [u, 0.5 * u], [Steady(dw / 2.0)] * 2)
    assert all(isinstance(rec, TrajectoryRecord) for rec in recs)
    assert len(step_calls) == config.num_steps and len(set(steps)) > 1
    assert any(into) == any(partial) == (dimension == 2)


def factor_log(monkeypatch, system):
    """Log ("factor", v), ("solve", rhs) and ("trial", w) as the Newton
    matrix is made at v, its factors solve for rhs and A_n is evaluated at
    w (the start's residual, then one line-search trial each)."""
    newton_matrix, apply_factors, evaluate, log = (
        evolution._newton_matrix, evolution._apply_factors, system.apply_drift_operator, [])

    def logged_matrix(system, dt, v, out=None):
        log.append(("factor", v.copy()))
        return newton_matrix(system, dt, v, out)

    def logged_solve(factors, rhs):
        log.append(("solve", rhs.copy()))
        return apply_factors(factors, rhs)

    def logged_trial(w):
        log.append(("trial", w.copy()))
        return evaluate(w)

    monkeypatch.setattr(evolution, "_newton_matrix", logged_matrix)
    monkeypatch.setattr(evolution, "_apply_factors", logged_solve)
    system.apply_drift_operator = logged_trial
    return log


def test_2d_members_carry_their_factors_into_their_next_step(monkeypatch):
    # two 2d members without the perturbation, as the contraction study
    # runs them, take fewer factorizations than member-steps: each starts a
    # step on the factors it ended the last one with.  A bare step has
    # nothing to carry and factors at its start
    grid = Grid(2, 8)
    system, config = stochastic_pieces(grid, use_pert=False, dt=2e-3, t_end=0.02)
    u0 = [initial_profile(grid, "sine", amplitude=0.25),
          initial_profile(grid, "bump", amplitude=0.3)]
    factor_lines, factored = evolution._factor_lines, []

    def counted(slab):   # the members factored in one call
        factored.append(len(slab) if slab.ndim == 4 else 1)
        return factor_lines(slab)

    monkeypatch.setattr(evolution, "_factor_lines", counted)
    recs = simulate_batch(system, config, u0, [default_sampler(grid, 4, b) for b in (0, 1)])
    assert all(isinstance(rec, TrajectoryRecord) for rec in recs)
    assert 0 < sum(factored) < len(u0) * config.num_steps

    log = factor_log(monkeypatch, system)
    dw = default_sampler(grid, 4, 0).sample_increment(0, config.dt)
    step_semi_implicit(system, config, np.stack(u0), 0.0, np.stack([dw, dw]))
    kinds = [kind for kind, _ in log]
    assert kinds[:3] == ["trial", "factor", "solve"]


def test_a_failing_full_step_on_older_factors_refactors_at_its_iterate(monkeypatch):
    # the chord step of the tall sine at p = 1.3 on older factors fails the
    # Armijo test at the full step: the member refactors at the same
    # iterate before any halving, and halves only on factors at the iterate
    grid = Grid(2, 8)
    config = SolverConfig(dt=0.01, t_end=0.01, n=8)
    system = build_system(grid, p_laplacian_coeff(1.3), tanh_drift(1.0),
                          perturbation_for(1.3, m=2), config,
                          spec=power_sigma(0.75, 1.0), kernel=gaussian_kernel(grid))
    u = initial_profile(grid, "sine", amplitude=4.0)
    log = factor_log(monkeypatch, system)
    (v,), (noise,), iters, _ = step_semi_implicit(system, config, u[None], 0.0,
                                                  np.full((1, grid.size), -2.5))
    kinds = [kind for kind, _ in log]
    residual = v + config.dt * system.apply_drift_operator(v) - u - noise
    assert norm_l2(grid, residual) <= config.newton_tol
    stale = [i for i in range(1, len(kinds)) if kinds[i] == "solve" and kinds[i - 1] != "factor"]
    assert stale
    for i in stale:   # one trial, at the full step, then a solve or a refactor
        assert kinds[i + 1] == "trial" and kinds[i + 2:i + 3] != ["trial"]
    # a refactor whose solve is for the same residual as the stale one, so
    # at the same iterate: the stale trial failed (else the member moved)
    assert any(kinds[i + 2:i + 4] == ["factor", "solve"]
               and np.array_equal(log[i][1], log[i + 3][1]) for i in stale)


def test_a_member_bisected_at_one_step_refactors_at_the_next(monkeypatch):
    # a kick at step 3 makes the lone member bisect that step; every other
    # full step starts on the member's carried factors, and step 4, after
    # the bisection, starts fresh
    grid = Grid(2, 8)
    config = SolverConfig(dt=0.004, t_end=0.024, newton_max_iter=10, newton_dt_retries=3)
    system = build_system(grid, p_laplacian_coeff(2.5), tanh_drift(1.0),
                          perturbation_for(2.5, m=2), config, spec=power_sigma(0.75),
                          kernel=gaussian_kernel(grid), levels=[16])
    log = factor_log(monkeypatch, system)
    step = evolution.step_semi_implicit

    def logged_step(system, config, u, t, dw, carry=None):
        log.append(("step", (t, config.dt)))
        return step(system, config, u, t, dw, carry)

    monkeypatch.setattr(evolution, "step_semi_implicit", logged_step)
    sampler = KickedSampler(grid, kick=12.0)
    (rec,) = simulate_batch(system, config, [initial_profile(grid, "sine", amplitude=0.25)],
                            [sampler])
    assert isinstance(rec, TrajectoryRecord)
    assert [(k, node) for k, node, _ in sampler.log if node] == [(3, 1)]
    starts = {}   # whether each full step first factors or solves
    for i, (kind, at) in enumerate(log):
        if kind == "step" and at[1] == config.dt:
            starts[round(at[0] / config.dt)] = next(
                kind for kind, _ in log[i + 1:] if kind != "trial")
    assert starts == {0: "factor", 1: "solve", 2: "solve", 3: "solve", 4: "factor",
                      5: "solve"}


def test_newton_divergence_is_reported():
    grid = Grid(1, 16)
    system, config = stochastic_pieces(grid, newton_max_iter=0)
    u = initial_profile(grid, "sine", amplitude=0.25)
    _, _, _, (failed,) = step_semi_implicit(system, config, u[None], 0.0,
                                            np.zeros((1, grid.size)))
    assert isinstance(failed, NewtonDivergedError)
    assert failed.cause == "budget" and "budget is spent" in str(failed)


@pytest.mark.parametrize("dimension", [1, 2])
def test_a_singular_newton_matrix_fails_its_members_as_singular(monkeypatch, dimension):
    grid, system = level_system(dimension, 6, 1)
    config = SolverConfig(dt=1e-3, t_end=1e-3, n=8)
    u = np.stack([initial_profile(grid, "sine", amplitude=0.5),
                  initial_profile(grid, "bump", amplitude=0.4)])
    newton_matrix = evolution._newton_matrix
    monkeypatch.setattr(evolution, "_newton_matrix", lambda *args: 0.0 * newton_matrix(*args))
    _, _, _, outcomes = step_semi_implicit(system, config, u, 0.0, np.zeros_like(u))
    for failed in outcomes:
        assert isinstance(failed, NewtonDivergedError)
        assert (failed.cause, failed.iterations) == ("singular", 0)
        assert "singular" in str(failed)


def test_newton_failure_carries_step_and_time():
    # a near-zero state needs two Newton iterations per step until a large
    # increment at step 3 asks for four, past the cap of three
    grid = Grid(1, 16)
    system, config = stochastic_pieces(grid, newton_max_iter=3)

    class KickAtStepThree:
        def sample_increment(self, k, dt):
            return np.full(grid.size, 5.0 if k == 3 else 0.0)

    u0 = initial_profile(grid, "sine", amplitude=0.0025)
    with pytest.raises(NewtonDivergedError) as info:
        simulate_path(system, config, u0, KickAtStepThree())
    assert info.value.step == 3
    assert info.value.time == 3 * config.dt
    assert info.value.iterations == 3


def test_failure_errors_survive_pickling():
    # worker pools send exceptions back to the parent by pickle
    newton = NewtonDivergedError(3, 0.5, "line_search")
    newton.step, newton.time = 7, 0.007
    back = pickle.loads(pickle.dumps(newton))
    assert (back.iterations, back.residual, back.cause, back.step, back.time) == (
        3, 0.5, "line_search", 7, 0.007)
    assert str(back) == str(newton) and "line search" in str(back)
    blow = pickle.loads(pickle.dumps(BlowUpError(4, 0.25, 1e13)))
    assert (blow.step, blow.time, blow.norm) == (4, 0.25, 1e13)
    assert str(blow) == str(BlowUpError(4, 0.25, 1e13))


# ---------------------------------------------------------------- trajectories


def test_explicit_trajectory_matches_power_decay():
    grid, system = heat_system(16)
    mu = laplacian_min_eigenvalue(grid)
    u0 = np.sin(np.pi * grid.nodes()[:, 0])
    config = SolverConfig(dt=1e-4, t_end=2e-3, scheme="explicit")
    rec = simulate_path(system, config, u0)
    assert np.allclose(rec.final_state(), (1.0 - config.dt * mu) ** 20 * u0,
                       rtol=1e-10)


def test_trajectories_are_bitwise_deterministic():
    grid = Grid(1, 16)
    system, config = stochastic_pieces(grid)
    u0 = initial_profile(grid, "sine", amplitude=0.25)
    sampler = default_sampler(grid, 11, 2)
    rec1 = simulate_path(system, config, u0, sampler)
    # the run leaves the sampler as it found it
    rec2 = simulate_path(system, config, u0, sampler)
    assert np.array_equal(rec1.states, rec2.states)
    rec2 = simulate_path(system, config, u0, default_sampler(grid, 11, 2))
    assert np.array_equal(rec1.states, rec2.states)
    rec3 = simulate_path(system, config, u0, default_sampler(grid, 11, 3))
    assert not np.array_equal(rec1.states, rec3.states)


def test_semi_implicit_step_identity_on_recorded_data():
    # v + dt A(v) - u - noise vanishes to Newton tolerance along the path
    grid = Grid(1, 12)
    system, config = stochastic_pieces(grid)
    u0 = initial_profile(grid, "sine", amplitude=0.25)
    sampler = default_sampler(grid, 4, 0)
    rec = simulate_path(system, config, u0, sampler)
    for k in range(config.num_steps):
        u, v = rec.states[k], rec.states[k + 1]
        noise = system.noise_term(k * config.dt, u, sampler.sample_increment(k, config.dt))
        residual = v + config.dt * system.apply_drift_operator(v) - u - noise
        assert np.sqrt(np.sum(residual ** 2) * grid.weight) <= config.newton_tol


def test_coupled_pair_shares_increments():
    grid = Grid(1, 16)
    system, config = stochastic_pieces(grid)
    u0 = initial_profile(grid, "sine", amplitude=0.25)
    v0 = initial_profile(grid, "bump", amplitude=0.2)
    sampler = KickedSampler(grid, seed=21, kick=0.0)
    for start in (u0, v0):
        simulate_path(system, config, start, sampler)
    steps = config.num_steps
    assert [(k, node) for k, node, _ in sampler.log] == 2 * [(k, 0) for k in range(steps)]
    for (_, _, a), (k, _, b) in zip(sampler.log[:steps], sampler.log[steps:]):
        assert np.array_equal(a, b)
        assert np.array_equal(a, default_sampler(grid, 21, 0).sample_increment(k, config.dt))
    # identical initial data makes the trajectories identical
    sampler = default_sampler(grid, 21, 0)
    rec_c = simulate_path(system, config, u0, sampler)
    rec_d = simulate_path(system, config, u0, sampler)
    assert np.array_equal(rec_c.states, rec_d.states)


class KickedSampler:
    """The default sampler with ``kick`` added to every entry of the step-3
    increment; ``log`` lists each draw handed out as (k, node, value), where
    node 0 is an increment and node >= 1 the two halves of a bridge."""

    def __init__(self, grid, seed=5, kick=1.8):
        self.base = default_sampler(grid, seed, 0)
        self.kick = kick
        self.log = []

    def sample_increment(self, k, dt):
        dw = self.base.sample_increment(k, dt) + (self.kick if k == 3 else 0.0)
        self.log.append((k, 0, dw))
        return dw

    def sample_bridge(self, k, node, dt, dw):
        halves = self.base.sample_bridge(k, node, dt, dw)
        self.log.append((k, node, halves))
        return halves


def bisecting_pieces(grid, **kw):
    # two Newton iterations per step, except that the kick at step 3 asks
    # for more; each half of step 3 needs at most two again (with the exact
    # 1d Newton matrix, kicks from 1.5 to 2.15 do this)
    return stochastic_pieces(grid, dt=0.016, t_end=0.16, newton_max_iter=2, **kw)


def test_dt_bisection_keeps_the_wiener_path():
    grid = Grid(1, 16)
    u0 = initial_profile(grid, "sine", amplitude=0.0025)
    system, config = bisecting_pieces(grid)
    with pytest.raises(NewtonDivergedError) as info:
        simulate_path(system, config, u0, KickedSampler(grid))
    assert info.value.step == 3

    system, config = bisecting_pieces(grid, newton_dt_retries=1)
    bisected = KickedSampler(grid)
    rec = simulate_path(system, config, u0, bisected)
    assert rec.times[-1] == config.t_end
    assert [(k, node) for k, node, _ in bisected.log if node] == [(3, 1)]
    assert rec.newton_iters[3] > config.newton_max_iter   # both halves' iterations

    # an unbisected run on the same path requests the same increments
    system, config = stochastic_pieces(grid, dt=0.016, t_end=0.16)
    plain = KickedSampler(grid)
    simulate_path(system, config, u0, plain)
    increments = [(k, dw) for k, node, dw in bisected.log if node == 0]
    assert len(increments) == len(plain.log) == config.num_steps
    for (k, dw), (k_plain, _, dw_plain) in zip(increments, plain.log):
        assert k == k_plain and np.array_equal(dw, dw_plain)


def test_bisected_coupled_pair_shares_one_wiener_path():
    # only the p-Laplace member bisects step 3; the linear one needs a
    # single Newton iteration per step
    grid = Grid(1, 16)
    system, config = bisecting_pieces(grid, newton_dt_retries=1)
    linear = build_system(grid, linear_coeff(), zero_drift(), None, config,
                          spec=power_sigma(0.75, 1.0), kernel=gaussian_kernel(grid))
    u0 = initial_profile(grid, "sine", amplitude=0.0025)
    sampler = KickedSampler(grid)
    rec_a = simulate_path(system, config, u0, sampler)
    rec_b = simulate_path(linear, config, u0, sampler)
    assert rec_a.newton_iters[3] > config.newton_max_iter
    assert np.all(rec_b.newton_iters <= 1)

    steps = config.num_steps
    log_a, log_b = sampler.log[:steps + 1], sampler.log[steps + 1:]
    assert [(k, node) for k, node, _ in log_a] == (
        [(k, 0) for k in range(4)] + [(3, 1)] + [(k, 0) for k in range(4, steps)])
    assert [(k, node) for k, node, _ in log_b] == [(k, 0) for k in range(steps)]
    increments_a = [dw for _, node, dw in log_a if node == 0]
    for dw_a, (_, _, dw_b) in zip(increments_a, log_b):
        assert np.array_equal(dw_a, dw_b)
    first, second = log_a[4][2]
    assert np.allclose(first + second, log_b[3][2], rtol=1e-15, atol=1e-15)


def test_zero_is_a_fixed_point():
    grid = Grid(1, 16)
    system, config = stochastic_pieces(grid)
    rec = simulate_path(system, config, np.zeros(grid.size),
                        default_sampler(grid, 2, 0))
    assert np.array_equal(rec.final_state(), np.zeros(grid.size))


def test_deterministic_l1_contraction_without_drift():
    # two solutions of the plain p-Laplace flow never increase their L1 gap
    grid = Grid(1, 24)
    config = SolverConfig(dt=2e-3, t_end=0.05, use_perturbation=False,
                          sigma_mode="raw")
    system = build_system(grid, p_laplacian_coeff(3.0), zero_drift(), None,
                          config)
    u0 = initial_profile(grid, "sine", amplitude=0.8)
    v0 = initial_profile(grid, "bump", amplitude=0.5)
    rec_a = simulate_path(system, config, u0)
    rec_b = simulate_path(system, config, v0)
    gaps = [norm_l1(grid, a - b) for a, b in zip(rec_a.states, rec_b.states)]
    for earlier, later in zip(gaps, gaps[1:]):
        assert later <= earlier + 1e-8


def test_energy_integrals_match_left_endpoint_quadrature():
    grid = Grid(1, 12)
    system, config = stochastic_pieces(grid)
    u0 = initial_profile(grid, "sine", amplitude=0.25)
    rec = simulate_path(system, config, u0, default_sampler(grid, 8, 0))
    expect = config.dt * np.sum(rec.energies["grad_lp_p"][:-1])
    assert np.isclose(rec.integrals["grad_lp_p"], expect, rtol=1e-12)
    expect_w = config.dt * np.sum(rec.energies["wmq_q"][:-1])
    assert np.isclose(rec.integrals["wmq_q"], expect_w, rtol=1e-12)
    assert rec.sup_l2_sq >= np.max(rec.energies["l2_sq"]) - 1e-15


def test_record_every_thins_snapshots_but_not_integrals():
    grid = Grid(1, 12)
    system, config = stochastic_pieces(grid, record_every=5)
    u0 = initial_profile(grid, "sine", amplitude=0.25)
    rec = simulate_path(system, config, u0, default_sampler(grid, 8, 0))
    dense_system, dense_config = stochastic_pieces(grid, record_every=1)
    dense = simulate_path(dense_system, dense_config, u0,
                          default_sampler(grid, 8, 0))
    assert rec.times.size == 5   # 0, 5, 10, 15, 20 of 20 steps
    assert np.array_equal(rec.final_state(), dense.final_state())
    assert rec.integrals == dense.integrals


def test_snapshots_at_a_record_every_that_does_not_divide_the_steps():
    # 20 steps at record_every = 7 snapshot steps 0, 7, 14 and 20; each
    # member's snapshots and energies are the dense run's there, bit for bit
    grid = Grid(1, 12)
    u0 = [initial_profile(grid, "sine", amplitude=0.25),
          initial_profile(grid, "bump", amplitude=0.3)]
    runs = []
    for every in (7, 1):
        system, config = stochastic_pieces(grid, record_every=every)
        samplers = [default_sampler(grid, 8, seed) for seed in (0, 1)]
        runs.append(simulate_batch(system, config, u0, samplers))
    at = [0, 7, 14, 20]
    for rec, dense in zip(*runs):
        assert rec.times.tobytes() == dense.times[at].tobytes()
        assert rec.states.tobytes() == dense.states[at].tobytes()
        assert rec.states.flags.c_contiguous
        for name, values in rec.energies.items():
            assert values.tobytes() == dense.energies[name][at].tobytes()


def test_a_stack_whose_members_all_leave_early_returns_their_errors():
    # both tall sines blow up under an explicit dt far above the heuristic,
    # long before the last of the snapshots that record_every = 3 plans
    grid = Grid(1, 24)
    config = SolverConfig(dt=0.05, t_end=1.0, scheme="explicit",
                          use_perturbation=False, record_every=3)
    system = build_system(grid, p_laplacian_coeff(3.0), zero_drift(), None, config)
    u0 = [initial_profile(grid, "sine", amplitude=a) for a in (2.0, 3.0)]
    with np.errstate(all="ignore"):
        recs = simulate_batch(system, config, u0)
    assert [type(rec) for rec in recs] == [BlowUpError, BlowUpError]
    assert all(0 < rec.step < config.num_steps for rec in recs)


def test_scheme_difference_shrinks_first_order():
    # explicit and drift-implicit steps differ at O(dt); halving dt roughly
    # halves their gap on the linear benchmark
    grid = Grid(1, 16)
    u0 = np.sin(np.pi * grid.nodes()[:, 0])
    gaps = []
    for dt in (1.6e-3, 8e-4, 4e-4):
        finals = []
        for scheme in ("explicit", "semi-implicit"):
            config = SolverConfig(dt=dt, t_end=0.032, scheme=scheme,
                                  use_perturbation=False)
            system = build_system(grid, linear_coeff(), zero_drift(), None,
                                  config)
            finals.append(simulate_path(system, config, u0).final_state())
        gaps.append(norm_l2(grid, finals[0] - finals[1]))
    assert 1.6 <= gaps[0] / gaps[1] <= 2.4
    assert 1.6 <= gaps[1] / gaps[2] <= 2.4


# --------------------------------------------------------------- stacked runs


def assert_same_bits(rec, alone):
    """Two TrajectoryRecords hold the same bytes."""
    bits = lambda x: (np.asarray(x).dtype, np.asarray(x).shape, np.asarray(x).tobytes())
    for field in ("times", "states", "newton_iters", "sup_l2_sq"):
        assert bits(getattr(rec, field)) == bits(getattr(alone, field)), field
    assert list(rec.energies) == list(alone.energies)
    for name in rec.energies:
        assert bits(rec.energies[name]) == bits(alone.energies[name]), name
    assert {k: bits(v) for k, v in rec.integrals.items()} \
        == {k: bits(v) for k, v in alone.integrals.items()}


def run_members(grid, coeff, drift, pert, config, members, order, seed=3, **kw):
    """Records of members (level, profile, amplitude, path) stacked in the
    given order, listed in member order; kw goes to simulate_batch."""
    picked = [members[i] for i in order]
    paths = sorted({path for *_, path in picked})
    system = build_system(grid, coeff, drift, pert, config, spec=power_sigma(0.75),
                          kernel=gaussian_kernel(grid), levels=[m[0] for m in picked])
    results = simulate_batch(
        system, config,
        [initial_profile(grid, name, amplitude=amp) for _, name, amp, _ in picked],
        [default_sampler(grid, seed, path) for path in paths],
        rows=[paths.index(path) for *_, path in picked], **kw)
    records = [None] * len(members)
    for i, rec in zip(order, results):
        records[i] = rec
    return records


def run_alone(grid, coeff, drift, pert, config, member, seed=3):
    level, name, amp, path = member
    cfg = replace(config, n=level)
    system = build_system(grid, coeff, drift, pert, cfg, spec=power_sigma(0.75),
                          kernel=gaussian_kernel(grid))
    return simulate_path(system, cfg, initial_profile(grid, name, amplitude=amp),
                         default_sampler(grid, seed, path))


STACK_CASES = {
    # levels 4 to 64 with the perturbation on, paths shared and not
    "1d_levels": (Grid(1, 16), p_laplacian_coeff(2.5), tanh_drift(1.0),
                  perturbation_for(2.5, m=2), SolverConfig(dt=2e-3, t_end=0.02),
                  [(4, "sine", 0.25, 0), (64, "bump", 0.3, 1), (16, "sine", 0.25, 1),
                   (8, "bump", 0.2, 2), (32, "sine", 0.25, 0)]),
    # the 2d Newton matrix, with the nonlinearity in flux and drift
    "2d_colored": (Grid(2, 6), remark_flux_coeff(2.5), tanh_drift(1.0),
                   perturbation_for(2.5, m=1), SolverConfig(dt=2e-3, t_end=0.01),
                   [(4, "bump", 0.5, 0), (16, "sine", 0.4, 1), (8, "bump", 0.5, 1)]),
    # members that converge in different rounds, carrying their 2d factors
    # from step to step, and one (level 8 on path 0) dt-bisected at step 0
    "2d_bisected": (Grid(2, 8), p_laplacian_coeff(2.5), tanh_drift(1.0),
                    perturbation_for(2.5, m=2),
                    SolverConfig(dt=0.004, t_end=0.02, newton_max_iter=10, newton_dt_retries=3),
                    [(8, "sine", 0.25, 0), (16, "sine", 0.25, 1), (8, "sine", 0.25, 1)]),
    # a 2d member that refactors after a stack mate has converged, so that
    # the factors it carries into its next step come from a part of the stack
    "2d_carried": (Grid(2, 8), p_laplacian_coeff(2.5), tanh_drift(1.0),
                   perturbation_for(2.5, m=1), SolverConfig(dt=2e-3, t_end=0.01),
                   [(4, "bump", 0.1, 0), (16, "sine", 0.5, 1), (8, "bump", 1.0, 1)]),
    # the explicit scheme: sigma_n at each member's level, no Newton solve
    "2d_explicit": (Grid(2, 8), p_laplacian_coeff(2.5), tanh_drift(1.0), None,
                    SolverConfig(dt=2e-4, t_end=4e-3, scheme="explicit"),
                    [(4, "sine", 0.25, 0), (32, "bump", 0.3, 0), (8, "sine", 0.2, 1)]),
}


@pytest.mark.parametrize("case", list(STACK_CASES))
def test_stacked_members_are_bitwise_their_lone_runs(case, monkeypatch):
    grid, coeff, drift, pert, config, members = STACK_CASES[case]
    advance, bisected = evolution._advance, []

    def spied(system, config, samplers, u, t, dt, dw, k, node=1, carry=None):
        if node > 1:   # a part of a bisected step
            bisected.append((k, node, len(u)))
        return advance(system, config, samplers, u, t, dt, dw, k, node, carry)

    monkeypatch.setattr(evolution, "_advance", spied)
    everyone = run_members(grid, coeff, drift, pert, config, members,
                           list(range(len(members))))
    if case == "2d_bisected":   # member 0 alone, at step 0, one level down
        assert bisected == [(0, 2, 1), (0, 3, 1)]
    reordered = run_members(grid, coeff, drift, pert, config, members,
                            list(reversed(range(len(members)))))
    pair = run_members(grid, coeff, drift, pert, config, members, [2, 0])
    for i, member in enumerate(members):
        alone = run_alone(grid, coeff, drift, pert, config, member)
        assert_same_bits(everyone[i], alone)
        assert_same_bits(reordered[i], alone)
        if i in (0, 2):
            assert_same_bits(pair[i], alone)
    if config.scheme != "explicit":   # the members took different Newton paths
        assert len({rec.newton_iters.tobytes() for rec in everyone}) > 1


def test_build_system_drops_a_drift_whose_lipschitz_constant_is_zero():
    # l_f = 0 with f(0) = 0 is f = 0, whatever class evaluates it
    grid = Grid(1, 8)
    config = SolverConfig(dt=1e-3, t_end=1e-3)
    build = lambda drift: build_system(grid, linear_coeff(), drift, None, config).drift
    assert build(zero_drift()) is None
    assert build(tanh_drift(0.0)) is None
    assert build(None) is None
    drift = tanh_drift(1.0)
    assert build(drift) is drift


@pytest.mark.parametrize("case", list(STACK_CASES))
def test_stacks_without_reaction_run_the_same_bits(case):
    # zero_drift(), tanh_drift(0.0) and no drift at all: one level per member
    # in 1d, the 2d Newton matrix and the explicit scheme
    grid, coeff, _, pert, config, members = STACK_CASES[case]
    order = list(range(len(members)))
    runs = [run_members(grid, coeff, drift, pert, config, members, order)
            for drift in (None, zero_drift(), tanh_drift(0.0))]
    for none, zero, flat in zip(*runs):
        assert_same_bits(zero, none)
        assert_same_bits(flat, none)


# the explicit scheme at a dt below the stability heuristic of the small
# members and far above that of the tall sine, which blows up
BLOW_UP_CASES = {
    "1d_blow_up": (Grid(1, 16), p_laplacian_coeff(3.0), tanh_drift(1.0), None,
                   SolverConfig(dt=1e-3, t_end=0.04, scheme="explicit"),
                   [(4, "sine", 0.25, 0), (8, "sine", 20.0, 1), (16, "bump", 0.3, 0)]),
    "2d_blow_up": (Grid(2, 8), p_laplacian_coeff(3.0), tanh_drift(1.0), None,
                   SolverConfig(dt=2e-3, t_end=0.08, scheme="explicit"),
                   [(4, "sine", 0.25, 0), (8, "sine", 20.0, 1), (16, "bump", 0.3, 0)]),
}


@pytest.mark.parametrize("case", list(STACK_CASES) + list(BLOW_UP_CASES))
def test_a_stack_run_without_energies_steps_the_same_bits(case):
    # energies=False drops every energy but the guard's ||u||_2^2, and the
    # integrals; states, sup, iterations and failures stay bit for bit
    grid, coeff, drift, pert, config, members = {**STACK_CASES, **BLOW_UP_CASES}[case]
    order = list(range(len(members)))
    measured = run_members(grid, coeff, drift, pert, config, members, order)
    bare = run_members(grid, coeff, drift, pert, config, members, order, energies=False)
    bits = lambda x: (np.asarray(x).dtype, np.asarray(x).shape, np.asarray(x).tobytes())
    for rec, plain in zip(measured, bare):
        if isinstance(rec, Exception):
            assert type(plain) is type(rec) and plain.__dict__ == rec.__dict__
            continue
        for field in ("times", "states", "newton_iters", "sup_l2_sq"):
            assert bits(getattr(plain, field)) == bits(getattr(rec, field)), field
        assert list(plain.energies) == ["l2_sq"] and plain.integrals == {}
        assert bits(plain.energies["l2_sq"]) == bits(rec.energies["l2_sq"])
    if case in BLOW_UP_CASES:
        assert [type(rec) for rec in measured] == [TrajectoryRecord, BlowUpError,
                                                   TrajectoryRecord]


def test_a_bisecting_member_leaves_its_stack_mates_alone():
    # the member on the kicked path bisects step 3; the others, on plain
    # paths, need two Newton iterations at most in every step
    grid = Grid(1, 16)
    system, config = bisecting_pieces(grid, newton_dt_retries=1)
    stack = build_system(grid, system.coeff, system.drift, perturbation_for(2.5),
                         config, spec=power_sigma(0.75, 1.0),
                         kernel=gaussian_kernel(grid), levels=[8, 8, 16])
    u0 = initial_profile(grid, "sine", amplitude=0.0025)
    kicked = KickedSampler(grid)
    samplers = [default_sampler(grid, 5, 1), kicked, default_sampler(grid, 5, 2)]
    recs = simulate_batch(stack, config, [u0, u0, u0], samplers, rows=[1, 0, 2])
    assert [(k, node) for k, node, _ in kicked.log if node] == [(3, 1)]
    assert recs[0].newton_iters[3] > config.newton_max_iter
    assert np.all(recs[1].newton_iters <= config.newton_max_iter)
    assert np.all(recs[2].newton_iters <= config.newton_max_iter)

    assert_same_bits(recs[0], simulate_path(system, config, u0, KickedSampler(grid)))
    for rec, sampler, level in ((recs[1], samplers[0], 8), (recs[2], samplers[2], 16)):
        cfg = replace(config, n=level)
        alone = build_system(grid, system.coeff, system.drift, perturbation_for(2.5),
                             cfg, spec=power_sigma(0.75, 1.0),
                             kernel=gaussian_kernel(grid))
        assert_same_bits(rec, simulate_path(alone, cfg, u0, sampler))


def test_two_members_on_one_path_bisect_the_same_step_each_on_its_own():
    # members 0 and 2 share the kicked path and both bisect step 3, each
    # drawing its own bridge point; the plain member between them does not
    grid = Grid(1, 16)
    system, config = bisecting_pieces(grid, newton_dt_retries=1)
    levels = [8, 8, 10]
    stack = build_system(grid, system.coeff, system.drift, perturbation_for(2.5),
                         config, spec=power_sigma(0.75, 1.0),
                         kernel=gaussian_kernel(grid), levels=levels)
    u0 = initial_profile(grid, "sine", amplitude=0.0025)
    kicked, plain = KickedSampler(grid), default_sampler(grid, 5, 1)
    recs = simulate_batch(stack, config, [u0, u0, u0], [kicked, plain], rows=[0, 1, 0])
    assert [(k, node) for k, node, _ in kicked.log] == (
        [(k, 0) for k in range(4)] + [(3, 1), (3, 1)]
        + [(k, 0) for k in range(4, config.num_steps)])
    assert recs[0].newton_iters[3] > config.newton_max_iter
    assert recs[2].newton_iters[3] > config.newton_max_iter
    assert np.all(recs[1].newton_iters <= config.newton_max_iter)
    for rec, level, sampler in zip(recs, levels, (KickedSampler(grid), plain,
                                                  KickedSampler(grid))):
        cfg = replace(config, n=level)
        alone = build_system(grid, system.coeff, system.drift, perturbation_for(2.5),
                             cfg, spec=power_sigma(0.75, 1.0),
                             kernel=gaussian_kernel(grid))
        assert_same_bits(rec, simulate_path(alone, cfg, u0, sampler))


def test_a_failing_member_leaves_the_stack_and_the_others_run_on():
    # the kicked member fails step 3 (no dt retry); its stack mate finishes
    grid = Grid(1, 16)
    system, config = bisecting_pieces(grid)
    u0 = initial_profile(grid, "sine", amplitude=0.0025)
    plain = default_sampler(grid, 5, 1)
    failed, rec = simulate_batch(system, config, [u0, u0],
                                 [KickedSampler(grid), plain])
    assert isinstance(failed, NewtonDivergedError)
    assert (failed.step, failed.time) == (3, 3 * config.dt)
    assert_same_bits(rec, simulate_path(system, config, u0, plain))


def test_a_failing_2d_member_leaves_with_its_factors_and_the_others_run_on():
    # the kicked member in the middle fails step 3 and leaves the stack with
    # its factors; the members on either side, carrying theirs, step as
    # they do alone
    grid = Grid(2, 8)
    config = SolverConfig(dt=0.004, t_end=0.024, n=16, newton_max_iter=10)
    system = build_system(grid, p_laplacian_coeff(2.5), tanh_drift(1.0),
                          perturbation_for(2.5, m=2), config, spec=power_sigma(0.75),
                          kernel=gaussian_kernel(grid))
    u0 = initial_profile(grid, "sine", amplitude=0.25)
    plain = [default_sampler(grid, 5, 1), default_sampler(grid, 5, 2)]
    first, failed, last = simulate_batch(system, config, [u0, u0, u0],
                                         [plain[0], KickedSampler(grid, kick=12.0), plain[1]])
    assert isinstance(failed, NewtonDivergedError) and failed.step == 3
    assert_same_bits(first, simulate_path(system, config, u0, plain[0]))
    assert_same_bits(last, simulate_path(system, config, u0, plain[1]))


def assert_a_singular_member_fails_alone(grid, monkeypatch):
    # member 1's Newton matrix is zeroed: its solve fails at the first
    # iteration, and member 0 steps as it does alone
    system, config = stochastic_pieces(grid)
    u = np.stack([initial_profile(grid, "sine", amplitude=0.25)] * 2)
    dw = default_sampler(grid, 1, 0).sample_increment(0, config.dt)
    newton_matrix = evolution._newton_matrix

    def singular_second(system, dt, v, out=None):
        slab = newton_matrix(system, dt, v, out)
        if slab.ndim == 4 and len(slab) == 2:   # the stack of both
            slab[1] = 0.0
        return slab

    monkeypatch.setattr(evolution, "_newton_matrix", singular_second)
    v, _, _, outcomes = step_semi_implicit(system, config, u, 0.0, dw)
    assert isinstance(outcomes[1], NewtonDivergedError)
    assert outcomes[1].iterations == 0
    (v_alone,), _, iters, _ = step_semi_implicit(system, config, u[:1], 0.0, dw[None])
    assert outcomes[0] == iters and v[0].tobytes() == v_alone.tobytes()


def test_a_singular_member_fails_alone(monkeypatch):
    assert_a_singular_member_fails_alone(Grid(1, 16), monkeypatch)


def test_a_singular_2d_member_fails_alone(monkeypatch):
    # in 2d the singular block is met while factoring, not while solving
    assert_a_singular_member_fails_alone(Grid(2, 6), monkeypatch)


def assert_a_singular_stack_of_one_reports(grid, monkeypatch):
    # the member meets the singular matrix in the member-by-member fallback
    # and fails at its initial residual, the one at its start u + noise
    system, config = stochastic_pieces(grid)
    u = initial_profile(grid, "sine", amplitude=0.25)[None]
    dw = default_sampler(grid, 1, 0).sample_increment(0, config.dt)[None]
    newton_matrix = evolution._newton_matrix
    monkeypatch.setattr(evolution, "_newton_matrix",
                        lambda *args: 0.0 * newton_matrix(*args))
    v, noise, iters, outcomes = step_semi_implicit(system, config, u, 0.0, dw)
    assert v.shape == (1, grid.size) and iters == 0
    assert isinstance(outcomes[0], NewtonDivergedError)
    assert outcomes[0].iterations == 0
    rhs = u + noise
    residual = rhs + config.dt * system.apply_drift_operator(rhs) - rhs
    assert outcomes[0].residual == norm_l2(grid, residual)[0]


def test_a_singular_stack_of_one_reports(monkeypatch):
    assert_a_singular_stack_of_one_reports(Grid(1, 16), monkeypatch)


def test_a_singular_2d_stack_of_one_reports(monkeypatch):
    assert_a_singular_stack_of_one_reports(Grid(2, 6), monkeypatch)


@pytest.mark.parametrize("stepper", [step_explicit, step_semi_implicit])
def test_the_steppers_take_only_a_stack(stepper):
    grid = Grid(1, 16)
    system, config = stochastic_pieces(grid)
    u = initial_profile(grid, "sine", amplitude=0.25)
    dw = default_sampler(grid, 1, 0).sample_increment(0, config.dt)
    with pytest.raises(GridMismatchError, match="stack"):
        stepper(system, config, u, 0.0, dw)


def test_stacked_steps_count_every_members_iterations():
    grid = Grid(1, 16)
    system, config = stochastic_pieces(grid)
    stack = build_system(grid, system.coeff, system.drift, perturbation_for(2.5),
                         config, spec=power_sigma(0.75, 1.0),
                         kernel=gaussian_kernel(grid), levels=[4, 32])
    u = np.stack([initial_profile(grid, "sine", amplitude=0.25),
                  initial_profile(grid, "bump", amplitude=0.4)])
    dw = default_sampler(grid, 1, 0).sample_increment(0, config.dt)
    v, noise, iterations, outcomes = step_semi_implicit(stack, config, u, 0.0, dw)
    assert v.shape == noise.shape == u.shape
    assert iterations == sum(outcomes) and all(o >= 1 for o in outcomes)
    for b, level in enumerate((4, 32)):
        alone = build_system(grid, system.coeff, system.drift, perturbation_for(2.5),
                             replace(config, n=level), spec=power_sigma(0.75, 1.0),
                             kernel=gaussian_kernel(grid))
        (v_b,), (noise_b,), iters_b, _ = step_semi_implicit(alone, config, u[b:b + 1],
                                                            0.0, dw[None])
        assert (v[b].tobytes(), noise[b].tobytes(), outcomes[b]) \
            == (v_b.tobytes(), noise_b.tobytes(), iters_b)


# ------------------------------------------------------------------- failures


def test_blow_up_raises_with_context():
    grid = Grid(1, 24)
    config = SolverConfig(dt=0.05, t_end=1.0, scheme="explicit",
                          use_perturbation=False)
    system = build_system(grid, p_laplacian_coeff(3.0), zero_drift(), None,
                          config)
    u0 = initial_profile(grid, "sine", amplitude=2.0)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(BlowUpError) as err:
            simulate_path(system, config, u0)
    assert err.value.step > 0
    assert err.value.norm > 1e12 or not np.isfinite(err.value.norm)


def test_explicit_stability_warning():
    grid, system = heat_system(32)
    u0 = np.sin(np.pi * grid.nodes()[:, 0])
    bound = explicit_dt_heuristic(system, u0)
    config = SolverConfig(dt=np.round(4.0 * bound, 6), t_end=np.round(4.0 * bound, 6),
                          scheme="explicit")
    with pytest.warns(RuntimeWarning, match="stability"):
        try:
            simulate_path(system, config, u0)
        except BlowUpError:
            pass


def test_zero_horizon_returns_initial_state():
    grid = Grid(1, 8)
    system, _ = stochastic_pieces(grid)
    config = SolverConfig(dt=1e-3, t_end=0.0)
    rec = simulate_path(system, config, np.ones(8) * 0.1,
                        default_sampler(grid, 0, 0))
    assert rec.times.size == 1
    assert np.array_equal(rec.final_state(), np.ones(8) * 0.1)


# ---------------------------------------------------------------- validation


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, t_end=1.0, scheme="leapfrog")
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, t_end=1.0, sigma_mode="smooth")
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, t_end=1.0, record_every=0)
    with pytest.raises(ValueError):
        SolverConfig(dt=3e-3, t_end=1e-2).num_steps
    assert SolverConfig(dt=2e-3, t_end=1e-2).num_steps == 5


def test_build_system_needs_level_for_regularized_noise():
    grid = Grid(1, 8)
    config = SolverConfig(dt=1e-3, t_end=1e-2, n=None)
    with pytest.raises(ValueError):
        build_system(grid, p_laplacian_coeff(2.5), zero_drift(),
                     perturbation_for(2.5), config,
                     spec=power_sigma(0.75, 1.0), kernel=gaussian_kernel(grid))


def test_build_system_perturbation_switch():
    grid = Grid(1, 8)
    on = SolverConfig(dt=1e-3, t_end=1e-2, n=4)
    off = SolverConfig(dt=1e-3, t_end=1e-2, n=4, use_perturbation=False)
    sys_on = build_system(grid, p_laplacian_coeff(2.5), zero_drift(),
                          perturbation_for(2.5), on)
    sys_off = build_system(grid, p_laplacian_coeff(2.5), zero_drift(),
                           perturbation_for(2.5), off)
    assert sys_on.pert is not None and sys_on.jacobian_half_width == 2
    assert sys_off.pert is None and sys_off.jacobian_half_width == 1
