"""Oracle tests for the time steppers: exact linear decay, solver identities,
determinism of the stochastic trajectories, and the failure modes."""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from plapsim.evolution import (
    BlowUpError,
    NewtonDivergedError,
    SolverConfig,
    _colored_jacobian,
    _solve_lines,
    build_system,
    explicit_dt_heuristic,
    simulate_path,
    step_explicit,
    step_semi_implicit,
)
from plapsim.noise import default_sampler, gaussian_kernel
from plapsim.regularize import power_sigma
from plapsim.spatial import (Grid, HigherOrderPerturbation,
                             apply_divergence_form, initial_profile,
                             laplacian_min_eigenvalue, linear_coeff, norm_l1,
                             norm_l2, p_laplacian_coeff, perturbation_for,
                             q_of_p, remark_flux_coeff, tanh_drift, zero_drift)


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
    v, _, iters = step_explicit(system, config, u, 0.0, np.zeros(grid.size))
    assert iters == 0
    assert np.allclose(v, (1.0 - config.dt * mu) * u, rtol=1e-12)


def test_explicit_step_adds_the_noise_term():
    grid = Grid(1, 16)
    system, config = stochastic_pieces(grid)
    u = initial_profile(grid, "sine", amplitude=0.25)
    dw = default_sampler(grid, seed=3, path_index=0).sample_increment(0, config.dt)
    v, noise, _ = step_explicit(system, config, u, 0.0, dw)
    by_hand = u - config.dt * system.apply_drift_operator(u) \
        + system.noise_term(0.0, u, dw)
    assert np.array_equal(v, by_hand)
    assert np.array_equal(noise, system.noise_term(0.0, u, dw))


def test_semi_implicit_linear_step_equals_direct_solve():
    grid, system = heat_system(24)
    config = SolverConfig(dt=2e-3, t_end=2e-3)
    u = initial_profile(grid, "bump", amplitude=1.0)
    v, _, _ = step_semi_implicit(system, config, u, 0.0, np.zeros(grid.size))
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
    v, noise, iters = step_semi_implicit(system, config, u, 0.0, dw)
    residual = v + config.dt * system.apply_drift_operator(v) - u - noise
    assert np.sqrt(np.sum(residual ** 2) * grid.weight) <= config.newton_tol
    assert iters >= 1


def level_system(dimension, n_interior, m, p=2.5, convective=False):
    """Level-8 system with tanh drift and a perturbation of order m (None: off)."""
    grid = Grid(dimension, n_interior)
    coeff = remark_flux_coeff(p) if convective else p_laplacian_coeff(p)
    pert = HigherOrderPerturbation(m=m, q=q_of_p(p)) if m else None
    config = SolverConfig(dt=1e-3, t_end=1e-3, n=8, use_perturbation=bool(m))
    return grid, build_system(grid, coeff, tanh_drift(1.0), pert, config)


# the tiny grids have fewer nodes per axis than the stencil has colors
STENCIL_CASES = [
    (1, 32, 1, 2.5, False), (1, 16, 2, 2.5, True), (1, 2, 1, 2.5, False),
    (1, 3, 2, 1.5, False), (2, 8, 1, 2.5, False), (2, 9, 2, 2.5, False),
    (2, 4, 2, 2.5, True), (2, 12, None, 2.5, False), (2, 10, 3, 2.5, False)]


def slab_to_dense(slab):
    """The size x size matrix a line slab stores; the blocks it holds for
    lines past either end of the grid must be zero."""
    lines, n, width = slab.shape
    reach = (width // n - 1) // 2
    dense = np.zeros((lines * n, lines * n))
    for i, b in np.ndindex(lines, 2 * reach + 1):
        j = i - reach + b
        block = slab[i, :, b * n:(b + 1) * n]
        if 0 <= j < lines:
            dense[i * n:(i + 1) * n, j * n:(j + 1) * n] = block
        else:
            assert not block.any()
    return dense


def jacobian_at_random_state(dimension, n_interior, m, p, convective, dt=1e-3):
    """(grid, system, v, A_n(v), line slab of I + dt J at v)."""
    grid, system = level_system(dimension, n_interior, m, p, convective)
    v = 0.5 * np.random.default_rng(n_interior).standard_normal(grid.size)
    base = system.apply_drift_operator(v)
    return grid, system, v, base, _colored_jacobian(system, dt, v, base)


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
    grid, _, _, _, slab = jacobian_at_random_state(
        dimension, n_interior, m, p, convective)
    dense = slab_to_dense(slab)
    rhs = np.random.default_rng(7).standard_normal(grid.size)
    x, direct = _solve_lines(slab, rhs), np.linalg.solve(dense, rhs)
    if dimension == 1:   # one line: the same dense solve
        assert np.array_equal(x, direct)
    # backward stable like the dense LU, so the two agree to cond * eps
    eps = np.finfo(float).eps
    assert np.linalg.norm(dense @ x - rhs) <= 4.0 * eps * (
        np.linalg.norm(dense, 2) * np.linalg.norm(x) + np.linalg.norm(rhs))
    assert np.linalg.norm(x - direct) <= \
        np.linalg.cond(dense) * eps * np.linalg.norm(direct)


def test_line_solve_raises_on_a_singular_line_block():
    _, _, _, _, slab = jacobian_at_random_state(2, 8, 1, 2.5, False)
    slab[3] = 0.0   # line 3's rows: its block stays zero through elimination
    with pytest.raises(np.linalg.LinAlgError):
        _solve_lines(slab, np.ones(slab.shape[0] * slab.shape[1]))


def test_newton_solve_leaves_scipy_linalg_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from plapsim.evolution import SolverConfig, build_system, step_semi_implicit
        from plapsim.spatial import (Grid, initial_profile, p_laplacian_coeff,
                                     perturbation_for, tanh_drift)
        grid = Grid(2, 8)
        config = SolverConfig(dt=1e-3, t_end=1e-3, n=8)
        system = build_system(grid, p_laplacian_coeff(2.5), tanh_drift(1.0),
                              perturbation_for(2.5, m=2), config)
        u = initial_profile(grid, "sine", amplitude=0.5)
        _, _, iters = step_semi_implicit(system, config, u, 0.0, np.zeros(grid.size))
        assert iters >= 1
        assert "scipy.linalg" not in sys.modules
        """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("make, colors, iterations", [
    (lambda: heat_system(16), 3, 1), (lambda: level_system(1, 16, 1), 3, 3),
    (lambda: level_system(2, 8, None), 9, 2)],
    ids=["heat", "tanh_m1", "no_perturbation_2d"])
def test_newton_evaluates_the_drift_once_per_color_and_trial(
        make, colors, iterations):
    grid, system = make()
    config = SolverConfig(dt=1e-3, t_end=1e-3)
    u = initial_profile(grid, "sine", amplitude=0.5)
    evaluate, calls = system.apply_drift_operator, []

    def counted(w):
        calls.append(1)
        return evaluate(w)

    system.apply_drift_operator = counted
    _, _, iters = step_semi_implicit(system, config, u, 0.0, np.zeros(grid.size))
    assert iters == iterations
    # one for the initial residual, then per iteration one per color plus
    # one full line-search trial; A_n at the iterate comes from its residual
    assert len(calls) == 1 + iters * (colors + 1)


def test_newton_divergence_is_reported():
    grid = Grid(1, 16)
    system, config = stochastic_pieces(grid, newton_max_iter=0)
    u = initial_profile(grid, "sine", amplitude=0.25)
    with pytest.raises(NewtonDivergedError):
        step_semi_implicit(system, config, u, 0.0, np.zeros(grid.size))


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
    newton = NewtonDivergedError(3, 0.5)
    newton.step, newton.time = 7, 0.007
    back = pickle.loads(pickle.dumps(newton))
    assert (back.iterations, back.residual, back.step, back.time) == (3, 0.5, 7, 0.007)
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

    def __init__(self, grid, seed=5, kick=1.0):
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
    # for more; each half of step 3 needs at most two again
    return stochastic_pieces(grid, dt=0.008, t_end=0.08, newton_max_iter=2, **kw)


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
    system, config = stochastic_pieces(grid, dt=0.008, t_end=0.08)
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
