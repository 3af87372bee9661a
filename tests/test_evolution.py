"""Oracle tests for the time steppers: exact linear decay, solver identities,
determinism of the stochastic trajectories, and the failure modes."""

import pickle

import numpy as np
import pytest

from plapsim.evolution import (
    BlowUpError,
    NewtonDivergedError,
    SolverConfig,
    build_system,
    explicit_dt_heuristic,
    simulate_coupled_pair,
    simulate_path,
    step_explicit,
    step_semi_implicit,
)
from plapsim.noise import default_sampler, gaussian_kernel
from plapsim.regularize import power_sigma
from plapsim.spatial import (Grid, apply_divergence_form, initial_profile,
                             laplacian_min_eigenvalue, linear_coeff, norm_l1,
                             norm_l2, p_laplacian_coeff, perturbation_for,
                             tanh_drift, zero_drift)


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
    dw = default_sampler(grid, seed=3, path_index=0).sample_increment(config.dt)
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
    dw = default_sampler(grid, seed=1, path_index=0).sample_increment(config.dt)
    v, noise, iters = step_semi_implicit(system, config, u, 0.0, dw)
    residual = v + config.dt * system.apply_drift_operator(v) - u - noise
    assert np.sqrt(np.sum(residual ** 2) * grid.weight) <= config.newton_tol
    assert iters >= 1


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
        calls = 0

        def sample_increment(self, dt):
            self.calls += 1
            return np.full(grid.size, 5.0 if self.calls == 4 else 0.0)

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
    system, config = stochastic_pieces(grid, record_increments=True)
    u0 = initial_profile(grid, "sine", amplitude=0.25)
    rec1 = simulate_path(system, config, u0, default_sampler(grid, 11, 2))
    rec2 = simulate_path(system, config, u0, default_sampler(grid, 11, 2))
    assert np.array_equal(rec1.states, rec2.states)
    assert np.array_equal(rec1.increments, rec2.increments)
    rec3 = simulate_path(system, config, u0, default_sampler(grid, 11, 3))
    assert not np.array_equal(rec1.states, rec3.states)


def test_semi_implicit_step_identity_on_recorded_data():
    # v + dt A(v) - u - noise vanishes to Newton tolerance along the path
    grid = Grid(1, 12)
    system, config = stochastic_pieces(grid, record_increments=True)
    u0 = initial_profile(grid, "sine", amplitude=0.25)
    rec = simulate_path(system, config, u0, default_sampler(grid, 4, 0))
    for k in range(config.num_steps):
        u, v = rec.states[k], rec.states[k + 1]
        noise = system.noise_term(k * config.dt, u, rec.increments[k])
        residual = v + config.dt * system.apply_drift_operator(v) - u - noise
        assert np.sqrt(np.sum(residual ** 2) * grid.weight) <= config.newton_tol


def test_coupled_pair_shares_increments():
    grid = Grid(1, 16)
    system, config = stochastic_pieces(grid)
    u0 = initial_profile(grid, "sine", amplitude=0.25)
    v0 = initial_profile(grid, "bump", amplitude=0.2)
    rec_a, rec_b = simulate_coupled_pair((system, system), config, (u0, v0),
                                         default_sampler(grid, 21, 0))
    assert np.array_equal(rec_a.increments, rec_b.increments)
    # identical initial data makes the trajectories identical
    rec_c, rec_d = simulate_coupled_pair((system, system), config, (u0, u0),
                                         default_sampler(grid, 21, 0))
    assert np.array_equal(rec_c.states, rec_d.states)


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
