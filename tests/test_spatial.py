"""Oracle and property tests for grids, norms, operators, and structure checks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plapsim.spatial import (
    Grid,
    GridMismatchError,
    HigherOrderPerturbation,
    LerayLionsCoeff,
    apply_A_n,
    apply_divergence_form,
    check_structure_conditions,
    difference_matrix,
    estimate_embedding_constants,
    hm0_norm,
    initial_from_csv,
    initial_profile,
    initial_to_csv,
    j_form,
    j_operator,
    laplacian_min_eigenvalue,
    linear_coeff,
    multi_indices,
    n_min_default,
    norm_l1,
    norm_l2,
    norm_lp,
    p_laplacian_coeff,
    perturbation_for,
    poincare_constant,
    q_of_p,
    remark_flux_coeff,
    tanh_drift,
    w1p_seminorm,
    wmq_norm,
    zero_drift,
)


def random_field(grid, seed=0):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x7E57]))
    return rng.standard_normal(grid.size)


# ----------------------------------------------------------------------- grids


def test_grid_basic_quantities():
    grid = Grid(1, 9)
    assert grid.h == 0.1
    assert grid.size == 9
    assert grid.weight == 0.1
    assert np.isclose(grid.measure, 0.9)
    assert grid.nodes().shape == (9, 1)
    assert np.isclose(grid.nodes()[0, 0], 0.1)

    grid2 = Grid(2, 4)
    assert grid2.size == 16
    assert grid2.weight == grid2.h ** 2
    assert grid2.nodes().shape == (16, 2)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Grid(3, 4)
    with pytest.raises(ValueError):
        Grid(1, 0)
    with pytest.raises(GridMismatchError):
        Grid(1, 4).check(np.zeros(5))


def test_constant_function_quadrature_convention():
    # interior-node quadrature: ||1||_2^2 = N h = N / (N + 1), no boundary cells
    grid = Grid(1, 99)
    assert np.isclose(norm_l2(grid, np.ones(99)) ** 2, 0.99, rtol=1e-12)


def test_norm_consistency_l1_l2_lp():
    grid = Grid(1, 17)
    u = random_field(grid)
    assert np.isclose(norm_lp(grid, u, 2.0), norm_l2(grid, u), rtol=1e-12)
    assert np.isclose(norm_lp(grid, u, 1.0), norm_l1(grid, u), rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(-8.0, 8.0), st.floats(min_value=1.0, max_value=6.0))
def test_norm_homogeneity(c, p):
    grid = Grid(1, 13)
    u = random_field(grid, seed=3)
    assert np.isclose(norm_lp(grid, c * u, p), abs(c) * norm_lp(grid, u, p),
                      rtol=1e-10, atol=1e-12)


def test_multi_indices_enumeration():
    assert multi_indices(1, 2) == [(0,), (1,), (2,)]
    # sorted by total order, then lexicographically within an order
    assert multi_indices(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert len(multi_indices(2, 3)) == 10


def test_difference_matrix_shapes_and_exactness_on_linear_data():
    grid = Grid(1, 8)
    for order in (1, 2, 3):
        mat = difference_matrix(grid, (order,))
        assert mat.shape == (8 + order, 8)
    # first differences of node values of x recover slope 1 away from the
    # boundary, where the zero extension bends the profile
    x = grid.nodes()[:, 0]
    du = difference_matrix(grid, (1,)) @ x
    assert np.allclose(du[1:-1], 1.0, rtol=1e-12)


def test_second_difference_matrix_matches_eigen_decay():
    # mu_h = (4/h^2) sin^2(pi h / 2) is the exact discrete rate for sin(pi x)
    grid = Grid(1, 64)
    x = grid.nodes()[:, 0]
    u = np.sin(np.pi * x)
    d2 = difference_matrix(grid, (2,)) @ u
    mu = laplacian_min_eigenvalue(grid)
    # interior rows of D2 are the centered second difference shifted by one
    assert np.allclose(-d2[1:-1], mu * u, rtol=1e-10)


def test_laplacian_min_eigenvalue_frozen_value():
    # N = 4: mu = 100 sin^2(pi/10) = 25 (3 - sqrt 5) / 2
    assert np.isclose(laplacian_min_eigenvalue(Grid(1, 4)),
                      25.0 * (3.0 - np.sqrt(5.0)) / 2.0, rtol=1e-12)
    assert np.isclose(laplacian_min_eigenvalue(Grid(2, 4)),
                      25.0 * (3.0 - np.sqrt(5.0)), rtol=1e-12)


def test_hm0_equals_wmq_at_q_two():
    grid = Grid(1, 21)
    u = random_field(grid, seed=5)
    assert np.isclose(hm0_norm(grid, u, 2), wmq_norm(grid, u, 2, 2.0), rtol=1e-12)


# ------------------------------------------------------------------ operators


def test_divergence_form_eigen_oracle_1d():
    grid = Grid(1, 64)
    x = grid.nodes()[:, 0]
    u = np.sin(np.pi * x)
    out = apply_divergence_form(grid, linear_coeff(), u)
    mu = laplacian_min_eigenvalue(grid)
    assert np.allclose(out, mu * u, rtol=1e-10, atol=1e-12)


def test_divergence_form_eigen_oracle_2d():
    grid = Grid(2, 16)
    xy = grid.nodes()
    u = np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1])
    out = apply_divergence_form(grid, linear_coeff(), u)
    assert np.allclose(out, laplacian_min_eigenvalue(grid) * u,
                       rtol=1e-11, atol=1e-12)


def test_divergence_form_summation_by_parts():
    # <op(u), v>_h equals the face sum <a(x, u, grad u), grad v>_h exactly
    grid = Grid(1, 23)
    coeff = p_laplacian_coeff(2.5)
    u, v = random_field(grid, 1), random_field(grid, 2)
    lhs = float(np.sum(apply_divergence_form(grid, coeff, u) * v) * grid.weight)

    h = grid.h
    ue = np.concatenate([[0.0], u, [0.0]])
    ve = np.concatenate([[0.0], v, [0.0]])
    g = (np.diff(ue) / h)[:, None]
    lam = 0.5 * (ue[:-1] + ue[1:])
    xf = ((np.arange(grid.n_interior + 1) + 0.5) * h)[:, None]
    flux = coeff.a_eval(xf, lam, g)[:, 0]
    rhs = float(np.sum(flux * np.diff(ve) / h) * grid.weight)
    assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_linear_operator_symmetry_2d():
    grid = Grid(2, 7)
    u, v = random_field(grid, 3), random_field(grid, 4)
    au = apply_divergence_form(grid, linear_coeff(), u)
    av = apply_divergence_form(grid, linear_coeff(), v)
    assert np.isclose(np.sum(au * v), np.sum(u * av), rtol=1e-12)


def test_w1p_seminorm_matches_dirichlet_form():
    # for p = 2 the seminorm squared is exactly <-Lap u, u>_h
    grid = Grid(1, 31)
    u = random_field(grid, 6)
    lhs = w1p_seminorm(grid, u, 2.0) ** 2
    rhs = float(np.sum(apply_divergence_form(grid, linear_coeff(), u) * u)
                * grid.weight)
    assert np.isclose(lhs, rhs, rtol=1e-12)


def test_p_laplace_flux_degenerate_and_singular_limits():
    coeff = p_laplacian_coeff(2.5)
    zero = coeff.a_eval(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)))
    assert np.all(zero == 0.0)
    sing = p_laplacian_coeff(1.5)
    out = sing.a_eval(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)))
    assert np.all(np.isfinite(out))


def test_q_of_p_frozen_values():
    assert q_of_p(2.0) == 4.0
    assert q_of_p(3.0) == 12.0
    assert q_of_p(1.5) == 3.0
    with pytest.raises(ValueError):
        q_of_p(1.0)


def test_perturbation_parameter_guards():
    with pytest.raises(ValueError):
        HigherOrderPerturbation(m=0, q=4.0)
    with pytest.raises(ValueError):
        HigherOrderPerturbation(m=1, q=1.5)
    assert perturbation_for(2.5).q == q_of_p(2.5)
    assert perturbation_for(2.5).m == 2


def test_j_form_hand_computed_single_node():
    # one interior node, h = 1/2, m = 1, q = 4:
    # gamma = 0 contributes u^2 + u^4 on the node lattice,
    # gamma = 1 contributes 8 u^2 + 32 u^4 on the two faces,
    # so j(u, u) = (9 u^2 + 33 u^4) / 2 = 4.5 u^2 + 16.5 u^4
    grid = Grid(1, 1)
    pert = HigherOrderPerturbation(m=1, q=4.0)
    for val in (1.0, -0.5, 2.0):
        u = np.array([val])
        expect = 4.5 * val ** 2 + 16.5 * val ** 4
        assert np.isclose(j_form(grid, pert, u, u), expect, rtol=1e-12)


def test_j_operator_represents_j_form():
    grid = Grid(1, 19)
    pert = HigherOrderPerturbation(m=2, q=7.5)
    u, v = random_field(grid, 7), random_field(grid, 8)
    lhs = j_form(grid, pert, u, v)
    rhs = float(np.sum(j_operator(grid, pert, u) * v) * grid.weight)
    assert np.isclose(lhs, rhs, rtol=1e-10)


def test_j_form_positivity_and_linearity_in_second_slot():
    grid = Grid(1, 11)
    pert = HigherOrderPerturbation(m=2, q=4.0)
    u = random_field(grid, 9)
    v, w = random_field(grid, 10), random_field(grid, 11)
    assert j_form(grid, pert, u, u) >= 0.0
    left = j_form(grid, pert, u, 2.0 * v - 3.0 * w)
    right = 2.0 * j_form(grid, pert, u, v) - 3.0 * j_form(grid, pert, u, w)
    assert np.isclose(left, right, rtol=1e-9, atol=1e-12)


def test_stacked_operators_match_per_gamma_sums():
    # reference: the defining sums over |gamma| <= m, one difference matrix each
    for dimension, n_interior in ((1, 19), (2, 7)):
        grid = Grid(dimension, n_interior)
        u, v = random_field(grid, 13), random_field(grid, 14)
        for m in (1, 2):
            pert = HigherOrderPerturbation(m=m, q=4.5)
            mats = [difference_matrix(grid, g) for g in multi_indices(dimension, m)]
            dus = [mat @ u for mat in mats]
            dvs = [mat @ v for mat in mats]
            pows = [np.abs(du) ** (pert.q - 2.0) * du for du in dus]
            ref_j = sum(mat.T @ (du + pw) for mat, du, pw in zip(mats, dus, pows))
            ref_form = grid.weight * sum(np.sum(du * dv) + np.sum(pw * dv)
                                         for du, dv, pw in zip(dus, dvs, pows))
            ref_hm0 = np.sqrt(grid.weight * sum(np.sum(du * du) for du in dus))
            ref_wmq = (grid.weight * sum(np.sum(np.abs(du) ** pert.q)
                                         for du in dus)) ** (1.0 / pert.q)
            np.testing.assert_allclose(j_operator(grid, pert, u), ref_j, rtol=1e-13)
            np.testing.assert_allclose(j_form(grid, pert, u, v), ref_form, rtol=1e-13)
            np.testing.assert_allclose(hm0_norm(grid, u, m), ref_hm0, rtol=1e-13)
            np.testing.assert_allclose(wmq_norm(grid, u, m, pert.q), ref_wmq,
                                       rtol=1e-13)


def test_j_rejects_too_coarse_grids():
    grid = Grid(1, 1)
    pert = HigherOrderPerturbation(m=2, q=4.0)
    with pytest.raises(GridMismatchError):
        j_form(grid, pert, np.ones(1), np.ones(1))


def test_apply_A_n_drops_perturbation_when_asked():
    grid = Grid(1, 16)
    coeff = p_laplacian_coeff(2.5)
    pert = perturbation_for(2.5)
    u = random_field(grid, 12)
    bare = apply_divergence_form(grid, coeff, u)
    assert np.allclose(apply_A_n(grid, coeff, None, pert, None, u), bare)
    assert np.allclose(apply_A_n(grid, coeff, None, None, 8, u), bare)
    with_j = apply_A_n(grid, coeff, None, pert, 8, u)
    assert np.allclose(with_j - bare, j_operator(grid, pert, u) / 8.0,
                       rtol=1e-12)


def test_apply_A_n_monotone_up_to_drift_lipschitz():
    # <A(u) - A(v), u - v>_h >= -l_f ||u - v||_2^2 for the p-Laplace part
    # plus a Lipschitz reaction
    grid = Grid(1, 24)
    coeff = p_laplacian_coeff(3.0)
    drift = tanh_drift(1.0)
    pert = perturbation_for(3.0)
    for seed in range(5):
        u, v = random_field(grid, 20 + seed), random_field(grid, 40 + seed)
        gap = apply_A_n(grid, coeff, drift, pert, 4, u) - \
            apply_A_n(grid, coeff, drift, pert, 4, v)
        lhs = float(np.sum(gap * (u - v)) * grid.weight)
        assert lhs >= -drift.l_f * norm_l2(grid, u - v) ** 2 - 1e-9


# ----------------------------------------------------------- structure checks


def test_structure_conditions_pass_for_shipped_coefficients():
    assert check_structure_conditions(linear_coeff())["pass"]
    assert check_structure_conditions(p_laplacian_coeff(2.5))["pass"]
    assert check_structure_conditions(p_laplacian_coeff(4.0), dimension=2)["pass"]
    report = check_structure_conditions(remark_flux_coeff(2.5, scale=0.3))
    assert report["pass"], report


def test_structure_conditions_flag_wrong_constants():
    # claims full coercivity c1 = 1 while the flux only delivers half
    half = LerayLionsCoeff(
        a_eval=lambda x, lam, xi: 0.5 * xi, p=2.0, c1=1.0, c3=1.0)
    report = check_structure_conditions(half)
    assert not report["coercivity_pass"]
    assert not report["pass"]


def test_structure_conditions_flag_missing_growth_and_continuity_terms():
    # the convective part needs g = h = scale; without them the bounds fail
    coeff = remark_flux_coeff(2.5, scale=1.0)
    assert check_structure_conditions(coeff)["pass"]
    no_h = check_structure_conditions(replace(coeff, h=0.0))
    assert not no_h["continuity_pass"] and no_h["growth_pass"]
    no_g = check_structure_conditions(replace(coeff, g=0.0))
    assert not no_g["growth_pass"] and no_g["continuity_pass"]


def test_structure_conditions_flag_nonmonotone_flux():
    bad = LerayLionsCoeff(
        a_eval=lambda x, lam, xi: -xi, p=2.0, c1=0.0, c3=1.0)
    report = check_structure_conditions(bad)
    assert not report["monotone_pass"]


def test_poincare_constant_bounds_random_fields():
    grid = Grid(1, 32)
    c = poincare_constant(grid)
    for seed in range(8):
        u = random_field(grid, 60 + seed)
        assert norm_l2(grid, u) <= c * w1p_seminorm(grid, u, 2.0) * (1 + 1e-10)
    # sharp on the lowest mode
    x = grid.nodes()[:, 0]
    mode = np.sin(np.pi * x)
    assert np.isclose(norm_l2(grid, mode),
                      c * w1p_seminorm(grid, mode, 2.0), rtol=1e-10)


def test_embedding_constants_are_observed_ratios():
    grid = Grid(1, 16)
    nu = 5.0 / 3.0
    consts = estimate_embedding_constants(grid, p=2.5, m=2, q=7.5, nu=nu)
    # power-mean inequality on a finite measure: ||u||_nu <= c ||u||_2p
    for seed in range(6):
        u = random_field(grid, 90 + seed)
        assert norm_lp(grid, u, nu) <= consts["c_lq"] * norm_lp(grid, u, 5.0) \
            * (1 + 1e-10)
    assert consts["c_poincare_2p"] > 0.0
    assert consts["c_embed_w"] > 0.0


def test_n_min_default_reduces_to_growth_threshold_without_c2():
    grid = Grid(1, 16)
    coeff = p_laplacian_coeff(2.5)  # c2 = 0
    pert = perturbation_for(2.5)
    assert n_min_default(grid, coeff, pert, c_sigma=1.0) == 1.0
    assert n_min_default(grid, coeff, pert, c_sigma=9.0) == 3.0


def test_n_min_default_with_dissipativity_term():
    grid = Grid(1, 16)
    coeff = remark_flux_coeff(2.5, scale=0.3)
    pert = perturbation_for(2.5)
    level = n_min_default(grid, coeff, pert, c_sigma=1.0)
    assert np.isfinite(level) and level >= 1.0


# --------------------------------------------------------------- initial data


def test_initial_profiles():
    grid = Grid(1, 15)
    sine = initial_profile(grid, "sine", amplitude=2.0)
    assert np.isclose(np.max(sine), 2.0, rtol=1e-2)
    bump = initial_profile(grid, "bump", amplitude=1.0)
    assert np.argmax(bump) == 7
    r1 = initial_profile(grid, "random", seed=1)
    r2 = initial_profile(grid, "random", seed=1)
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, initial_profile(grid, "random", seed=2))
    with pytest.raises(ValueError):
        initial_profile(grid, "step")


def test_initial_csv_round_trip(tmp_path):
    grid = Grid(1, 12)
    u = random_field(grid, 77)
    path = tmp_path / "u0.csv"
    initial_to_csv(grid, u, path)
    back = initial_from_csv(grid, path)
    assert np.array_equal(u, back)


def test_initial_csv_rejects_bad_data(tmp_path):
    grid = Grid(1, 4)
    path = tmp_path / "short.csv"
    path.write_text("1.0\n2.0\n")
    with pytest.raises(GridMismatchError):
        initial_from_csv(grid, path)
    bad = tmp_path / "nan.csv"
    bad.write_text("1.0\nnan\n2.0\n3.0\n")
    with pytest.raises(ValueError):
        initial_from_csv(grid, bad)
