"""Oracle and property tests for grids, norms, operators, and structure checks."""

import warnings
from dataclasses import replace
from itertools import product

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
    difference_blocks,
    estimate_embedding_constants,
    gradient_faces,
    hm0_norm,
    initial_from_csv,
    initial_profile,
    initial_to_csv,
    jacobian_A_n,
    j_operator,
    linear_coeff,
    n_min_default,
    norm_l1,
    norm_l2,
    norm_lp,
    p_laplacian_coeff,
    perturbation_for,
    q_of_p,
    remark_flux_coeff,
    tanh_drift,
    w1p_seminorm,
    wmq_norm,
    zero_drift,
)
from plapsim.spatial import (PLaplaceFlux, _check_order, _difference_blocks_adjoint,
                             _iterated_difference_1d)

import oracles
from oracles import laplacian_min_eigenvalue


def random_field(grid, seed=0):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x7E57]))
    return rng.standard_normal(grid.size)


def multi_indices(dimension, m):
    """All multi-indices of order <= m, the zeroth included."""
    out = [g for g in product(range(m + 1), repeat=dimension) if sum(g) <= m]
    return sorted(out, key=lambda g: (sum(g), g))


def difference_matrix(grid, gamma):
    """Dense matrix of the iterated forward difference D^gamma.

    Input is a flat grid function extended by zero beyond the boundary;
    output lives on a staggered lattice with n_interior + gamma_k points
    along axis k, all carrying quadrature weight h**d.
    """
    assert len(gamma) == grid.dimension, gamma
    mats = [_iterated_difference_1d(grid.n_interior, g, grid.h) for g in gamma]
    return mats[0] if grid.dimension == 1 else np.kron(*mats)


def j_form(grid, pert, u, v):
    """Duality pairing sum_gamma [ <D^g u, D^g v> + <|D^g u|^(q-2) D^g u, D^g v> ].

    The sum runs over all multi-indices |gamma| <= m, the zeroth included,
    every term integrated with weight h^d on its staggered lattice.
    """
    _check_order(grid, pert.m)
    dus = difference_blocks(grid, u, pert.m)
    dvs = difference_blocks(grid, v, pert.m)
    return float(sum(np.sum(du * dv) + np.sum(np.abs(du) ** (pert.q - 2.0) * du * dv)
                     for du, dv in zip(dus, dvs)) * grid.weight)


def poincare_constant(grid):
    """Discrete Poincare constant: ||u||_2 <= c * ||grad u||_2 with c = mu_min^(-1/2)."""
    return float(1.0 / np.sqrt(laplacian_min_eigenvalue(grid)))


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


@pytest.mark.parametrize("dimension, n_interior", [(1, 17), (2, 9)])
def test_norms_take_one_value_per_member_of_a_stack(dimension, n_interior):
    grid = Grid(dimension, n_interior)
    stack = np.stack([random_field(grid, seed) for seed in range(4)])
    # flat input: a float, bitwise the flat sum it always was
    for u in stack:
        l1, l3 = norm_l1(grid, u), norm_lp(grid, u, 3.0)
        assert type(l1) is float and type(l3) is float
        assert l1 == float(np.sum(np.abs(u)) * grid.weight)
        assert l3 == float((np.sum(np.abs(u) ** 3.0) * grid.weight) ** (1.0 / 3.0))
    # a stack: one value per member, bitwise that member's own
    for norm in (norm_l1, norm_l2, lambda g, u: norm_lp(g, u, 3.0),
                 lambda g, u: norm_lp(g, u, 1.5)):
        out = norm(grid, stack)
        assert out.shape == (4,)
        assert out.tobytes() == np.array([norm(grid, u) for u in stack]).tobytes()
        assert norm(grid, stack.reshape(2, 2, -1)).tobytes() == out.tobytes()


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
    # (faces, d) samples, the component axis moved first for the flux
    flux = coeff.a_eval(np.moveaxis(xf, -1, 0), lam, np.moveaxis(g, -1, 0))[0]
    rhs = float(np.sum(flux * np.diff(ve) / h) * grid.weight)
    assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_divergence_form_summation_by_parts_2d_nonlinear():
    # the same identity on a 2d grid with a flux that depends on lam, so the
    # face means and the transverse gradient components both matter
    grid, coeff = Grid(2, 7), remark_flux_coeff(2.5, 0.3)
    n, h = grid.n_interior, grid.h
    u, v = random_field(grid, 5), random_field(grid, 6)
    lhs = float(np.sum(apply_divergence_form(grid, coeff, u) * v) * grid.weight)

    ue, ve = np.zeros((n + 2, n + 2)), np.zeros((n + 2, n + 2))
    ue[1:-1, 1:-1], ve[1:-1, 1:-1] = u.reshape(n, n), v.reshape(n, n)
    rhs = 0.0
    for axis in (0, 1):
        e, t = np.eye(2, dtype=int)[axis], np.eye(2, dtype=int)[1 - axis]
        for a in range(n + 1):           # the face between nodes a and a + 1 along axis,
            for b in range(1, n + 1):    # at interior position b along the other axis
                lo, hi = a * e + b * t, (a + 1) * e + b * t
                x = (a + 0.5) * h * e + b * h * t
                lam = 0.5 * (ue[tuple(lo)] + ue[tuple(hi)])
                xi = np.zeros(2)
                xi[axis] = (ue[tuple(hi)] - ue[tuple(lo)]) / h
                xi[1 - axis] = 0.5 * sum(
                    (ue[tuple(node + t)] - ue[tuple(node - t)]) / (2.0 * h)
                    for node in (lo, hi))
                flux = coeff.a_eval(x[:, None], np.array([lam]), xi[:, None])[axis, 0]
                rhs += flux * (ve[tuple(hi)] - ve[tuple(lo)]) / h * h ** 2
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


def flux_test_gradients(shape, seed=0):
    """Face gradients with whole faces at xi = 0, faces with one component
    0.0 or -0.0 (their off-diagonal products are signed zeros), and tiny
    ones: drawn as (..., d), returned contiguous with the component axis
    moved first, as the flux takes them."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xF1]))
    xi = rng.standard_normal(shape)
    xi[..., ::6, :] = 0.0
    xi[..., 1::7, 0] = 0.0
    xi[..., 2::9, -1] = -0.0
    xi[..., 3::11, :] *= 1e-150
    return np.ascontiguousarray(np.moveaxis(xi, -1, 0))


def broadcast_flux(p, eps, xi):
    """PLaplaceFlux by a reduction over the component axis, moved last:
    the oracle."""
    xi = np.moveaxis(xi, 0, -1)
    mag_sq = np.sum(xi * xi, axis=-1, keepdims=True)
    return np.moveaxis((mag_sq + eps ** 2) ** ((p - 2.0) / 2.0) * xi, -1, 0)


def broadcast_flux_derivative(p, eps, xi):
    """PLaplaceFlux's da/dxi by a reduction and an identity broadcast over
    the component axes, moved last: the oracle."""
    xi = np.moveaxis(xi, 0, -1)
    s = np.sum(xi * xi, axis=-1)[..., None, None] + eps ** 2
    safe = np.where(s > 0.0, s, 1.0)
    a_xi = s ** ((p - 2.0) / 2.0) * (
        np.eye(xi.shape[-1])
        + (p - 2.0) / safe * (xi[..., :, None] * xi[..., None, :]))
    return np.moveaxis(a_xi, (-2, -1), (0, 1))


FLUX_SHAPES = pytest.mark.parametrize(
    "shape", [(48, 1), (48, 2), (3, 16, 1), (3, 16, 2)],
    ids=["1d", "2d", "1d_stack", "2d_stack"])


@pytest.mark.parametrize("p", [2.0, 2.5, 4.0])
def test_p_laplace_flux_without_eps_is_the_masked_power_law(p):
    for shape in ((48, 2), (3, 16, 2)):
        xi = flux_test_gradients(shape)
        out = PLaplaceFlux(p)(None, None, xi)
        mag_sq = np.sum(xi * xi, axis=0)
        nz = mag_sq > 0.0
        masked = mag_sq[nz] ** ((p - 2.0) / 2.0) * xi[:, nz]
        assert np.all(out[:, ~nz] == 0.0)
        assert np.array_equal(out[:, nz].view(np.uint64), masked.view(np.uint64))


@FLUX_SHAPES
@pytest.mark.parametrize("p, eps", [(1.5, 1e-12), (2.5, 0.3), (4.0, 1e-3)],
                         ids=["p1.5_eps", "p2.5_eps", "p4_eps"])
def test_p_laplace_flux_with_eps_is_bitwise_the_reduction(p, eps, shape):
    xi = flux_test_gradients(shape, 1)
    out = PLaplaceFlux(p, eps)(None, None, xi)
    assert np.array_equal(out.view(np.uint64),
                          broadcast_flux(p, eps, xi).view(np.uint64))


@FLUX_SHAPES
@pytest.mark.parametrize("p, eps", [(1.5, 1e-12), (2.0, 0.0), (2.5, 0.0), (4.0, 0.0)],
                         ids=["p1.5_eps", "p2", "p2.5", "p4"])
def test_p_laplace_derivative_is_bitwise_the_broadcast_formula(p, eps, shape):
    # bit patterns, so that a -0.0 where the identity broadcast gives +0.0
    # (an off-diagonal entry at a zero component) fails
    xi = flux_test_gradients(shape, 2)
    a_xi, a_lam = PLaplaceFlux(p, eps).derivative(None, None, xi)
    assert a_xi.shape == (shape[-1],) + xi.shape
    assert np.array_equal(a_xi.view(np.uint64),
                          broadcast_flux_derivative(p, eps, xi).view(np.uint64))
    assert a_lam.shape == xi.shape and not a_lam.any()


def test_p_laplace_flux_refuses_a_singular_p_without_eps():
    with pytest.raises(ValueError, match="eps"):
        PLaplaceFlux(1.5)


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


def _pad_diff(u_nd, gamma, h):
    # plain numpy oracle: zero-extend by gamma_k on both sides of axis k, then
    # take the gamma_k-th forward difference along it
    out = np.pad(u_nd, [(g, g) for g in gamma])
    for axis, g in enumerate(gamma):
        out = np.diff(out, g, axis=axis)
    return out / h ** sum(gamma)


def test_differences_match_padded_numpy_diffs():
    for dimension, n_interior in ((1, 9), (2, 6)):
        grid = Grid(dimension, n_interior)
        u = random_field(grid, 21)
        u_nd = u.reshape(grid.shape)
        n, m = n_interior, 3
        blocks = difference_blocks(grid, u, m)
        for gamma in multi_indices(dimension, m):
            ref = _pad_diff(u_nd, gamma, grid.h)
            tol = dict(rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
            np.testing.assert_allclose(difference_matrix(grid, gamma) @ u, ref.ravel(), **tol)
            # difference_blocks: D^(i, j) sits in block j, after the rows of i' < i
            i, j = (gamma[0], 0) if dimension == 1 else gamma
            start = sum(n + k for k in range(i))
            got = blocks[j][start:start + n + i]
            np.testing.assert_allclose(got, ref, **tol)
        assert sum(b.size for b in blocks) == sum(
            _pad_diff(u_nd, g, grid.h).size for g in multi_indices(dimension, m))


def test_difference_adjoint_identity():
    for dimension, n_interior in ((1, 17), (2, 9)):
        grid = Grid(dimension, n_interior)
        u = random_field(grid, 31)
        for m in (1, 2, 3):
            dus = difference_blocks(grid, u, m)
            rng = np.random.Generator(np.random.Philox(key=[m, 0xAD7]))
            ws = [rng.standard_normal(du.shape) for du in dus]
            lhs = sum(np.sum(du * w) for du, w in zip(dus, ws))
            rhs = np.sum(u * _difference_blocks_adjoint(grid, m, [w.copy() for w in ws]))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-13)


def test_j_rejects_too_coarse_grids():
    grid = Grid(1, 1)
    pert = HigherOrderPerturbation(m=2, q=4.0)
    with pytest.raises(GridMismatchError):
        j_form(grid, pert, np.ones(1), np.ones(1))
    with pytest.raises(GridMismatchError):
        j_operator(grid, pert, np.ones(1))


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


@pytest.mark.parametrize("dimension", [1, 2])
def test_apply_A_n_is_its_parts_summed_bitwise_and_keeps_its_input(dimension):
    # one level per member, as an array or a list; the sum -div a + j / n + f
    # in that order, with no other operation on the way
    grid = Grid(dimension, 6)
    coeff, drift, pert = remark_flux_coeff(2.5), tanh_drift(1.0), perturbation_for(2.5, m=2)
    u = np.stack([random_field(grid, seed) for seed in range(3)])
    kept = u.copy()
    levels = [4, 16, 64]
    expected = (apply_divergence_form(grid, coeff, u)
                + j_operator(grid, pert, u) / np.array(levels)[:, None]
                + drift.f_eval(u))
    for n in (levels, np.array(levels)):
        out = apply_A_n(grid, coeff, drift, pert, n, u)
        assert out.tobytes() == expected.tobytes()
        assert u.tobytes() == kept.tobytes()


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


# ----------------------------------------------------------------- derivatives


def central_differences(fn, at, delta=1e-6):
    """d fn / d at[j] stacked on a new axis after fn's first, by central
    differences: at and fn's value lead with their component axes."""
    cols = []
    for j in range(len(at)):
        step = np.zeros_like(at)
        step[j] = delta * (1.0 + np.abs(at[j]))
        cols.append((fn(at + step) - fn(at - step)) / (2.0 * step[j]))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("coeff", [
    p_laplacian_coeff(2.5), p_laplacian_coeff(1.5), p_laplacian_coeff(2.0),
    remark_flux_coeff(2.5), linear_coeff()],
    ids=["p2.5", "p1.5_eps", "p2", "convective", "linear"])
def test_flux_derivative_matches_central_differences(coeff, dimension):
    rng = np.random.Generator(np.random.Philox(key=[dimension, 0xDE7]))
    x = np.moveaxis(rng.uniform(0.0, 1.0, size=(64, dimension)), -1, 0)
    lam = rng.standard_normal(64)
    xi = np.moveaxis(rng.standard_normal((64, dimension)), -1, 0)
    a_xi, a_lam = coeff.a_eval.derivative(x, lam, xi)
    assert a_xi.shape == (dimension,) + xi.shape and a_lam.shape == xi.shape
    by_xi = central_differences(lambda w: coeff.a_eval(x, lam, w), xi)
    by_lam = central_differences(lambda w: coeff.a_eval(x, w[0], xi),
                                 lam[None])[:, 0]
    assert np.allclose(a_xi, by_xi, rtol=1e-7, atol=1e-9)
    assert np.allclose(a_lam, by_lam, rtol=1e-7, atol=1e-9)


def test_p_laplace_derivative_at_a_zero_gradient():
    xi, eye = np.zeros((2, 3)), np.eye(2)[..., None]
    for p, expect in ((2.5, 0.0 * eye), (2.0, eye), (4.0, 0.0 * eye)):
        a_xi, a_lam = PLaplaceFlux(p).derivative(None, np.zeros(3), xi)
        assert np.array_equal(a_xi, np.broadcast_to(expect, (2, 2, 3)))
        assert not a_lam.any()
    # the regularized singular flux has the finite slope eps^(p-2) there
    a_xi, _ = p_laplacian_coeff(1.5).a_eval.derivative(None, np.zeros(3), xi)
    assert np.allclose(a_xi, 1e-12 ** -0.5 * eye, rtol=1e-12)


@pytest.mark.parametrize("p, eps", [(2.0, 0.0), (2.5, 0.0), (4.0, 0.0), (12.0, 0.0),
                                    (1.5, 1e-12)],
                         ids=["p2", "p2.5", "p4", "p12", "p1.5_eps"])
def test_p_laplace_derivative_is_finite_where_p_minus_2_over_s_overflows(p, eps):
    # |xi|^2 of 1e-320 and 2e-310 lies below |p - 2| / max float
    for xi in (np.array([[1e-160, 1e-155]]),
               np.array([[1e-160, 1e-155], [0.0, 1e-155]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a_xi, a_lam = PLaplaceFlux(p, eps).derivative(None, None, xi)
        assert np.all(np.isfinite(a_xi)) and not a_lam.any()
        assert np.array_equal(a_xi, np.swapaxes(a_xi, 0, 1))
        power = (np.sum(xi * xi, axis=0) + eps ** 2) ** ((p - 2.0) / 2.0)
        bound = (abs(p - 2.0) + 1.0) * power
        assert np.all(np.abs(a_xi) <= bound)


@pytest.mark.parametrize("drift", [tanh_drift(0.7), zero_drift()],
                         ids=["tanh", "zero"])
def test_drift_derivative_matches_central_differences(drift):
    lam = np.linspace(-3.0, 3.0, 41)
    by_lam = central_differences(drift.f_eval, lam[None])[0, 0]
    assert np.allclose(drift.f_eval.derivative(lam), by_lam,
                       rtol=1e-7, atol=1e-10)


def apply_A_n_columns(grid, coeff, drift, pert, n, u):
    """The Jacobian of apply_A_n at u by central differences, column by column.

    The steps are small because the p = 1.5 flux curves sharply at a small
    face gradient (the p1.5_m1 field has one of 1.7e-3)."""
    cols = []
    for j in range(grid.size):
        step = np.zeros(grid.size)
        step[j] = 1e-7 * (1.0 + abs(u[j]))
        cols.append((apply_A_n(grid, coeff, drift, pert, n, u + step)
                     - apply_A_n(grid, coeff, drift, pert, n, u - step))
                    / (2.0 * step[j]))
    return np.column_stack(cols)


def band_to_dense(grid, band):
    """The size x size matrix a stencil band stores; its entries for column
    nodes off the grid must be zero."""
    d = grid.dimension
    w = (band.shape[0] - 1) // 2
    dense = np.zeros((grid.size, grid.size))
    for offset in np.ndindex(band.shape[:d]):
        for node in np.ndindex(grid.shape):
            column = np.add(node, offset) - w
            if np.all((0 <= column) & (column < grid.n_interior)):
                dense[np.ravel_multi_index(node, grid.shape),
                      np.ravel_multi_index(column, grid.shape)] = band[offset + node]
            else:
                assert band[offset + node] == 0.0
    return dense


@pytest.mark.parametrize("dimension, coeff, drift, pert, n_interior", [
    (1, remark_flux_coeff(2.5), None, None, 12),
    (1, p_laplacian_coeff(2.5), tanh_drift(1.0), perturbation_for(2.5, m=2), 12),
    (1, p_laplacian_coeff(1.5), zero_drift(), perturbation_for(1.5, m=1), 9),
    (1, linear_coeff(), tanh_drift(2.0), HigherOrderPerturbation(m=1, q=2.0), 7),
    (1, remark_flux_coeff(3.0), tanh_drift(1.0), perturbation_for(3.0, m=3), 3),
    (1, p_laplacian_coeff(2.5), zero_drift(), perturbation_for(2.5, m=1), 1),
    (2, p_laplacian_coeff(2.5), None, None, 6),
    (2, remark_flux_coeff(2.5), None, None, 6),
    (2, p_laplacian_coeff(2.5), tanh_drift(1.0), perturbation_for(2.5, m=2), 6),
    (2, p_laplacian_coeff(2.5), zero_drift(), perturbation_for(2.5, m=3), 10),
    (2, p_laplacian_coeff(1.5), zero_drift(), perturbation_for(1.5, m=1), 5),
    (2, remark_flux_coeff(2.5), tanh_drift(1.0), perturbation_for(2.5, m=2), 2),
    (2, remark_flux_coeff(3.0), tanh_drift(1.0), perturbation_for(3.0, m=4), 4),
    (2, remark_flux_coeff(2.5), tanh_drift(1.0), perturbation_for(2.5, m=1), 1),
    (2, remark_flux_coeff(2.5), tanh_drift(1.0), None, 32)],
    ids=["convective_alone", "p2.5_tanh_m2", "p1.5_m1", "linear_q2",
         "convective_m3_tiny", "one_node", "2d_p2.5_alone", "2d_convective_alone",
         "2d_p2.5_tanh_m2", "2d_m3", "2d_p1.5_m1", "2d_two_lines_m2",
         "2d_four_lines_m4", "2d_one_node_m1", "2d_convective_32"])
def test_jacobian_A_n_matches_central_differences(dimension, coeff, drift, pert,
                                                   n_interior):
    # on the tiny 1d grids and the two- and four-line 2d grids the band
    # reaches past the grid
    grid = Grid(dimension, n_interior)
    u = 0.3 * random_field(grid, 31)
    jac = band_to_dense(grid, jacobian_A_n(grid, coeff, drift, pert, 8, u))
    by_cols = apply_A_n_columns(grid, coeff, drift, pert, 8, u)
    scale = np.abs(by_cols).max(axis=1, keepdims=True)
    assert np.all(np.abs(jac - by_cols) <= 1e-7 * scale)


def test_jacobian_A_n_is_the_stencil_band():
    # (2 w + 1,) * d + (n,) * d, w = max(1, m) (1 without the perturbation),
    # zero off the grid, on the grids the band reaches past too; a stack of
    # states gives a stack of bands
    coeff = p_laplacian_coeff(2.5)
    for dimension, n_interior in ((1, 5), (1, 2), (1, 1), (2, 5), (2, 2), (2, 1)):
        grid = Grid(dimension, n_interior)
        u = random_field(grid, 2)
        for pert, n, w in ((perturbation_for(2.5, m=1), 8, 1),
                           (perturbation_for(2.5), 8, 2), (None, 8, 1),
                           (perturbation_for(2.5, m=3), None, 1)):
            if pert is not None and n is not None and pert.m > n_interior:
                continue
            band = jacobian_A_n(grid, coeff, zero_drift(), pert, n, u)
            assert band.shape == (2 * w + 1,) * dimension + grid.shape
            band_to_dense(grid, band)
        stack = jacobian_A_n(grid, coeff, tanh_drift(1.0), perturbation_for(2.5, m=1),
                             np.array([8, 4]), np.stack([u, -u]))
        assert stack.shape == (2,) + (3,) * dimension + grid.shape
        assert np.array_equal(stack[1], jacobian_A_n(
            grid, coeff, tanh_drift(1.0), perturbation_for(2.5, m=1), 4, -u))


@pytest.mark.parametrize("coeff", [p_laplacian_coeff(2.5), p_laplacian_coeff(1.5),
                                   remark_flux_coeff(2.5)],
                         ids=["p2.5", "p1.5", "convective"])
def test_2d_flux_operators_on_a_stack_are_bitwise_each_members_own(coeff):
    # on a 1d line as on the 2d plane
    for grid in (Grid(1, 7), Grid(2, 7)):
        sparse = random_field(grid, 4)
        sparse[::3] = 0.0
        stack = np.stack([random_field(grid, 3), sparse, np.zeros(grid.size)])
        levels, drift, pert = np.array([4, 8, 16]), tanh_drift(1.0), perturbation_for(coeff.p)
        div = apply_divergence_form(grid, coeff, stack)
        jac = jacobian_A_n(grid, coeff, drift, pert, levels, stack)
        for member, n, div_b, jac_b in zip(stack, levels, div, jac):
            alone = apply_divergence_form(grid, coeff, member)
            assert np.array_equal(div_b.view(np.uint64), alone.view(np.uint64))
            alone = jacobian_A_n(grid, coeff, drift, pert, n, member)
            assert np.array_equal(jac_b.view(np.uint64), alone.view(np.uint64))


FLUXES = pytest.mark.parametrize(
    "coeff", [p_laplacian_coeff(2.5), p_laplacian_coeff(1.5), remark_flux_coeff(2.5),
              linear_coeff()], ids=["p2.5", "p1.5", "convective", "linear"])
SEAM_GRIDS = pytest.mark.parametrize("n_interior", [1, 2, 7, 32])


def lattice_fields(grid):
    """A random field, one with zeros scattered through it, and stacks of
    them along one and along two leading axes."""
    sparse = random_field(grid, 8)
    sparse[::3] = 0.0
    lone = random_field(grid, 7)
    stack = np.stack([lone, sparse, np.zeros(grid.size), -lone])
    return [lone, sparse, stack, stack.reshape(2, 2, -1)]


def assert_bitwise(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@FLUXES
@SEAM_GRIDS
def test_flat_lattice_operators_are_bitwise_the_2d_view_reference(coeff, n_interior):
    # the faces as contiguous runs of the padded lattice, seams and all, give
    # bitwise what the faces as 2d views of the zero extension gave, lone and
    # on stacks with one and two leading axes
    grid = Grid(2, n_interior)
    for u in lattice_fields(grid):
        assert_bitwise(apply_divergence_form(grid, coeff, u),
                       oracles.divergence_form(grid, coeff, u))
        for drift in (None, tanh_drift(1.0)):
            assert_bitwise(jacobian_A_n(grid, coeff, drift, None, None, u),
                           oracles.flux_band(grid, coeff, drift, u))
        for g, ref in zip(gradient_faces(grid, u), oracles.gradient_faces(grid, u)):
            assert_bitwise(g, ref)
        for p in (1.5, 2.5, 4.0):
            assert_bitwise(w1p_seminorm(grid, u, p), oracles.w1p_seminorm(grid, u, p))


@pytest.mark.parametrize("dimension, n_interior", [(1, 1), (1, 9), (2, 1), (2, 2), (2, 7)])
def test_a_flux_sees_the_coordinates_and_mean_of_every_real_face(dimension, n_interior):
    # a flux that reads x and lam is handed, for every real face, the face's
    # coordinates and the mean of its two nodes (other positions it is
    # handed are never read)
    grid = Grid(dimension, n_interior)
    u = random_field(grid, 9)
    seen = []

    def flux(x, lam, xi):
        seen.append({tuple(v) for v in np.column_stack(
            [np.broadcast_to(x, xi.shape).reshape(grid.dimension, -1).T, lam.ravel()])})
        return x[0] * lam + xi
    coeff = LerayLionsCoeff(a_eval=flux, p=2.0, c1=1.0)
    apply_divergence_form(grid, coeff, u)
    for axis, (x, lam, _) in enumerate(oracles.faces(grid, u)):
        real = np.column_stack([x.reshape(grid.dimension, -1).T, lam.ravel()])
        assert {tuple(v) for v in real} <= seen[axis]
    reads_x = LerayLionsCoeff(a_eval=lambda x, lam, xi: (1.0 + x[0] + 2.0 * x[-1]) * lam + xi,
                              p=2.0, c1=1.0)
    assert_bitwise(apply_divergence_form(grid, reads_x, u),
                   oracles.divergence_form(grid, reads_x, u))


@FLUXES
@SEAM_GRIDS
def test_seams_raise_no_floating_point_error(coeff, n_interior):
    # the seam positions of the 2d runs hold finite values: evaluating the
    # flux and its derivative there trips no floating-point flag
    grid = Grid(2, n_interior)
    pert = perturbation_for(coeff.p, m=1)
    with np.errstate(all="raise"):
        for u in lattice_fields(grid):
            apply_divergence_form(grid, coeff, u)
            jacobian_A_n(grid, coeff, tanh_drift(1.0), pert, 8, u)
            gradient_faces(grid, u)


# ----------------------------------------------------------- structure checks


def check_structure_conditions(coeff, dimension=1):
    """Monte Carlo check of monotonicity, coercivity, growth, and lam-continuity.

    Draws 4096 fixed samples of (x, lam, xi, eta, lam2) in the given
    dimension, with log-normal magnitude mixing so both the degenerate and
    the large-gradient regimes are probed, and reports the worst margin of
    each inequality of LerayLionsCoeff.  A margin passes when it stays above
    -(1e-6 * max(|ref|, 1) + 1e-9), ref being the inequality's leading term.

    Returns a flat dict: worst margins, pass flags, and an overall flag.
    """
    rng = np.random.Generator(np.random.Philox(key=[0, 0x5745]))
    d, k = dimension, 4096
    x = rng.uniform(0.0, 1.0, size=(k, d))
    scale = np.exp(rng.uniform(-8.0, 3.0, size=(k, 1)))
    xi = rng.standard_normal((k, d)) * scale
    eta = rng.standard_normal((k, d)) * np.exp(rng.uniform(-8.0, 3.0, size=(k, 1)))
    lam = rng.standard_normal(k) * np.exp(rng.uniform(-4.0, 2.0, k))
    lam2 = rng.standard_normal(k) * np.exp(rng.uniform(-4.0, 2.0, k))

    # the flux takes its component axis first; the margins read it last
    a_xi = coeff.a_eval(x.T, lam, xi.T).T
    a_eta = coeff.a_eval(x.T, lam, eta.T).T
    a_xi2 = coeff.a_eval(x.T, lam2, xi.T).T
    xi_mag = np.sqrt(np.sum(xi * xi, axis=-1))
    p = coeff.p

    mono = np.sum((a_xi - a_eta) * (xi - eta), axis=-1)
    coer = (np.sum(a_xi * xi, axis=-1)
            - (coeff.c1 * xi_mag ** p - coeff.c2 * np.abs(lam) ** coeff.nu))
    grow = ((coeff.c3 * xi_mag ** (p - 1.0) + coeff.c4 * np.abs(lam) ** (p - 1.0)
             + coeff.g)
            - np.sqrt(np.sum(a_xi * a_xi, axis=-1)))
    cont = ((coeff.c5 * xi_mag ** (p - 1.0) + coeff.h) * np.abs(lam - lam2)
            - np.sqrt(np.sum((a_xi - a_xi2) ** 2, axis=-1)))

    def margin_pass(margins, ref):
        tol = 1e-6 * np.maximum(np.abs(ref), 1.0) + 1e-9
        return float(np.min(margins)), bool(np.all(margins >= -tol))

    m_mono, p_mono = margin_pass(mono, np.sum(np.abs(a_xi - a_eta), axis=-1))
    m_coer, p_coer = margin_pass(coer, coeff.c1 * xi_mag ** p)
    m_grow, p_grow = margin_pass(grow, coeff.c3 * xi_mag ** (p - 1.0))
    m_cont, p_cont = margin_pass(cont, np.abs(lam - lam2))

    report = {
        "monotone_margin": m_mono, "monotone_pass": p_mono,
        "coercivity_margin": m_coer, "coercivity_pass": p_coer,
        "growth_margin": m_grow, "growth_pass": p_grow,
        "continuity_margin": m_cont, "continuity_pass": p_cont,
    }
    report["pass"] = bool(p_mono and p_coer and p_grow and p_cont)
    return report


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


def test_structure_conditions_read_a_user_flux_component_by_component_in_2d():
    # a lambda in the flux convention: the component axis leads, and x[0]
    # is the first coordinate of every sample.  a = ((1 + x_0) xi_0, 3 xi_1)
    # has a.xi >= |xi|^2 and |a| <= 3 |xi|, and no smaller growth constant
    coeff = LerayLionsCoeff(
        a_eval=lambda x, lam, xi: np.array([(1.0 + x[0]) * xi[0], 3.0 * xi[1]]),
        p=2.0, c1=1.0, c3=3.0)
    assert check_structure_conditions(coeff, dimension=2)["pass"]
    report = check_structure_conditions(replace(coeff, c3=2.0), dimension=2)
    assert not report["growth_pass"] and report["coercivity_pass"]


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
