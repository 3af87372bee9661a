"""Oracle and property tests for the diffusion operator and the Q-Wiener sampler."""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plapsim.noise import (
    NoiseOperator,
    QWienerSampler,
    apply_B,
    b_lipschitz_constant,
    default_sampler,
    gaussian_kernel,
    holder_modulus_check,
    hs_norm_sq,
    hs_uniform_bound,
    kernel_from_csv,
    kernel_from_matrix,
    rank_one_kernel,
)
from plapsim.noise import _normals
from plapsim.regularize import RegularizedSigma, power_sigma
from plapsim.spatial import Grid, norm_l2

from oracles import hs_norm_sq_parseval, sine_basis


def random_field(grid, seed=0):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x7E57]))
    return rng.standard_normal(grid.size)


def indicator_basis(grid):
    """Second complete orthonormal family: scaled nodal indicators."""
    return np.eye(grid.size) / np.sqrt(grid.weight)


def kernel_values(kernel):
    """Dense (size, size) values, built from a separable factor."""
    if kernel.factor.shape[0] == kernel.grid.size:
        return kernel.scale * kernel.factor
    return kernel.scale * np.kron(kernel.factor, kernel.factor)


def kernel_to_csv(kernel, path):
    """The layout kernel_from_csv reads: header row n,<n>,d,<d>, then the
    dense values row by row."""
    with open(path, "w") as fh:
        fh.write(f"n,{kernel.grid.n_interior},d,{kernel.grid.dimension}\n")
        for row in kernel_values(kernel):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# --------------------------------------------------------------------- kernels


def test_gaussian_kernel_shape_and_constants():
    grid = Grid(1, 16)
    ker = gaussian_kernel(grid, ell=0.25, scale=2.0)
    assert kernel_values(ker).shape == (16, 16)
    assert np.allclose(kernel_values(ker), kernel_values(ker).T)
    assert np.isclose(np.max(kernel_values(ker)), 2.0)
    assert np.isclose(ker.c_k, np.max(ker.row_norms_sq()), rtol=1e-12)
    assert np.isclose(ker.l2_norm_sq,
                      np.sum(kernel_values(ker) ** 2) * grid.weight ** 2, rtol=1e-12)


def test_kernel_from_matrix_rejects_asymmetry_and_nonfinite():
    grid = Grid(1, 5)
    vals = np.arange(25.0).reshape(5, 5)
    with pytest.raises(ValueError):
        kernel_from_matrix(grid, vals)
    bad = np.ones((5, 5))
    bad[2, 2] = np.nan
    with pytest.raises(ValueError):
        kernel_from_matrix(grid, bad)
    with pytest.raises(Exception):
        kernel_from_matrix(grid, np.ones((4, 4)))


def test_rank_one_kernel_row_structure():
    grid = Grid(1, 8)
    profile = np.sin(np.pi * grid.nodes()[:, 0])
    ker = rank_one_kernel(grid, profile)
    assert np.allclose(kernel_values(ker), np.outer(profile, profile))


def test_kernel_csv_round_trip(tmp_path):
    grid = Grid(1, 7)
    ker = gaussian_kernel(grid, ell=0.3, scale=0.7)
    path = tmp_path / "kernel.csv"
    kernel_to_csv(ker, path)
    back = kernel_from_csv(path)
    assert back.grid == ker.grid
    assert np.array_equal(kernel_values(back), kernel_values(ker))
    assert back.c_k == ker.c_k


def dense_gaussian(grid, ell, scale):
    """The Gaussian kernel from its (size, size) values at the node pairs."""
    x = grid.nodes()
    d_sq = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
    return kernel_from_matrix(grid, scale * np.exp(-d_sq / (2.0 * ell ** 2)))


def test_gaussian_operator_matches_dense_kernel():
    spec = power_sigma(0.75, 1.0)
    for grid in (Grid(1, 13), Grid(2, 9)):
        ker = gaussian_kernel(grid, ell=0.3, scale=0.7)
        ref = dense_gaussian(grid, 0.3, 0.7)
        assert np.allclose(kernel_values(ker), kernel_values(ref), rtol=1e-13, atol=0.0)
        assert np.allclose(ker.row_norms_sq(), ref.row_norms_sq(), rtol=1e-13, atol=0.0)
        assert np.isclose(ker.c_k, ref.c_k, rtol=1e-13, atol=0.0)
        assert np.isclose(ker.l2_norm_sq, ref.l2_norm_sq, rtol=1e-13, atol=0.0)
        op, op_ref = NoiseOperator(ker, spec.eval), NoiseOperator(ref, spec.eval)
        for seed in range(3):
            v, phi = random_field(grid, seed), random_field(grid, 10 + seed)
            assert np.allclose(apply_B(op, 0.0, v, phi), apply_B(op_ref, 0.0, v, phi),
                               rtol=1e-13, atol=0.0)
            assert np.isclose(hs_norm_sq(op, 0.0, v), hs_norm_sq(op_ref, 0.0, v),
                              rtol=1e-13, atol=0.0)


def test_gaussian_kernel_2d_csv_round_trip(tmp_path):
    grid = Grid(2, 5)
    ker = gaussian_kernel(grid, ell=0.3, scale=0.7)
    path = tmp_path / "kernel.csv"
    kernel_to_csv(ker, path)
    back = kernel_from_csv(path)
    assert back.grid == grid
    assert np.array_equal(kernel_values(back), kernel_values(ker))
    phi = random_field(grid, 1)
    assert np.allclose(back.apply(phi), ker.apply(phi), rtol=1e-13, atol=0.0)
    assert np.isclose(back.c_k, ker.c_k, rtol=1e-13, atol=0.0)
    assert np.isclose(back.l2_norm_sq, ker.l2_norm_sq, rtol=1e-13, atol=0.0)


def test_gaussian_kernel_keeps_no_dense_table():
    assert len(pickle.dumps(gaussian_kernel(Grid(2, 64)))) < 1_000_000


# ------------------------------------------------------------- HS norm oracles


def test_parseval_identity_on_two_bases():
    grid = Grid(1, 24)
    spec = power_sigma(0.75, 1.0)
    op = NoiseOperator(gaussian_kernel(grid), spec.eval)
    for seed in range(5):
        v = random_field(grid, seed)
        closed = hs_norm_sq(op, 0.0, v)
        via_sine = hs_norm_sq_parseval(op, 0.0, v)
        via_nodal = hs_norm_sq_parseval(op, 0.0, v, basis=indicator_basis(grid))
        assert np.isclose(closed, via_sine, rtol=1e-10)
        assert np.isclose(closed, via_nodal, rtol=1e-10)


def test_parseval_identity_2d():
    grid = Grid(2, 5)
    op = NoiseOperator(gaussian_kernel(grid, ell=0.4),
                       power_sigma(0.5, 1.0).eval)
    v = random_field(grid, 9)
    assert np.isclose(hs_norm_sq(op, 0.0, v),
                      hs_norm_sq_parseval(op, 0.0, v), rtol=1e-10)


def test_sine_basis_is_orthonormal():
    for grid in (Grid(1, 16), Grid(2, 4)):
        basis = sine_basis(grid)
        gram = basis @ basis.T * grid.weight
        assert np.allclose(gram, np.eye(grid.size), atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
def test_apply_B_linear_in_test_function(c1, c2):
    grid = Grid(1, 9)
    op = NoiseOperator(gaussian_kernel(grid), power_sigma(0.5, 1.0).eval)
    v = random_field(grid, 2)
    phi, psi = random_field(grid, 3), random_field(grid, 4)
    left = apply_B(op, 0.0, v, c1 * phi + c2 * psi)
    right = c1 * apply_B(op, 0.0, v, phi) + c2 * apply_B(op, 0.0, v, psi)
    assert np.allclose(left, right, rtol=1e-9, atol=1e-12)


def test_hs_uniform_bound_dominates_all_levels():
    grid = Grid(1, 20)
    spec = power_sigma(0.75, 1.0)
    ker = gaussian_kernel(grid)
    for seed in range(4):
        v = 3.0 * random_field(grid, seed)
        bound = hs_uniform_bound(ker, spec, v)
        for n in (1, 2, 8, 64):
            op = NoiseOperator(ker, RegularizedSigma(spec, n))
            assert hs_norm_sq(op, 0.0, v) <= bound * (1 + 1e-9)
        raw = NoiseOperator(ker, spec.eval)
        assert hs_norm_sq(raw, 0.0, v) <= bound * (1 + 1e-9)


def test_b_lipschitz_constant_bounds_hs_differences():
    grid = Grid(1, 18)
    spec = power_sigma(0.5, 1.0)
    ker = gaussian_kernel(grid)
    for n in (2, 4, 16):
        op = NoiseOperator(ker, RegularizedSigma(spec, n))
        lip = b_lipschitz_constant(ker, n)
        for seed in range(4):
            v, w = random_field(grid, seed), random_field(grid, 50 + seed)
            gap_sq = float(np.sum(
                (np.asarray(op.sigma(0.0, v)) - np.asarray(op.sigma(0.0, w))) ** 2
                * ker.row_norms_sq()) * grid.weight)
            assert np.sqrt(gap_sq) <= lip * norm_l2(grid, v - w) * (1 + 1e-6)


def test_holder_modulus_check_passes_for_prototype():
    grid = Grid(1, 32)
    ker = gaussian_kernel(grid)
    for alpha in (0.5, 0.75):
        spec = power_sigma(alpha, 1.0)
        for seed in range(6):
            v, w = random_field(grid, seed), random_field(grid, 100 + seed)
            report = holder_modulus_check(ker, spec, v, w)
            assert report["pass"], report


def test_holder_modulus_check_detects_violations():
    # a coefficient steeper than its declared modulus must be flagged
    grid = Grid(1, 16)
    ker = gaussian_kernel(grid)
    lying = power_sigma(0.5, 1.0)
    steep = type(lying)(eval=lambda t, lam: 10.0 * np.abs(lam) ** 0.5,
                        alpha=lying.alpha, l_alpha=lying.l_alpha,
                        c_sigma=lying.c_sigma)
    v = 4.0 + random_field(grid, 1)
    w = v + 0.5
    report = holder_modulus_check(ker, steep, v, w)
    assert not report["pass"]


# ---------------------------------------------------------------- the sampler


def test_sampler_is_deterministic_and_restorable():
    grid = Grid(1, 12)
    s1 = default_sampler(grid, seed=42, path_index=3)
    s2 = default_sampler(grid, seed=42, path_index=3)
    draws1 = [s1.sample_increment(k, 0.01) for k in range(5)]
    draws2 = [s2.sample_increment(k, 0.01) for k in range(5)]
    for a, b in zip(draws1, draws2):
        assert np.array_equal(a, b)
    assert not np.array_equal(draws1[0], draws1[1])

    # O(1) restore: a fresh sampler asked for step 3 alone, in any order
    s3 = default_sampler(grid, seed=42, path_index=3)
    assert np.array_equal(s3.sample_increment(3, 0.01), draws1[3])
    assert np.array_equal(s3.sample_increment(0, 0.01), draws1[0])
    assert np.array_equal(s1.sample_increment(3, 0.01), draws1[3])


def test_sampler_paths_are_distinct_and_count_independent():
    grid = Grid(1, 12)
    a = default_sampler(grid, seed=7, path_index=0).sample_increment(0, 0.01)
    b = default_sampler(grid, seed=7, path_index=1).sample_increment(0, 0.01)
    assert not np.array_equal(a, b)
    # drawing path 0 again after path 1 exists changes nothing
    again = default_sampler(grid, seed=7, path_index=0).sample_increment(0, 0.01)
    assert np.array_equal(a, again)


def test_seeds_at_or_above_two_to_the_63_give_distinct_paths():
    grid = Grid(1, 4)
    draw = lambda seed: default_sampler(grid, seed, 2).sample_increment(5, 1e-2)
    assert not np.array_equal(draw(2 ** 63 + 1), draw(2 ** 63 + 1000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = draw(2 ** 64 - 1)
    assert not np.array_equal(top, draw(0))


def test_seeds_below_two_to_the_63_keep_their_stream():
    # drawn when the Philox key still went through np.asarray(...).astype
    grid = Grid(1, 4)
    expect = {
        2711: [-0.08337909526448789, 0.04512249733424529,
               -0.08533696120712915, -0.15887535409605733],
        2 ** 63 - 1: [0.017009841636232006, 0.04571720586330626,
                      0.07086110674302716, 0.12370309433828709],
    }
    for seed, values in expect.items():
        got = default_sampler(grid, seed, 2).sample_increment(5, 1e-2)
        assert got.tolist() == values


def test_sampler_zero_dt_and_negative_dt():
    grid = Grid(1, 8)
    s = default_sampler(grid, seed=1, path_index=0)
    assert np.allclose(s.sample_increment(0, 0.0), 0.0)
    with pytest.raises(ValueError):
        s.sample_increment(0, -0.1)


def test_sampler_rejects_non_orthonormal_modes():
    grid = Grid(1, 8)
    funcs = np.ones((2, 8))
    with pytest.raises(ValueError):
        QWienerSampler(grid=grid, eigenvalues=np.array([1.0, 0.25]),
                       eigenfunctions=funcs, seed=0, path_index=0)
    with pytest.raises(ValueError):
        QWienerSampler(grid=grid, eigenvalues=np.array([1.0, -0.5]),
                       eigenfunctions=sine_basis(grid)[:2], seed=0, path_index=0)


def test_sampler_rejects_non_orthonormal_table_in_2d():
    grid = Grid(2, 6)
    table = sine_basis(Grid(1, 6)).copy()
    table[2] *= 1.0 + 1e-6
    with pytest.raises(ValueError):
        QWienerSampler(grid=grid, eigenvalues=np.ones(36), eigenfunctions=table,
                       seed=0, path_index=0)
    # a 1d table with too few modes for the requested count is refused
    with pytest.raises(ValueError):
        QWienerSampler(grid=grid, eigenvalues=np.ones(10),
                       eigenfunctions=sine_basis(Grid(1, 6))[:3], seed=0, path_index=0)


def test_default_sampler_matches_dense_synthesis():
    dt, seed, path = 0.01, 4, 2
    for grid in (Grid(1, 10), Grid(2, 8)):
        basis = sine_basis(grid)
        for modes in (grid.size, 5, min(11, grid.size - 1)):
            sampler = default_sampler(grid, seed, path, num_modes=modes)
            root_q = np.sqrt(np.arange(1, modes + 1) ** -2.0 * dt)
            dense = lambda node: ((root_q * _normals(seed, path, 3, node, modes))
                                  @ basis[:modes])
            dw = sampler.sample_increment(3, dt)
            assert np.allclose(dw, dense(0), rtol=1e-13, atol=1e-15)
            first, second = sampler.sample_bridge(3, 1, dt, dw)
            assert np.allclose(first, 0.5 * dw + 0.5 * dense(1), rtol=1e-13, atol=1e-15)
            assert np.allclose(first + second, dw, rtol=1e-13, atol=1e-15)


def test_increment_variance_matches_trace():
    # E ||dW||_2^2 = dt * trace(Q) for the weighted norm
    grid = Grid(1, 16)
    sampler = default_sampler(grid, seed=5, path_index=0, num_modes=8)
    dt = 0.02
    draws = np.array([norm_l2(grid, sampler.sample_increment(k, dt)) ** 2
                      for k in range(4000)])
    expect = dt * sampler.trace
    se = np.std(draws, ddof=1) / np.sqrt(draws.size)
    assert abs(np.mean(draws) - expect) <= 5.0 * se


def test_bridge_is_consistent_and_marginally_correct():
    grid = Grid(1, 8)
    sampler = default_sampler(grid, seed=9, path_index=0, num_modes=1)
    dt = 0.05
    halves = []
    for k in range(4000):
        dw = sampler.sample_increment(k, dt)
        first, second = sampler.sample_bridge(k, 1, dt, dw)
        assert np.allclose(first + second, dw, rtol=1e-12, atol=1e-15)
        halves.append(norm_l2(grid, first) ** 2)
    halves = np.asarray(halves)
    expect = 0.5 * dt * sampler.trace
    se = np.std(halves, ddof=1) / np.sqrt(halves.size)
    assert abs(np.mean(halves) - expect) <= 5.0 * se


@pytest.mark.parametrize("grid", [Grid(1, 10), Grid(2, 6)], ids=["1d", "2d"])
def test_bridge_points_are_pure_functions_of_step_and_node(grid):
    dt, k = 0.01, 4
    sampler = default_sampler(grid, seed=13, path_index=1)
    fresh = default_sampler(grid, seed=13, path_index=1)
    dw = fresh.sample_increment(k, dt)
    halves = {}
    for node in (1, 2, 3, 6):
        first, second = sampler.sample_bridge(k, node, dt, dw)
        assert np.allclose(first + second, dw, rtol=1e-14, atol=1e-15)
        again = fresh.sample_bridge(k, node, dt, dw)
        assert np.array_equal(first, again[0]) and np.array_equal(second, again[1])
        halves[node] = first
    # distinct nodes, and the same node of another step, draw afresh
    assert not np.array_equal(halves[1], halves[2])
    assert not np.array_equal(halves[2], halves[3])
    assert not np.array_equal(halves[1], sampler.sample_bridge(k + 1, 1, dt, dw)[0])
    # bridges drawn first leave the increments untouched
    assert np.array_equal(sampler.sample_increment(k, dt), dw)
    assert np.array_equal(sampler.sample_increment(k + 1, dt),
                          default_sampler(grid, 13, 1).sample_increment(k + 1, dt))
    with pytest.raises(ValueError):
        sampler.sample_bridge(k, 0, dt, dw)


def test_default_sampler_mode_count_guard():
    grid = Grid(1, 8)
    with pytest.raises(ValueError):
        default_sampler(grid, seed=0, path_index=0, num_modes=9)
    s = default_sampler(grid, seed=0, path_index=0, num_modes=8)
    assert s.eigenvalues.size == 8
