"""Independent reference routes shared by more than one test module."""

import numpy as np


def laplacian_min_eigenvalue(grid):
    """Smallest eigenvalue of the discrete Dirichlet Laplacian, d*(4/h^2)*sin^2(pi h/2)."""
    h = grid.h
    return grid.dimension * (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2


def sine_basis(grid):
    """Complete discrete orthonormal basis of products of sine modes, (size, size).

    Row k * n + l of the 2d basis is the product of modes k and l.
    """
    i = np.arange(1, grid.n_interior + 1)
    modes = np.sqrt(2.0) * np.sin(np.pi * np.outer(i, i) * grid.h)
    return modes if grid.dimension == 1 else np.kron(modes, modes)


def hs_norm_sq_parseval(op, t, v, basis=None):
    """Squared Hilbert-Schmidt norm of B(t, v) as the sum of ||B(t, v) e||_2^2
    over a complete orthonormal basis (the sine basis by default)."""
    grid = op.grid
    basis = sine_basis(grid) if basis is None else np.asarray(basis, dtype=float)
    assert basis.shape == (grid.size, grid.size), basis.shape
    sig = np.asarray(op.sigma(t, grid.check(v)), dtype=float)
    return float(np.sum((sig * op.kernel.apply(basis)) ** 2) * grid.weight)
