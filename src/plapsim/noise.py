"""Multiplicative integral-operator noise and Q-Wiener increment sampling.

The diffusion coefficient sends a state v to the operator

    (B(t, v) phi)(x) = sigma(t, v(x)) * integral k(x, y) phi(y) dy,

discretized with one quadrature weight h^d per interior node and applied
by apply_B(kernel, sigma, t, v, phi); evolution.System holds the pair.

Wiener increments come from a truncated Karhunen-Loeve expansion whose
normals are a pure function of (seed, path_index, step, node): the
increment over step k and the Brownian bridge points that bisect it read
disjoint regions of the Philox counter space, so a path is the same
whatever is drawn, in whatever order.

On the unit square the Gaussian kernel is a product of 1d kernels and the
sine modes are products of 1d modes, so both are applied one axis at a
time with an (n, n) matrix; no (size, size) table is built for them.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .spatial import Grid, GridMismatchError

__all__ = [
    "Kernel",
    "kernel_from_matrix",
    "gaussian_kernel",
    "rank_one_kernel",
    "kernel_from_csv",
    "apply_B",
    "QWienerSampler",
    "default_sampler",
]


def _along_axes(mat, x, axes):
    """Apply the 1d matrix ``mat`` along each of the last ``axes`` axes of x.

    x stacks flat functions on a tensor grid with mat.shape[1] nodes per
    axis, row-major; the result has mat.shape[0] nodes per axis.  In 2d
    this is mat X mat^T, never a (size, size) matrix.  Each function of
    the stack takes its own products, so its result does not depend on
    the others (one stacked product over all of them would round
    differently).
    """
    (k, m), lead = mat.shape, x.shape[:-1]
    if axes == 1:
        return np.matmul(x[..., None, :], mat.T)[..., 0, :]
    return (mat @ x.reshape(lead + (m, m)) @ mat.T).reshape(lead + (k * k,))


@dataclass(frozen=True)
class Kernel:
    """Symmetric square-integrable kernel on the grid, kept as a factor.

    A (size, size) factor holds the kernel's values at the node pairs; an
    (n, n) factor f on a 2d grid stands for the separable kernel
    k(x, y) = scale * f(x_1, y_1) * f(x_2, y_2), applied axis by axis.
    """

    grid: Grid
    factor: np.ndarray
    scale: float = 1.0

    @property
    def _axes(self):
        return 1 if self.factor.shape[0] == self.grid.size else self.grid.dimension

    def apply(self, phi):
        """Quadrature sum_y k(x, y) phi(y) h^d of each flat grid function in phi."""
        return _along_axes(self.factor, phi, self._axes) * (self.scale * self.grid.weight)


def kernel_from_matrix(grid, values):
    """Kernel from its (size, size) node values, symmetric to 1e-9 relative."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.size, grid.size):
        raise GridMismatchError(
            f"kernel matrix must be {(grid.size, grid.size)}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("kernel matrix contains non-finite values")
    asym = np.max(np.abs(values - values.T))
    scale = max(1.0, np.max(np.abs(values)))
    if asym > 1e-9 * scale:
        raise ValueError(f"kernel matrix is not symmetric (defect {asym:g})")
    return Kernel(grid=grid, factor=values)


def gaussian_kernel(grid, ell=0.25, scale=1.0):
    """k(x, y) = scale * exp(-|x-y|^2 / (2 ell^2)), kept as its 1d factor."""
    x = grid.h * np.arange(1, grid.n_interior + 1)
    factor = np.exp(-(x[:, None] - x[None, :]) ** 2 / (2.0 * ell ** 2))
    if grid.dimension == 1:   # the factor is the whole kernel
        return Kernel(grid=grid, factor=scale * factor)
    return Kernel(grid=grid, factor=factor, scale=float(scale))


def rank_one_kernel(grid, profile):
    """k(x, y) = phi(x) phi(y) for a grid function phi."""
    phi = grid.check(profile)
    return kernel_from_matrix(grid, np.outer(phi, phi))


def kernel_from_csv(path):
    """Kernel from a CSV file of its node values.

    The first row is the header ``n,<n_interior>,d,<dimension>``; then come
    size = n_interior**dimension rows of size comma-separated values, row i
    holding k(x_i, x_j) for the flat (row-major) node order j.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 4 or header[0] != "n" or header[2] != "d":
            raise ValueError(f"malformed kernel header in {path}: {header}")
        grid = Grid(dimension=int(header[3]), n_interior=int(header[1]))
        with warnings.catch_warnings():   # no rows fail kernel_from_matrix's size check
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(fh, delimiter=",", ndmin=2)
    return kernel_from_matrix(grid, values)


def apply_B(kernel, sigma, t, v, phi):
    """B(t, v) applied to phi: sigma(t, v) times the kernel quadrature of phi.

    sigma is the scalar coefficient, regularized or raw.  v and phi may be
    stacks, state v[b] taking row b of phi; each row's quadrature is its
    own (Kernel.apply), so its result does not depend on the stack.
    """
    grid = kernel.grid
    v, phi = grid.check(v), grid.check(phi)
    return np.asarray(sigma(t, v), dtype=float) * kernel.apply(phi)


def _sine_modes(grid):
    """The n discrete sine modes of one axis, orthonormal for the weight h."""
    i = np.arange(1, grid.n_interior + 1)
    return np.sqrt(2.0) * np.sin(np.pi * np.outer(i, i) * grid.h)


# One Philox for every draw, its whole state (key, counter and buffered
# output) set before each one, so that a draw stays a pure function of its
# arguments; a Philox built per draw would first seed itself from OS entropy.
# Draws must not run concurrently in threads of one process (plapsim runs
# paths in worker processes).
_PHILOX = np.random.Philox(0)
_GENERATOR = np.random.Generator(_PHILOX)


def _normals(seed, path_index, step, node, size):
    # (step, node) fill the two high counter words, so each call owns a
    # disjoint 2^128-block region of the Philox counter space; node 0 is the
    # step's increment and node >= 1 a bridge point.  Every word is built as
    # an exact uint64, so each seed below 2^64 is its own key.
    key = np.array([int(seed), int(path_index)], dtype=np.uint64)
    counter = np.array([0, 0, int(step), int(node)], dtype=np.uint64)
    _PHILOX.state = {
        "bit_generator": "Philox", "state": {"counter": counter, "key": key},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return _GENERATOR.standard_normal(size)


@dataclass
class QWienerSampler:
    """Truncated Karhunen-Loeve sampler for Q-Wiener increments.

    Increment = sum_j sqrt(q_j dt) xi_j e_j with iid standard normal xi.
    ``eigenfunctions`` is a 1d mode table of shape (m, n); the modes e_j
    on the d-dimensional grid are its d-fold tensor products, flattened
    row-major (in 2d mode k * m + l is the product of rows k and l), so
    there can be up to m**d of them.  The sampler holds no cursor: the
    increment of step k and the bridge point at heap node j of step k are
    pure functions of (seed, path_index, k, j), so two runs on the same
    (seed, path_index) share one Wiener path whatever each of them bisects,
    and adding paths or reordering their execution perturbs no draw.
    """

    grid: Grid
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    seed: int
    path_index: int

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.eigenfunctions = np.asarray(self.eigenfunctions, dtype=float)
        j, d, n = self.eigenvalues.size, self.grid.dimension, self.grid.n_interior
        table = self.eigenfunctions
        if table.ndim != 2 or table.shape[1] != n or j > table.shape[0] ** d:
            raise GridMismatchError(
                f"eigenfunctions must be a 1d mode table (m, {n}) with "
                f"m**{d} >= {j}, got {table.shape}")
        if j < 1 or np.any(self.eigenvalues <= 0.0):
            raise ValueError("eigenvalues must be positive")
        # the Gram matrix of the products is G1 (x) ... (x) G1, so an entrywise
        # defect delta of the 1d Gram matrix G1 bounds theirs by (1+delta)^d - 1
        gram = (table @ table.T) * self.grid.h
        delta = np.max(np.abs(gram - np.eye(table.shape[0])))
        defect = (1.0 + delta) ** d - 1.0
        if defect > 1e-10:
            raise ValueError(
                f"eigenfunctions not orthonormal (defect {defect:g} exceeds 1e-10)")

    def _draw(self, k, node, dt):
        """sum_j sqrt(q_j dt) xi_j e_j for the normals xi of (k, node)."""
        xi = _normals(self.seed, self.path_index, k, node, self.eigenvalues.size)
        d, m = self.grid.dimension, self.eigenfunctions.shape[0]
        coeffs = np.zeros(m ** d)
        coeffs[:xi.size] = np.sqrt(self.eigenvalues * dt) * xi
        return _along_axes(self.eigenfunctions.T, coeffs, d)

    def sample_increment(self, k, dt):
        """The Q-Wiener increment over step k, of length dt >= 0."""
        if dt < 0.0:
            raise ValueError(f"dt must be nonnegative, got {dt}")
        return self._draw(k, 0, dt)

    def sample_bridge(self, k, node, dt, dw):
        """Split the increment dw over a sub-interval of length dt of step k
        into two conditionally correct halves (Brownian bridge midpoint).

        node >= 1 is the sub-interval's heap index: the whole step is 1 and
        the halves of node j are 2j and 2j + 1.
        """
        if node < 1:
            raise ValueError(f"bridge nodes start at 1, got {node}")
        half = 0.5 * dw + 0.5 * self._draw(k, node, dt)
        return half, dw - half


def default_sampler(grid, seed, path_index, num_modes=0, decay=2.0):
    """Sine eigenfunctions with spectrum q_j = j**(-decay), j = 1..num_modes.

    The modes are the discrete sine modes of one axis in 1d, and their
    products in 2d, in QWienerSampler's row-major order.  num_modes = 0,
    as noise.modes = 0 in a config, takes every mode of the grid.
    """
    num_modes = num_modes or grid.size
    if not 1 <= num_modes <= grid.size:
        raise ValueError(f"num_modes must lie in [1, {grid.size}]")
    table = _sine_modes(grid)
    if grid.dimension == 1:
        table = table[:num_modes]
    eigenvalues = np.arange(1, num_modes + 1, dtype=float) ** (-decay)
    return QWienerSampler(grid=grid, eigenvalues=eigenvalues,
                          eigenfunctions=table, seed=seed, path_index=path_index)
