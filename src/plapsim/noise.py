"""Multiplicative integral-operator noise and Q-Wiener increment sampling.

The diffusion coefficient sends a state v to the operator

    (B(t, v) phi)(x) = sigma(t, v(x)) * integral k(x, y) phi(y) dy,

discretized with one quadrature weight h^d per interior node.  Its
Hilbert-Schmidt norm has the closed form sum_i sigma(t, v_i)^2 *
||k(x_i, .)||_2^2 * h^d.  Wiener increments come from a truncated
Karhunen-Loeve expansion whose normals are a pure function of (seed,
path_index, step, node): the increment over step k and the Brownian bridge
points that bisect it read disjoint regions of the Philox counter space, so
a path is the same whatever is drawn, in whatever order.

On the unit square the Gaussian kernel is a product of 1d kernels and the
sine modes are products of 1d modes, so both are applied one axis at a
time with an (n, n) matrix; no (size, size) table is built for them.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .spatial import Grid, GridMismatchError, norm_l2

__all__ = [
    "Kernel",
    "kernel_from_matrix",
    "gaussian_kernel",
    "rank_one_kernel",
    "kernel_from_csv",
    "NoiseOperator",
    "apply_B",
    "hs_norm_sq",
    "hs_uniform_bound",
    "b_lipschitz_constant",
    "holder_modulus_check",
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
    c_k is the discrete essential sup over x of ||k(x, .)||_2^2 (the max
    weighted row norm) and l2_norm_sq the discrete ||k||^2 over D x D.
    """

    grid: Grid
    factor: np.ndarray
    scale: float = 1.0
    c_k: float = field(init=False)
    l2_norm_sq: float = field(init=False)

    def __post_init__(self):
        rows = self.row_norms_sq()
        object.__setattr__(self, "c_k", float(np.max(rows)))
        object.__setattr__(self, "l2_norm_sq", float(np.sum(rows) * self.grid.weight))

    @property
    def _axes(self):
        return 1 if self.factor.shape[0] == self.grid.size else self.grid.dimension

    def apply(self, phi):
        """Quadrature sum_y k(x, y) phi(y) h^d of each flat grid function in phi."""
        return _along_axes(self.factor, phi, self._axes) * (self.scale * self.grid.weight)

    def row_norms_sq(self):
        w = self.grid.weight if self._axes == 1 else self.grid.h
        rows = np.sum(self.factor ** 2, axis=1) * w
        if self._axes == 2:
            rows = np.outer(rows, rows).ravel()
        return self.scale ** 2 * rows


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
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    return kernel_from_matrix(grid, values)


@dataclass(frozen=True)
class NoiseOperator:
    """Kernel plus the (regularized or raw) scalar coefficient."""

    kernel: Kernel
    sigma: object

    @property
    def grid(self):
        return self.kernel.grid

    def take(self, members):
        """The operator of the members (indices, or one index) of a stack
        whose coefficient holds a level per member; any other operator
        serves every member as it is."""
        take = getattr(self.sigma, "take", None)
        return self if take is None else replace(self, sigma=take(members))


def apply_B(op, t, v, phi, rows=None):
    """B(t, v) applied to phi: sigma(t, v) times the kernel quadrature of phi.

    v and phi may be stacks.  With rows, state v[b] takes row rows[b] of
    phi, so that states driven by one Wiener increment share its quadrature.
    """
    grid = op.grid
    v, phi = grid.check(v), grid.check(phi)
    quadrature = op.kernel.apply(phi)
    if rows is not None:
        quadrature = quadrature[rows]
    return np.asarray(op.sigma(t, v), dtype=float) * quadrature


def hs_norm_sq(op, t, v):
    """Closed-form squared Hilbert-Schmidt norm of B(t, v)."""
    grid = op.grid
    v = grid.check(v)
    sig = np.asarray(op.sigma(t, v), dtype=float)
    return float(np.sum(sig ** 2 * op.kernel.row_norms_sq()) * grid.weight)


def _sine_modes(grid):
    """The n discrete sine modes of one axis, orthonormal for the weight h."""
    i = np.arange(1, grid.n_interior + 1)
    return np.sqrt(2.0) * np.sin(np.pi * np.outer(i, i) * grid.h)


def hs_uniform_bound(kernel, spec, v):
    """Right side of the state-dependent HS bound for the regularized operator.

    2 * ((c_alpha^2 + c_sigma) ||k||^2 + c_sigma c_k ||v||_2^2), valid
    uniformly over the regularization level.
    """
    from .regularize import c_alpha

    ca = c_alpha(spec.alpha, spec.l_alpha) if spec.alpha < 1.0 else 0.0
    v2 = norm_l2(kernel.grid, v) ** 2
    return 2.0 * ((ca ** 2 + spec.c_sigma) * kernel.l2_norm_sq
                  + spec.c_sigma * kernel.c_k * v2)


def b_lipschitz_constant(kernel, n):
    """Lipschitz constant sqrt(c_k) * n of the level-n diffusion operator."""
    return float(np.sqrt(kernel.c_k) * n)


def holder_modulus_check(kernel, spec, v, w, t=0.0):
    """Check the Holder modulus of the raw diffusion operator.

    lhs = ||B(t,v) - B(t,w)||_HS^2 must stay below
    c_k * l_alpha^2 * ||v-w||_{2 alpha}^{2 alpha} and, one power-mean step
    further, below c_k * l_alpha^2 * |D_h|^(1-alpha) * ||v-w||_2^(2 alpha).
    Both inequalities are exact discretely, so each passes within
    1e-6 * |bound| + 1e-9; the report carries the measured values and pass
    flags.
    """
    grid = kernel.grid
    v, w = grid.check(v), grid.check(w)
    dsig = np.asarray(spec.eval(t, v), dtype=float) - np.asarray(spec.eval(t, w),
                                                                 dtype=float)
    lhs = float(np.sum(dsig ** 2 * kernel.row_norms_sq()) * grid.weight)
    alpha, l_alpha = spec.alpha, spec.l_alpha
    diff = v - w
    frac_norm = float(np.sum(np.abs(diff) ** (2.0 * alpha)) * grid.weight)
    bound = kernel.c_k * l_alpha ** 2 * frac_norm
    bound_embedded = (kernel.c_k * l_alpha ** 2
                      * grid.measure ** (1.0 - alpha)
                      * norm_l2(grid, diff) ** (2.0 * alpha))
    tol = lambda b: 1e-6 * abs(b) + 1e-9
    report = {
        "lhs": lhs,
        "bound": bound,
        "bound_embedded": bound_embedded,
        "modulus_pass": bool(lhs <= bound + tol(bound)),
        "embedded_pass": bool(lhs <= bound_embedded + tol(bound_embedded)),
    }
    report["pass"] = bool(report["modulus_pass"] and report["embedded_pass"])
    return report


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

    @property
    def trace(self):
        return float(np.sum(self.eigenvalues))

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


def default_sampler(grid, seed, path_index, num_modes=None, decay=2.0):
    """Sine eigenfunctions with spectrum q_j = j**(-decay), j = 1..num_modes.

    The modes are the discrete sine modes of one axis in 1d, and their
    products in 2d, in QWienerSampler's row-major order.
    """
    if num_modes is None:
        num_modes = grid.size
    if not 1 <= num_modes <= grid.size:
        raise ValueError(f"num_modes must lie in [1, {grid.size}]")
    table = _sine_modes(grid)
    if grid.dimension == 1:
        table = table[:num_modes]
    eigenvalues = np.arange(1, num_modes + 1, dtype=float) ** (-decay)
    return QWienerSampler(grid=grid, eigenvalues=eigenvalues,
                          eigenfunctions=table, seed=seed, path_index=path_index)
