"""Uniform Dirichlet grids on the unit box and the discrete spatial operators.

Grid functions are flat float arrays over the interior nodes of a uniform
grid on (0,1)^d (d = 1 or 2), extended by zero outside.  The divergence-form
operator evaluates its flux on the faces normal to each axis, set up alike
in 1d and 2d, so that summation by parts against the discrete gradient is
exact, and the higher-order form realizes every multi-index derivative up
to order m by iterated forward differences.  The drift operator's Jacobian
is exact, from the derivative methods every flux and drift carries: in
1d and 2d alike it is the grid's stencil band, each node's couplings to
the nodes of its box, assembled from each face's stencil weights and each
multi-index's small products.

The faces are worked on the padded lattice: a state zero-extended once
into a flat, row-major array of W^d values, W = n + 2, where the neighbour
along axis k is a fixed offset s_k (1 in 1d; W and 1 in 2d).  A face normal
to axis k sits at its low node, and the faces of all nodes form one
contiguous run of positions, so each face quantity, and each node's
difference of the flux across its two faces, is one slice expression.  In
2d a run wraps from row to row through a few seam positions, whose values
are computed and never read; 1d has no seams.

The operators, the Jacobian and the L2 and W^{1,p} norms also take a
stack of grid functions along leading axes.  Each member's result is
bitwise the one it gets alone: a stacked product is one BLAS call per
member (in 1d a matrix-vector product, as for a lone function), a sum runs
along the member's own values, and a norm's root is taken as a scalar.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .regularize import n0

__all__ = [
    "Grid",
    "GridMismatchError",
    "norm_l1",
    "norm_l2",
    "norm_lp",
    "gradient_faces",
    "w1p_seminorm",
    "hm0_norm",
    "wmq_norm",
    "difference_blocks",
    "q_of_p",
    "LerayLionsCoeff",
    "p_laplacian_coeff",
    "remark_flux_coeff",
    "linear_coeff",
    "DriftSpec",
    "zero_drift",
    "tanh_drift",
    "HigherOrderPerturbation",
    "perturbation_for",
    "apply_divergence_form",
    "j_operator",
    "apply_A_n",
    "jacobian_A_n",
    "check_structure_conditions",
    "estimate_embedding_constants",
    "n_min_default",
    "initial_profile",
    "initial_from_csv",
    "initial_to_csv",
]


class GridMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform grid on (0,1)^d with n_interior nodes per axis and h*(n+1) = 1."""

    dimension: int
    n_interior: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.n_interior < 1:
            raise ValueError("n_interior must be at least 1")

    @cached_property
    def h(self):
        return 1.0 / (self.n_interior + 1)

    @cached_property
    def shape(self):
        return (self.n_interior,) * self.dimension

    @cached_property
    def size(self):
        return self.n_interior ** self.dimension

    @property
    def weight(self):
        """Quadrature weight per node, h**d."""
        return self.h ** self.dimension

    @property
    def measure(self):
        """Total discrete measure, size * weight (slightly below |D| = 1)."""
        return self.size * self.weight

    def nodes(self):
        """Coordinates of the interior nodes, shape (size, dimension)."""
        axis = (np.arange(1, self.n_interior + 1)) * self.h
        if self.dimension == 1:
            return axis[:, None]
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        return np.stack([x1.ravel(), x2.ravel()], axis=-1)

    @cached_property
    def _lattice(self):
        """The zero-padded grid's layout (_Lattice), built once."""
        width, d = self.n_interior + 2, self.dimension
        steps = tuple(width ** (d - 1 - k) for k in range(d))
        first, length = sum(steps), self.n_interior * steps[0]
        return _Lattice(width, steps, first, length,
                        tuple((first - step, first + length) for step in steps))

    def check(self, u):
        """u as floats: a flat grid function, or a stack of them along leading axes."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 0 or u.shape[-1] != self.size:
            raise GridMismatchError(
                f"expected flat grid function of size {self.size}, got shape {u.shape}")
        return u


# ----------------------------------------------------------------- norms


def norm_lp(grid, u, p):
    """(sum |u_i|**p * h**d) ** (1/p) over interior nodes: a float, or one
    per member of a stack, its root taken in the scalar form."""
    u = grid.check(u)
    out = _scalar_power((np.abs(u) ** p).sum(axis=-1) * grid.weight, 1.0 / p)
    return float(out) if u.ndim == 1 else out


def norm_l2(grid, u):
    """Weighted L2 norm: a float, or one per member of a stack."""
    u = grid.check(u)
    out = np.sqrt((u * u).sum(axis=-1) * grid.weight)
    return float(out) if u.ndim == 1 else out


def norm_l1(grid, u):
    """Weighted L1 norm: a float, or one per member of a stack."""
    u = grid.check(u)
    out = np.abs(u).sum(axis=-1) * grid.weight
    return float(out) if u.ndim == 1 else out


class _Lattice(NamedTuple):
    """The grid zero-padded to W = n_interior + 2 values per axis, flat and
    row-major.  A neighbour along axis k is steps[k] = W ** (d - 1 - k)
    positions away (1 in 1d; W and 1 in 2d).  The nodes lie in the run of
    the given length, n lattice rows (n values in 1d), from the first node
    at sum(steps); in 2d the run wraps from row to row through seam
    positions, which are computed and never read.  A face normal to axis k
    sits at its low node, so the faces of that run's nodes lie in the run
    that starts steps[k] earlier: the face above node q is at q, the face
    below it at q - steps[k]."""

    width: int
    steps: tuple
    first: int
    length: int
    faces: tuple   # per axis k, first and past-last position of its faces' run

    def across_nodes(self, a, step):
        """a on a run of faces whose nodes are step apart, as each node's a
        at the face above it less a at the face below it, over the run of
        nodes."""
        return np.subtract(a[..., step:step + self.length], a[..., :self.length])

    def block(self, x, shape):
        """x, a run of the lattice along its last axis, read as the block of
        the given shape from the run's first position: a view."""
        if len(shape) == 1:
            return x[..., :shape[0]]
        rows, cols = shape
        return x[..., :rows * self.width].reshape(x.shape[:-1] + (rows, self.width))[..., :cols]


def _extend(grid, u):
    """u zero-extended to the closed box over the padded lattice: W ** d
    values, and the zeros past the end that the last faces read (two in
    2d, none in 1d)."""
    lattice = grid._lattice
    ue = np.zeros(u.shape[:-1] + (2 * lattice.first + lattice.length,))
    nodes = lattice.block(ue[..., lattice.first:], grid.shape)
    nodes[...] = u.reshape(u.shape[:-1] + grid.shape)
    return ue


def _member_sums(x, lead):
    """Sum of each member's values: x has the leading axes lead, then its own."""
    return x.reshape(lead + (-1,)).sum(axis=-1)


def _scalar_power(values, exponent):
    """values ** exponent entry by entry, in the scalar form (libm's pow).

    numpy's vectorized power can differ from it in the last bit, which
    would make a member's norm depend on whether it ran in a stack."""
    return np.array([v ** exponent for v in values.ravel()]).reshape(values.shape)


def gradient_faces(grid, u):
    """Forward differences to faces per axis, zero-extended; list of arrays,
    each a view (..., face shape) of the differences over the faces' run."""
    ue, lattice, out = _extend(grid, u), grid._lattice, []
    for axis, (step, (start, stop)) in enumerate(zip(lattice.steps, lattice.faces)):
        diff = np.subtract(ue[..., start + step:stop + step], ue[..., start:stop])
        diff /= grid.h
        shape = tuple(grid.n_interior + (k == axis) for k in range(grid.dimension))
        out.append(lattice.block(diff, shape))
    return out


def w1p_seminorm(grid, u, p):
    """(sum over faces of |component|**p * h**d) ** (1/p).

    In one dimension this is the exact discrete seminorm; in two dimensions
    the component-sum convention is used (equivalent to the vector-magnitude
    seminorm within a factor 2**(1/2 - 1/p) in either direction).
    """
    u = grid.check(u)
    lead = u.shape[:-1]
    total = sum(_member_sums(np.abs(g) ** p, lead) for g in gradient_faces(grid, u))
    out = _scalar_power(total * grid.weight, 1.0 / p)
    return float(out) if not lead else out


@lru_cache(maxsize=None)
def _iterated_difference_1d(n, order, h):
    """Dense (n + order, n) iterated forward difference, read-only (it is shared)."""
    mat = np.eye(n)
    for m in range(n, n + order):
        step = (np.eye(m + 1, m) - np.eye(m + 1, m, k=-1)) / h
        mat = step @ mat
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def _stacked_factor(n, m, h):
    """[D_0; D_1; ...; D_m] for one axis, shape (sum_k (n + k), n), read-only."""
    mat = np.vstack([_iterated_difference_1d(n, k, h) for k in range(m + 1)])
    mat.flags.writeable = False
    return mat


def _rows_through(n, k):
    """Rows of the stacked factor that hold D_0 ... D_k."""
    return (k + 1) * n + k * (k + 1) // 2


def difference_blocks(grid, u, m):
    """D^gamma u for every |gamma| <= m, in a list of arrays holding each value once.

    S = [D_0; D_1; ...; D_m] stacks the 1d differences of every order up to
    m by rows.  In 1d the list is the one vector S u.  In 2d
    entry 0 is S U, which holds every D^(i, 0) U, and entry j >= 1 holds
    D^(i, j) U = D_i U D_j^T for every i <= m - j, stacked by rows: only
    the blocks with |gamma| <= m are formed.  Sums over the entries,
    weighted by h**d, give the H^m and W^{m,q} energies.
    """
    u = grid.check(u)
    n, h = grid.n_interior, grid.h
    factor = _stacked_factor(n, m, h)
    if grid.dimension == 1:   # a column per member: one matrix-vector product each
        return [np.matmul(factor, u[..., None])[..., 0]]
    rows = factor @ u.reshape(u.shape[:-1] + (n, n))
    return [rows] + [rows[..., :_rows_through(n, m - j), :]
                     @ _iterated_difference_1d(n, j, h).T for j in range(1, m + 1)]


def _difference_blocks_adjoint(grid, m, blocks):
    """Transpose of difference_blocks: blocks shaped like its output (overwritten)."""
    n, h = grid.n_interior, grid.h
    acc = blocks[0]
    for j, block in enumerate(blocks[1:], 1):
        acc[..., :block.shape[-2], :] += block @ _iterated_difference_1d(n, j, h)
    factor_t = _stacked_factor(n, m, h).T
    if grid.dimension == 1:
        return np.matmul(factor_t, acc[..., None])[..., 0]
    return (factor_t @ acc).reshape(acc.shape[:-2] + (-1,))


def hm0_norm(grid, u, m):
    """sqrt of sum over |gamma| <= m of the squared L2 norms of D^gamma u."""
    total = sum(np.sum(d * d) for d in difference_blocks(grid, u, m))
    return float(np.sqrt(total * grid.weight))


def wmq_norm(grid, u, m, q):
    """(sum over |gamma| <= m of the q-th power L^q norms of D^gamma u) ** (1/q)."""
    total = sum(np.sum(np.abs(d) ** q) for d in difference_blocks(grid, u, m))
    return float((total * grid.weight) ** (1.0 / q))


# ---------------------------------------------------------------- coefficients


def q_of_p(p):
    """Perturbation exponent max{2, p, 2p(p-1), p/(p-1)}."""
    if p <= 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    return max(2.0, p, 2.0 * p * (p - 1.0), p / (p - 1.0))


@dataclass(frozen=True)
class LerayLionsCoeff:
    """Divergence-form coefficient a(x, lam, xi) with its structure constants.

    a_eval is vectorized with the length-d component axis first: xi is
    (d,) + shape, so that each component xi[k] is a plane of its own, x is
    (d,) + a shape that broadcasts against it, and lam is shaped like
    xi[0]; it returns an array shaped like xi.
    It must also have a method ``derivative(x, lam, xi)`` returning
    (da/dxi, da/dlam), shaped (d, d) + shape with entry [k, j] =
    da_k/dxi_j, and like xi, which gives jacobian_A_n its flux part in 1d
    and 2d.  Both are elementwise, each position's value depending on that
    position's (x, lam, xi) alone: they may be evaluated at positions that
    are not faces (the seams of the padded lattice), whose values are
    discarded.  The constants enter check_structure_conditions' bounds:
    coercivity a.xi >= c1 |xi|^p - c2 |lam|^nu, growth |a| <= c3 |xi|^(p-1)
    + c4 |lam|^(p-1) + g, continuity in lam with modulus c5 |xi|^(p-1) + h.
    """

    a_eval: object
    p: float
    c1: float
    c2: float = 0.0
    c3: float = 1.0
    c4: float = 0.0
    c5: float = 0.0
    nu: float = 1.0
    g: float = 0.0
    h: float = 0.0


_TINY = np.finfo(float).tiny


def _norm_sq(xi, eps):
    """|xi|^2 + eps^2 over the leading component axis: xi_0 xi_0 + xi_1 xi_1
    + ... + eps^2, a fresh array.  eps = 0 adds nothing: |xi|^2 >= +0 keeps
    its bits."""
    out = xi[0] * xi[0]
    for component in xi[1:]:
        out += component * component
    if eps:
        out += eps ** 2
    return out


@dataclass(frozen=True)
class PLaplaceFlux:
    """a(x, lam, xi) = (|xi|^2 + eps^2)^((p-2)/2) xi, with its derivative."""

    p: float
    eps: float = 0.0

    def __post_init__(self):
        if self.p < 2.0 and self.eps == 0.0:
            raise ValueError(f"p = {self.p} < 2 needs eps > 0")

    def __call__(self, x, lam, xi):
        power = _norm_sq(xi, self.eps)
        power **= (self.p - 2.0) / 2.0
        return power * xi

    def derivative(self, x, lam, xi):
        """da/dxi = s^((p-2)/2) (I + (p-2) xi xi^T / s), s = |xi|^2 + eps^2; da/dlam = 0.

        With eps = 0, da/dxi at xi = 0 is its limit: the identity at p = 2
        and zero above.  Each entry is s^((p-2)/2) (delta_kj + ((p-2)/s)
        (xi_k xi_j)), in that order; the delta_kj term is added where it is
        0.0 too, which turns a -0.0 product into +0.0 as the identity
        matrix does.  The s in (p-2)/s is floored at tiny * max(1, |p-2|),
        which keeps it finite: below the floor xi_k xi_j <= s, so no entry
        exceeds |p-2| + 1 before the power, and at s = 0, where every
        xi_k xi_j is 0, nothing changes.
        """
        d = len(xi)
        power = _norm_sq(xi, self.eps)
        scale = (self.p - 2.0) / np.maximum(power, _TINY * max(1.0, abs(self.p - 2.0)))
        power **= (self.p - 2.0) / 2.0
        a_xi = np.empty((d, d) + power.shape)
        for k in range(d):
            for j in range(k, d):
                entry = np.multiply(xi[k], xi[j], out=a_xi[k, j])
                entry *= scale
                entry += float(k == j)
                entry *= power
                if j > k:
                    a_xi[j, k] = entry
        return a_xi, np.zeros_like(xi)


def p_laplacian_coeff(p):
    """a(x, lam, xi) = (|xi|^2 + eps^2)^((p-2)/2) xi with eps = 1e-12 for p < 2.

    The regularization keeps the flux finite at vanishing gradients for
    singular p; for p >= 2 the exact power law (eps = 0) is used.
    """
    eps = 0.0 if p >= 2.0 else 1e-12
    return LerayLionsCoeff(a_eval=PLaplaceFlux(p, eps), p=p,
                           c1=1.0, c3=1.0, nu=1.0)


@dataclass(frozen=True)
class FluxWithConvection:
    p: float
    velocity: object
    flux: PLaplaceFlux = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "flux", PLaplaceFlux(self.p))

    def __call__(self, x, lam, xi):
        out = self.flux(x, lam, xi)
        out[0] += self.velocity(lam)
        return out

    def derivative(self, x, lam, xi):
        """The p-Laplace part's, with velocity'(lam) in da_0/dlam (the
        velocity needs a ``derivative`` method, as ScaledTanh has)."""
        a_xi, a_lam = self.flux.derivative(x, lam, xi)
        a_lam[0] += self.velocity.derivative(lam)
        return a_xi, a_lam


@dataclass(frozen=True)
class ScaledTanh:
    """scale*tanh(lam): remark_flux_coeff's velocity, tanh_drift's reaction."""

    scale: float

    def __call__(self, lam):
        return self.scale * np.tanh(lam)

    def derivative(self, lam):
        return self.scale / np.cosh(lam) ** 2


def remark_flux_coeff(p, scale=1.0):
    """p-Laplace flux plus the Lipschitz convective part scale*tanh(lam).

    Needs p >= 2 so the convective term can be absorbed via Young's
    inequality; the coercivity constants are c1 = 1/2,
    c2 = (p/2)**(-p'/p) / p' * scale**p' with nu = p' < p.
    """
    if p < 2.0:
        raise ValueError("convective prototype needs p >= 2")
    pp = p / (p - 1.0)
    c2 = (p / 2.0) ** (-pp / p) / pp * scale ** pp
    return LerayLionsCoeff(
        a_eval=FluxWithConvection(p, ScaledTanh(scale)), p=p,
        c1=0.5, c2=c2, c3=1.0, c4=scale, c5=0.0, nu=pp,
        g=scale, h=scale)


@dataclass(frozen=True)
class LinearFlux:
    def __call__(self, x, lam, xi):
        return xi

    def derivative(self, x, lam, xi):
        d = len(xi)
        eye = np.eye(d).reshape((d, d) + (1,) * (xi.ndim - 1))
        return np.broadcast_to(eye, (d,) + xi.shape), np.zeros_like(xi)


def linear_coeff():
    """a(x, lam, xi) = xi, the heat flux (p = 2)."""
    return LerayLionsCoeff(a_eval=LinearFlux(), p=2.0, c1=1.0, c3=1.0)


# ---------------------------------------------------------------------- drift


@dataclass(frozen=True)
class DriftSpec:
    """Pointwise reaction term with Lipschitz constant l_f, f(0) = 0, |f| <= sup_bound.

    f_eval must have a method ``derivative(lam)``, f' pointwise, which gives
    jacobian_A_n its reaction part.  So l_f = 0 means f = 0: build_system
    drops such a drift, as if none were given.
    """

    f_eval: object
    l_f: float
    sup_bound: float


@dataclass(frozen=True)
class ZeroDrift:
    def __call__(self, lam):
        return np.zeros_like(lam)

    def derivative(self, lam):
        return np.zeros_like(lam)


def zero_drift():
    return DriftSpec(ZeroDrift(), 0.0, 0.0)


def tanh_drift(scale=1.0):
    return DriftSpec(ScaledTanh(scale), abs(scale), abs(scale))


# ------------------------------------------------------------ main operators


@lru_cache(maxsize=None)
def _face_coords(grid, axis):
    """Coordinates of the faces normal to axis over their run, (d, run
    length), read-only (they are shared): a face lies half a step past its
    low node along axis."""
    start, stop = grid._lattice.faces[axis]
    index = np.unravel_index(np.arange(start, stop), (grid.n_interior + 2,) * grid.dimension)
    coords = np.array([(i + 0.5) * grid.h if k == axis else i * grid.h
                       for k, i in enumerate(index)])
    coords.flags.writeable = False
    return coords


def _faces(grid, u):
    """[(x, lam, xi) on the faces normal to axis k, for each axis k].

    A face joins two neighboring nodes of the zero extension: lam is the
    mean of their values and xi_k their forward difference; in 2d the
    transverse component of xi is the mean of the central differences at
    the two nodes (the four neighboring differences, averaged).  Each is
    given over the axis's run of faces (_Lattice), seams included: xi is
    (d,) + u's leading axes + (run length,), x broadcasts against it.
    """
    ue, d, lead, lattice = _extend(grid, u), grid.dimension, u.shape[:-1], grid._lattice
    faces = []
    for axis, (step, (start, stop)) in enumerate(zip(lattice.steps, lattice.faces)):

        def at(offset):   # ue at p + offset, for each face p of the run
            return ue[..., start + offset:stop + offset]

        low, high = at(0), at(step)
        xi = np.empty((d,) + low.shape)
        np.subtract(high, low, out=xi[axis])
        xi[axis] /= grid.h
        if d == 2:   # in place, in the order ((a - b) + c) - e
            turn, across = lattice.steps[1 - axis], xi[1 - axis]
            np.subtract(at(step + turn), at(step - turn), out=across)
            across += at(turn)
            across -= at(-turn)
            across /= 4.0 * grid.h
        lam = np.add(high, low)
        lam *= 0.5
        x = _face_coords(grid, axis)
        faces.append((x.reshape((d,) + (1,) * len(lead) + x.shape[1:]), lam, xi))
    return faces


def apply_divergence_form(grid, coeff, u):
    """Discrete -div a(x, u, grad u) with face-centered gradients.

    The flux a(x, lam, xi) is evaluated on the faces as _faces sets them
    up, and its divergence comes back to the nodes, so that

        <apply_divergence_form(u), v>_h = sum over faces of a . grad_h v * h^d

    holds exactly for every v (summation by parts against the zero
    extension).  On the padded lattice node q takes a_k at q (the face
    above it) less a_k at q - s_k (the face below), over the run of nodes.
    """
    u = grid.check(u)
    lattice = grid._lattice
    first, *rest = [lattice.across_nodes(coeff.a_eval(*face)[k], step)
                    for k, (face, step) in enumerate(zip(_faces(grid, u), lattice.steps))]
    # summed in place from the first axis's term: a start of 0 would turn
    # -0.0 into 0.0
    first /= grid.h
    for term in rest:
        term /= grid.h
        first += term
    np.negative(first, out=first)
    return lattice.block(first, grid.shape).reshape(u.shape)


@dataclass(frozen=True)
class HigherOrderPerturbation:
    """Parameters of the strong monotone perturbation: derivative order m and exponent q."""

    m: int = 2
    q: float = 4.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.q < 2.0:
            raise ValueError("q must be at least 2")


def perturbation_for(p, m=2):
    """Perturbation with the exponent q = q_of_p(p) forced by the coefficient growth."""
    return HigherOrderPerturbation(m=m, q=q_of_p(p))


def _check_order(grid, m):
    if grid.n_interior < m:
        raise GridMismatchError(
            f"grid with {grid.n_interior} interior nodes is too coarse for "
            f"differences of order {m}")


def j_operator(grid, pert, u):
    """Riesz representative of the pairing j(u, .) in the weighted node pairing.

    j(u, v) = sum over |gamma| <= m, the zeroth included, of <D^g u, D^g v>
    + <|D^g u|^(q-2) D^g u, D^g v>, every term integrated with weight h^d
    on its staggered lattice.
    """
    _check_order(grid, pert.m)
    blocks = difference_blocks(grid, u, pert.m)
    for du in blocks:   # du + |du|^(q-2) du, in place
        pw = np.abs(du)
        np.power(pw, pert.q - 2.0, out=pw)
        pw *= du
        du += pw
    return _difference_blocks_adjoint(grid, pert.m, blocks)


def _level(n, ndim):
    """A level as a divisor of an array with ndim axes: a float, or a
    member's level broadcast over its own axes (n has the batch axes)."""
    n = np.asarray(n)
    if n.ndim == 0:
        return float(n)
    return n.reshape(n.shape + (1,) * (ndim - n.ndim))


def apply_A_n(grid, coeff, drift, pert, n, u):
    """Full drift operator -div a + (1/n) j + f at level n.

    Pass n = None (or pert = None) to drop the higher-order perturbation,
    which corresponds to the unperturbed limit dynamics.  For a stack u, n
    may also hold one level per member (an array of u's leading shape).
    """
    u = grid.check(u)
    out = apply_divergence_form(grid, coeff, u)   # fresh: summed into in place
    if pert is not None and n is not None:
        j = j_operator(grid, pert, u)
        j /= _level(n, u.ndim)
        out += j
    if drift is not None:
        out += drift.f_eval(u)
    return out


@lru_cache(maxsize=None)
def _difference_pairs(n, order, h):
    """E_d[s, a] = D[s, a] D[s, a + d] (zero off the grid), D the order's
    difference: the E_d^T stacked by rows, d = -order ... order, and the
    E_d stacked by columns, both read-only."""
    mat = _iterated_difference_1d(n, order, h)
    pairs = np.zeros((2 * order + 1,) + mat.shape)
    for d in range(-order, order + 1):
        cols = slice(max(0, -d), min(n, n - d))
        pairs[d + order][:, cols] = mat[:, cols] * mat[:, max(0, d):min(n, n + d)]
    left, right = np.vstack(pairs.transpose(0, 2, 1)), np.hstack(pairs)
    left.flags.writeable = right.flags.writeable = False
    return left, right


@lru_cache(maxsize=None)
def _off_grid(grid, half_width):
    """Where a stencil band's column node lies off the grid: a read-only
    mask of the band's shape (2 w + 1,) * d + (n,) * d, w = half_width."""
    d, w = grid.dimension, half_width
    index = np.indices((2 * w + 1,) * d + grid.shape)
    column = index[d:] + index[:d] - w
    mask = ((column < 0) | (column >= grid.n_interior)).any(axis=0)
    mask.flags.writeable = False
    return mask


def jacobian_A_n(grid, coeff, drift, pert, n, u):
    """Exact Jacobian of apply_A_n at u, from the flux's and the drift's
    derivative methods, as the stencil band of the grid.

    The band has shape (2 w + 1,) * d + (n_interior,) * d, w = max(1, m)
    (1 without the perturbation): entry (delta + w, a) is the coupling of
    node a to node a + delta, zero where a + delta lies off the grid.

    Face f joins two neighbouring nodes of the zero extension and carries
    a(x_f, lam_f, xi_f) as _faces sets it up, so -div a couples each node
    to its neighbours along every axis, by da/dxi / h^2 and da/dlam / (2 h);
    in 2d a face also reads the four differences across it, which couple
    each node to its 3 x 3 box.  The perturbation's part is the sum over
    |g| <= m of D_g^T diag(1 + (q-1) |D_g u|^(q-2)) D_g / n, which couples
    each node to its box of half-width m.  The band is built over the
    run of nodes of the padded lattice, so that each face weight is added
    as one slice: node q reads the face above it at q and the face below
    it at q - s_k.

    A stack u gives a stack of bands, n as in apply_A_n.
    """
    u = grid.check(u)
    size, h, d, lead = grid.n_interior, grid.h, grid.dimension, u.shape[:-1]
    lattice = grid._lattice
    active = pert is not None and n is not None
    w = max(1, pert.m) if active else 1
    # the band is built over the run of nodes, seams included: band is the
    # view of its node axes
    run = np.zeros(lead + (2 * w + 1,) * d + (lattice.length,))
    band = lattice.block(run, grid.shape)
    nodes = (slice(None),) * d   # the band's node axes
    if active:
        _check_order(grid, pert.m)
        # D_g^T diag(W) D_g, W = 1 + (q-1)|D_g u|^(q-2), couples a to a + da
        # by (E_da^T W)[a] in 1d, and (a0, a1) to (a0 + da, a1 + db) by
        # (E_da^T W E_db)[a0, a1] in 2d
        for j, block in enumerate(difference_blocks(grid, u, pert.m)):
            weights = np.abs(block)
            np.power(weights, pert.q - 2.0, out=weights)
            weights *= pert.q - 1.0
            weights += 1.0
            if d == 1:
                weights = weights[..., None]   # a column per member
            for i in range(pert.m - j + 1):
                start = _rows_through(size, i - 1)
                prod = (_difference_pairs(size, i, h)[0]
                        @ weights[..., start:start + size + i, :])
                if d == 2:
                    prod = np.moveaxis((prod @ _difference_pairs(size, j, h)[1]).reshape(
                        lead + (2 * i + 1, size, 2 * j + 1, size)), -3, -2)
                window = (slice(w - i, w + i + 1), slice(w - j, w + j + 1))[:d]
                into = band[(..., *window) + nodes]
                into += prod.reshape(into.shape)
        band /= _level(n, band.ndim)
    for axis, face in enumerate(_faces(grid, u)):
        # a_k on a face normal to axis k, over h, through its low node L, its
        # high node L + e_k (lam is their mean) and, in 2d, their neighbours
        # across the axis, L +- e_t and L + e_k +- e_t: (along, across,
        # weight, sign) of each
        a_xi, a_lam = coeff.a_eval.derivative(*face)
        normal, half = a_xi[axis, axis] / h, 0.5 * a_lam[axis]
        low = (half - normal) / h
        high = (half + normal) / h
        stencil = [(0, 0, low, 1), (1, 0, high, 1)]
        if d == 2:
            across = a_xi[axis, 1 - axis] / (4.0 * h * h)
            stencil += [(0, 1, across, 1), (0, -1, across, -1),
                        (1, 1, across, 1), (1, -1, across, -1)]
        # -div a takes -a_k / h at L and +a_k / h at L + e_k, so a row takes
        # the face above it as its L (L is 0 nodes along axis k from the
        # row) and the face below as its L + e_k (L is 1 node back); on the
        # faces' run the face above node q sits at q, the one below at q - s_k
        for start, sign, k in ((lattice.steps[axis], -1, 0), (0, 1, -1)):
            for along, cross, weight, turn in stencil:
                offset = [cross + w] * d
                offset[axis] = k + along + w
                into = run[(..., *offset, slice(None))]
                (np.add if sign * turn > 0 else np.subtract)(
                    into, weight[..., start:start + lattice.length], out=into)
    if drift is not None:
        band[(..., *(w,) * d) + nodes] += drift.f_eval.derivative(u).reshape(lead + grid.shape)
    band = np.ascontiguousarray(band)   # in 2d, one strided copy
    np.copyto(band, 0.0, where=_off_grid(grid, w))
    return band


# ------------------------------------------------------------ structure checks


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


# --------------------------------------------------- embedding constants, N0


def _test_fields(grid):
    """Up to 8 sine modes and 48 seeded random fields."""
    rng = np.random.Generator(np.random.Philox(key=[0, 0xE3B]))
    n = grid.n_interior
    fields = []
    axis = np.arange(1, n + 1) * grid.h
    for k in range(1, min(n, 8) + 1):
        mode = np.sin(k * np.pi * axis)
        if grid.dimension == 1:
            fields.append(mode)
        else:
            fields.append(np.outer(mode, mode).ravel())
    for _ in range(48):
        fields.append(rng.standard_normal(grid.size))
    return fields


def estimate_embedding_constants(grid, p, m, q, nu):
    """Empirical embedding constants on a given grid.

    Returns a dict with ``c_lq`` (exact power-mean constant for
    ||u||_nu <= c ||u||_2p), ``c_poincare_2p`` and ``c_embed_w`` (largest
    observed ratios over up to 8 sine modes and 48 fixed random fields).
    These are sampled estimates meant to seed the default minimum level,
    not certified constants.
    """
    two_p = 2.0 * p
    c_lq = grid.measure ** max(0.0, 1.0 / nu - 1.0 / two_p)
    best_poin, best_embed = 0.0, 0.0
    for u in _test_fields(grid):
        u = np.asarray(u, dtype=float)
        grad = w1p_seminorm(grid, u, two_p)
        full = wmq_norm(grid, u, m, q)
        if grad > 0.0:
            best_poin = max(best_poin, norm_lp(grid, u, two_p) / grad)
        if full > 0.0:
            best_embed = max(best_embed, grad / full)
    return {"c_lq": float(c_lq), "c_poincare_2p": float(best_poin),
            "c_embed_w": float(best_embed)}


def n_min_default(grid, coeff, pert, c_sigma):
    """Default smallest admissible perturbation level.

    Computed as max(n0(c_sigma), 1 / (2**(q-1) * c2 * c_E**(2 nu) * c_P**nu))
    with the embedding constants estimated on the grid.  The second entry
    is the perturbation's own, built from its q and m: when c2 = 0, or
    there is no perturbation (pert None), it is absent and the growth
    threshold n0 alone applies.
    """
    base = float(n0(c_sigma))
    if coeff.c2 == 0.0 or pert is None:
        return base
    consts = estimate_embedding_constants(grid, coeff.p, pert.m, pert.q, coeff.nu)
    c_e = consts["c_lq"] * consts["c_embed_w"]
    second = 1.0 / (2.0 ** (pert.q - 1.0) * coeff.c2 * c_e ** (2.0 * coeff.nu)
                    * consts["c_poincare_2p"] ** coeff.nu)
    return float(max(base, second))


# ---------------------------------------------------------------- initial data


def initial_profile(grid, name, amplitude=1.0, seed=0):
    """Named analytic initial data: 'sine', 'bump', or 'random' (seeded).

    The bump is a Gaussian of width 0.15 centred in the box.
    """
    x = grid.nodes()
    if name == "sine":
        return amplitude * np.prod(np.sin(np.pi * x), axis=-1)
    if name == "bump":
        r_sq = np.sum((x - 0.5) ** 2, axis=-1)
        return amplitude * np.exp(-r_sq / (2.0 * 0.15 ** 2))
    if name == "random":
        rng = np.random.Generator(np.random.Philox(key=[seed, 0x1C0]))
        return amplitude * rng.standard_normal(grid.size)
    raise ValueError(f"unknown initial profile {name!r}")


def initial_from_csv(grid, path):
    """One value per interior node, flat row-major order."""
    with warnings.catch_warnings():   # an empty file fails the size check
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        values = np.loadtxt(path, dtype=float, comments="#", delimiter=",", ndmin=1)
    values = np.asarray(values, dtype=float).ravel()
    if values.size != grid.size:
        raise GridMismatchError(
            f"initial data has {values.size} values, grid needs {grid.size}")
    if not np.all(np.isfinite(values)):
        raise ValueError("initial data contains non-finite values")
    return values


def initial_to_csv(grid, u, path):
    u = grid.check(u)
    with open(path, "w") as fh:
        for v in u:
            fh.write(f"{float(v)!r}\n")
