"""Uniform Dirichlet grids on the unit box and the discrete spatial operators.

Grid functions are flat float arrays over the interior nodes of a uniform
grid on (0,1)^d (d = 1 or 2), extended by zero outside.  The divergence-form
operator uses face-centered gradients so that summation by parts against the
discrete gradient is exact, and the higher-order form realizes every
multi-index derivative up to order m by iterated forward differences.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
from scipy import sparse

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
    "multi_indices",
    "difference_matrix",
    "laplacian_min_eigenvalue",
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
    "j_form",
    "j_operator",
    "apply_A_n",
    "check_structure_conditions",
    "poincare_constant",
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

    @property
    def h(self):
        return 1.0 / (self.n_interior + 1)

    @property
    def shape(self):
        return (self.n_interior,) * self.dimension

    @property
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

    def check(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.size,):
            raise GridMismatchError(
                f"expected flat grid function of size {self.size}, got shape {u.shape}")
        return u


# ----------------------------------------------------------------- norms


def norm_lp(grid, u, p):
    """(sum |u_i|**p * h**d) ** (1/p) over interior nodes."""
    u = grid.check(u)
    return float((np.sum(np.abs(u) ** p) * grid.weight) ** (1.0 / p))


def norm_l2(grid, u):
    u = grid.check(u)
    return float(np.sqrt(np.sum(u * u) * grid.weight))


def norm_l1(grid, u):
    u = grid.check(u)
    return float(np.sum(np.abs(u)) * grid.weight)


def gradient_faces(grid, u):
    """Forward differences to faces per axis, zero-extended; list of arrays."""
    h = grid.h
    if grid.dimension == 1:
        ue = np.concatenate([[0.0], u, [0.0]])
        return [np.diff(ue) / h]
    n = grid.n_interior
    ue = np.zeros((n + 2, n + 2))
    ue[1:-1, 1:-1] = u.reshape(n, n)
    gx = (ue[1:, 1:-1] - ue[:-1, 1:-1]) / h
    gy = (ue[1:-1, 1:] - ue[1:-1, :-1]) / h
    return [gx, gy]


def w1p_seminorm(grid, u, p):
    """(sum over faces of |component|**p * h**d) ** (1/p).

    In one dimension this is the exact discrete seminorm; in two dimensions
    the component-sum convention is used (equivalent to the vector-magnitude
    seminorm within a factor 2**(1/2 - 1/p) in either direction).
    """
    u = grid.check(u)
    total = sum(np.sum(np.abs(g) ** p) for g in gradient_faces(grid, u))
    return float((total * grid.weight) ** (1.0 / p))


@lru_cache(maxsize=None)
def _difference_matrix_1d(n, order, h):
    mat = sparse.eye(n, format="csr")
    m = n
    for _ in range(order):
        step = sparse.diags([np.ones(m), -np.ones(m)], offsets=[0, -1],
                            shape=(m + 1, m), format="csr") / h
        mat = step @ mat
        m += 1
    return mat


def difference_matrix(grid, gamma):
    """Sparse matrix of the iterated forward difference D^gamma.

    Input is a flat grid function extended by zero beyond the boundary;
    output lives on a staggered lattice with n_interior + gamma_k points
    along axis k, all carrying quadrature weight h**d.
    """
    gamma = tuple(int(g) for g in gamma)
    if len(gamma) != grid.dimension:
        raise GridMismatchError(f"multi-index {gamma} does not match dimension "
                                f"{grid.dimension}")
    if grid.dimension == 1:
        return _difference_matrix_1d(grid.n_interior, gamma[0], grid.h)
    a = _difference_matrix_1d(grid.n_interior, gamma[0], grid.h)
    b = _difference_matrix_1d(grid.n_interior, gamma[1], grid.h)
    return sparse.kron(a, b, format="csr")


def multi_indices(dimension, m):
    """All multi-indices of order <= m, the zeroth included."""
    out = [g for g in product(range(m + 1), repeat=dimension) if sum(g) <= m]
    return sorted(out, key=lambda g: (sum(g), g))


@lru_cache(maxsize=None)
def _stacked_differences(grid, m):
    """Every D^gamma with |gamma| <= m stacked as one CSR matrix, and its transpose."""
    gammas = multi_indices(grid.dimension, m)
    mat = sparse.vstack([difference_matrix(grid, g) for g in gammas], format="csr")
    return mat, mat.T.tocsr()


def hm0_norm(grid, u, m):
    """sqrt of sum over |gamma| <= m of the squared L2 norms of D^gamma u."""
    du = _stacked_differences(grid, m)[0] @ grid.check(u)
    return float(np.sqrt(np.sum(du * du) * grid.weight))


def wmq_norm(grid, u, m, q):
    """(sum over |gamma| <= m of the q-th power L^q norms of D^gamma u) ** (1/q)."""
    du = _stacked_differences(grid, m)[0] @ grid.check(u)
    return float((np.sum(np.abs(du) ** q) * grid.weight) ** (1.0 / q))


def laplacian_min_eigenvalue(grid):
    """Smallest eigenvalue of the discrete Dirichlet Laplacian, d*(4/h^2)*sin^2(pi h/2)."""
    h = grid.h
    return grid.dimension * (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2


# ---------------------------------------------------------------- coefficients


def q_of_p(p):
    """Perturbation exponent max{2, p, 2p(p-1), p/(p-1)}."""
    if p <= 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    return max(2.0, p, 2.0 * p * (p - 1.0), p / (p - 1.0))


@dataclass(frozen=True)
class LerayLionsCoeff:
    """Divergence-form coefficient a(x, lam, xi) with its structure constants.

    a_eval is vectorized with x and xi carrying a trailing axis of length d
    and lam shaped like x[..., 0]; it returns an array shaped like xi.
    The constants enter check_structure_conditions' bounds: coercivity
    a.xi >= c1 |xi|^p - c2 |lam|^nu, growth |a| <= c3 |xi|^(p-1) +
    c4 |lam|^(p-1) + g, continuity in lam with modulus c5 |xi|^(p-1) + h.
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


@dataclass(frozen=True)
class PLaplaceFlux:
    p: float
    eps: float = 0.0

    def __call__(self, x, lam, xi):
        mag_sq = np.sum(xi * xi, axis=-1, keepdims=True)
        if self.eps > 0.0:
            return (mag_sq + self.eps ** 2) ** ((self.p - 2.0) / 2.0) * xi
        out = np.zeros_like(xi)
        nz = mag_sq[..., 0] > 0.0
        out[nz] = mag_sq[nz] ** ((self.p - 2.0) / 2.0) * xi[nz]
        return out


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
    lip: float

    def __call__(self, x, lam, xi):
        out = PLaplaceFlux(self.p)(x, lam, xi)
        out[..., 0] = out[..., 0] + self.velocity(lam)
        return out


@dataclass(frozen=True)
class ScaledTanh:
    """scale*tanh(lam): remark_flux_coeff's velocity, tanh_drift's reaction."""

    scale: float

    def __call__(self, lam):
        return self.scale * np.tanh(lam)


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
        a_eval=FluxWithConvection(p, ScaledTanh(scale), scale), p=p,
        c1=0.5, c2=c2, c3=1.0, c4=scale, c5=0.0, nu=pp,
        g=scale, h=scale)


@dataclass(frozen=True)
class LinearFlux:
    def __call__(self, x, lam, xi):
        return xi


def linear_coeff():
    """a(x, lam, xi) = xi, the heat flux (p = 2)."""
    return LerayLionsCoeff(a_eval=LinearFlux(), p=2.0, c1=1.0, c3=1.0)


# ---------------------------------------------------------------------- drift


@dataclass(frozen=True)
class DriftSpec:
    """Pointwise reaction term with Lipschitz constant l_f, f(0) = 0, |f| <= sup_bound."""

    f_eval: object
    l_f: float
    sup_bound: float


@dataclass(frozen=True)
class ZeroDrift:
    def __call__(self, lam):
        return np.zeros_like(lam)


def zero_drift():
    return DriftSpec(ZeroDrift(), 0.0, 0.0)


def tanh_drift(scale=1.0):
    return DriftSpec(ScaledTanh(scale), abs(scale), abs(scale))


# ------------------------------------------------------------ main operators


def apply_divergence_form(grid, coeff, u):
    """Discrete -div a(x, u, grad u) with face-centered gradients.

    The gradient lives on cell faces, the lam argument is the arithmetic
    mean of the two adjacent node values (boundary ghosts zero), and the
    flux divergence comes back to the nodes, so that

        <apply_divergence_form(u), v>_h = sum over faces of a . grad_h v * h^d

    holds exactly for every v (summation by parts against the zero
    extension).  In two dimensions the transverse gradient component at a
    face is the average of the four neighboring differences.
    """
    u = grid.check(u)
    h = grid.h
    if grid.dimension == 1:
        n = grid.n_interior
        ue = np.concatenate([[0.0], u, [0.0]])
        g = (np.diff(ue) / h)[:, None]
        lam = 0.5 * (ue[:-1] + ue[1:])
        xf = ((np.arange(n + 1) + 0.5) * h)[:, None]
        flux = coeff.a_eval(xf, lam, g)[:, 0]
        return -np.diff(flux) / h

    n = grid.n_interior
    ue = np.zeros((n + 2, n + 2))
    ue[1:-1, 1:-1] = u.reshape(n, n)
    axis_vals = np.arange(1, n + 1) * h
    face_vals = (np.arange(n + 1) + 0.5) * h

    # faces orthogonal to axis 0
    gx = (ue[1:, 1:-1] - ue[:-1, 1:-1]) / h
    lam_x = 0.5 * (ue[1:, 1:-1] + ue[:-1, 1:-1])
    ty = (ue[1:, 2:] - ue[1:, :-2] + ue[:-1, 2:] - ue[:-1, :-2]) / (4.0 * h)
    xi_x = np.stack([gx, ty], axis=-1)
    coords_x = np.stack(np.meshgrid(face_vals, axis_vals, indexing="ij"), axis=-1)
    flux_x = coeff.a_eval(coords_x, lam_x, xi_x)[..., 0]

    # faces orthogonal to axis 1
    gy = (ue[1:-1, 1:] - ue[1:-1, :-1]) / h
    lam_y = 0.5 * (ue[1:-1, 1:] + ue[1:-1, :-1])
    tx = (ue[2:, 1:] - ue[:-2, 1:] + ue[2:, :-1] - ue[:-2, :-1]) / (4.0 * h)
    xi_y = np.stack([tx, gy], axis=-1)
    coords_y = np.stack(np.meshgrid(axis_vals, face_vals, indexing="ij"), axis=-1)
    flux_y = coeff.a_eval(coords_y, lam_y, xi_y)[..., 1]

    div = (flux_x[1:, :] - flux_x[:-1, :]) / h + (flux_y[:, 1:] - flux_y[:, :-1]) / h
    return -div.ravel()


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


def j_form(grid, pert, u, v):
    """Duality pairing sum_gamma [ <D^g u, D^g v> + <|D^g u|^(q-2) D^g u, D^g v> ].

    The sum runs over all multi-indices |gamma| <= m, the zeroth included,
    every term integrated with weight h^d on its staggered lattice.
    """
    u, v = grid.check(u), grid.check(v)
    _check_order(grid, pert.m)
    mat = _stacked_differences(grid, pert.m)[0]
    du, dv = mat @ u, mat @ v
    return float((np.sum(du * dv) + np.sum(np.abs(du) ** (pert.q - 2.0) * du * dv))
                 * grid.weight)


def j_operator(grid, pert, u):
    """Riesz representative of j_form(u, .) in the weighted node pairing."""
    u = grid.check(u)
    _check_order(grid, pert.m)
    mat, mat_t = _stacked_differences(grid, pert.m)
    du = mat @ u
    return mat_t @ (du + np.abs(du) ** (pert.q - 2.0) * du)


def apply_A_n(grid, coeff, drift, pert, n, u):
    """Full drift operator -div a + (1/n) j + f at level n.

    Pass n = None (or pert = None) to drop the higher-order perturbation,
    which corresponds to the unperturbed limit dynamics.
    """
    u = grid.check(u)
    out = apply_divergence_form(grid, coeff, u)
    if pert is not None and n is not None:
        out = out + j_operator(grid, pert, u) / float(n)
    if drift is not None:
        out = out + drift.f_eval(u)
    return out


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

    a_xi = coeff.a_eval(x, lam, xi)
    a_eta = coeff.a_eval(x, lam, eta)
    a_xi2 = coeff.a_eval(x, lam2, xi)
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


def poincare_constant(grid):
    """Discrete Poincare constant: ||u||_2 <= c * ||grad u||_2 with c = mu_min^(-1/2)."""
    return float(1.0 / np.sqrt(laplacian_min_eigenvalue(grid)))


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
    with the embedding constants estimated on the grid; when c2 = 0 the
    second entry is absent and the growth threshold n0 alone applies.
    """
    from .regularize import n0

    base = float(n0(c_sigma))
    if coeff.c2 == 0.0:
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
