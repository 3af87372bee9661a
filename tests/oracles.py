"""Independent reference routes for the tests: closed forms shared by more than
one test module, and the face set-up as 2d views that the flat padded lattice
of plapsim.spatial must match bitwise."""

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


# The face set-up as 2d views of the zero extension (an array of shape
# (n + 2,) * d): the reference the flat padded lattice of plapsim.spatial
# must match bitwise.


def _extend(grid, u):
    """u on the nodes of the closed box, zero on its boundary."""
    n, d = grid.n_interior, grid.dimension
    lead = u.shape[:-1]
    ue = np.zeros(lead + (n + 2,) * d)
    ue[(..., *(slice(1, -1),) * d)] = u.reshape(lead + (n,) * d)
    return ue


def _face_sides(ue, d, axis, shift=0):
    """ue at the high and the low node of each face normal to axis, the
    faces moved by shift nodes along the other axis; the grid's d axes are
    the last ones of ue."""
    index = [slice(1 + shift, ue.shape[-1] - 1 + shift)] * d
    index[axis] = slice(1, None)
    high = ue[(..., *index)]
    index[axis] = slice(None, -1)
    return high, ue[(..., *index)]


def face_coords(grid, axis):
    """Coordinates of the faces normal to axis, (d,) + face shape."""
    nodes = np.arange(1, grid.n_interior + 1) * grid.h
    faces = (np.arange(grid.n_interior + 1) + 0.5) * grid.h
    axes = [faces if k == axis else nodes for k in range(grid.dimension)]
    return np.array(np.meshgrid(*axes, indexing="ij"))


def faces(grid, u):
    """[(x, lam, xi) on the faces normal to axis k, for each axis k], xi as
    (d,) + u's leading axes + face shape, x broadcasting against it."""
    ue, d, lead = _extend(grid, u), grid.dimension, u.shape[:-1]
    out = []
    for axis in range(d):
        high, low = _face_sides(ue, d, axis)
        xi = np.empty((d,) + high.shape)
        np.divide(np.subtract(high, low, out=xi[axis]), grid.h, out=xi[axis])
        if d == 2:
            hi_p, lo_p = _face_sides(ue, d, axis, 1)
            hi_m, lo_m = _face_sides(ue, d, axis, -1)
            np.divide(hi_p - hi_m + lo_p - lo_m, 4.0 * grid.h, out=xi[1 - axis])
        x = face_coords(grid, axis)
        out.append((x.reshape((d,) + (1,) * len(lead) + x.shape[1:]),
                    0.5 * (high + low), xi))
    return out


def gradient_faces(grid, u):
    """Forward differences to faces per axis, zero-extended; list of arrays."""
    ue, d = _extend(grid, u), grid.dimension
    return [np.subtract(*_face_sides(ue, d, k)) / grid.h for k in range(d)]


def w1p_seminorm(grid, u, p):
    """(sum over faces of |component|**p * h**d) ** (1/p), a float or one
    per member of a stack, the root taken in the scalar form."""
    lead = u.shape[:-1]
    total = sum((np.abs(g) ** p).reshape(lead + (-1,)).sum(axis=-1)
                for g in gradient_faces(grid, u))
    out = np.array([v ** (1.0 / p) for v in np.ravel(total * grid.weight)])
    return float(out[0]) if not lead else out.reshape(lead)


def divergence_form(grid, coeff, u):
    """-div a(x, u, grad u): each axis's difference of a_k over h, summed
    first axis first from that term."""
    d = grid.dimension
    first, *rest = [np.diff(coeff.a_eval(*face)[k], axis=k - d) / grid.h
                    for k, face in enumerate(faces(grid, u))]
    return -sum(rest, first).reshape(u.shape)


def flux_band(grid, coeff, drift, u):
    """The stencil band of the Jacobian of -div a + f (no perturbation),
    (3,) * d + (n,) * d per member, zero off the grid."""
    h, d, lead = grid.h, grid.dimension, u.shape[:-1]
    band = np.zeros(lead + (3,) * d + grid.shape)
    nodes = (slice(None),) * d
    for axis, face in enumerate(faces(grid, u)):
        a_xi, a_lam = coeff.a_eval.derivative(*face)
        normal = a_xi[axis, axis] / h
        low = (0.5 * a_lam[axis] - normal) / h
        high = (0.5 * a_lam[axis] + normal) / h
        stencil = [(0, 0, low, 1), (1, 0, high, 1)]
        if d == 2:
            across = a_xi[axis, 1 - axis] / (4.0 * h * h)
            stencil += [(0, 1, across, 1), (0, -1, across, -1),
                        (1, 1, across, 1), (1, -1, across, -1)]
        for side, sign, k in ((slice(1, None), -1, 0), (slice(None, -1), 1, -1)):
            index = (..., side) + (slice(None),) * (d - 1 - axis)
            for along, cross, weight, turn in stencil:
                offset = [cross + 1] * d
                offset[axis] = k + along + 1
                into = band[(..., *offset) + nodes]
                (np.add if sign * turn > 0 else np.subtract)(into, weight[index], out=into)
    if drift is not None:
        band[(..., *(1,) * d) + nodes] += drift.f_eval.derivative(u).reshape(lead + grid.shape)
    index = np.indices((3,) * d + grid.shape)
    column = index[d:] + index[:d] - 1
    np.copyto(band, 0.0, where=((column < 0) | (column >= grid.n_interior)).any(axis=0))
    return band
