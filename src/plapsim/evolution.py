"""Time stepping for the perturbed evolution du + A_n(u) dt = B_n(t, u) dW.

Two Euler-Maruyama variants share the Ito left-point noise term
sigma_n(t, u^k) K(dW^k), from the kernel K and sigma_n that System holds
(noise.apply_B): an explicit step, subject to the usual parabolic
step-size restriction, and a drift-implicit step whose nonlinear system is
solved by a damped Newton iteration.  Its matrix is exact, from the
derivatives of the flux and the drift: spatial.jacobian_A_n gives it as
the grid's stencil band, in 1d and 2d alike.  It couples only nearby grid
lines, so the band is scattered into a slab stored by line and factored
by block elimination over lines, with numpy only: in 2d no size x size
array is formed, and no part of scipy is loaded.  In 2d the slab holds
the first half of the grid's lines in order, then the second half from
the grid's far end with each line's coupling blocks reversed, then the
middle line of an odd count (_line_order): the two halves read as one
system each and are eliminated from both ends at once, and the 2 r or
2 r + 1 lines left between them, the middle system, after them.  Each
line's row keeps its Schur complement's inverse folded into it, so a
solve takes one product per line per sweep.  In 2d the iteration is
a chord iteration with refresh: each member of a stack carries its
factors from one full step into the next at the same dt (simulate_batch),
or makes them at the step's start where it has none (a bare step, a
first step, a step after a bisected one, and every part of a bisected
step), and they serve the iterations that follow.  They are made again
at the iterate only where an iteration falls short of a fixed residual
cut (CHORD_RATIO), or where the full step on factors older than the
iterate fails the Armijo test; no damped step is taken on such factors.
In 1d the matrix is one dense block and every iteration refactors, which
is Newton's method.

The steppers advance a stack of trajectories, (B, size) states, as one:
members may differ in level (build_system's levels), initial state and
Wiener path (simulate_batch).  The iteration runs per member, with its
own residual, factors, line search, iteration count and stopping point;
the members still iterating share each operator evaluation,
factorization and solve, and a member whose solve fails is bisected, or
leaves the stack with its error, without holding up the others.  Every
product and sum a member takes is its own, so its trajectory is bitwise
the same in any stack, a stack of one (simulate_path) included.
Trajectories are bitwise reproducible from (seed, config): the Wiener
increments and bridge points are pure functions of (seed, path, step,
node) and every reduction runs in a fixed order.  Coupled runs -- two
initial data, or two levels, on one Wiener path -- are therefore members
on samplers with the same (seed, path), stacked or run apart in any order.
"""

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .noise import apply_B
from .regularize import RegularizedSigma
from .spatial import (GridMismatchError, apply_A_n, difference_blocks,
                      gradient_faces, jacobian_A_n, norm_l2, w1p_seminorm)

__all__ = [
    "BlowUpError",
    "NewtonDivergedError",
    "SolverConfig",
    "System",
    "build_system",
    "TrajectoryRecord",
    "step_explicit",
    "step_semi_implicit",
    "simulate_path",
    "simulate_batch",
    "explicit_dt_heuristic",
    "warn_explicit_dt",
]

ARMIJO_SLOPE = 1e-4
MIN_LINE_STEP = 2.0 ** -20
# an accepted iteration whose residual is above this fraction of the one
# before refactors the Newton matrix at its iterate (step_semi_implicit)
CHORD_RATIO = 0.25
BLOW_UP_NORM = 1e12
# how a member's Newton solve fails (NewtonDivergedError.cause)
NEWTON_CAUSES = {"budget": "the Newton iteration budget is spent",
                 "line_search": "the line search reached its floor on fresh factors",
                 "singular": "a line block of the Newton matrix is singular"}


class BlowUpError(RuntimeError):
    """Trajectory left the admissible range (non-finite or huge L2 norm).

    verify's trajectory runner adds ``study``, ``level`` and ``path``
    attributes.
    """

    def __init__(self, step, time, norm):
        super().__init__(f"blow-up at step {step} (t = {time:.6g}): "
                         f"||u||_2 = {norm:.3g}")
        self.step = step
        self.time = time
        self.norm = norm

    def __reduce__(self):
        # rebuild from the constructor's arguments and carry any location
        # fields set later, so the error survives the trip back from a worker
        return type(self), (self.step, self.time, self.norm), self.__dict__


class NewtonDivergedError(RuntimeError):
    """Damped Newton failed to reduce the residual to tolerance.

    ``cause`` says how (a key of NEWTON_CAUSES): the iteration budget was
    spent, the line search reached its floor on factors at the iterate, or
    the Newton matrix has a singular line block.  ``step`` and ``time``
    locate the failing step; simulate_batch sets them on the member's
    error, and they stay None otherwise.  verify's trajectory runner adds
    ``study``, ``level`` and ``path`` attributes.
    """

    def __init__(self, iterations, residual, cause):
        super().__init__(f"Newton stalled after {iterations} iterations "
                         f"(residual {residual:.3g}): {NEWTON_CAUSES[cause]}")
        self.iterations = iterations
        self.residual = residual
        self.cause = cause
        self.step = None
        self.time = None

    def __reduce__(self):
        return type(self), (self.iterations, self.residual, self.cause), self.__dict__


@dataclass(frozen=True)
class SolverConfig:
    """Scheme selection and tolerances for one trajectory.

    sigma_mode 'regularized' drives the noise with sigma_n at level n;
    'raw' uses sigma itself (the limit dynamics).  use_perturbation turns
    the (1/n) higher-order term on or off independently, so the
    unperturbed limit equation is the pair ('raw', False).
    """

    dt: float
    t_end: float
    n: int = None
    scheme: str = "semi-implicit"
    sigma_mode: str = "regularized"
    use_perturbation: bool = True
    newton_tol: float = 1e-10
    newton_max_iter: int = 40   # solves on factors made at the iterate, per step
    # (step_semi_implicit): chord solves on older factors come on top
    newton_dt_retries: int = 0
    record_every: int = 1

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.scheme not in ("explicit", "semi-implicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.sigma_mode not in ("regularized", "raw"):
            raise ValueError(f"unknown sigma_mode {self.sigma_mode!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")

    @property
    def num_steps(self):
        steps = int(round(self.t_end / self.dt))
        if abs(steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError(f"t_end = {self.t_end} is not a multiple of dt = {self.dt}")
        return steps


@dataclass
class System:
    """Assembled right-hand side: grid, drift operator pieces, and noise.

    It acts on one state or on a stack of them.  n is one level, or an
    array with one level per member of a stack.  The noise term is the
    pair kernel and sigma (apply_B), or none when sigma is None.  Member b
    of a stack takes row b of the increment stack dw.
    """

    grid: object
    coeff: object
    drift: object
    pert: object
    n: object
    kernel: object = None
    sigma: object = None

    def apply_drift_operator(self, u):
        return apply_A_n(self.grid, self.coeff, self.drift, self.pert, self.n, u)

    def noise_term(self, t, u, dw):
        if self.sigma is None:
            return np.zeros(np.shape(u))
        return apply_B(self.kernel, self.sigma, t, u, dw)

    @property
    def jacobian_half_width(self):
        return max(1, self.pert.m) if self.pert is not None else 1

    @property
    def slab_bytes(self):
        """Bytes of one member's Newton matrix in its line slab
        (_newton_matrix), which its factors (_factor_lines) replace."""
        return 8 * math.prod(_slab_positions(self.grid, self.jacobian_half_width)[0])

    def take(self, members):
        """The system of the sub-stack ``members`` (indices into the stack):
        sigma_n keeps the members' levels, a raw sigma serves them as it is."""
        take = getattr(self.sigma, "take", None)
        return replace(self, n=self.n if np.ndim(self.n) == 0 else self.n[members],
                       sigma=self.sigma if take is None else take(members))


def build_system(grid, coeff, drift, pert, config, spec=None, kernel=None,
                 levels=None):
    """Wire the model pieces for one run at level config.n.

    The noise coefficient follows config.sigma_mode; the higher-order term
    is scaled by 1/n and dropped entirely when config.use_perturbation is
    false or n is None.  levels, one per member, builds the system of a
    stack whose member b runs at level levels[b] in place of config.n.
    A drift with l_f = 0 is f = 0 (DriftSpec) and is dropped (drift None).
    """
    n = config.n if levels is None else np.asarray(levels)
    sigma = None
    if kernel is not None and spec is not None:
        if config.sigma_mode == "regularized":
            if n is None:
                raise ValueError("sigma_mode 'regularized' needs a level n")
            sigma = RegularizedSigma(spec, n)
        else:
            sigma = spec.eval
    use_pert = config.use_perturbation and pert is not None and n is not None
    return System(grid=grid, coeff=coeff,
                  drift=drift if drift is not None and drift.l_f != 0 else None,
                  pert=pert if use_pert else None,
                  n=n if use_pert else None, kernel=kernel, sigma=sigma)


# ------------------------------------------------------------------- stepping


def _stack(grid, u):
    """u as a (B, size) stack of grid functions; GridMismatchError if it is
    anything else."""
    u = grid.check(u)
    if u.ndim != 2:
        raise GridMismatchError(f"expected a stack of grid functions, got shape {u.shape}")
    return u


def step_explicit(system, config, u, t, dw):
    """u - dt A_n(u) + sigma_n(t, u) K(dW), the forward Euler-Maruyama step.

    u is a stack (B, size); returns (v, noise, 0, outcomes) like
    step_semi_implicit, with no Newton iterations for any member.
    """
    u = _stack(system.grid, u)
    noise = system.noise_term(t, u, dw)
    v = u - config.dt * system.apply_drift_operator(u) + noise
    return v, noise, 0, [0] * len(u)


def explicit_dt_heuristic(system, u0):
    """Parabolic step bound h^2 / (2 d c3 max(1, |grad u0|_inf^(p-2))).

    A heuristic, not a guarantee: the nonlinear diffusion stiffens wherever
    the gradient grows, and the blow-up guard is the actual safety net.  A
    stack u0 gives the bound of its steepest member.
    """
    grid = system.grid
    slope = 1.0
    p = system.coeff.p
    if p > 2.0:
        gmax = max(float(np.max(np.abs(g))) for g in gradient_faces(grid, u0))
        slope = max(1.0, gmax ** (p - 2.0))
    c3 = max(system.coeff.c3, 1.0)
    return grid.h ** 2 / (2.0 * grid.dimension * c3 * slope)


def warn_explicit_dt(system, config, u0, stacklevel=1):
    """Warn (RuntimeWarning) when config steps the explicit scheme with a
    dt above explicit_dt_heuristic(system, u0), u0 one state or a stack.
    stacklevel counts as in warnings.warn, from the caller of this
    function: 1 names that caller, 2 its caller (simulate_path's, say).
    """
    if config.scheme != "explicit" or config.num_steps == 0:
        return
    bound = explicit_dt_heuristic(system, u0)
    if config.dt > bound:
        warnings.warn(f"explicit dt = {config.dt:g} exceeds the stability "
                      f"heuristic {bound:g}", RuntimeWarning, stacklevel=stacklevel + 1)


@lru_cache(maxsize=None)
def _line_order(lines):
    """The slab's order of a grid's lines: per grid line, its row-block in
    the slab and the direction (1 or -1) its 2 r + 1 coupling blocks run
    in, both read-only.

    With h = lines // 2, grid lines 0 ... h - 1 come first, then grid lines
    lines - 1 ... lines - h with their blocks reversed, and for odd lines
    the middle line h last.  Read from the grid's far end, the second half
    is then the same system as the first read from its start, and the two
    are eliminated toward the middle at once (_factor_lines).
    """
    half = lines // 2
    line = np.arange(lines)
    bottom = line >= lines - half
    position = np.where(line < half, line,
                        np.where(bottom, half + lines - 1 - line, 2 * half))
    sign = np.where(bottom, -1, 1)
    position.flags.writeable = sign.flags.writeable = False
    return position, sign


@lru_cache(maxsize=None)
def _slab_positions(grid, half_width):
    """Where a stencil band (spatial.jacobian_A_n) lands in the line slab:
    (slab shape, band positions, slab positions), the positions flat and
    read-only.

    A line is a run of n_interior nodes along the last axis: in 1d the
    whole grid, in 2d one of n_interior lines.  The band's entry (delta + w,
    a), w = half_width, holds the coupling of node a to node a + delta.  The
    slab is (lines, n, (2 r + 1) n), r = min(w, lines - 1), and grid line i
    has the row-block _line_order gives it, holding its rows over lines
    i - r ... i + r, or i + r ... i - r where its blocks run reversed.  The
    positions list the band entries whose column node lies on the grid.
    """
    n, d, w = grid.n_interior, grid.dimension, half_width
    lines = grid.size // n
    reach = min(w, lines - 1)
    shape = (lines, n, (2 * reach + 1) * n)
    index = np.indices((2 * w + 1,) * d + grid.shape).reshape(2 * d, -1)
    delta, node = index[:d] - w, index[d:]
    on = ((0 <= node + delta) & (node + delta < n)).all(axis=0)
    # row (a0, a1) and col (a0 + da, c) go to slab[position, a1, (sign da + r) n
    # + c], the position and sign of line a0; in 1d a0 and da are 0
    line, shift = (node[0], delta[0]) if d == 2 else (0, 0)
    position, sign = _line_order(lines)
    slab = ((position[line] * n + node[-1]) * shape[2]
            + (sign[line] * shift + reach) * n + node[-1] + delta[-1])[on]
    band = np.nonzero(on)[0]
    band.flags.writeable = slab.flags.writeable = False
    return shape, band, slab


def _newton_matrix(system, dt, v, out=None):
    """I + dt J at v, J the exact Jacobian of A_n (spatial.jacobian_A_n),
    stored by line: a (lines, n, (2 r + 1) n) slab per member of a stack v
    (_slab_positions), made in the slabs out where it is given.

    J couples lines at most r apart.  In 1d the whole grid is one line, so
    the slab is the dense matrix.
    """
    grid, d = system.grid, system.grid.dimension
    band = jacobian_A_n(grid, system.coeff, system.drift, system.pert, system.n, v)
    half_width = band.shape[-1 - d] // 2
    lead = band.shape[:-2 * d]
    band *= dt
    band[(..., *(half_width,) * d) + (slice(None),) * d] += 1.0   # I + dt J
    shape, at_band, at_slab = _slab_positions(grid, half_width)
    if out is None:
        slab = np.zeros(lead + shape)
    else:
        slab = out
        slab[...] = 0.0
    slab.reshape(lead + (-1,))[..., at_slab] = band.reshape(lead + (-1,))[..., at_band]
    return slab


def _line_blocks(slab):
    """(lines, reach, cols, half, ends) of a line slab: its lines, the r of
    _newton_matrix, cols(offset, count) the slab columns of count lines
    from offset lines after the row's, the h of _line_order, and the lines
    eliminated from each end of the grid before the middle system,
    max(0, h - r)."""
    lines, n, width = slab.shape[-3:]
    reach = (width // n - 1) // 2

    def cols(offset, count=1):
        return slice((reach + offset) * n, (reach + offset + count) * n)

    half = lines // 2
    return lines, reach, cols, half, max(0, half - reach)


def _eliminate(rows, count, reach, cols):
    """Eliminate the first count lines of rows, (..., lines, n, (2 r + 1) n)
    in grid orientation, in order, in place: each line's row becomes
    S^-1 [L | S | C], S its Schur complement, with S^-1 in place of S, and
    the line leaves the up to r lines after it."""
    lines = rows.shape[-3]
    for i in range(count):
        ahead = min(reach, lines - 1 - i)
        row = rows[..., i, :, :]
        inverse = np.linalg.inv(row[..., cols(0)])
        row[...] = inverse @ row
        row[..., cols(0)] = inverse
        coupled = row[..., cols(1, ahead)]
        for s in range(1, ahead + 1):
            target = rows[..., i + s, :, cols(1 - s, ahead)]
            target -= rows[..., i + s, :, cols(-s)] @ coupled


def _factor_lines(slab):
    """Factors of the line-stored matrix of _newton_matrix for
    _apply_factors, made in place of the slab; a stack of slabs factors
    each member on its own.

    Block Gaussian elimination over lines (block Thomas with r coupled
    lines on each side) from both ends of the grid toward the middle.  In
    the slab's line order (_line_order) the two halves are one system
    each, so the first k = max(0, h - r) lines of both are eliminated at
    once, as a (B, 2, h, n, (2 r + 1) n) view.  What is left, grid lines
    k ... lines - 1 - k (2 r or 2 r + 1 lines for k > 0, else the whole
    grid), is the middle system: gathered in grid order and orientation,
    eliminated the same way, and its rows stored back so, in grid
    orientation.  Eliminating a line folds its Schur complement S's
    inverse into its row: [L | S | C], its couplings to the lines
    eliminated before it, S and its couplings to those after, becomes
    S^-1 [L | S | C] with S^-1 in place of S, so the factors take exactly
    the slab's bytes.  A one-line slab (1d) is its own factor.  A singular
    block raises LinAlgError.

    Lines need no pivoting among them, in any order of elimination: A_n is
    monotone up to the drift's Lipschitz constant L, so for dt L < 1 the
    symmetric part of I + dt J is positive definite, and so is that of
    every Schur complement, whichever lines were eliminated before.
    """
    if slab.shape[-3] == 1:
        return slab
    lines, reach, cols, half, ends = _line_blocks(slab)
    flat = slab.reshape((-1,) + slab.shape[-3:])
    count, n, width = flat.shape[0], flat.shape[-2], flat.shape[-1]
    # the member and half axes stay apart: merged, they copy for odd lines
    _eliminate(flat[:, :2 * half].reshape(count, 2, half, n, width), ends, reach, cols)
    top, bottom = flat[:, ends:half], flat[:, half + ends:2 * half]
    # the second half's rows in grid order, their coupling blocks turned back
    turned = bottom[:, ::-1].reshape(count, -1, n, 2 * reach + 1, n)[..., ::-1, :]
    middle = np.concatenate([top, flat[:, 2 * half:], turned.reshape(count, -1, n, width)],
                            axis=1)
    _eliminate(middle, middle.shape[1], reach, cols)
    split = lines - half - ends   # where the middle's lines of the second half start
    top[...], flat[:, 2 * half:] = middle[:, :half - ends], middle[:, half - ends:split]
    bottom[:, ::-1] = middle[:, split:]
    return flat.reshape(slab.shape)


def _apply_factors(factors, rhs):
    """Solve the system _factor_lines factored for rhs; a stack of factors
    solves a stack of right-hand sides, each member on its own.

    The right-hand side, taken into the slab's line order by slices, is
    first multiplied by every line's S^-1 in one product.  Then come the
    forward sweep over both halves at once; the middle system's forward
    sweep, in grid order, and its back substitution; and back substitution
    over both halves: one product per line and member with the blocks it
    reads, two for a middle line that reads lines eliminated from both
    ends.  A one-line slab is solved densely, which raises LinAlgError
    when its matrix is singular.
    """
    if factors.shape[-3] == 1:
        return np.linalg.solve(factors[..., 0, :, :], rhs[..., None])[..., 0]
    lines, reach, cols, half, ends = _line_blocks(factors)
    flat = factors.reshape((-1,) + factors.shape[-3:])
    count, n, width = flat.shape[0], flat.shape[-2], flat.shape[-1]
    b = rhs.reshape(count, lines, n, 1)
    x = np.empty((count, lines, n, 1))   # in the slab's line order
    x[:, :half], x[:, half:2 * half] = b[:, :half], b[:, ::-1][:, :half]
    x[:, 2 * half:] = b[:, half:lines - half]
    x = flat[:, :, :, cols(0)] @ x
    halves = flat[:, :2 * half].reshape(count, 2, half, n, width)
    y = x[:, :2 * half].reshape(count, 2, half * n, 1)
    for i in range(1, ends):   # on views: y[...] -= would copy each back onto itself
        line, behind = y[:, :, i * n:(i + 1) * n], min(reach, i)
        line -= halves[:, :, i, :, cols(-behind, behind)] @ y[:, :, (i - behind) * n:i * n]
    # the middle system, in grid order: grid lines edge ... lines - 1 - edge
    # hold it and the lines it reads
    edge = ends - min(reach, ends)
    window = np.concatenate([x[:, edge:half], x[:, 2 * half:],
                             x[:, half + edge:2 * half][:, ::-1]], axis=1)
    z = window.reshape(count, -1, 1)

    def at(first, last):   # grid lines first ... last - 1 of the window
        return z[:, (first - edge) * n:(last - edge) * n]

    position = _line_order(lines)[0]
    far = lines - ends   # the first line eliminated from the far end
    for i in range(ends, far):
        row, line, behind = flat[:, position[i]], at(i, i + 1), min(reach, i)
        line -= row[:, :, cols(-behind, behind)] @ at(i - behind, i)
        past, stop = max(i + 1, far), min(i + reach + 1, lines)
        if past < stop:
            line -= row[:, :, cols(past - i, stop - past)] @ at(past, stop)
    for i in range(far - 2, ends - 1, -1):
        line, ahead = at(i, i + 1), min(reach, far - 1 - i)
        line -= flat[:, position[i], :, cols(1, ahead)] @ at(i + 1, i + 1 + ahead)
    split = lines - half - edge   # where the window's lines of the second half start
    x[:, edge:half], x[:, 2 * half:] = window[:, :half - edge], window[:, half - edge:split]
    x[:, half + edge:2 * half][:, ::-1] = window[:, split:]
    for i in range(ends - 1, -1, -1):
        line = y[:, :, i * n:(i + 1) * n]
        line -= halves[:, :, i, :, cols(1, reach)] @ y[:, :, (i + 1) * n:(i + 1 + reach) * n]
    out = np.empty((count, lines, n, 1))
    out[:, :half], out[:, ::-1][:, :half] = x[:, :half], x[:, half:2 * half]
    out[:, half:lines - half] = x[:, 2 * half:]
    return out.reshape(rhs.shape)


def _chord_steps(system, dt, v, residual, factors, renew):
    """Steps -F^-1 residual of each member of the stack v, F the member's
    factors of I + dt J (_factor_lines).

    The members where renew is set first get new factors at their v; the
    others keep theirs from factors, which runs over the same members.
    When every member renews, factors is None, or the slabs the new
    factors are made in.  Returns the steps, the factors and the members
    whose matrix is singular (their steps are NaN).
    """
    every = renew.all()
    fresh = None if every else renew.nonzero()[0]
    out = factors if every else None

    def matrices():
        if every:
            return _newton_matrix(system, dt, v, out)
        return _newton_matrix(system.take(fresh), dt, v[fresh])

    try:
        if every:
            factors = _factor_lines(matrices())
        elif fresh.size:
            factors[fresh] = _factor_lines(matrices())
        return _apply_factors(factors, -residual), factors, []
    except np.linalg.LinAlgError:
        pass
    # member by member, to find them, each factored in place of its slab
    slabs = matrices()
    stack = slabs if every else factors
    slabs = iter(slabs)
    steps, singular = np.full(residual.shape, np.nan), []
    for b in range(renew.size):
        try:
            if renew[b]:
                stack[b] = _factor_lines(next(slabs))
            steps[b] = _apply_factors(stack[b], -residual[b])
        except np.linalg.LinAlgError:
            singular.append(b)
    return steps, stack, singular


@dataclass
class _Carry:
    """Each member's factors of I + dt J (_factor_lines), carried from one
    full step of a stack into its next, at the same dt (simulate_batch):
    ``factors`` holds one slab per member, or is None where none has any,
    and ``kept[b]`` says whether member b's slab holds the factors it
    converged on in its last step."""

    kept: np.ndarray
    factors: np.ndarray = None

    def take(self, members):
        return _Carry(self.kept[members],
                      None if self.factors is None else self.factors[members])


def step_semi_implicit(system, config, u, t, dw, carry=None):
    """Drift-implicit step: solve v + dt A_n(v) = u + sigma_n(t, u) K(dW).

    A chord iteration with refresh, damped by Armijo backtracking
    (halving, floor 2^-20) on the weighted residual norm; the implicit
    system is strongly monotone whenever the higher-order term is active,
    which is what makes this scheme solvable without a step-size
    restriction.  The Newton matrix is exact (_newton_matrix).  A member
    solves (_apply_factors) with the factors (_factor_lines) it carries
    in from its last step (carry), or else with factors made at the
    step's start, until an accepted iteration cuts the residual by less
    than CHORD_RATIO; the next one refactors at its iterate.  Factors
    older than the iterate serve the full step only: where its trial
    fails the Armijo test, the member refactors at the same iterate and
    retries, and only a line search on factors at the iterate halves, and
    fails at the floor.  newton_max_iter caps the Newton iterations, the
    solves on factors at the iterate, so the chord solves between them
    come on top.  A one-line matrix (1d) refactors at every iteration,
    which is Newton's method, and carries nothing.  A_n at the current
    iterate comes from its residual, so each iteration evaluates A_n once
    per line-search trial.

    The iteration starts from the explicit noise update u + sigma_n(t, u)
    K(dW), the right-hand side itself: the noise is already in it, and only
    the drift is left to the solve, whose first residual is dt A_n(rhs).
    Without noise that start is u.

    u is a stack (B, size), the iteration running per member: each has its
    own residual norm, factors, line search and iteration count (its linear
    solves), and stops changing once its residual meets the tolerance; the
    members still iterating share every evaluation, factorization and
    solve.  carry, a _Carry over the stack's members or None (every member
    starts fresh), takes each member's last factors in 2d, made at the
    same dt, and leaves each the factors it converged on; a member that
    fails keeps none.  A round in which every member of the stack
    refactors makes the new factors in the old ones' slabs.  Returns (v,
    noise, iterations, outcomes): the iterations of every member together,
    and per member its own count or, where its solve failed, its
    NewtonDivergedError (its row of v is then no solution).
    """
    grid, dt, tol = system.grid, config.dt, config.newton_tol
    u = _stack(grid, u)
    count = len(u)
    noise = system.noise_term(t, u, dw)
    rhs = u + noise
    v = rhs.copy()
    residual = v + dt * system.apply_drift_operator(v) - rhs
    res_norm = norm_l2(grid, residual)
    iters = np.zeros(count, dtype=int)
    stale = np.zeros(count, dtype=int)   # solves on factors older than the iterate
    failed = {}
    # with more than one line, a chord iteration: a member refactors at its
    # iterate in the next round where refresh is set.  A one-line matrix
    # refactors every round, which is Newton's method.
    chord = grid.size > grid.n_interior
    carry = carry if chord else None
    refresh = np.ones(count, dtype=bool) if carry is None else ~carry.kept

    def fail(members, cause):
        for b in members:
            failed[b] = NewtonDivergedError(int(iters[b]), float(res_norm[b]), cause)

    # members as an index, and their system: while every member takes part,
    # the whole slice and the system itself, so the common round copies and
    # gathers nothing
    whole = (slice(None), system)

    def part(members):
        return whole if len(members) == count else (members, system.take(members))

    active, rounds = (res_norm > tol).nonzero()[0], 0
    # the factors of the members of the round, in order, and those of the
    # members that have converged, (members, factors) by round, for the carry
    factors, left = None, []
    if carry is not None and carry.factors is not None:
        factors = carry.factors if active.size == count else carry.factors[active]
        carry.factors = None
    while active.size:   # each member still iterating has had `rounds` solves
        # at most.  newton_max_iter caps the Newton iterations, the solves on
        # factors at the iterate: a member due new factors with none left
        # fails.  Between two of them each chord solve takes the residual
        # below CHORD_RATIO of the one before or ends in a refresh, so the
        # loop ends.
        if rounds >= config.newton_max_iter:
            newton = iters[active] - stale[active]
            spent = refresh[active] & (newton >= config.newton_max_iter)
            if spent.any():
                fail(active[spent], "budget")
                active = active[~spent]
                if not active.size:
                    break
                if chord:   # the factors run over the members of active
                    factors = factors[~spent]
        at, sub = part(active)
        fresh = refresh[active]   # factors at the member's iterate
        # in 2d a round in which every member refactors makes the new
        # factors in the old ones' slabs; in 1d, where the factors do not
        # follow the round's members, the old go first
        if not chord:
            factors = None
        delta, factors, singular = _chord_steps(sub, dt, v[at], residual[at], factors, fresh)
        if singular:
            fail(active[singular], "singular")
            keep = np.ones(active.size, dtype=bool)
            keep[singular] = False
            active = active[keep]
            if not active.size:
                break
            delta, factors, fresh = delta[keep], factors[keep], fresh[keep]
            at, sub = part(active)
        members = active
        if chord:
            stale[active[~fresh]] += 1
            refresh[active] = False
        step = 1.0   # every member still searching is at the same step
        while True:
            trial = v[at] + step * delta
            trial_res = trial + dt * sub.apply_drift_operator(trial) - rhs[at]
            trial_norm = norm_l2(grid, trial_res)
            ok = trial_norm <= (1.0 - ARMIJO_SLOPE * step) * res_norm[at]
            if chord:   # a passing trial that cuts the residual by less
                # than CHORD_RATIO refactors at the start of the next round
                refresh[active[ok & (trial_norm > CHORD_RATIO * res_norm[at])]] = True
            passed = np.count_nonzero(ok)
            if passed == ok.size:
                if at is whole[0]:   # take the trials whole
                    v, residual, res_norm = trial, trial_res, trial_norm
                    iters += 1
                else:
                    v[at], residual[at], res_norm[at] = trial, trial_res, trial_norm
                    iters[at] += 1
                break
            if passed:   # the members whose trial passes take it
                done = active[ok]
                v[done], residual[done], res_norm[done] = trial[ok], trial_res[ok], trial_norm[ok]
                iters[done] += 1
                active, delta, fresh = active[~ok], delta[~ok], fresh[~ok]
                at, sub = part(active)
            if step == 1.0 and not fresh.all():
                # no damped step on older factors: those members refactor
                # at their iterate in the next round, the others search on
                retry = active[~fresh]
                refresh[retry] = True
                iters[retry] += 1
                active, delta, fresh = active[fresh], delta[fresh], fresh[fresh]
                if not active.size:
                    break
                at, sub = part(active)
            step *= 0.5
            if step < MIN_LINE_STEP:   # on factors at the iterate: fail
                fail(active, "line_search")
                break
        rounds += 1
        going = res_norm > tol
        if failed:
            going[list(failed)] = False
        active = going.nonzero()[0]
        if chord and active.size < members.size:
            stay = going[members]
            if carry is not None:   # the members that converged keep their factors
                done = res_norm[members] <= tol
                if done.any():
                    left.append((members[done], factors if done.all() else factors[done]))
            factors = factors[stay] if active.size else None
    if carry is not None:
        carry.kept = iters > 0
        carry.kept[list(failed)] = False
        if len(left) == 1 and left[0][0].size == count:   # the whole stack, in order
            carry.factors = left[0][1]
        elif left:
            carry.factors = np.empty((count,) + left[0][1].shape[1:])
            while left:   # each round's factors freed once copied
                which, slabs = left.pop()
                carry.factors[which] = slabs
    counts = iters.tolist()
    return v, noise, sum(counts), [failed.get(b, c) for b, c in enumerate(counts)]


def _advance(system, config, samplers, u, t, dt, dw, k, node=1, carry=None):
    """Sub-interval ``node`` (heap index, the whole step k is 1) of length
    dt for the stack u: (states, outcomes) as the steppers return them.

    Member b takes row b of dw and draws its bridge points on samplers[b].
    carry, the members' factors from their last whole step, serves the
    whole step alone (step_semi_implicit).  The members whose Newton solve
    fails are bisected together, each at its own Brownian bridge midpoint,
    down to newton_dt_retries levels, every part starting fresh; a member
    that still fails keeps its error.
    """
    sub = replace(config, dt=dt) if dt != config.dt else config
    if config.scheme == "explicit":
        v, _, _, outcomes = step_explicit(system, sub, u, t, dw)
    else:
        v, _, _, outcomes = step_semi_implicit(system, sub, u, t, dw, carry)
    failed = [b for b, out in enumerate(outcomes) if isinstance(out, NewtonDivergedError)]
    if not failed or node.bit_length() - 1 >= config.newton_dt_retries:   # node's depth
        return v, outcomes
    whole = dw[failed]
    if samplers is None:   # the halves of a zero increment are zero
        own, first, second = None, whole, whole
    else:
        own = [samplers[b] for b in failed]
        halves = [s.sample_bridge(k, node, dt, w) for s, w in zip(own, whole)]
        first, second = (np.array([pair[i] for pair in halves]) for i in (0, 1))
    part = system.take(failed)
    mid, first_out = _advance(part, config, own, u[failed], t, dt / 2.0, first,
                              k, 2 * node)
    go = [j for j, out in enumerate(first_out) if not isinstance(out, NewtonDivergedError)]
    if go:
        end, second_out = _advance(part.take(go), config,
                                   None if own is None else [own[j] for j in go],
                                   mid[go], t + dt / 2.0, dt / 2.0, second[go],
                                   k, 2 * node + 1)
        mid[go] = end
        for j, out in zip(go, second_out):
            first_out[j] = out if isinstance(out, NewtonDivergedError) \
                else first_out[j] + out
    v[failed] = mid
    for b, out in zip(failed, first_out):
        outcomes[b] = out
    return v, outcomes


# ---------------------------------------------------------------- trajectories


@dataclass
class TrajectoryRecord:
    """Snapshots, per-snapshot energies, and left-endpoint time integrals."""

    times: np.ndarray
    states: np.ndarray
    energies: dict
    newton_iters: np.ndarray
    sup_l2_sq: float
    integrals: dict

    def final_state(self):
        return self.states[-1]


def _guard(grid, u):
    """||u_b||_2^2 of each member of the stack u, and {b: norm} for the
    members that left the admissible range (norm inf where not finite).

    The norm is the root of the squared norm, each taken as a scalar, as
    the energies have it; a runaway state's squares overflow to inf, and a
    state that is not finite has no finite norm either."""
    with np.errstate(over="ignore", invalid="ignore"):
        l2_sq = [x ** 2 for x in norm_l2(grid, u)]
    blown = {}
    for b, norm in enumerate(map(math.sqrt, l2_sq)):
        if not norm <= BLOW_UP_NORM:
            blown[b] = norm if np.isfinite(u[b]).all() else math.inf
    return np.array(l2_sq), blown


_ENERGIES = ("l2_sq", "grad_lp_p", "hm0_sq", "wmq_q")


def _energies(system, u, l2_sq):
    """_ENERGIES (rows) of each member (columns) of the stack u, whose
    ||u_b||_2^2 are l2_sq.

    Roots and powers of a member's norms are scalar ones (see spatial's
    norms), so a member's energies do not depend on the stack."""
    grid, p = system.grid, system.coeff.p
    out = np.zeros((len(_ENERGIES), len(l2_sq)))
    out[0] = l2_sq
    out[1] = [x ** p for x in w1p_seminorm(grid, u, p)]
    if system.pert is not None:
        blocks = [d.reshape(len(u), -1) for d in difference_blocks(grid, u, system.pert.m)]
        out[2] = sum((d * d).sum(axis=-1) for d in blocks) * grid.weight
        out[3] = sum((np.abs(d) ** system.pert.q).sum(axis=-1) for d in blocks) * grid.weight
    return out


def simulate_batch(system, config, u0, samplers=None, rows=None, energies=True):
    """Integrate a stack of trajectories, one per row of u0, from 0 to t_end.

    Member b runs on the Wiener path of samplers[rows[b]] (rows defaults to
    b; samplers None runs without noise): each step draws each running
    path's increment once and hands it to the path's members, with its
    sampler.  system may give each member its own level (build_system's levels).

    Returns a list over the members: the TrajectoryRecord of each, or the
    BlowUpError or NewtonDivergedError that stopped it, carrying the step
    and time.  A failing member leaves the stack and the others run on.
    Snapshots land every record_every steps (first and last always).  The
    blow-up guard takes ||u||_2^2 of every state, so the running sup of it
    and its snapshots (energies["l2_sq"]) are always measured.  With
    energies set, the other _ENERGIES are formed at every state, after the
    guard has passed it, and their left-endpoint quadratures accumulate
    every step; without it the record has no other energies and no
    integrals, and states, sup and iteration counts are bitwise the same.
    The explicit dt is not checked here: simulate_path and verify.run_jobs
    check it for their caller (warn_explicit_dt).
    """
    grid, dt, steps = system.grid, config.dt, config.num_steps
    u = np.array(_stack(grid, u0))
    count = len(u)
    rows = np.arange(count) if rows is None else np.asarray(rows)
    results = [None] * count
    alive, live = np.arange(count), slice(None)
    part = paths = own = on = None
    # each running member's factors, carried into its next step
    carry = None if config.scheme == "explicit" else _Carry(np.zeros(count, dtype=bool))

    def regroup():
        """The running members' system, paths, path (own) and sampler (on)."""
        nonlocal live, part, paths, own, on
        if not alive.size:
            return
        live = slice(None) if alive.size == count else alive
        part = system.take(alive)
        if samplers is not None:
            slots, own = np.unique(rows[alive], return_inverse=True)
            paths = [samplers[r] for r in slots]
            on = [paths[i] for i in own]

    def leave(members, errors):
        nonlocal alive, carry
        for b, exc in zip(members, errors):
            results[b] = exc
        stay = np.isin(alive, members, invert=True)
        alive = alive[stay]
        if carry is not None:
            carry = carry.take(stay)
        regroup()

    # the energies at the current state, and the sums over the steps (the
    # columns of a member that left the stack stop changing and are not read)
    names = _ENERGIES if energies else _ENERGIES[:1]
    energy = np.zeros((len(names), count))
    integrals = np.zeros((len(names) - 1, count))   # of all but l2_sq
    # snapshots at step 0, every record_every steps and the last step
    records = 1 + steps // config.record_every + (steps % config.record_every > 0)
    states = np.empty((records, count, grid.size))
    energy_log = np.empty((records, len(names), count))
    times = []
    iters = np.zeros((steps, count), dtype=int)

    def admit(k):
        """Guard the running members' states at step k, then take the
        energies of those that stay (l2_sq alone without energies)."""
        l2_sq, blown = _guard(grid, u[live])
        if blown:
            leave(alive[list(blown)], [BlowUpError(k, k * dt, norm)
                                       for norm in blown.values()])
            l2_sq = np.delete(l2_sq, list(blown))
        if not alive.size:
            return
        energy[:, live] = _energies(system, u[live], l2_sq) if energies else l2_sq

    def record(k):
        i = len(times)
        states[i], energy_log[i] = u, energy
        times.append(k * dt)

    regroup()
    admit(0)
    sup_l2_sq = energy[0].copy()
    record(0)
    for k in range(steps):
        if not alive.size:
            break
        t = k * dt
        integrals += dt * energy[1:]
        if paths is None:
            dw = np.zeros((len(alive), grid.size))
        else:
            dw = np.array([sampler.sample_increment(k, dt) for sampler in paths])[own]
        u[live], outcomes = _advance(part, config, on, u[live], t, dt, dw, k, carry=carry)
        iters[k, live] = [0 if isinstance(out, NewtonDivergedError) else out
                          for out in outcomes]
        stopped = [j for j, out in enumerate(outcomes) if isinstance(out, NewtonDivergedError)]
        for j in stopped:
            outcomes[j].step, outcomes[j].time = k, t
        if stopped:
            leave(alive[stopped], [outcomes[j] for j in stopped])

        admit(k + 1)
        np.maximum(sup_l2_sq, energy[0], out=sup_l2_sq)
        if (k + 1) % config.record_every == 0 or k + 1 == steps:
            record(k + 1)

    for b in alive:
        results[b] = TrajectoryRecord(
            times=np.asarray(times),
            states=np.ascontiguousarray(states[:, b]),
            energies={name: np.ascontiguousarray(energy_log[:, i, b])
                      for i, name in enumerate(names)},
            newton_iters=iters[:, b].copy(),
            sup_l2_sq=float(sup_l2_sq[b]),
            integrals={name: float(total) for name, total in
                       zip(names[1:], integrals[:, b])},
        )
    return results


def simulate_path(system, config, u0, sampler=None):
    """Integrate one trajectory from 0 to t_end: a stack of one in
    simulate_batch.  Raises the BlowUpError or NewtonDivergedError that
    stops it, and warns its caller of an explicit dt above the heuristic."""
    u0 = system.grid.check(u0)
    if u0.ndim != 1:
        raise GridMismatchError(f"expected one flat grid function, got shape {u0.shape}")
    warn_explicit_dt(system, config, u0, stacklevel=2)
    (result,) = simulate_batch(system, config, u0[None],
                               None if sampler is None else [sampler])
    if isinstance(result, Exception):
        raise result
    return result
