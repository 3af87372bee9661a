"""Time stepping for the perturbed evolution du + A_n(u) dt = B_n(t, u) dW.

Two Euler-Maruyama variants share the Ito left-point noise term
sigma_n(t, u^k) K(dW^k): an explicit step, subject to the usual parabolic
step-size restriction, and a drift-implicit step whose nonlinear system is
solved by a damped Newton iteration with a finite-difference Jacobian,
colored on a box stencil built once per (grid, half-width).  The stencil
couples only nearby grid lines, so the Newton matrix is stored by line and
solved by block elimination over lines, with numpy alone: no size x size
array is formed and scipy.linalg is never loaded.  Trajectories
are bitwise reproducible from (seed, config): the Wiener increments and
bridge points are pure functions of (seed, path, step, node) and every
reduction runs in a fixed order.  Coupled runs -- two initial data, or two
levels, on one Wiener path -- are therefore just simulate_path calls on
samplers with the same (seed, path), run in any order.
"""

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

import numpy as np

from .noise import NoiseOperator, apply_B
from .regularize import RegularizedSigma
from .spatial import (apply_A_n, gradient_faces, hm0_norm, norm_l2,
                      w1p_seminorm, wmq_norm)

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
    "explicit_dt_heuristic",
]

ARMIJO_SLOPE = 1e-4
MIN_LINE_STEP = 2.0 ** -20
BLOW_UP_NORM = 1e12


class BlowUpError(RuntimeError):
    """Trajectory left the admissible range (non-finite or huge L2 norm).

    verify's trajectory job adds ``study``, ``level`` and ``path``
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

    ``step`` and ``time`` locate the failing step; simulate_path sets them
    when the error passes through it, and they stay None otherwise.
    verify's trajectory job adds ``study``, ``level`` and ``path``
    attributes.
    """

    def __init__(self, iterations, residual):
        super().__init__(f"Newton stalled after {iterations} iterations "
                         f"(residual {residual:.3g})")
        self.iterations = iterations
        self.residual = residual
        self.step = None
        self.time = None

    def __reduce__(self):
        return type(self), (self.iterations, self.residual), self.__dict__


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
    newton_max_iter: int = 40
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
    """Assembled right-hand side: grid, drift operator pieces, and noise."""

    grid: object
    coeff: object
    drift: object
    pert: object
    n: object
    noise_op: object = None

    def apply_drift_operator(self, u):
        return apply_A_n(self.grid, self.coeff, self.drift, self.pert, self.n, u)

    def noise_term(self, t, u, dw):
        if self.noise_op is None:
            return np.zeros(self.grid.size)
        return apply_B(self.noise_op, t, u, dw)

    @property
    def jacobian_half_width(self):
        return max(1, self.pert.m) if self.pert is not None else 1


def build_system(grid, coeff, drift, pert, config, spec=None, kernel=None):
    """Wire the model pieces for one run at level config.n.

    The noise coefficient follows config.sigma_mode; the higher-order term
    is scaled by 1/n and dropped entirely when config.use_perturbation is
    false or n is None.
    """
    sigma = None
    if kernel is not None and spec is not None:
        if config.sigma_mode == "regularized":
            if config.n is None:
                raise ValueError("sigma_mode 'regularized' needs a level n")
            sigma = RegularizedSigma(spec, config.n)
        else:
            sigma = spec.eval
    noise_op = NoiseOperator(kernel, sigma) if sigma is not None else None
    use_pert = config.use_perturbation and pert is not None and config.n is not None
    return System(grid=grid, coeff=coeff, drift=drift,
                  pert=pert if use_pert else None,
                  n=config.n if use_pert else None, noise_op=noise_op)


# ------------------------------------------------------------------- stepping


def step_explicit(system, config, u, t, dw):
    """u - dt A_n(u) + sigma_n(t, u) K(dW), the forward Euler-Maruyama step."""
    noise = system.noise_term(t, u, dw)
    return u - config.dt * system.apply_drift_operator(u) + noise, noise, 0


def explicit_dt_heuristic(system, u0):
    """Parabolic step bound h^2 / (2 d c3 max(1, |grad u0|_inf^(p-2))).

    A heuristic, not a guarantee: the nonlinear diffusion stiffens wherever
    the gradient grows, and the blow-up guard is the actual safety net.
    """
    grid = system.grid
    slope = 1.0
    p = system.coeff.p
    if p > 2.0:
        gmax = max(float(np.max(np.abs(g))) for g in gradient_faces(grid, u0))
        slope = max(1.0, gmax ** (p - 2.0))
    c3 = max(system.coeff.c3, 1.0)
    return grid.h ** 2 / (2.0 * grid.dimension * c3 * slope)


@lru_cache(maxsize=None)
def _jacobian_stencil(grid, half_width):
    """Sparsity of the drift's Jacobian, and where it lands in the line slab.

    Returns every node pair within Chebyshev distance half_width as flat
    (rows, cols), the color of each col, a (colors, size) indicator of the
    nodes of each color, the slab's shape, and the flat slab positions of
    the pairs and of the diagonal.

    A node's color is its coordinates mod 2 half_width + 1 (mod n_interior
    on coarser grids), so two nodes of one color lie more than 2 half_width
    apart along some axis and their stencil boxes are disjoint.

    A line is a run of n_interior nodes along the last axis (in 1d the
    whole grid).  The stencil couples lines at most r = min(half_width,
    lines - 1) apart, so I + dt J is stored as a (lines, n, (2 r + 1) n)
    slab whose row-block i holds line i's rows over lines i - r ... i + r.
    """
    side = min(2 * half_width + 1, grid.n_interior)
    coords = np.indices(grid.shape).reshape(grid.dimension, 1, -1)
    offsets = np.array(list(product(range(-half_width, half_width + 1),
                                    repeat=grid.dimension)))
    out = coords + offsets.T[:, :, None]
    ok = np.all((out >= 0) & (out < grid.n_interior), axis=0)
    rows, cols = np.ravel_multi_index(out[:, ok], grid.shape), np.nonzero(ok)[1]
    color = np.ravel_multi_index(coords[:, 0] % side, (side,) * grid.dimension)
    members = color == np.arange(side ** grid.dimension)[:, None]
    n = grid.n_interior
    lines = grid.size // n
    reach = min(half_width, lines - 1)
    shape = (lines, n, (2 * reach + 1) * n)
    # row (i, a) and col (j, c) go to slab[i, a, (j - i + reach) n + c]
    scatter = rows * shape[2] + (cols // n - rows // n + reach) * n + cols % n
    nodes = np.arange(grid.size)
    diagonal = nodes * shape[2] + reach * n + nodes % n
    return rows, cols, color[cols], members, shape, scatter, diagonal


def _colored_jacobian(system, dt, v, base):
    """I + dt J for G(v) = v + dt A_n(v), by simultaneous perturbations,
    stored by line as _jacobian_stencil describes.

    base is A_n(v).  All columns of one color are perturbed together, and
    each column takes the response only on the rows of its own stencil box,
    so the assembly costs one operator evaluation per color, (2 hw + 1)^d at
    most, regardless of the grid size.
    """
    rows, cols, col_color, members, shape, scatter, diagonal = \
        _jacobian_stencil(system.grid, system.jacobian_half_width)
    eps = np.sqrt(np.finfo(float).eps) * (1.0 + np.abs(v))
    resp = np.array([system.apply_drift_operator(w) - base
                     for w in v + members * eps])
    slab = np.zeros(shape)
    slab.flat[scatter] = resp[col_color, rows] / eps[cols]
    slab *= dt
    slab.flat[diagonal] += 1.0   # I + dt J in place
    return slab


def _solve_lines(slab, rhs):
    """Solve the line-stored system of _colored_jacobian for rhs.

    Block Gaussian elimination over lines (block Thomas with r coupled
    lines on each side), pivoting inside each line's diagonal block: every
    line but the last solves its block against its rhs and its couplings to
    the lines after it, eliminates itself from the next r lines, and back
    substitution finishes.  In 1d there is one line and this is a single
    dense solve.  slab is overwritten; a singular block raises LinAlgError.

    Lines need no pivoting among them: A_n is monotone up to the drift's
    Lipschitz constant L, so for dt L < 1 the symmetric part of I + dt J is
    positive definite, and so is that of every block met on the way.
    """
    lines, n, width = slab.shape
    reach = (width // n - 1) // 2

    def cols(offset, count=1):
        """Slab columns of count lines, from offset lines after the row's."""
        return slice((reach + offset) * n, (reach + offset + count) * n)

    x = rhs.reshape(lines, n).copy()
    for i in range(lines - 1):
        ahead = min(reach, lines - 1 - i)
        sol = np.linalg.solve(slab[i, :, cols(0)],
                              np.column_stack((x[i], slab[i, :, cols(1, ahead)])))
        x[i], slab[i, :, cols(1, ahead)] = sol[:, 0], sol[:, 1:]
        for s in range(1, ahead + 1):
            update = slab[i + s, :, cols(-s)] @ sol
            x[i + s] -= update[:, 0]
            slab[i + s, :, cols(1 - s, ahead)] -= update[:, 1:]
    x[-1] = np.linalg.solve(slab[-1, :, cols(0)], x[-1])
    for i in range(lines - 2, -1, -1):
        ahead = min(reach, lines - 1 - i)
        x[i] -= slab[i, :, cols(1, ahead)] @ x[i + 1:i + 1 + ahead].ravel()
    return x.ravel()


def step_semi_implicit(system, config, u, t, dw):
    """Drift-implicit step: solve v + dt A_n(v) = u + sigma_n(t, u) K(dW).

    Damped Newton with Armijo backtracking (halving, floor 2^-20) on the
    weighted residual norm; the implicit system is strongly monotone
    whenever the higher-order term is active, which is what makes this
    scheme solvable without a step-size restriction.  A_n at the current
    iterate comes from its residual, so each iteration evaluates A_n once
    per color and once per line-search trial.
    """
    grid, dt = system.grid, config.dt
    noise = system.noise_term(t, u, dw)
    rhs = u + noise
    v = u.copy()
    drift = system.apply_drift_operator(v)
    residual = v + dt * drift - rhs
    res_norm = norm_l2(grid, residual)
    iters = 0
    while res_norm > config.newton_tol:
        if iters >= config.newton_max_iter:
            raise NewtonDivergedError(iters, res_norm)
        slab = _colored_jacobian(system, dt, v, drift)
        try:
            delta = _solve_lines(slab, -residual)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergedError(iters, res_norm) from exc
        step = 1.0
        while True:
            trial = v + step * delta
            trial_drift = system.apply_drift_operator(trial)
            trial_res = trial + dt * trial_drift - rhs
            trial_norm = norm_l2(grid, trial_res)
            if trial_norm <= (1.0 - ARMIJO_SLOPE * step) * res_norm:
                break
            step *= 0.5
            if step < MIN_LINE_STEP:
                raise NewtonDivergedError(iters, res_norm)
        v, drift, residual, res_norm = trial, trial_drift, trial_res, trial_norm
        iters += 1
    return v, noise, iters


def _advance(system, config, sampler, u, t, dt, dw, k, node=1):
    """Sub-interval ``node`` (heap index, the whole step k is 1) of length
    dt, bisected at its Brownian bridge midpoint on Newton failure, down to
    newton_dt_retries levels."""
    stepper = step_explicit if config.scheme == "explicit" else step_semi_implicit
    sub = replace(config, dt=dt) if dt != config.dt else config
    try:
        return stepper(system, sub, u, t, dw)
    except NewtonDivergedError:
        if node.bit_length() - 1 >= config.newton_dt_retries:   # node's depth
            raise
    if sampler is None:   # the halves of a zero increment are zero
        first = second = dw
    else:
        first, second = sampler.sample_bridge(k, node, dt, dw)
    u_mid, _, it1 = _advance(system, config, sampler, u, t, dt / 2.0, first,
                             k, 2 * node)
    u_end, _, it2 = _advance(system, config, sampler, u_mid, t + dt / 2.0,
                             dt / 2.0, second, k, 2 * node + 1)
    return u_end, None, it1 + it2


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


def _energies(system, u):
    grid = system.grid
    out = {"l2_sq": norm_l2(grid, u) ** 2,
           "grad_lp_p": w1p_seminorm(grid, u, system.coeff.p) ** system.coeff.p}
    if system.pert is not None:
        out["hm0_sq"] = hm0_norm(grid, u, system.pert.m) ** 2
        out["wmq_q"] = wmq_norm(grid, u, system.pert.m, system.pert.q) ** system.pert.q
    else:
        out["hm0_sq"] = 0.0
        out["wmq_q"] = 0.0
    return out


def simulate_path(system, config, u0, sampler=None):
    """Integrate one trajectory from 0 to t_end.

    Snapshots land every record_every steps (first and last always); the
    running sup of ||u||_2^2 and the left-endpoint quadratures of the
    energy integrands accumulate every step.  Raises BlowUpError the moment
    the state leaves the admissible range.
    """
    grid = system.grid
    u = grid.check(u0).copy()
    steps = config.num_steps
    if config.scheme == "explicit" and steps > 0:
        bound = explicit_dt_heuristic(system, u)
        if config.dt > bound:
            warnings.warn(f"explicit dt = {config.dt:g} exceeds the stability "
                          f"heuristic {bound:g}", RuntimeWarning, stacklevel=2)

    times, states, iters_log = [], [], []
    energy_log = {k: [] for k in ("l2_sq", "grad_lp_p", "hm0_sq", "wmq_q")}
    integrals = {"grad_lp_p": 0.0, "hm0_sq": 0.0, "wmq_q": 0.0}

    def admit(k, t_now):
        """Energies of the state at step k, once it passes the blow-up guard."""
        if not np.all(np.isfinite(u)):
            raise BlowUpError(k, t_now, np.inf)
        here = _energies(system, u)
        if np.sqrt(here["l2_sq"]) > BLOW_UP_NORM:
            raise BlowUpError(k, t_now, np.sqrt(here["l2_sq"]))
        return here

    def record(k, here):
        times.append(k * config.dt)
        states.append(u.copy())
        for name, val in here.items():
            energy_log[name].append(val)

    here = admit(0, 0.0)
    sup_l2_sq = here["l2_sq"]
    record(0, here)
    for k in range(steps):
        t = k * config.dt
        integrals["grad_lp_p"] += config.dt * here["grad_lp_p"]
        integrals["hm0_sq"] += config.dt * here["hm0_sq"]
        integrals["wmq_q"] += config.dt * here["wmq_q"]

        if sampler is not None:
            dw = sampler.sample_increment(k, config.dt)
        else:
            dw = np.zeros(grid.size)
        try:
            u, _, iters = _advance(system, config, sampler, u, t, config.dt, dw, k)
        except NewtonDivergedError as exc:
            exc.step, exc.time = k, t
            raise
        iters_log.append(iters)

        here = admit(k + 1, (k + 1) * config.dt)
        sup_l2_sq = max(sup_l2_sq, here["l2_sq"])
        if (k + 1) % config.record_every == 0 or k + 1 == steps:
            record(k + 1, here)

    return TrajectoryRecord(
        times=np.asarray(times),
        states=np.asarray(states),
        energies={k: np.asarray(v) for k, v in energy_log.items()},
        newton_iters=np.asarray(iters_log, dtype=int),
        sup_l2_sq=float(sup_l2_sq),
        integrals=integrals,
    )
