"""Time stepping for the perturbed evolution du + A_n(u) dt = B_n(t, u) dW.

Two Euler-Maruyama variants share the Ito left-point noise term
sigma_n(t, u^k) K(dW^k): an explicit step, subject to the usual parabolic
step-size restriction, and a drift-implicit step whose nonlinear system is
solved by a damped Newton iteration with a colored finite-difference
Jacobian.  Trajectories are bitwise reproducible from (seed, config): the
Wiener stream is counter-based and every reduction runs in a fixed order.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .noise import NoiseOperator, RawSigma, apply_B
from .regularize import RegularizedSigma
from .spatial import (_gradient_faces, apply_A_n, hm0_norm, norm_l2,
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
    "simulate_coupled_pair",
    "explicit_dt_heuristic",
]

ARMIJO_SLOPE = 1e-4
MIN_LINE_STEP = 2.0 ** -20


class BlowUpError(RuntimeError):
    """Trajectory left the admissible range (non-finite or huge L2 norm)."""

    def __init__(self, step, time, norm):
        super().__init__(f"blow-up at step {step} (t = {time:.6g}): "
                         f"||u||_2 = {norm:.3g}")
        self.step = step
        self.time = time
        self.norm = norm

    def __reduce__(self):
        # rebuild from the constructor's arguments, so the error survives the
        # trip back from a worker process
        return type(self), (self.step, self.time, self.norm)


class NewtonDivergedError(RuntimeError):
    """Damped Newton failed to reduce the residual to tolerance.

    ``step`` and ``time`` locate the failing step; simulate_path sets them
    when the error passes through it, and they stay None otherwise.
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
    record_increments: bool = False
    blow_up_threshold: float = 1e12
    sigma_grid_points: int = 1024

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
            sigma = RegularizedSigma(spec, config.n,
                                     grid_points=config.sigma_grid_points)
        else:
            sigma = RawSigma(spec)
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
        gmax = max(float(np.max(np.abs(g))) for g in _gradient_faces(grid, u0))
        slope = max(1.0, gmax ** (p - 2.0))
    c3 = max(system.coeff.c3, 1.0)
    return grid.h ** 2 / (2.0 * grid.dimension * c3 * slope)


def _weighted_norm(grid, r):
    return float(np.sqrt(np.sum(r * r) * grid.weight))


def _colored_jacobian(system, dt, v):
    """Dense Jacobian of G(v) = v + dt A_n(v) by simultaneous perturbations.

    Columns at Chebyshev distance > 2 * half_width share a perturbation;
    the response of each is scattered only into its own stencil box, so the
    assembly costs (2 hw + 1)^d + 1 operator evaluations regardless of the
    grid size.
    """
    grid = system.grid
    size, n = grid.size, grid.n_interior
    hw = system.jacobian_half_width
    stride = 2 * hw + 1
    base = system.apply_drift_operator(v)
    eps = np.sqrt(np.finfo(float).eps) * (1.0 + np.abs(v))
    jac = np.zeros((size, size))

    idx = np.arange(size)
    if grid.dimension == 1:
        coords = (idx,)
    else:
        coords = (idx // n, idx % n)
    color = sum((c % stride) * stride ** k for k, c in enumerate(coords))

    offsets = [(o,) for o in range(-hw, hw + 1)] if grid.dimension == 1 else [
        (o1, o2) for o1 in range(-hw, hw + 1) for o2 in range(-hw, hw + 1)]
    for c in np.unique(color):
        cols = idx[color == c]
        pert_vec = np.zeros(size)
        pert_vec[cols] = eps[cols]
        resp = (system.apply_drift_operator(v + pert_vec) - base)
        for off in offsets:
            out = [coords[k][cols] + off[k] for k in range(grid.dimension)]
            ok = np.ones(cols.size, dtype=bool)
            for axis_vals in out:
                ok &= (axis_vals >= 0) & (axis_vals < n)
            rows = out[0][ok] if grid.dimension == 1 else out[0][ok] * n + out[1][ok]
            jac[rows, cols[ok]] = resp[rows] / eps[cols[ok]]
    return np.eye(size) + dt * jac


def step_semi_implicit(system, config, u, t, dw):
    """Drift-implicit step: solve v + dt A_n(v) = u + sigma_n(t, u) K(dW).

    Damped Newton with Armijo backtracking (halving, floor 2^-20) on the
    weighted residual norm; the implicit system is strongly monotone
    whenever the higher-order term is active, which is what makes this
    scheme solvable without a step-size restriction.
    """
    grid, dt = system.grid, config.dt
    noise = system.noise_term(t, u, dw)
    rhs = u + noise
    v = u.copy()
    residual = v + dt * system.apply_drift_operator(v) - rhs
    res_norm = _weighted_norm(grid, residual)
    iters = 0
    while res_norm > config.newton_tol:
        if iters >= config.newton_max_iter:
            raise NewtonDivergedError(iters, res_norm)
        jac = _colored_jacobian(system, dt, v)
        try:
            delta = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergedError(iters, res_norm) from exc
        step = 1.0
        while True:
            trial = v + step * delta
            trial_res = trial + dt * system.apply_drift_operator(trial) - rhs
            trial_norm = _weighted_norm(grid, trial_res)
            if trial_norm <= (1.0 - ARMIJO_SLOPE * step) * res_norm:
                break
            step *= 0.5
            if step < MIN_LINE_STEP:
                raise NewtonDivergedError(iters, res_norm)
        v, residual, res_norm = trial, trial_res, trial_norm
        iters += 1
    return v, noise, iters


def _advance(system, config, sampler, u, t, dt, dw, depth):
    """One interval of length dt, bisecting on Newton failure when allowed."""
    stepper = step_explicit if config.scheme == "explicit" else step_semi_implicit
    sub = replace(config, dt=dt) if dt != config.dt else config
    try:
        return stepper(system, sub, u, t, dw)
    except NewtonDivergedError:
        if depth >= config.newton_dt_retries:
            raise
    first, second = sampler.sample_bridge(dt, dw)
    u_mid, _, it1 = _advance(system, config, sampler, u, t, dt / 2.0, first, depth + 1)
    u_end, _, it2 = _advance(system, config, sampler, u_mid, t + dt / 2.0,
                             dt / 2.0, second, depth + 1)
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
    increments: np.ndarray = field(default=None, repr=False)

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
    incr_log = [] if config.record_increments else None
    integrals = {"grad_lp_p": 0.0, "hm0_sq": 0.0, "wmq_q": 0.0}

    def check_state(k, t_now):
        l2_sq = norm_l2(grid, u) ** 2
        if not np.all(np.isfinite(u)) or np.sqrt(l2_sq) > config.blow_up_threshold:
            raise BlowUpError(k, t_now, np.sqrt(l2_sq) if np.all(np.isfinite(u))
                              else np.inf)
        return l2_sq

    def record(k):
        times.append(k * config.dt)
        states.append(u.copy())
        for name, val in _energies(system, u).items():
            energy_log[name].append(val)

    sup_l2_sq = check_state(0, 0.0)
    record(0)
    for k in range(steps):
        t = k * config.dt
        here = _energies(system, u)
        integrals["grad_lp_p"] += config.dt * here["grad_lp_p"]
        integrals["hm0_sq"] += config.dt * here["hm0_sq"]
        integrals["wmq_q"] += config.dt * here["wmq_q"]

        if sampler is not None:
            dw = sampler.sample_increment(config.dt)
        else:
            dw = np.zeros(grid.size)
        try:
            u, _, iters = _advance(system, config, sampler, u, t, config.dt, dw, 0)
        except NewtonDivergedError as exc:
            exc.step, exc.time = k, t
            raise
        iters_log.append(iters)
        if incr_log is not None:
            incr_log.append(dw)

        sup_l2_sq = max(sup_l2_sq, check_state(k + 1, (k + 1) * config.dt))
        if (k + 1) % config.record_every == 0 or k + 1 == steps:
            record(k + 1)

    return TrajectoryRecord(
        times=np.asarray(times),
        states=np.asarray(states),
        energies={k: np.asarray(v) for k, v in energy_log.items()},
        newton_iters=np.asarray(iters_log, dtype=int),
        sup_l2_sq=float(sup_l2_sq),
        integrals=integrals,
        increments=None if incr_log is None else np.asarray(incr_log),
    )


def simulate_coupled_pair(systems, config, initial_states, sampler):
    """Two trajectories driven by the identical increment stream.

    ``systems`` is a pair (possibly the same object twice) and
    ``initial_states`` the matching pair of initial data; the single
    sampler is drawn once per step and the increment fed to both, which is
    the coupling used by the contraction and Cauchy experiments.
    """
    sys_a, sys_b = systems
    if sys_a.grid.size != sys_b.grid.size:
        raise ValueError("coupled systems must share the grid")
    cfg_rec = replace(config, record_increments=True)
    grid = sys_a.grid
    u_a = grid.check(initial_states[0]).copy()
    u_b = grid.check(initial_states[1]).copy()

    # reuse simulate_path by materializing the common increments first
    steps = config.num_steps
    increments = np.empty((steps, grid.size))
    for k in range(steps):
        increments[k] = sampler.sample_increment(config.dt)

    rec_a = _simulate_with_increments(sys_a, cfg_rec, u_a, increments)
    rec_b = _simulate_with_increments(sys_b, cfg_rec, u_b, increments)
    return rec_a, rec_b


class _FrozenStream:
    """Replays a fixed table of increments; bridge refinement is disabled."""

    def __init__(self, increments):
        self.increments = increments
        self.cursor = 0

    def sample_increment(self, dt):
        out = self.increments[self.cursor]
        self.cursor += 1
        return out

    def sample_bridge(self, dt, dw):
        raise RuntimeError("dt bisection is unavailable when replaying a "
                           "frozen increment table; run coupled experiments "
                           "with newton_dt_retries = 0")


def _simulate_with_increments(system, config, u0, increments):
    stream = _FrozenStream(increments)
    return simulate_path(system, config, u0, sampler=stream)
