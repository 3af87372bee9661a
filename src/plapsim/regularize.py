"""Lipschitz regularization of Holder-continuous noise coefficients.

A coefficient sigma(t, lam) that is alpha-Holder in lam is replaced by its
inf-convolution

    sigma_n(t, lam) = inf_mu [ sigma(t, mu) + n * |lam - mu| ],

which is n-Lipschitz, sits below sigma, and converges uniformly at the rate
n**(alpha/(alpha-1)).  This module evaluates sigma_n through the
coefficient's own inf_convolution (exact for the power prototype),
provides the closed-form gap bounds that control the approximation error,
and checks the claimed properties.  Each level and time is measured once,
on one lam set: a uniform grid joined with log-spaced magnitudes that reach
a thousand times below the level's gap maximizer (alpha l_alpha /
n)**(1/(1-alpha)), where sigma_n departs from sigma, and a zoom on the
largest gap.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "HolderSpec",
    "PowerSigma",
    "power_sigma",
    "RegularizedSigma",
    "n0",
    "gap_bound",
    "c_alpha",
    "sigma_n_values",
    "sup_gap_scan",
    "gap_decay_study",
    "verify_regularization",
]


@dataclass(frozen=True)
class PowerSigma:
    """sigma(t, lam) = scale * |lam|**alpha, the canonical Holder prototype.

    Holder constant equals ``scale`` and the quadratic growth constant
    ``scale**2`` is valid since |lam|**(2*alpha) <= 1 + lam**2 for
    alpha <= 1.
    """

    alpha: float
    scale: float = 1.0

    def __call__(self, t, lam):
        return self.scale * np.abs(lam) ** self.alpha

    def inf_convolution(self, t, lam, n):
        # exact for 0 < alpha <= 1: mu -> scale |mu|**alpha + n |lam - mu| is concave
        # on each piece cut at mu = 0 and mu = lam, so one of the two attains the inf
        return np.minimum(self(t, lam), n * np.abs(lam))


@dataclass(frozen=True)
class HolderSpec:
    """Noise coefficient with quantified Holder regularity.

    Parameters
    ----------
    eval : callable
        Vectorized ``(t, lam) -> value`` with ``eval(t, 0) == 0``;
        RegularizedSigma also needs its ``inf_convolution(t, lam, n)``.
    alpha : float
        Holder exponent in (0, 1].
    l_alpha : float
        Holder constant: |sigma(t,a) - sigma(t,b)| <= l_alpha * |a-b|**alpha.
    c_sigma : float
        Growth constant: sigma(t,lam)**2 <= c_sigma * (1 + lam**2).
    """

    eval: object
    alpha: float
    l_alpha: float
    c_sigma: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.l_alpha <= 0.0:
            raise ValueError(f"l_alpha must be positive, got {self.l_alpha}")
        if self.c_sigma <= 0.0:
            raise ValueError(f"c_sigma must be positive, got {self.c_sigma}")


def power_sigma(alpha, scale=1.0):
    """HolderSpec for sigma = scale * |lam|**alpha."""
    return HolderSpec(eval=PowerSigma(alpha, scale), alpha=alpha,
                      l_alpha=scale, c_sigma=scale ** 2)


def n0(c_sigma):
    """Smallest integer n with n >= sqrt(c_sigma); regularization levels start here."""
    if c_sigma <= 0.0:
        raise ValueError(f"c_sigma must be positive, got {c_sigma}")
    k = max(1, math.ceil(math.sqrt(c_sigma)))
    # guard against ceil overshoot when c_sigma is a perfect square
    while k > 1 and (k - 1) ** 2 >= c_sigma:
        k -= 1
    return k


def gap_bound(alpha, l_alpha, n):
    """Uniform bound on sigma - sigma_n: the max over r > 0 of
    l_alpha * r**alpha - n * r, which is c_alpha * n**(alpha/(alpha-1))."""
    _check_strict_holder(alpha, l_alpha)
    return c_alpha(alpha, l_alpha) * n ** (alpha / (alpha - 1.0))


def c_alpha(alpha, l_alpha):
    """Constant (1-alpha) / (l_alpha**(1/(alpha-1)) * alpha**(alpha/(alpha-1)))."""
    _check_strict_holder(alpha, l_alpha)
    return (1.0 - alpha) / (
        l_alpha ** (1.0 / (alpha - 1.0)) * alpha ** (alpha / (alpha - 1.0))
    )


def _check_strict_holder(alpha, l_alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"closed forms require alpha in (0, 1), got {alpha}")
    if l_alpha <= 0.0:
        raise ValueError(f"l_alpha must be positive, got {l_alpha}")


@dataclass(frozen=True)
class RegularizedSigma:
    """sigma_n, from the evaluator's ``inf_convolution(t, lam, n)`` method.

    The method must return the infimum over mu of sigma(t, mu) +
    n |lam - mu| for every lam; PowerSigma's is exact.  n may also be an
    array of levels, one per member of a stack of states (lam[b] is
    member b's): each member then gets its own level.
    """

    spec: HolderSpec
    n: int

    def __post_init__(self):
        if self.spec.alpha >= 1.0:
            raise ValueError("regularization targets alpha < 1; a Lipschitz "
                             "coefficient can be used directly")
        lower = n0(self.spec.c_sigma)
        if np.min(self.n) < lower:
            raise ValueError(f"n = {self.n} is below n0 = {lower}")
        if not hasattr(self.spec.eval, "inf_convolution"):
            raise ValueError(f"the evaluator {self.spec.eval!r} has no "
                             f"inf_convolution(t, lam, n) method")

    def __call__(self, t, lam):
        return sigma_n_values(self, t, lam)

    def take(self, members):
        """sigma_n of the members (indices) of the stack."""
        return self if np.ndim(self.n) == 0 else replace(self, n=self.n[members])


def sigma_n_values(reg, t, lam):
    """Vectorized sigma_n: the evaluator's inf_convolution, a member's level
    broadcast over its own axes."""
    lam = np.asarray(lam, dtype=float)
    n = reg.n
    if np.ndim(n):   # one level per member
        n = np.asarray(n)
        n = n.reshape(n.shape + (1,) * (lam.ndim - n.ndim))
    out = reg.spec.eval.inf_convolution(t, lam, n)
    return float(out) if lam.ndim == 0 else out


def _level_scan(reg, lam_lo, lam_hi, t):
    """sigma and sigma_n at one level and time, on one lam set.

    The set is a uniform 4097-point grid of [lam_lo, lam_hi] joined with
    512 log-spaced magnitudes from min(1e-12, 1e-3 r*) up, where r* =
    (alpha l_alpha / n)**(1/(1-alpha)) maximizes l_alpha r**alpha - n r:
    sigma_n departs from sigma only near |lam| = r*, far below any fixed
    uniform resolution.  The sup of sigma - sigma_n is then zoomed on the
    best point with 8 windows of 65 points, each 4 times narrower, the
    first 0.1 |best| wide on either side (1e-10 if the best point is 0).

    Returns
    -------
    (overshoot, slope, sup_gap, arg_max) : tuple of floats
        max(sigma_n - sigma) and the largest difference quotient of sigma_n
        between neighbouring points of the set; the zoomed sup of sigma -
        sigma_n and the lam where it is reached.
    """
    spec = reg.spec
    r_star = (spec.alpha * spec.l_alpha / reg.n) ** (1.0 / (1.0 - spec.alpha))
    top = max(abs(lam_lo), abs(lam_hi), 1e-9)
    mags = np.geomspace(min(1e-12, 1e-3 * r_star), top, 512)
    cand = np.concatenate([np.linspace(lam_lo, lam_hi, 4097), mags, -mags, [0.0]])
    cand = np.unique(cand[(cand >= lam_lo) & (cand <= lam_hi)])

    sig = np.asarray(spec.eval(t, cand), dtype=float)
    sig_n = sigma_n_values(reg, t, cand)
    overshoot = float(np.max(sig_n - sig))
    slope = float(np.max(np.abs(np.diff(sig_n)) / np.diff(cand)))
    gaps = sig - sig_n
    k = int(np.argmax(gaps))
    best_lam, best_gap = cand[k], gaps[k]

    width = 0.1 * abs(best_lam) if best_lam != 0.0 else 1e-10
    for _ in range(8):
        loc = np.clip(best_lam + np.linspace(-width, width, 65), lam_lo, lam_hi)
        gaps = np.asarray(spec.eval(t, loc), dtype=float) - sigma_n_values(reg, t, loc)
        k = int(np.argmax(gaps))
        if gaps[k] > best_gap:
            best_gap, best_lam = gaps[k], loc[k]
        width /= 4.0
    return overshoot, slope, float(best_gap), float(best_lam)


def sup_gap_scan(reg, lam_lo=-4.0, lam_hi=4.0, t=0.0):
    """Measured sup of sigma - sigma_n over [lam_lo, lam_hi], on the level's
    lam set (see _level_scan).

    Returns
    -------
    (sup_gap, arg_max) : tuple of floats
    """
    return _level_scan(reg, lam_lo, lam_hi, t)[2:]


def gap_decay_study(spec, n_list, lam_lo=-4.0, lam_hi=4.0, t=0.0):
    """Measured sup-gaps against their closed-form bounds over a list of n.

    Returns a dict with the least-squares slope of log(gap) versus log(n),
    whose predicted value is alpha/(alpha-1), and ``levels``:
    verify_regularization's report at time t for each entry of n_list, in
    its order.  The fit needs at least two distinct levels.
    """
    if len(set(n_list)) < 2:
        raise ValueError(f"the gap-decay slope needs at least two distinct "
                         f"levels, got {list(n_list)}")
    levels = [verify_regularization(spec, n, lam_lo, lam_hi, (t,)) for n in n_list]
    n_arr, measured = np.array(sorted((r["n"], r["max_gap"]) for r in levels)).T
    slope = np.polyfit(np.log(n_arr), np.log(np.maximum(measured, 1e-300)), 1)[0]
    return {
        "slope": float(slope),
        "predicted_slope": spec.alpha / (spec.alpha - 1.0),
        "levels": levels,
    }


def verify_regularization(spec, n, lam_lo=-4.0, lam_hi=4.0, t_grid=(0.0,)):
    """Check the three regularization properties on each time's lam set.

    At each t of t_grid, sigma and sigma_n are evaluated once, on the lam
    set of _level_scan, which reaches down to the level's gap maximizer.
    Properties checked: sigma_n never exceeds sigma (max_overshoot), the
    difference quotients of sigma_n never exceed n (max_slope), and the
    zoomed sup of sigma - sigma_n stays below the closed-form bound
    (max_gap against bound), each within a relative 1e-6, and the overshoot
    and the slope within an absolute 1e-9 too.  The gap has no absolute
    tolerance: at alpha = 0.9 the bound itself is below 1e-9 from n = 16 on.

    Returns a flat dict of floats and booleans ready for JSON serialization.
    """
    reg = RegularizedSigma(spec, n)
    scans = [_level_scan(reg, lam_lo, lam_hi, t) for t in t_grid]
    max_overshoot, max_slope, max_gap, _ = map(max, zip(*scans))

    bound = gap_bound(spec.alpha, spec.l_alpha, n)
    rel_tol, abs_tol = 1e-6, 1e-9
    report = {
        "alpha": spec.alpha,
        "l_alpha": spec.l_alpha,
        "c_sigma": spec.c_sigma,
        "n": int(n),
        "max_overshoot": max_overshoot,
        "max_slope": max_slope,
        "max_gap": max_gap,
        "bound": bound,
        "overshoot_pass": bool(max_overshoot <= rel_tol + abs_tol),
        "slope_pass": bool(max_slope <= n * (1.0 + rel_tol) + abs_tol),
        "gap_pass": bool(max_gap <= bound * (1.0 + rel_tol)),
    }
    report["pass"] = bool(report["overshoot_pass"] and report["slope_pass"]
                          and report["gap_pass"])
    return report
