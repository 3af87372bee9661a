"""Oracle and property tests for the inf-convolution regularization."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plapsim.regularize import (
    HolderSpec,
    RegularizedSigma,
    c_alpha,
    gap_bound,
    gap_decay_study,
    n0,
    power_sigma,
    sigma_n_values,
    sublinear_growth_bound,
    sup_gap_scan,
    verify_regularization,
)
from plapsim.regularize import _check_strict_holder


def r0(alpha, l_alpha, n):
    """Maximizer of h_n(r) = l_alpha * r**alpha - n * r over r > 0."""
    _check_strict_holder(alpha, l_alpha)
    return (n / (l_alpha * alpha)) ** (1.0 / (alpha - 1.0))


# fixed constants of the bracket-and-refine search
GRID_POINTS = 1024    # uniform grid across the bracket
REFINE_ROUNDS = 6     # local grids around the incumbent, each 8x narrower
REFINE_POINTS = 17
BLOCK = 256           # lam values per vectorized block


def _search_block(sigma, alpha, l_alpha, t, lam, n):
    col, n_col = lam[:, None], n[:, None]
    radius = 2.0 * (l_alpha / n) ** (1.0 / (1.0 - alpha))
    mu = col + np.linspace(-radius, radius, GRID_POINTS, axis=-1)
    obj = sigma(t, mu) + n_col * np.abs(mu - col)
    ibest = np.argmin(obj, axis=1)
    rows = np.arange(lam.size)
    best = obj[rows, ibest]
    center = mu[rows, ibest]

    width = 2.0 * radius / (GRID_POINTS - 1)
    local = np.linspace(-1.0, 1.0, REFINE_POINTS)
    for _ in range(REFINE_ROUNDS):
        mu = center[:, None] + width[:, None] * local[None, :]
        obj = sigma(t, mu) + n_col * np.abs(mu - col)
        j = np.argmin(obj, axis=1)
        center = mu[rows, j]
        best = np.minimum(best, obj[rows, j])
        width /= 8.0

    # mu = lam guarantees sigma_n <= sigma; mu = 0 is exact for the
    # prototype below its crossover, and beyond the bracket it never beats
    # mu = lam since there n|lam| >= l_alpha |lam|**alpha
    best = np.minimum(best, np.asarray(sigma(t, lam), dtype=float))
    at_zero = np.asarray(sigma(t, np.zeros_like(lam)), dtype=float) + n * np.abs(lam)
    return np.minimum(best, at_zero)


@dataclass(frozen=True)
class Searched:
    """A Holder sigma whose inf_convolution is a bracket-and-refine search.

    The infimum over mu is localized: any mu with |mu - lam| >= R, where
    R = (l_alpha/n)**(1/(1-alpha)), cannot improve on mu = lam, so the
    search runs on the bracket [lam - 2R, lam + 2R].  There the objective
    is minimized over a uniform grid of 1024 points (spacing
    delta = 4R/1023), then over 6 rounds of 17-point local grids around
    the incumbent, each round 8 times narrower; the cusp of the
    |.|**alpha prototype at interior minimizers rules out a single
    parabolic polish.  The candidates mu = lam and mu = 0 (the anchor of
    the growth bound) are always included.  The search takes 256 lam
    values per block, each with its own level.

    The returned value is never below the true infimum, never above
    sigma(t, lam), and exceeds the infimum by at most
    l_alpha * delta**alpha + n * delta: an oracle independent of any
    closed form.
    """

    sigma: object
    alpha: float
    l_alpha: float

    def __call__(self, t, lam):
        return self.sigma(t, lam)

    def inf_convolution(self, t, lam, n):
        lam, n = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                     np.asarray(n, dtype=float))
        flat_lam, flat_n, out = lam.ravel(), n.ravel(), np.empty(lam.size)
        for start in range(0, out.size, BLOCK):
            block = slice(start, start + BLOCK)
            out[block] = _search_block(self.sigma, self.alpha, self.l_alpha, t,
                                       flat_lam[block], flat_n[block])
        return out.reshape(lam.shape)


def searched_spec(sigma, alpha, l_alpha, c_sigma):
    return HolderSpec(eval=Searched(sigma, alpha, l_alpha), alpha=alpha,
                      l_alpha=l_alpha, c_sigma=c_sigma)


def search_power_sigma(alpha, scale=1.0):
    """power_sigma with the search in place of its exact inf_convolution."""
    spec = power_sigma(alpha, scale)
    return searched_spec(spec.eval, alpha, spec.l_alpha, spec.c_sigma)


# the exact power path and the numerical search over the same evaluator
SPEC_MAKERS = (power_sigma, search_power_sigma)


def brute_force_inf_conv(spec, n, t, lam, points=200001, radius_mult=4.0):
    """Exhaustive minimization of sigma(t,mu) + n|lam-mu| on a wide bracket."""
    radius = radius_mult * (spec.l_alpha / n) ** (1.0 / (1.0 - spec.alpha))
    mu = np.linspace(lam - radius, lam + radius, points)
    obj = spec.eval(t, mu) + n * np.abs(mu - lam)
    return float(np.min(obj)), 2.0 * radius / (points - 1)


# ---------------------------------------------------------------- closed forms


def test_r0_frozen_values():
    assert np.isclose(r0(0.5, 1.0, 2), 1.0 / 16.0, rtol=1e-12)
    assert np.isclose(r0(0.5, 1.0, 1), 0.25, rtol=1e-12)


def test_r0_is_critical_point_of_gap_profile():
    # independent oracle: maximize h_n(r) = L r^alpha - n r on a fine grid
    for alpha, l_alpha, n in [(0.5, 1.0, 2), (0.3, 2.0, 5), (0.75, 0.7, 3)]:
        r = np.geomspace(1e-10, 10.0, 400001)
        h = l_alpha * r ** alpha - n * r
        k = np.argmax(h)
        assert np.isclose(r[k], r0(alpha, l_alpha, n), rtol=1e-3)
        assert np.isclose(h[k], gap_bound(alpha, l_alpha, n), rtol=1e-7)


def test_gap_bound_frozen_values():
    assert np.isclose(gap_bound(0.5, 1.0, 2), 0.125, rtol=1e-12)
    assert np.isclose(gap_bound(0.5, 1.0, 4), 0.0625, rtol=1e-12)


def test_c_alpha_frozen_values():
    assert np.isclose(c_alpha(0.5, 1.0), 0.25, rtol=1e-12)
    # brute-force maximum of h_1(r) = 2 sqrt(r) - r is 1 at r = 1
    r = np.linspace(0.0, 4.0, 2000001)
    h1 = 2.0 * np.sqrt(r) - r
    assert np.isclose(np.max(h1), 1.0, atol=1e-9)
    assert np.isclose(c_alpha(0.5, 2.0), 1.0, rtol=1e-12)


def test_gap_bound_matches_c_alpha_scaling():
    for alpha, l_alpha in [(0.3, 1.5), (0.5, 2.0), (0.9, 0.4)]:
        for n in (1, 3, 17):
            expect = c_alpha(alpha, l_alpha) * n ** (alpha / (alpha - 1.0))
            assert np.isclose(gap_bound(alpha, l_alpha, n), expect, rtol=1e-12)


def test_n0_frozen_values():
    assert n0(1.0) == 1
    assert n0(2.0) == 2
    assert n0(9.0) == 3
    assert n0(9.000001) == 4
    assert n0(0.25) == 1


def test_closed_forms_reject_alpha_one():
    for fn in (lambda: r0(1.0, 1.0, 2), lambda: gap_bound(1.0, 1.0, 2),
               lambda: c_alpha(1.0, 1.0)):
        with pytest.raises(ValueError):
            fn()


# ------------------------------------------------------------------ evaluation


def test_sigma_n_closed_form_for_square_root_prototype():
    # for sigma = sqrt|lam| the infimum is attained at mu = 0 or mu = lam,
    # giving sigma_n = min(n|lam|, sqrt|lam|)
    for make_spec in SPEC_MAKERS:
        spec = make_spec(0.5, 1.0)
        for n in (2, 4, 16):
            reg = RegularizedSigma(spec, n)
            lam = np.linspace(-4.0, 4.0, 4001)
            expect = np.minimum(n * np.abs(lam), np.sqrt(np.abs(lam)))
            got = sigma_n_values(reg, 0.0, lam)
            assert np.max(np.abs(got - expect)) < 1e-12


def test_sigma_n_spot_value():
    for make_spec in SPEC_MAKERS:
        reg = RegularizedSigma(make_spec(0.5, 1.0), 2)
        got = sigma_n_values(reg, 0.0, 1.0 / 16.0)
        assert isinstance(got, float)
        assert np.isclose(got, 0.125, rtol=1e-12)


def test_power_path_is_the_closed_form_bit_for_bit():
    lam = np.concatenate([np.linspace(-4.0, 4.0, 2001),
                          np.geomspace(1e-12, 4.0, 200), [0.0, -0.0]])
    for alpha, scale in ((0.3, 1.0), (0.5, 2.0), (0.75, 0.7)):
        spec = power_sigma(alpha, scale)
        for n in (n0(spec.c_sigma), 5, 64):
            got = sigma_n_values(RegularizedSigma(spec, n), 0.0, lam)
            expect = np.minimum(scale * np.abs(lam) ** alpha, n * np.abs(lam))
            assert np.array_equal(got, expect)
            assert got.shape == lam.shape
    # array shapes are kept, scalars come back as floats
    reg = RegularizedSigma(power_sigma(0.5), 4)
    assert sigma_n_values(reg, 0.0, np.ones((3, 2))).shape == (3, 2)
    assert isinstance(sigma_n_values(reg, 0.0, 0.25), float)


def test_numeric_search_matches_closed_form_on_dense_grid():
    # uniform points plus log-spaced magnitudes, since the kink of
    # min(|lam|**alpha, n|lam|) sits at |lam| = n**(1/(alpha-1))
    mags = np.geomspace(1e-12, 4.0, 2500)
    lam = np.concatenate([np.linspace(-4.0, 4.0, 5001), mags, -mags])
    assert lam.size == 10001
    for alpha in (0.3, 0.5, 0.75):
        expect_spec, search_spec = power_sigma(alpha), search_power_sigma(alpha)
        for n in (2, 4, 8, 16, 32, 64, 128, 256):
            expect = sigma_n_values(RegularizedSigma(expect_spec, n), 0.0, lam)
            got = sigma_n_values(RegularizedSigma(search_spec, n), 0.0, lam)
            assert np.max(np.abs(got - expect)) <= 1e-12, (alpha, n)


def test_numeric_search_against_breakpoint_oracle():
    # a Holder sigma whose inf-convolution minimizer is neither lam nor 0:
    # between the breakpoints k*pi/3, 0.7 and lam the objective
    # sigma(mu) + n|lam - mu| is concave, so the exact infimum is the least
    # value over those breakpoints
    def sigma(t, lam):
        return np.abs(np.sin(3.0 * lam)) ** 0.5 + 0.2 * np.abs(lam - 0.7) ** 0.5

    spec = searched_spec(sigma, alpha=0.5, l_alpha=3.0 ** 0.5 + 0.2, c_sigma=10.0)
    lam = np.linspace(-1.5, 1.5, 1201)
    kinks = np.append(np.arange(-3, 4) * np.pi / 3.0, 0.7)
    mu = np.concatenate([np.broadcast_to(kinks, (lam.size, kinks.size)),
                         lam[:, None]], axis=1)
    for n in (4, 16, 64):
        exact = np.min(sigma(0.0, mu) + n * np.abs(lam[:, None] - mu), axis=1)
        got = sigma_n_values(RegularizedSigma(spec, n), 0.0, lam)
        # search grid spacing 4R/1023, R = (l_alpha/n)**(1/(1-alpha))
        delta = 4.0 * (spec.l_alpha / n) ** 2 / 1023
        assert np.all(got >= exact - 1e-12), n
        assert np.all(got <= sigma(0.0, lam)), n
        assert np.max(got - exact) <= spec.l_alpha * delta ** 0.5 + n * delta, n


def test_rejects_n_below_n0():
    spec = power_sigma(0.5, 9.0)  # c_sigma = 81, n0 = 9
    with pytest.raises(ValueError):
        RegularizedSigma(spec, 8)
    RegularizedSigma(spec, 9)


def test_rejects_an_evaluator_without_inf_convolution():
    spec = HolderSpec(eval=lambda t, lam: np.abs(lam) ** 0.5, alpha=0.5,
                      l_alpha=1.0, c_sigma=1.0)
    with pytest.raises(ValueError, match="inf_convolution"):
        RegularizedSigma(spec, 4)


def test_one_level_per_member_is_each_members_own_level():
    lam = np.linspace(-2.0, 2.0, 3 * 300).reshape(3, 300)
    levels = np.array([4, 64, 16])
    for make_spec in SPEC_MAKERS:
        spec = make_spec(0.5)
        got = sigma_n_values(RegularizedSigma(spec, levels), 0.0, lam)
        for row, level in enumerate(levels):
            alone = sigma_n_values(RegularizedSigma(spec, int(level)), 0.0, lam[row])
            assert np.array_equal(got[row], alone)


def test_rejects_lipschitz_alpha():
    spec = HolderSpec(eval=lambda t, lam: np.abs(lam), alpha=1.0,
                      l_alpha=1.0, c_sigma=1.0)
    with pytest.raises(ValueError):
        RegularizedSigma(spec, 3)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(-4.0, 4.0),
    alpha=st.floats(0.25, 0.9),
    n=st.integers(1, 40),
)
def test_brute_force_equivalence(lam, alpha, n):
    for make_spec in SPEC_MAKERS:
        spec = make_spec(alpha, 1.0)
        reg = RegularizedSigma(spec, n)
        got = sigma_n_values(reg, 0.0, lam)
        ref, delta = brute_force_inf_conv(spec, n, 0.0, lam)
        slack = spec.l_alpha * delta ** alpha + n * delta
        assert got <= ref + 1e-12, f"eval exceeds brute force: {got} vs {ref}"
        assert got >= ref - slack, f"eval below brute force slack: {got} vs {ref}"


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.25, 0.9),
    scale=st.floats(0.2, 3.0),
    n_extra=st.integers(0, 20),
)
def test_pointwise_properties_hold_on_grid(alpha, scale, n_extra):
    for make_spec in SPEC_MAKERS:
        spec = make_spec(alpha, scale)
        n = n0(spec.c_sigma) + n_extra
        reg = RegularizedSigma(spec, n)
        lam = np.linspace(-4.0, 4.0, 801)
        sig = spec.eval(0.0, lam)
        sig_n = sigma_n_values(reg, 0.0, lam)

        # below sigma
        assert np.max(sig_n - sig) <= 1e-12
        # n-Lipschitz along the grid
        slopes = np.abs(np.diff(sig_n)) / np.diff(lam)
        assert np.max(slopes) <= n * (1.0 + 1e-9) + 1e-12
        # uniform gap bound
        bound = gap_bound(alpha, scale, n)
        assert np.max(np.abs(sig - sig_n)) <= bound * (1.0 + 1e-9) + 1e-12
        # sublinear growth
        assert np.all(sig_n ** 2 <= sublinear_growth_bound(spec, lam) + 1e-12)


def test_gap_bound_is_tight_for_prototype():
    spec = power_sigma(0.5, 1.0)
    for n in (2, 8, 64):
        reg = RegularizedSigma(spec, n)
        gap, arg = sup_gap_scan(reg)
        assert np.isclose(gap, 0.25 / n, rtol=1e-8)
        assert np.isclose(abs(arg), r0(0.5, 1.0, n), rtol=1e-4)


def test_gap_decay_slope():
    study = gap_decay_study(power_sigma(0.5, 1.0), [2, 4, 8, 16, 32])
    assert np.isclose(study["slope"], -1.0, atol=1e-6)
    assert np.all(study["measured_gap"] <= study["bound"] * (1.0 + 1e-9))


@pytest.mark.parametrize("n_list", [[4], [4, 4], []])
def test_gap_decay_needs_two_distinct_levels(n_list):
    # a slope fitted through one point would be numpy's rank-deficient guess
    with pytest.raises(ValueError, match="two distinct levels"):
        gap_decay_study(power_sigma(0.5, 1.0), n_list)


# --------------------------------------------------------------------- report


def test_verify_regularization_report():
    report = verify_regularization(power_sigma(0.5, 1.0), 4,
                                   lam_grid=np.linspace(-4, 4, 2001))
    assert report["pass"]
    assert report["overshoot_pass"] and report["slope_pass"] and report["gap_pass"]
    assert report["max_overshoot"] <= 1e-9
    assert report["max_slope"] <= 4.0 * (1.0 + 1e-6)
    assert np.isclose(report["bound"], 0.0625, rtol=1e-12)
    assert report["max_gap"] <= report["bound"] * (1.0 + 1e-6)
    # every value JSON-serializable scalars
    import json

    json.dumps(report)


def test_verify_regularization_time_dependent():
    # time enters through a modulating factor; properties hold per time slice
    def wobble(t, lam):
        return (1.0 + 0.5 * np.sin(t)) * np.abs(lam) ** 0.5

    spec = searched_spec(wobble, alpha=0.5, l_alpha=1.5, c_sigma=2.25)
    report = verify_regularization(spec, 4, lam_grid=np.linspace(-2, 2, 801),
                                   t_grid=(0.0, 0.7, 1.9))
    assert report["overshoot_pass"] and report["slope_pass"] and report["gap_pass"]
