"""Oracle and property tests for the inf-convolution regularization."""

from dataclasses import replace

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
    r0,
    sigma_n_values,
    sublinear_growth_bound,
    sup_gap_scan,
    verify_regularization,
)


def search_power_sigma(alpha, scale=1.0):
    """power_sigma behind a plain function: no exact inf_convolution, so
    sigma_n runs the numerical bracket-and-refine search."""
    spec = power_sigma(alpha, scale)
    return replace(spec, eval=lambda t, lam: spec.eval(t, lam))


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
            got = sigma_n_values(RegularizedSigma(search_spec, n, grid_points=1024),
                                 0.0, lam)
            assert np.max(np.abs(got - expect)) <= 1e-12, (alpha, n)


def test_rejects_n_below_n0():
    spec = power_sigma(0.5, 9.0)  # c_sigma = 81, n0 = 9
    with pytest.raises(ValueError):
        RegularizedSigma(spec, 8)
    RegularizedSigma(spec, 9)


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
        reg = RegularizedSigma(spec, n, grid_points=1024)
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
        reg = RegularizedSigma(spec, n, grid_points=1024)
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
    class Wobble:
        alpha = 0.5

        def __call__(self, t, lam):
            return (1.0 + 0.5 * np.sin(t)) * np.abs(lam) ** 0.5

    spec = HolderSpec(eval=Wobble(), alpha=0.5, l_alpha=1.5, c_sigma=2.25)
    report = verify_regularization(spec, 4, lam_grid=np.linspace(-2, 2, 801),
                                   t_grid=(0.0, 0.7, 1.9))
    assert report["overshoot_pass"] and report["slope_pass"] and report["gap_pass"]
