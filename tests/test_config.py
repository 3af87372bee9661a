"""Validation of every configuration key: its default, type and domain."""

import pytest

from plapsim.config import (DEFAULTS, ConfigError, load_config, make_pert, validate_config,
                            write_json)
from plapsim.spatial import HigherOrderPerturbation, q_of_p

# every key in declaration order, with its default
EXPECTED_DEFAULTS = [
    ("grid.dimension", 1),
    ("grid.n_interior", 12),
    ("sigma.alpha", 0.5),
    ("sigma.scale", 1.0),
    ("sigma.mode", "regularized"),
    ("kernel.type", "gaussian"),
    ("kernel.ell", 0.25),
    ("kernel.scale", 1.0),
    ("kernel.path", ""),
    ("coeff.type", "p_laplace"),
    ("coeff.p", 2.5),
    ("coeff.scale", 0.3),
    ("drift.type", "zero"),
    ("drift.scale", 1.0),
    ("pert.enabled", True),
    ("pert.m", 2),
    ("pert.q", 0.0),
    ("noise.enabled", True),
    ("noise.modes", 0),
    ("noise.decay", 2.0),
    ("initial.type", "sine"),
    ("initial.amplitude", 0.25),
    ("initial.seed", 0),
    ("initial.path", ""),
    ("solver.dt", 0.004),
    ("solver.t_end", 0.04),
    ("solver.scheme", "semi-implicit"),
    ("solver.n", 8),
    ("solver.newton_tol", 1e-10),
    ("solver.newton_max_iter", 40),
    ("solver.newton_dt_retries", 0),
    ("solver.record_every", 1),
    ("run.seed", 1),
    ("run.paths", 4),
    ("run.n_list", [4, 8]),
    ("verify.slack", 0.05),
    ("verify.se_mult", 3.0),
    ("verify.checkpoints", 10),
    ("verify.ratio_bound", 2.0),
    ("verify.pert_m", 1),
    ("regcheck.n_list", [2, 4, 8, 16, 32, 64, 128, 256]),
    ("regcheck.lam_max", 4.0),
]

INT_KEYS = [k for k, v in EXPECTED_DEFAULTS
            if isinstance(v, int) and not isinstance(v, bool)]
NUMBER_KEYS = [k for k, v in EXPECTED_DEFAULTS if isinstance(v, float)]

# one out-of-domain value per key that has a domain, with the full message
OUT_OF_DOMAIN = [
    ("grid.dimension", 3, "grid.dimension must be 1 or 2; got 3"),
    ("grid.n_interior", 0, "grid.n_interior must be at least 1; got 0"),
    ("sigma.alpha", 1.5, "sigma.alpha must lie in (0, 1]; got 1.5"),
    ("sigma.scale", 0.0, "sigma.scale must be positive; got 0.0"),
    ("sigma.mode", "exact",
     "sigma.mode must be 'regularized' or 'raw'; got 'exact'"),
    ("kernel.type", "matern",
     "kernel.type must be 'gaussian', 'rank_one', or 'csv'; got 'matern'"),
    ("kernel.ell", -1.0, "kernel.ell must be positive; got -1.0"),
    ("kernel.scale", 0.0, "kernel.scale must be positive; got 0.0"),
    ("coeff.type", "cubic",
     "coeff.type must be 'p_laplace', 'linear', or 'convective'; got 'cubic'"),
    ("coeff.p", 1.0, "coeff.p must exceed 1; got 1.0"),
    ("coeff.scale", -0.5, "coeff.scale must be nonnegative; got -0.5"),
    ("drift.type", "relu", "drift.type must be 'zero' or 'tanh'; got 'relu'"),
    ("drift.scale", -1.0, "drift.scale must be nonnegative; got -1.0"),
    ("pert.m", 0, "pert.m must be at least 1; got 0"),
    ("pert.q", 1.5, "pert.q must be 0 (derived) or at least 2; got 1.5"),
    ("noise.modes", -1, "noise.modes must be nonnegative; got -1"),
    ("noise.decay", -2.0, "noise.decay must be nonnegative; got -2.0"),
    ("initial.type", "step",
     "initial.type must be 'sine', 'bump', 'random', or 'csv'; got 'step'"),
    ("initial.seed", -1, "initial.seed must be nonnegative; got -1"),
    ("solver.dt", 0.0, "solver.dt must be positive; got 0.0"),
    ("solver.t_end", -0.1, "solver.t_end must be nonnegative; got -0.1"),
    ("solver.scheme", "implicit",
     "solver.scheme must be 'explicit' or 'semi-implicit'; got 'implicit'"),
    ("solver.n", -1,
     "solver.n must be nonnegative (0 drops the level); got -1"),
    ("solver.newton_tol", 0.0, "solver.newton_tol must be positive; got 0.0"),
    ("solver.newton_max_iter", -1,
     "solver.newton_max_iter must be nonnegative; got -1"),
    ("solver.newton_dt_retries", -1,
     "solver.newton_dt_retries must be nonnegative; got -1"),
    ("solver.record_every", 0, "solver.record_every must be at least 1; got 0"),
    ("run.seed", 2 ** 64,
     "run.seed must fit in an unsigned 64-bit integer; got 18446744073709551616"),
    ("run.paths", 0, "run.paths must be at least 1; got 0"),
    ("run.n_list", [4, 0], "run.n_list entries must be positive integers; got 0"),
    ("verify.slack", -0.1, "verify.slack must be nonnegative; got -0.1"),
    ("verify.se_mult", -1.0, "verify.se_mult must be nonnegative; got -1.0"),
    ("verify.checkpoints", 0, "verify.checkpoints must be at least 1; got 0"),
    ("verify.ratio_bound", 0.5, "verify.ratio_bound must be at least 1; got 0.5"),
    ("verify.pert_m", 0, "verify.pert_m must be at least 1; got 0"),
    ("regcheck.n_list", [2, 4.0],
     "regcheck.n_list entries must be positive integers; got 4.0"),
    ("regcheck.lam_max", 0.0, "regcheck.lam_max must be positive; got 0.0"),
]

# rules that read more than one key: (overrides, field, message)
CROSS_KEY = [
    ({"sigma.alpha": 1.0}, "sigma.alpha",
     "sigma.alpha must lie in (0, 1) for the regularized mode; got 1.0"),
    ({"kernel.type": "csv"}, "kernel.path",
     "kernel.path is required for kernel.type = 'csv'"),
    ({"initial.type": "csv"}, "initial.path",
     "initial.path is required for initial.type = 'csv'"),
    ({"coeff.type": "convective", "coeff.p": 1.5}, "coeff.p",
     "coeff.p must be at least 2 for the convective coefficient; got 1.5"),
    ({"noise.modes": 13}, "noise.modes",
     "noise.modes must not exceed the number of grid nodes; got 13"),
    ({"grid.dimension": 2, "grid.n_interior": 3, "noise.modes": 10}, "noise.modes",
     "noise.modes must not exceed the number of grid nodes; got 10"),
]


def rejection(overrides):
    with pytest.raises(ConfigError) as exc:
        validate_config({**DEFAULTS, **overrides})
    return exc.value


def test_defaults_keys_order_and_values():
    assert list(DEFAULTS.items()) == EXPECTED_DEFAULTS
    for key, value in EXPECTED_DEFAULTS:
        assert type(DEFAULTS[key]) is type(value), key


def test_defaults_validate():
    assert validate_config(dict(DEFAULTS)) == DEFAULTS


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_every_key_rejects_none(key):
    err = rejection({key: None})
    assert err.field == key
    assert str(err) == f"{key} has the wrong type: None"


@pytest.mark.parametrize("key", INT_KEYS)
def test_integer_keys_reject_booleans(key):
    err = rejection({key: True})
    assert err.field == key
    assert str(err) == f"{key} must be an integer, got True"


@pytest.mark.parametrize("key", NUMBER_KEYS)
@pytest.mark.parametrize("value", [True, False])
def test_number_keys_reject_booleans(key, value):
    err = rejection({key: value})
    assert err.field == key
    assert str(err) == f"{key} must be a number, got {value!r}"


@pytest.mark.parametrize("key", NUMBER_KEYS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_number_keys_reject_non_finite_values(key, value):
    err = rejection({key: value})
    assert err.field == key
    assert str(err) == f"{key} must be finite; got {value!r}"


@pytest.mark.parametrize("key", INT_KEYS + NUMBER_KEYS)
def test_number_keys_reject_an_integer_beyond_the_float_range(key):
    err = rejection({key: 10 ** 400})
    assert err.field == key
    assert str(err) == f"{key} must be finite; got an integer beyond the float range"


@pytest.mark.parametrize("key", ["run.n_list", "regcheck.n_list"])
def test_level_lists_reject_an_integer_beyond_the_float_range(key):
    err = rejection({key: [10 ** 400, 2 * 10 ** 400]})
    assert err.field == key
    assert str(err) == (f"{key} entries must be finite; got an integer "
                        "beyond the float range")


@pytest.mark.parametrize("key, value, message", OUT_OF_DOMAIN,
                         ids=[k for k, _, _ in OUT_OF_DOMAIN])
def test_every_domain_rejects_a_value_outside_it(key, value, message):
    err = rejection({key: value})
    assert err.field == key
    assert str(err) == message


def test_out_of_domain_cases_cover_every_key_with_a_domain():
    type_only = {"kernel.path", "pert.enabled", "noise.enabled",
                 "initial.amplitude", "initial.path"}
    assert {k for k, _, _ in OUT_OF_DOMAIN} == set(DEFAULTS) - type_only


@pytest.mark.parametrize("overrides, field, message", CROSS_KEY,
                         ids=[f for _, f, _ in CROSS_KEY])
def test_cross_key_rules(overrides, field, message):
    err = rejection(overrides)
    assert err.field == field
    assert str(err) == message


# ------------------------------------------------------------ unreadable files

# an integer token longer than Python's int-from-string limit (4,300 digits)
HUGE_INT = "1" + "0" * 5000


@pytest.mark.parametrize("name, text", [
    ("run.cfg", f"grid.n_interior = {HUGE_INT}\n"),
    ("manifest.json", f'{{"config": {{"grid.n_interior": {HUGE_INT}}}}}'),
], ids=["flat", "manifest"])
def test_load_config_rejects_an_integer_past_the_digit_limit(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ConfigError, match="4300 digits") as err:
        load_config(path)
    assert str(err.value).startswith(f"cannot read {path}: ")
    assert isinstance(err.value.__cause__, ValueError)


def test_load_config_rejects_a_manifest_that_is_not_json(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"config": {')
    with pytest.raises(ConfigError, match=f"cannot read {path}: Expecting"):
        load_config(path)


@pytest.mark.parametrize("text", ['{"seed": 1}', '{"config": 5}', '{"config": null}'],
                         ids=["missing", "number", "null"])
def test_load_config_rejects_a_manifest_without_a_config_object(tmp_path, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="has no 'config' object"):
        load_config(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_write_json_rejecting_a_value_writes_nothing(tmp_path, bad):
    payload = {"a": 1.0, "nested": {"b": [0.5, bad]}}
    fresh = tmp_path / "fresh.json"
    with pytest.raises(ValueError):
        write_json(fresh, payload)
    assert not fresh.exists()
    kept = tmp_path / "kept.json"
    write_json(kept, {"a": 1.0})
    before = kept.read_bytes()
    with pytest.raises(ValueError):
        write_json(kept, payload)
    assert kept.read_bytes() == before == b'{\n  "a": 1.0\n}\n'


@pytest.mark.parametrize("overrides, expected", [
    ({}, HigherOrderPerturbation(m=2, q=q_of_p(2.5))),
    ({"coeff.p": 1.5, "pert.m": 1}, HigherOrderPerturbation(m=1, q=q_of_p(1.5))),
    ({"pert.q": 6.0}, HigherOrderPerturbation(m=2, q=6.0)),
    ({"pert.enabled": False}, None)], ids=["derived", "derived-p15", "set", "off"])
def test_make_pert_derives_q_from_the_coefficient_unless_set(overrides, expected):
    assert make_pert({**DEFAULTS, **overrides}) == expected
