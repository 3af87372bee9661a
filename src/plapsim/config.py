"""Flat key-value configuration, validation, and run manifests.

The configuration format is a flat text file of dotted keys::

    sigma.alpha = 0.5
    kernel.type = "gaussian"
    solver.dt = 0.004
    run.n_list = [4, 8]

Values are booleans, integers, floats, quoted or bare strings, or flat
lists of those.  Every run writes a ``manifest.json`` holding the tool
version and the fully resolved configuration, whose run.seed is the master
seed (master_seed repeats it); feeding the manifest back through
``--config`` reproduces the run bit for bit.  The worker count is
deliberately not part of the manifest: aggregates are merged in path
order, so it cannot influence any output byte.
"""

import json
import re
import sys

import numpy as np

from . import __version__
from .evolution import SolverConfig
from .noise import default_sampler, gaussian_kernel, kernel_from_csv, rank_one_kernel
from .regularize import power_sigma
from .spatial import (Grid, HigherOrderPerturbation, initial_from_csv,
                      initial_profile, linear_coeff, p_laplacian_coeff,
                      perturbation_for, remark_flux_coeff, tanh_drift,
                      zero_drift)

__all__ = [
    "ConfigError",
    "DEFAULTS",
    "parse_config_text",
    "load_config",
    "validate_config",
    "manifest_payload",
    "write_json",
    "write_csv",
    "make_grid",
    "make_spec",
    "make_kernel",
    "make_coeff",
    "make_drift",
    "make_pert",
    "make_solver_config",
    "make_initial",
    "make_sampler",
]


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the offending key when known."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def _one_of(*names):
    """Domain of a key that takes one of the listed names."""
    *head, last = map(repr, names)
    listed = ", ".join(head) + ("," if len(head) > 1 else "") + f" or {last}"
    return names.__contains__, f"must be {listed}"


def _level_list(doubling):
    """Domain of a level list, whose entries validate_config has checked:
    at least two distinct levels, each the double of the one before when
    doubling."""
    def ok(levels):
        return len(set(levels)) >= 2 and (not doubling or all(
            b == 2 * a for a, b in zip(levels, levels[1:])))
    return ok, ("must be a doubling chain of at least two levels" if doubling
                else "must have at least two distinct levels")


_NUM = (int, float)
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0.0, "must be nonnegative")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
_ANY = (None, "")

# Every key once, in check order: default, accepted type(s), and domain as
# (predicate, what the error message says), or _ANY for a type check alone.
_SCHEMA = (
    ("grid.dimension", 1, int, _one_of(1, 2)),
    ("grid.n_interior", 12, int, _AT_LEAST_1),
    ("sigma.alpha", 0.5, _NUM, (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")),
    ("sigma.scale", 1.0, _NUM, _POSITIVE),
    ("sigma.mode", "regularized", str, _one_of("regularized", "raw")),
    ("kernel.type", "gaussian", str, _one_of("gaussian", "rank_one", "csv")),
    ("kernel.ell", 0.25, _NUM, _POSITIVE),
    ("kernel.scale", 1.0, _NUM, _POSITIVE),
    ("kernel.path", "", str, _ANY),
    ("coeff.type", "p_laplace", str, _one_of("p_laplace", "linear", "convective")),
    ("coeff.p", 2.5, _NUM, (lambda v: v > 1.0, "must exceed 1")),
    ("coeff.scale", 0.3, _NUM, _NONNEGATIVE),
    ("drift.type", "zero", str, _one_of("zero", "tanh")),
    ("drift.scale", 1.0, _NUM, _NONNEGATIVE),
    ("pert.enabled", True, bool, _ANY),
    ("pert.m", 2, int, _AT_LEAST_1),
    ("pert.q", 0.0, _NUM,   # 0 derives q from coeff.p
     (lambda v: v == 0.0 or v >= 2.0, "must be 0 (derived) or at least 2")),
    ("noise.enabled", True, bool, _ANY),
    ("noise.modes", 0, int, _NONNEGATIVE),   # 0 uses every grid mode
    ("noise.decay", 2.0, _NUM, _NONNEGATIVE),
    ("initial.type", "sine", str, _one_of("sine", "bump", "random", "csv")),
    ("initial.amplitude", 0.25, _NUM, _ANY),
    ("initial.seed", 0, int, _NONNEGATIVE),
    ("initial.path", "", str, _ANY),
    ("solver.dt", 0.004, _NUM, _POSITIVE),
    ("solver.t_end", 0.04, _NUM, _NONNEGATIVE),
    ("solver.scheme", "semi-implicit", str, _one_of("explicit", "semi-implicit")),
    ("solver.n", 8, int, (lambda v: v >= 0, "must be nonnegative (0 drops the level)")),
    ("solver.newton_tol", 1e-10, _NUM, _POSITIVE),
    ("solver.newton_max_iter", 40, int, _NONNEGATIVE),
    ("solver.newton_dt_retries", 0, int, _NONNEGATIVE),
    ("solver.record_every", 1, int, _AT_LEAST_1),
    ("run.seed", 1, int,
     (lambda v: 0 <= v < 2 ** 64, "must fit in an unsigned 64-bit integer")),
    ("run.paths", 4, int, _AT_LEAST_1),
    ("run.n_list", [4, 8], list, _level_list(doubling=True)),
    ("verify.slack", 0.05, _NUM, _NONNEGATIVE),
    ("verify.se_mult", 3.0, _NUM, _NONNEGATIVE),
    ("verify.checkpoints", 10, int, _AT_LEAST_1),
    ("verify.ratio_bound", 2.0, _NUM, _AT_LEAST_1),
    ("verify.pert_m", 1, int, _AT_LEAST_1),
    ("regcheck.n_list", [2, 4, 8, 16, 32, 64, 128, 256], list,
     _level_list(doubling=False)),
    ("regcheck.lam_max", 4.0, _NUM, _POSITIVE),
)

DEFAULTS = {key: default for key, default, _, _ in _SCHEMA}

_INT_RE = re.compile(r"^[+-]?\d+$")


def _parse_scalar(token):
    token = token.strip()
    if token in ("true", "false"):
        return token == "true"
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'":
        return token[1:-1]
    if _INT_RE.match(token):
        return int(token)
    try:
        return float(token)
    except ValueError:
        return token   # bare string


def parse_config_text(text):
    """Parse the flat dotted-key format into a plain dict (no defaults)."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}",
                              field=key or None)
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key}", field=key)
        if value.startswith("["):
            if not value.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated list for {key}",
                                  field=key)
            inner = value[1:-1].strip()
            items = [s for s in (t.strip() for t in inner.split(",")) if s]
            out[key] = [_parse_scalar(item) for item in items]
        else:
            out[key] = _parse_scalar(value)
    return out


def load_config(path):
    """Read a config file or a manifest and return the resolved config.

    Both are merged over the defaults, unknown keys rejected: a flat text
    file gives its keys, a manifest.json the resolved configuration it
    holds, whose run.seed is the run's master seed.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        if text.lstrip().startswith("{"):
            raw = json.loads(text).get("config")
            if not isinstance(raw, dict):
                raise ConfigError(f"{path} looks like JSON but has no 'config' object")
        else:
            raw = parse_config_text(text)
    except ConfigError:
        raise
    except ValueError as exc:   # malformed JSON, or an int token past Python's digit limit
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    unknown = sorted(set(raw).difference(key for key, *_ in _SCHEMA))
    if unknown:
        raise ConfigError(f"unknown configuration key {unknown[0]}",
                          field=unknown[0])
    return validate_config({**DEFAULTS, **raw})


def validate_config(cfg):
    """Domain checks for every key; raises ConfigError naming the field."""
    largest = sys.float_info.max   # nan, inf and ints that no float holds exceed it
    for key, _, kinds, (ok, what) in _SCHEMA:
        value = cfg[key]
        if not isinstance(value, kinds):
            raise ConfigError(f"{key} has the wrong type: {value!r}", field=key)
        # bool is an int subclass, so a switch passes the number checks;
        # identity tests are the cheapest way to catch it
        if (value is True or value is False) and kinds is not bool:
            what_kind = "an integer" if kinds is int else "a number"
            raise ConfigError(f"{key} must be {what_kind}, got {value!r}", field=key)
        if kinds is list:   # a level list: its entries first, then its domain
            for n in value:
                if type(n) is not int or n < 1:
                    raise ConfigError(f"{key} entries must be positive integers; "
                                      f"got {n!r}", field=key)
                if n > largest:
                    raise ConfigError(f"{key} entries must be finite; got an "
                                      "integer beyond the float range", field=key)
        elif (kinds is int or kinds is _NUM) and not abs(value) <= largest:
            got = repr(value) if isinstance(value, float) else "an integer beyond the float range"
            raise ConfigError(f"{key} must be finite; got {got}", field=key)
        if ok is not None and not ok(value):
            raise ConfigError(f"{key} {what}; got {value!r}", field=key)
    if cfg["sigma.mode"] == "regularized" and cfg["sigma.alpha"] >= 1.0:
        raise ConfigError("sigma.alpha must lie in (0, 1) for the regularized "
                          f"mode; got {cfg['sigma.alpha']!r}", field="sigma.alpha")
    for kind in ("kernel", "initial"):
        if cfg[f"{kind}.type"] == "csv" and not cfg[f"{kind}.path"]:
            raise ConfigError(f"{kind}.path is required for {kind}.type = 'csv'",
                              field=f"{kind}.path")
    if cfg["noise.modes"] > cfg["grid.n_interior"] ** cfg["grid.dimension"]:
        raise ConfigError("noise.modes must not exceed the number of grid nodes; "
                          f"got {cfg['noise.modes']!r}", field="noise.modes")
    if cfg["coeff.type"] == "convective" and cfg["coeff.p"] < 2.0:
        raise ConfigError(f"coeff.p must be at least 2 for the convective "
                          f"coefficient; got {cfg['coeff.p']!r}", field="coeff.p")
    return cfg


# ------------------------------------------------------------- materialization


def make_grid(cfg):
    return Grid(cfg["grid.dimension"], cfg["grid.n_interior"])


def make_spec(cfg):
    return power_sigma(cfg["sigma.alpha"], cfg["sigma.scale"])


def make_kernel(cfg, grid):
    kind = cfg["kernel.type"]
    if kind == "gaussian":
        return gaussian_kernel(grid, ell=cfg["kernel.ell"],
                               scale=cfg["kernel.scale"])
    if kind == "rank_one":
        x = grid.nodes()
        profile = cfg["kernel.scale"] * np.sqrt(2.0) ** grid.dimension \
            * np.prod(np.sin(np.pi * x), axis=-1)
        return rank_one_kernel(grid, profile)
    try:
        kernel = kernel_from_csv(cfg["kernel.path"])
    except ValueError as exc:
        raise ConfigError(f"kernel.path: {exc}", field="kernel.path") from exc
    if kernel.grid != grid:
        raise ConfigError(f"kernel.path grid {kernel.grid} does not match the "
                          f"configured grid {grid}", field="kernel.path")
    return kernel


def make_coeff(cfg):
    kind = cfg["coeff.type"]
    if kind == "linear":
        return linear_coeff()
    if kind == "convective":
        return remark_flux_coeff(cfg["coeff.p"], scale=cfg["coeff.scale"])
    return p_laplacian_coeff(cfg["coeff.p"])


def make_drift(cfg):
    if cfg["drift.type"] == "tanh":
        return tanh_drift(cfg["drift.scale"])
    return zero_drift()


def make_pert(cfg, key="pert.m"):
    """The 1/n term's perturbation, of the order under key, or None with
    pert.enabled off.  An order above grid.n_interior is a ConfigError
    naming key: the grid is too coarse for its differences."""
    if not cfg["pert.enabled"]:
        return None
    m, nodes = cfg[key], cfg["grid.n_interior"]
    if nodes < m:
        raise ConfigError(f"{key}: grid with {nodes} interior nodes is too coarse "
                          f"for differences of order {m}", field=key)
    if cfg["pert.q"] > 0.0:
        return HigherOrderPerturbation(m=m, q=cfg["pert.q"])
    return perturbation_for(cfg["coeff.p"], m=m)


def make_solver_config(cfg):
    try:
        config = SolverConfig(
            dt=cfg["solver.dt"],
            t_end=cfg["solver.t_end"],
            n=cfg["solver.n"] if cfg["solver.n"] > 0 else None,
            scheme=cfg["solver.scheme"],
            sigma_mode=cfg["sigma.mode"],
            newton_tol=cfg["solver.newton_tol"],
            newton_max_iter=cfg["solver.newton_max_iter"],
            newton_dt_retries=cfg["solver.newton_dt_retries"],
            record_every=cfg["solver.record_every"],
        )
        config.num_steps   # validates divisibility eagerly
    except ValueError as exc:
        raise ConfigError(str(exc), field="solver.dt") from exc
    return config


def make_initial(cfg, grid):
    if cfg["initial.type"] == "csv":
        try:
            return initial_from_csv(grid, cfg["initial.path"])
        except ValueError as exc:
            raise ConfigError(f"initial.path: {exc}", field="initial.path") from exc
    return initial_profile(grid, cfg["initial.type"],
                           amplitude=cfg["initial.amplitude"],
                           seed=cfg["initial.seed"])


def make_sampler(cfg, grid, seed, path_index):
    return default_sampler(grid, seed, path_index, num_modes=cfg["noise.modes"],
                           decay=cfg["noise.decay"])


# ------------------------------------------------------------------ manifests


def manifest_payload(cfg, config_path, out_dir):
    return {
        "tool": "plapsim",
        "version": __version__,
        "config_path": str(config_path) if config_path else "",
        "out_dir": str(out_dir),
        "master_seed": cfg["run.seed"],   # mirrors run.seed; not read back
        "config": {k: cfg[k] for k in sorted(cfg)},
    }


def write_json(path, payload):
    """Deterministic JSON: sorted keys, fixed separators, trailing newline.

    The payload is serialized before the file is opened, so a value JSON
    rejects (NaN or inf) raises ValueError and leaves no file behind.
    """
    text = json.dumps(payload, sort_keys=True, indent=2,
                      separators=(",", ": "), allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_csv(path, header, rows):
    """Deterministic CSV: repr for floats, plain str for everything else."""
    def cell(v):
        if isinstance(v, bool):
            return str(v).lower()
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")
