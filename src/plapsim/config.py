"""Flat key-value configuration, validation, and run manifests.

The configuration format is a flat text file of dotted keys::

    sigma.alpha = 0.5
    kernel.type = "gaussian"
    solver.dt = 0.004
    run.n_list = [4, 8]

Values are booleans, integers, floats, quoted or bare strings, or flat
lists of those.  Every run writes a ``manifest.json`` holding the tool
version, master seed, and the fully resolved configuration; feeding the
manifest back through ``--config`` reproduces the run bit for bit.  The
worker count is deliberately not part of the manifest: aggregates are
merged in path order, so it cannot influence any output byte.
"""

import json
import re

import numpy as np

from . import __version__
from .evolution import SolverConfig
from .noise import default_sampler, gaussian_kernel, kernel_from_csv, rank_one_kernel
from .regularize import power_sigma
from .spatial import (Grid, HigherOrderPerturbation, initial_from_csv,
                      initial_profile, linear_coeff, p_laplacian_coeff,
                      q_of_p, remark_flux_coeff, tanh_drift, zero_drift)

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


DEFAULTS = {
    "grid.dimension": 1,
    "grid.n_interior": 12,
    "sigma.alpha": 0.5,
    "sigma.scale": 1.0,
    "sigma.mode": "regularized",
    "kernel.type": "gaussian",
    "kernel.ell": 0.25,
    "kernel.scale": 1.0,
    "kernel.path": "",
    "coeff.type": "p_laplace",
    "coeff.p": 2.5,
    "coeff.scale": 0.3,
    "drift.type": "zero",
    "drift.scale": 1.0,
    "pert.enabled": True,
    "pert.m": 2,
    "pert.q": 0.0,          # 0 derives q from coeff.p
    "noise.enabled": True,
    "noise.modes": 0,       # 0 uses every grid mode
    "noise.decay": 2.0,
    "initial.type": "sine",
    "initial.amplitude": 0.25,
    "initial.seed": 0,
    "initial.path": "",
    "solver.dt": 0.004,
    "solver.t_end": 0.04,
    "solver.scheme": "semi-implicit",
    "solver.n": 8,          # 0 drops the level (limit dynamics)
    "solver.newton_tol": 1e-10,
    "solver.newton_max_iter": 40,
    "solver.newton_dt_retries": 0,
    "solver.record_every": 1,
    "run.seed": 1,
    "run.paths": 4,
    "run.n_list": [4, 8],
    "verify.slack": 0.05,
    "verify.se_mult": 3.0,
    "verify.checkpoints": 10,
    "verify.ratio_bound": 2.0,
    "verify.pert_m": 1,
    "regcheck.n_list": [2, 4, 8, 16, 32, 64, 128, 256],
    "regcheck.lam_max": 4.0,
}

_INT_RE = re.compile(r"^[+-]?\d+$")


def _parse_scalar(token, key, lineno):
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
            out[key] = [_parse_scalar(item, key, lineno) for item in items]
        else:
            out[key] = _parse_scalar(value, key, lineno)
    return out


def load_config(path):
    """Read a config file or a manifest and return (resolved config, seed or None).

    Both are merged over the defaults, unknown keys rejected: a flat text
    file gives its keys, a manifest.json the resolved configuration it
    holds, together with its recorded master seed.
    """
    with open(path) as fh:
        text = fh.read()
    seed = None
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        if "config" not in payload:
            raise ConfigError(f"{path} looks like JSON but has no 'config' entry")
        raw, seed = payload["config"], payload.get("master_seed")
    else:
        raw = parse_config_text(text)
    unknown = sorted(set(raw) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown configuration key {unknown[0]}",
                          field=unknown[0])
    return validate_config({**DEFAULTS, **raw}), seed


def _need(cfg, key, kinds, cond=None, what=""):
    value = cfg[key]
    if kinds is int and isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}", field=key)
    if not isinstance(value, kinds):
        raise ConfigError(f"{key} has the wrong type: {value!r}", field=key)
    if cond is not None and not cond(value):
        raise ConfigError(f"{key} {what}; got {value!r}", field=key)
    return value


def validate_config(cfg):
    """Domain checks for every key; raises ConfigError naming the field."""
    num = (int, float)
    _need(cfg, "grid.dimension", int, lambda v: v in (1, 2), "must be 1 or 2")
    _need(cfg, "grid.n_interior", int, lambda v: v >= 1, "must be at least 1")
    alpha = _need(cfg, "sigma.alpha", num, lambda v: 0.0 < v <= 1.0,
                  "must lie in (0, 1]")
    _need(cfg, "sigma.scale", num, lambda v: v > 0.0, "must be positive")
    mode = _need(cfg, "sigma.mode", str, lambda v: v in ("regularized", "raw"),
                 "must be 'regularized' or 'raw'")
    if mode == "regularized" and alpha >= 1.0:
        raise ConfigError("sigma.alpha must lie in (0, 1) for the regularized "
                          f"mode; got {alpha!r}", field="sigma.alpha")
    _need(cfg, "kernel.type", str,
          lambda v: v in ("gaussian", "rank_one", "csv"),
          "must be 'gaussian', 'rank_one', or 'csv'")
    _need(cfg, "kernel.ell", num, lambda v: v > 0.0, "must be positive")
    _need(cfg, "kernel.scale", num, lambda v: v > 0.0, "must be positive")
    _need(cfg, "kernel.path", str)
    if cfg["kernel.type"] == "csv" and not cfg["kernel.path"]:
        raise ConfigError("kernel.path is required for kernel.type = 'csv'",
                          field="kernel.path")
    _need(cfg, "coeff.type", str,
          lambda v: v in ("p_laplace", "linear", "convective"),
          "must be 'p_laplace', 'linear', or 'convective'")
    p = _need(cfg, "coeff.p", num, lambda v: v > 1.0, "must exceed 1")
    _need(cfg, "coeff.scale", num, lambda v: v >= 0.0, "must be nonnegative")
    if cfg["coeff.type"] == "convective" and p < 2.0:
        raise ConfigError(f"coeff.p must be at least 2 for the convective "
                          f"coefficient; got {p!r}", field="coeff.p")
    _need(cfg, "drift.type", str, lambda v: v in ("zero", "tanh"),
          "must be 'zero' or 'tanh'")
    _need(cfg, "drift.scale", num, lambda v: v >= 0.0, "must be nonnegative")
    _need(cfg, "pert.enabled", bool)
    _need(cfg, "pert.m", int, lambda v: v >= 1, "must be at least 1")
    _need(cfg, "pert.q", num, lambda v: v == 0.0 or v >= 2.0,
          "must be 0 (derived) or at least 2")
    _need(cfg, "noise.enabled", bool)
    _need(cfg, "noise.modes", int, lambda v: v >= 0, "must be nonnegative")
    _need(cfg, "noise.decay", num, lambda v: v >= 0.0, "must be nonnegative")
    _need(cfg, "initial.type", str,
          lambda v: v in ("sine", "bump", "random", "csv"),
          "must be 'sine', 'bump', 'random', or 'csv'")
    _need(cfg, "initial.amplitude", num)
    _need(cfg, "initial.seed", int, lambda v: v >= 0, "must be nonnegative")
    _need(cfg, "initial.path", str)
    if cfg["initial.type"] == "csv" and not cfg["initial.path"]:
        raise ConfigError("initial.path is required for initial.type = 'csv'",
                          field="initial.path")
    _need(cfg, "solver.dt", num, lambda v: v > 0.0, "must be positive")
    _need(cfg, "solver.t_end", num, lambda v: v >= 0.0, "must be nonnegative")
    _need(cfg, "solver.scheme", str,
          lambda v: v in ("explicit", "semi-implicit"),
          "must be 'explicit' or 'semi-implicit'")
    _need(cfg, "solver.n", int, lambda v: v >= 0, "must be nonnegative (0 drops the level)")
    _need(cfg, "solver.newton_tol", num, lambda v: v > 0.0, "must be positive")
    _need(cfg, "solver.newton_max_iter", int, lambda v: v >= 0, "must be nonnegative")
    _need(cfg, "solver.newton_dt_retries", int, lambda v: v >= 0, "must be nonnegative")
    _need(cfg, "solver.record_every", int, lambda v: v >= 1, "must be at least 1")
    _need(cfg, "run.seed", int, lambda v: 0 <= v < 2 ** 64,
          "must fit in an unsigned 64-bit integer")
    _need(cfg, "run.paths", int, lambda v: v >= 1, "must be at least 1")
    n_list = _need(cfg, "run.n_list", list, lambda v: len(v) >= 1,
                   "must have at least one level")
    for n in n_list:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ConfigError(f"run.n_list entries must be positive integers; "
                              f"got {n!r}", field="run.n_list")
    if sorted(n_list) != list(n_list):
        raise ConfigError("run.n_list must be sorted ascending", field="run.n_list")
    _need(cfg, "verify.slack", num, lambda v: v >= 0.0, "must be nonnegative")
    _need(cfg, "verify.se_mult", num, lambda v: v >= 0.0, "must be nonnegative")
    _need(cfg, "verify.checkpoints", int, lambda v: v >= 1, "must be at least 1")
    _need(cfg, "verify.ratio_bound", num, lambda v: v >= 1.0, "must be at least 1")
    _need(cfg, "verify.pert_m", int, lambda v: v >= 1, "must be at least 1")
    reg_list = _need(cfg, "regcheck.n_list", list, lambda v: len(v) >= 1,
                     "must have at least one level")
    for n in reg_list:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ConfigError(f"regcheck.n_list entries must be positive "
                              f"integers; got {n!r}", field="regcheck.n_list")
    _need(cfg, "regcheck.lam_max", num, lambda v: v > 0.0, "must be positive")
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
    kernel = kernel_from_csv(cfg["kernel.path"])
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


def make_pert(cfg, m=None):
    if not cfg["pert.enabled"]:
        return None
    q = cfg["pert.q"] if cfg["pert.q"] > 0.0 else q_of_p(cfg["coeff.p"])
    return HigherOrderPerturbation(m=m if m is not None else cfg["pert.m"], q=q)


def make_solver_config(cfg):
    try:
        config = SolverConfig(
            dt=cfg["solver.dt"],
            t_end=cfg["solver.t_end"],
            n=cfg["solver.n"] if cfg["solver.n"] > 0 else None,
            scheme=cfg["solver.scheme"],
            sigma_mode=cfg["sigma.mode"],
            use_perturbation=cfg["pert.enabled"],
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
        return initial_from_csv(grid, cfg["initial.path"])
    return initial_profile(grid, cfg["initial.type"],
                           amplitude=cfg["initial.amplitude"],
                           seed=cfg["initial.seed"])


def make_sampler(cfg, grid, seed, path_index):
    modes = cfg["noise.modes"] if cfg["noise.modes"] > 0 else None
    return default_sampler(grid, seed, path_index, num_modes=modes,
                           decay=cfg["noise.decay"])


# ------------------------------------------------------------------ manifests


def manifest_payload(cfg, seed, config_path, out_dir):
    return {
        "tool": "plapsim",
        "version": __version__,
        "config_path": str(config_path) if config_path else "",
        "out_dir": str(out_dir),
        "master_seed": int(seed),
        "config": {k: cfg[k] for k in sorted(cfg)},
    }


def write_json(path, payload):
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2,
                  separators=(",", ": "), allow_nan=False)
        fh.write("\n")


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
