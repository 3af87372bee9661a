"""Layer tracer: times calls into plapsim's public functions from outside.

Each target function is replaced, at every place a module of the package
binds it (``plapsim.evolution.apply_A_n`` as well as
``plapsim.spatial.apply_A_n``), or on its class for a method, by a wrapper
that records a span: layer, parent span, start and end.  Spans stay in
memory; a span's self time is its duration minus the durations of its
direct children.  Leaving the ``with`` block restores every original
binding, also when the traced code raised.
"""

import functools
import importlib
import os
import sys
import time

import numpy as np


def _values(args, kwargs, result):
    return {"values": int(np.size(result))}


def _newton_iters(args, kwargs, result):
    return {"newton_iters": int(result[2])}


def _kernel_bytes(args, kwargs, result):
    # apply_B(op, ...) reads the dense size x size kernel once
    return {"bytes": args[0].grid.size ** 2 * 8}


def _basis_bytes(args, kwargs, result):
    # sample_increment(self, dt) reads the modes x size eigenfunction table once
    return {"bytes": args[0].eigenfunctions.size * 8}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (layer, module, attribute, counter).  An attribute "Class.method" is
# patched on the class; any other attribute wherever the package binds it.
TARGETS = (
    ("regularize.sigma_n", "plapsim.regularize", "sigma_n_values", _values),
    ("regularize.scan", "plapsim.regularize", "sup_gap_scan", None),
    ("regularize.scan", "plapsim.regularize", "verify_regularization", None),
    ("regularize.scan", "plapsim.regularize", "gap_decay_study", None),
    ("spatial.j_operator", "plapsim.spatial", "j_operator", None),
    ("spatial.divergence", "plapsim.spatial", "apply_divergence_form", None),
    ("spatial.apply_A_n", "plapsim.spatial", "apply_A_n", None),
    ("spatial.norms", "plapsim.spatial", "norm_l1", None),
    ("spatial.norms", "plapsim.spatial", "norm_l2", None),
    ("spatial.norms", "plapsim.spatial", "w1p_seminorm", None),
    ("spatial.norms", "plapsim.spatial", "hm0_norm", None),
    ("spatial.norms", "plapsim.spatial", "wmq_norm", None),
    ("evolution.step", "plapsim.evolution", "step_explicit", _newton_iters),
    ("evolution.step", "plapsim.evolution", "step_semi_implicit", _newton_iters),
    ("evolution.simulate_path", "plapsim.evolution", "simulate_path", None),
    ("noise.apply_B", "plapsim.noise", "apply_B", _kernel_bytes),
    ("noise.sample_increment", "plapsim.noise", "QWienerSampler.sample_increment",
     _basis_bytes),
    ("noise.sampler_init", "plapsim.noise", "default_sampler", None),
    ("noise.kernel_build", "plapsim.noise", "gaussian_kernel", None),
    ("verify.study", "plapsim.verify", "energy_report", None),
    ("verify.study", "plapsim.verify", "contraction_experiment", None),
    ("verify.study", "plapsim.verify", "cauchy_in_n_study", None),
    ("verify.study", "plapsim.verify", "heat_oracle_study", None),
    ("config.write", "plapsim.config", "write_json", _file_bytes),
    ("config.write", "plapsim.config", "write_csv", _file_bytes),
)


class Span:
    __slots__ = ("layer", "parent", "start", "end", "counts")

    def __init__(self, layer, parent):
        self.layer, self.parent = layer, parent
        self.start = self.end = self.counts = None


def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_totals(spans):
    """{layer: {"calls": n, "self_s": seconds, <count>: total}} over finished spans."""
    out = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.layer, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        for key, value in (s.counts or {}).items():
            row[key] = row.get(key, 0) + value
    return out


class Tracer:
    """Context manager that wraps every target while it is active.

    ``package`` names the package whose modules are searched for bindings,
    ``clock`` the time source; both exist so a test can trace a toy package
    on a fake clock.
    """

    def __init__(self, targets=TARGETS, package="plapsim", clock=time.perf_counter):
        self.targets, self.package, self.clock = targets, package, clock
        self.spans = []
        self._stack = []
        self._saved = []   # (owner, attribute, original) in patch order

    def _wrap(self, layer, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result
        return traced

    def bindings(self):
        """(owner, attribute, original, layer, counter) for every place a target is bound."""
        homes = {t[1]: importlib.import_module(t[1]) for t in self.targets}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        found = []
        for layer, module, attr, counter in self.targets:
            home = homes[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                found.append((cls, meth, vars(cls)[meth], layer, counter))
                continue
            original = getattr(home, attr)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        found.append((mod, name, original, layer, counter))
        return found

    def __enter__(self):
        wrappers = {}
        try:
            for owner, attr, original, layer, counter in self.bindings():
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(layer, original, counter)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self):
        """Layer totals of the spans recorded so far; clears them."""
        totals = layer_totals(self.spans)
        self.spans.clear()
        return totals
