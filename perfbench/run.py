"""plapsim benchmark: end-to-end metrics per workload, and a traced per-layer run.

    python3 perfbench/run.py                          # every workload, default seeds
    python3 perfbench/run.py --workload cauchy_1d --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  A named workload runs in this process; with ``--workload all``
(the default) each workload runs in a child process of its own, so that
its peak memory is its own.

``--trace 0`` times the workload's set-up and main call with no tracing and
reports the end-to-end metrics.  ``--trace 1`` spends half the time on
untraced calls and half on traced ones, and reports the per-layer metrics
(per main call) with the tracing overhead.  Either way the last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` checks, and ``metrics``.  The exit code is 0 only when no check
failed.
"""

import os

# One BLAS thread for every run: steady timings on a small shared machine,
# and the same thread count on every commit measured.  Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "plapsim" / "__init__.py").is_file():
    sys.exit(f"perfbench: no plapsim source under {ROOT / 'src'}; run from a source checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy

import tracer
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
REFERENCE = json.loads((HERE / "reference.json").read_text())


# -------------------------------------------------------------- environment


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    out = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[path.name] = fn()
                    break
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    if not (ROOT / ".git").exists():   # an exported checkout; git would search upwards
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "plapsim").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_fixed": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "workers": 1,
    }


# ------------------------------------------------------------------- checks


class Checks:
    """Counts the program's own report checks, the reference checks (at the
    reference seed only), the rerun checks (every call reproduces
    the first call's headline values exactly) and the bypass guards."""

    def __init__(self, workload, seed):
        self.workload = workload
        ref = REFERENCE["workloads"][workload.name]
        self.reference = ref["values"] if seed == ref["seed"] else None
        self.rel_tol = REFERENCE["rel_tol"]
        self.first = None
        self.attempted = self.failed = 0
        self.failures = []

    def record(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def output(self, out):
        for k, ok in enumerate(self.workload.report_checks(out)):
            self.record(f"report check {k}", bool(ok))
        head = self.workload.headline(out)
        if self.first is None:
            self.first = head
        else:
            self.record("rerun reproduces the first call", head == self.first)
        for key, want in (self.reference or {}).items():
            got = head.get(key, math.nan)
            self.record(f"reference {key}: {got!r} vs {want!r}",
                        abs(got - want) <= self.rel_tol * abs(want))

    def raised(self):
        """A call that raised fails every check it would have made."""
        n = self.workload.expected_checks + len(self.reference or {})
        self.attempted += n
        self.failed += n
        self.failures.append(f"main call raised ({n} checks failed)")


# --------------------------------------------------------------- measuring


class Calibration:
    """A fixed loop that runs no plapsim code, timed around every measurement.

    On the shared 2-core VM the baseline was recorded on, the same call runs
    up to twice as slow from one minute to the next.  Each timing is therefore
    rescaled by REF_S / (this loop's time just before and just after it),
    which reads as seconds on the machine running at the speed where the
    loop takes REF_S.  The loop mixes the three kinds of work the workloads
    do: numpy calls on 32-element arrays (the per-call overhead of the 1d
    solver), elementwise work on a 0.8 MB array, and a matvec over an 8 MB
    matrix, weighted so that each kind takes about a third of the loop.
    REF_S is the loop's median time, rounded, on the machine the baseline
    was recorded on.
    """

    REF_S = 0.06

    def __init__(self):
        self.small = np.linspace(0.0, 1.0, 32)
        self.mid = np.linspace(0.1, 1.0, 100_000)
        self.mat = np.ones((1024, 1024))
        self.vec = np.ones(1024)
        self.factors = []   # REF_S / loop time, one per rescaled sample

    def seconds(self):
        t0 = time.perf_counter()
        for _ in range(2000):
            padded = np.concatenate(([0.0], self.small, [0.0]))
            float(np.sum(np.abs(np.diff(padded)) ** 1.5))
        for _ in range(40):
            float(np.sum(np.abs(self.mid) ** 0.75 + 2.0 * self.mid))
        for _ in range(16):
            float((self.mat @ self.vec)[0])
        return time.perf_counter() - t0

    def rescale(self, seconds, before, after):
        self.factors.append(self.REF_S / (0.5 * (before + after)))
        return seconds * self.factors[-1]


def time_setup(workload, seed, cal):
    """Rescaled seconds per set-up, one sample per batch of set-ups."""
    batch = max(1, workload.setup_reps // 10)
    samples, inputs, before = [], None, cal.seconds()
    for _ in range(workload.setup_reps // batch):
        t0 = time.perf_counter()
        for _ in range(batch):
            inputs = workload.setup(seed)
        elapsed = (time.perf_counter() - t0) / batch
        after = cal.seconds()
        samples.append(cal.rescale(elapsed, before, after))
        before = after
    return samples, inputs


def time_calls(workload, inputs, seconds, checks, cal, trace=None):
    """Rescaled seconds of main calls made back to back, at least one, while
    the next call is expected to end less than half a call past ``seconds``.

    With a tracer, also returns the layer totals summed over the calls, self
    times rescaled like the call that holds them.
    """
    samples, totals, start = [], {}, time.perf_counter()
    before = cal.seconds()
    while not samples or (time.perf_counter() - start
                          + statistics.median(samples) / 2 < seconds):
        t0 = time.perf_counter()
        try:
            out = workload.run(inputs)
        except Exception:
            traceback.print_exc()
            checks.raised()
            break
        elapsed = time.perf_counter() - t0
        after = cal.seconds()
        samples.append(cal.rescale(elapsed, before, after))
        before = after
        if trace is not None:
            for layer, row in trace.take().items():
                acc = totals.setdefault(layer, {})
                for key, value in row.items():
                    if key == "self_s":
                        value *= cal.factors[-1]
                    acc[key] = acc.get(key, 0) + value
        checks.output(out)
    return samples, totals


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals, calls, setup_totals):
    """Per-layer metrics per main call, from layer totals summed over ``calls``."""
    def get(layer, key, source=totals, n=calls):
        return _ratio(source.get(layer, {}).get(key, 0), n)

    m = {}
    for layer in ("regularize.sigma_n", "spatial.j_operator", "spatial.divergence",
                  "spatial.apply_A_n", "noise.apply_B", "noise.sample_increment"):
        m[f"{layer}.calls"] = get(layer, "calls")
    for layer in {t[0] for t in tracer.TARGETS} - {"noise.kernel_build"}:
        m[f"{layer}.self_s"] = get(layer, "self_s")
    m["regularize.sigma_n.values"] = get("regularize.sigma_n", "values")
    m["regularize.sigma_n.ns_per_value"] = 1e9 * _ratio(
        m["regularize.sigma_n.self_s"], m["regularize.sigma_n.values"])
    steps = get("evolution.step", "calls")
    m["evolution.steps"] = steps
    m["evolution.newton_iters_per_step"] = _ratio(
        get("evolution.step", "newton_iters"), steps)
    m["evolution.drift_evals_per_step"] = _ratio(m["spatial.apply_A_n.calls"], steps)
    for layer in ("noise.apply_B", "noise.sample_increment"):
        m[f"{layer}.gb_per_s"] = 1e-9 * _ratio(get(layer, "bytes"), m[f"{layer}.self_s"])
    m["config.write.bytes"] = get("config.write", "bytes")
    m["noise.kernel_build.self_s"] = get("noise.kernel_build", "self_s",
                                         source=setup_totals, n=1)
    return m


def percentile_line(samples):
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    line = f"median of {n} calls"
    if n >= 21:
        q = math.floor(100 * (n - 10) / n)
        hi = float(np.percentile(samples, q))
        line += f", p{q} {hi:.6g} s"
    else:
        line += "; under 21 calls, so no percentile above the median has ten beyond it"
    return line + f" (min {min(samples):.6g}, max {max(samples):.6g})"


def measure(workload, seed, seconds, trace):
    checks, cal = Checks(workload, seed), Calibration()
    setup_samples, inputs = time_setup(workload, seed, cal)
    untraced, _ = time_calls(workload, inputs, seconds / 2 if trace else seconds,
                             checks, cal)
    notes = {"run_s": percentile_line(untraced) if untraced else "no call finished",
             "setup_s": f"median of {len(setup_samples)} batches of "
                        f"{workload.setup_reps // len(setup_samples)} set-ups"}
    if not trace:
        metrics = {
            "run_s": statistics.median(untraced) if untraced else math.nan,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return metrics, notes, checks, cal

    with tracer.Tracer() as trace_run:
        workload.setup(seed)
        setup_totals = trace_run.take()
        traced, totals = time_calls(workload, inputs, seconds / 2, checks, cal,
                                    trace_run)
    metrics = layer_metrics(totals, len(traced), setup_totals)
    if untraced and traced:
        traced_s, untraced_s = statistics.median(traced), statistics.median(untraced)
        metrics["trace.run_s"] = traced_s
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        metrics["trace.coverage_frac"] = (sum(row["self_s"] for row in totals.values())
                                          / sum(traced))
    for name in workload.guards:
        checks.record(f"bypass guard: {name} = {metrics.get(name)}",
                      metrics.get(name) == 0)
    notes["trace.run_s"] = percentile_line(traced) if traced else "no call finished"
    return metrics, notes, checks, cal


def run_one(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    seed = REFERENCE["workloads"][name]["seed"] if seed is None else seed
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    metrics, notes, checks, cal = measure(workload, seed, seconds, trace)
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    for key in wanted:
        note = f"  [{notes[key]}]" if key in notes else ""
        print(f"{key:40s} {metrics.get(key, math.nan):.6g} {UNITS[key]}{note}")
    print(f"{'speed_factor':40s} {statistics.median(cal.factors):.4g}  [median of "
          f"{len(cal.factors)}; seconds above are wall seconds times this factor, "
          f"min {min(cal.factors):.4g}, max {max(cal.factors):.4g}]")
    frac = _ratio(checks.failed, checks.attempted)
    print(f"{'fail_frac':40s} {frac:.6g} ({checks.failed} of {checks.attempted} checks)")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    correct = checks.failed == 0 and all(math.isfinite(metrics.get(k, math.nan))
                                         for k in wanted)
    result = {"correct": correct, "attempted": checks.attempted, "failed": checks.failed,
              "metrics": {k: {"value": metrics.get(k, math.nan), "unit": UNITS[k]}
                          for k in wanted}}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed, seconds, trace):
    """Every workload, each in a child process of its own."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(seconds), "--trace", str(trace)]
        if seed is not None:
            cmd += ["--seed", str(seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        code = code or proc.returncode or (results[name] is None)
    print(json.dumps(results))
    return int(code)


def _seed(text):
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=_seed, default=None,
                        help="workload seed (default: each workload's reference seed)")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="time spent on main calls per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
