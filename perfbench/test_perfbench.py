"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def toy_package():
    """toypkg.work: outer -> (inner_a -> leaf, inner_b), on a clock that only
    the work itself advances; toypkg.alias binds leaf a second time."""
    clock = {"t": 0.0}

    def tick(dt):
        clock["t"] += dt

    work = types.ModuleType("toypkg.work")
    alias = types.ModuleType("toypkg.alias")

    def leaf():
        tick(3.0)

    def inner_a():
        tick(1.0)
        work.leaf()
        tick(2.0)

    def inner_b():
        tick(5.0)

    def outer():
        tick(1.0)
        work.inner_a()
        work.inner_b()
        tick(1.0)

    work.leaf, work.inner_a, work.inner_b, work.outer = leaf, inner_a, inner_b, outer
    alias.leaf = leaf
    pkg = types.ModuleType("toypkg")
    sys.modules.update({"toypkg": pkg, "toypkg.work": work, "toypkg.alias": alias})
    targets = (("top", "toypkg.work", "outer", None),
               ("a", "toypkg.work", "inner_a", None),
               ("b", "toypkg.work", "inner_b", None),
               ("b", "toypkg.work", "leaf", None))
    try:
        yield work, alias, targets, lambda: clock["t"]
    finally:
        for name in ("toypkg", "toypkg.work", "toypkg.alias"):
            sys.modules.pop(name)


def test_self_time_of_synthetic_nested_call(toy_package):
    work, alias, targets, clock = toy_package
    with tracer.Tracer(targets, package="toypkg", clock=clock) as trace:
        work.outer()
        assert alias.leaf is work.leaf       # both bindings wrapped, by one wrapper
        spans = list(trace.spans)
        totals = trace.take()

    # durations: outer 13, inner_a 6, leaf 3, inner_b 5
    assert [s.layer for s in spans] == ["top", "a", "b", "b"]
    assert tracer.self_times(spans) == [2.0, 3.0, 3.0, 5.0]
    assert totals == {"top": {"calls": 1, "self_s": 2.0},
                      "a": {"calls": 1, "self_s": 3.0},
                      "b": {"calls": 2, "self_s": 8.0}}
    assert trace.spans == []


def _tiny_plan():
    from plapsim.evolution import SolverConfig
    from plapsim.noise import gaussian_kernel
    from plapsim.regularize import power_sigma
    from plapsim.spatial import Grid, p_laplacian_coeff, perturbation_for, zero_drift
    from plapsim.verify import ExperimentPlan

    grid = Grid(1, 8)
    return ExperimentPlan(grid=grid, coeff=p_laplacian_coeff(2.5), drift=zero_drift(),
                          pert=perturbation_for(2.5, m=1), spec=power_sigma(0.75),
                          kernel=gaussian_kernel(grid), n_list=(4, 8), num_paths=2,
                          master_seed=3, config=SolverConfig(dt=1e-3, t_end=3e-3))


def test_traced_run_restores_every_binding():
    import plapsim.verify

    bindings = tracer.Tracer().bindings()
    # every target is found, and functions imported by name are found twice
    assert {b[3] for b in bindings} == {t[0] for t in tracer.TARGETS}
    assert {(b[0].__name__, b[1]) for b in bindings} >= {
        ("plapsim.spatial", "apply_A_n"), ("plapsim.evolution", "apply_A_n"),
        ("plapsim.regularize", "sigma_n_values"), ("QWienerSampler", "sample_increment")}
    plan = _tiny_plan()

    with tracer.Tracer() as trace:
        report = plapsim.verify.cauchy_in_n_study(plan)
        totals = trace.take()
    assert report["pass"]
    assert {"verify.study", "evolution.simulate_path", "evolution.step",
            "spatial.j_operator", "regularize.sigma_n",
            "noise.sample_increment", "noise.sampler_init"} <= set(totals)
    assert totals["evolution.step"]["calls"] == 3 * 3 * 2   # steps x levels x paths
    for owner, attr, original, _, _ in bindings:
        assert getattr(owner, attr) is original, (owner, attr)

    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    for owner, attr, original, _, _ in bindings:
        assert getattr(owner, attr) is original, (owner, attr)


def test_metric_names_match_contract():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    assert len(set(names)) == len(names)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    emitted = set(run.layer_metrics({}, 1, {}))
    emitted |= {"trace.run_s", "trace.overhead_frac", "trace.coverage_frac"}
    assert emitted == {m["name"] for m in spec["per_layer"]}
    for wl in WORKLOADS.values():
        assert set(wl.guards) <= emitted
