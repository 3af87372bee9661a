"""A mutant matrix for the `plapsim verify` desk battery.

Each test plants one defect on the verify path, runs the battery in process
(`plapsim verify --seed 7` on the default config) and asserts which named
checks fail.  A mutant that no check catches yet is a strict xfail whose
reason names the ROADMAP item meant to catch it; the test asserts only that
the battery fails, so the check that item adds turns it into an XPASS, and
the strict mark then asks for the xfail to be dropped.  The README's mutant
table lists the same rows.
"""

import json
from dataclasses import replace

import pytest

from plapsim import cli, evolution, verify
from plapsim.cli import EXIT_FAIL

from oracles import slightly_fast_heat_coeff


def noise_scaled(factor):
    """The sampler's noise amplitude times factor: its spectrum times factor^2."""
    def plant(monkeypatch):
        sampler = verify.default_sampler

        def scaled(*args, **kwargs):
            base = sampler(*args, **kwargs)
            return replace(base, eigenvalues=base.eigenvalues * factor ** 2)

        monkeypatch.setattr(verify, "default_sampler", scaled)
    return plant


def no_perturbation(**changes):
    """Every system the battery builds runs without the 1/n term (its
    perturbation piece dropped) and with its solver config changed."""
    def plant(monkeypatch):
        build = verify.build_system

        def changed(grid, coeff, drift, pert, config, **kwargs):
            return build(grid, coeff, drift, None, replace(config, **changes), **kwargs)

        monkeypatch.setattr(verify, "build_system", changed)
    return plant


def sigma_for_sigma_n(monkeypatch):
    monkeypatch.setattr(evolution, "RegularizedSigma", lambda spec, n: spec.eval)


def heat_flux_off(monkeypatch):
    monkeypatch.setattr(verify, "linear_coeff", slightly_fast_heat_coeff)


def missed(item):
    return pytest.mark.xfail(strict=True, reason=f"no check catches it yet: {item}")


NOISE = "ROADMAP item 16's noise energy balance"
LIMIT = "ROADMAP item 17's cauchy_nonzero"

# (mutant, the checks it must fail); None: at least one check
MUTANTS = [
    pytest.param(heat_flux_off, {"heat_discrete_1d", "heat_discrete_2d"},
                 id="heat-flux-off-by-1e-9"),
    pytest.param(noise_scaled(1.05), None, id="noise-x1.05", marks=missed(NOISE)),
    pytest.param(noise_scaled(3.0), None, id="noise-x3", marks=missed(NOISE)),
    pytest.param(noise_scaled(1e-4), None, id="noise-x1e-4", marks=missed(NOISE)),
    pytest.param(no_perturbation(), None, id="no-1-over-n-term", marks=missed(LIMIT)),
    pytest.param(no_perturbation(sigma_mode="raw"), None,
                 id="limit-at-every-level", marks=missed(LIMIT)),
    pytest.param(sigma_for_sigma_n, None, id="sigma-for-sigma_n",
                 marks=missed("ROADMAP item 4's active fraction of sigma_n < sigma")),
]


def failed_checks(out):
    report = json.loads((out / "report.json").read_text())
    return {check["name"] for study in report["studies"]
            for check in study["checks"] if not check["pass"]}


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    """The desk battery with a mutant planted (None: none), run once per
    mutant: its exit code, report bytes and failed checks."""
    runs = {}

    def run(plant):
        if plant not in runs:
            out = tmp_path_factory.mktemp("verify")
            with pytest.MonkeyPatch.context() as monkeypatch:
                if plant is not None:
                    plant(monkeypatch)
                code = cli.main(["verify", "--out", str(out), "--seed", "7"])
            runs[plant] = code, (out / "report.json").read_bytes(), failed_checks(out)
        return runs[plant]
    return run


@pytest.mark.parametrize("plant, caught_by", MUTANTS)
def test_the_battery_catches_the_mutant(battery, plant, caught_by):
    code, _, failed = battery(plant)
    assert code == EXIT_FAIL and failed
    if caught_by is not None:
        assert failed == caught_by


@pytest.mark.parametrize("plant", [param.values[0] for param in MUTANTS],
                         ids=[param.id for param in MUTANTS])
def test_the_mutant_changes_the_report(battery, plant):
    # a mutant that plants nothing would pass any battery
    assert battery(plant)[1] != battery(None)[1]
