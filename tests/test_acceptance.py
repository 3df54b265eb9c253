"""Acceptance suite: every check of ``eprfw verify`` passes at its tolerance.

The criteria are defined once, in :data:`eprfw.verify.CHECKS`.  This module
adds what the battery does not carry: the wall-time bounds of criteria 01, 02
and 04, the N=65536 size of the Dirac product (05), the boosted singlet
amplitude (07) and CLI determinism (09).  Report lines are visible with
``pytest -s``.
"""

import math
import time

import numpy as np
import pytest

from eprfw import epr, transport, verify
from eprfw.cli import main
from eprfw.geometry import SpacetimePoint


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda check: check.__name__)
def test_check_passes(check):
    result = check()
    print(result.line())
    assert result.passed, result.line()


def seconds_to_pass(*checks):
    """Wall time of running ``checks`` in turn; each of them must pass."""
    start = time.perf_counter()
    results = [check() for check in checks]
    elapsed = time.perf_counter() - start
    assert all(result.passed for result in results), [result.line() for result in results]
    return elapsed


def test_criterion_01_tetrad_identities():
    assert seconds_to_pass(verify.check_tetrad_identities) < 1.0


def test_criterion_02_connection_tables():
    assert seconds_to_pass(verify.check_connection_tables, verify.check_spin_connection_pipeline) < 1.0


def test_criterion_04_transport_oracle_equivalence():
    assert seconds_to_pass(verify.check_integrator_convergence, verify.check_numeric_fixed_coefficients) < 10.0


def test_integrator_convergence_fails_without_usable_ratios(monkeypatch):
    # every error at or below the round-off floor leaves no ratio to gate
    monkeypatch.setattr(verify, "convergence_errors", lambda: [1e-11] * 7)
    assert not verify.check_integrator_convergence().passed


def test_integrator_convergence_catches_a_first_order_product(monkeypatch):
    # starting every product half a step early puts each step's generator at
    # the left end of its sub-arc of [0, Phi]: a first-order rule
    exact = transport.transport_from_connection

    def left_endpoint(wl, Phi, steps, connection_fn):
        phi0 = -wl.direction * Phi / (2 * steps)

        def shifted(geom, pt, accel):
            return connection_fn(geom, SpacetimePoint(rho=pt.rho, phi=pt.phi + phi0), accel)

        return exact(wl, Phi, steps, connection_fn=shifted)

    monkeypatch.setattr(transport, "transport_from_connection", left_endpoint)
    result = verify.check_integrator_convergence()
    assert not result.passed, result.line()
    assert result.observed < 2.5


def test_closed_form_check_catches_a_perturbed_angle(monkeypatch):
    # cos(theta (1 + 1e-9) / 2) in place of cos(theta / 2) on the diagonal
    exact = transport.transport_closed_form

    def perturbed(params):
        half = 0.5 * params.theta
        return exact(params) + (math.cos(half * (1.0 + 1e-9)) - math.cos(half)) * transport.IDENTITY2

    monkeypatch.setattr(transport, "transport_closed_form", perturbed)
    result = verify.check_closed_form_vs_expm()
    assert not result.passed, result.line()
    assert result.observed > 1e-9


def test_criterion_05_dirac_consistency():
    # the battery's Dirac check must run the product at criterion 05's N
    result = verify.check_dirac_chiral_block()
    assert result.passed, result.line()
    assert result.note == "N=65536", result.line()


def test_criterion_07_wigner_angle():
    # for xi > 0 the angle enters through the matched closed form: the
    # singlet amplitude of the evolved pair must be cos(alpha Phi cosh xi)
    for sh in (0.75, 2.0):
        xi = math.asinh(sh)
        for alpha, Phi in ((0.5, math.pi), (0.9, math.pi / 2)):
            amp = np.vdot(epr.bell_states().psi_minus, verify._closed_pair(alpha, xi, Phi))
            assert abs(amp - math.cos(alpha * Phi * math.cosh(xi))) <= 1e-10


def test_criterion_09_cli_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.csv"
        argv = [
            "bell", "--alpha", "0.5", "--xi", str(math.asinh(0.75)),
            "--sweep", "phi:0:6.283185307179586:13", "--out", str(out),
        ]
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert main(["verify"]) == 0
