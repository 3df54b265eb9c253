"""Bell basis, pair evolution, CHSH degradation and restoration."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprfw.epr import (
    bell_columns,
    bell_decomposition,
    bell_report,
    bell_states,
    chsh_closed_form,
    chsh_direct,
    chsh_restored,
    chsh_settings,
    correlator,
    evolve_pair,
    final_state_closed_form,
    initial_state,
    restored_settings,
    roty,
)
from eprfw.epr import _kron2
from eprfw.geometry import StringGeometry
from eprfw.kinematics import CircularWorldline
from eprfw.transport import (
    IDENTITY2,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    transport_closed_form,
    transport_params,
    wigner_angle,
)
from eprfw.verify import ALPHAS, PHIS, SINH_XIS, TWO_SQRT2
from eprfw.verify import _closed_pair as evolved_state


def transport_pair(alpha, xi, Phi):
    geom = StringGeometry(alpha)
    ops = []
    for direction in (+1, -1):
        wl = CircularWorldline(geom, rho=1.0, xi=xi, direction=direction)
        ops.append(transport_closed_form(transport_params(wl, Phi)))
    return ops


# ------------------------------------------------------------- Bell basis


def test_bell_basis_orthonormal_and_complete():
    basis = bell_states()
    mat = np.array(basis)
    gram = mat.conj() @ mat.T
    assert np.abs(gram - np.eye(4)).max() <= 1e-12
    # completeness: expansion reconstructs arbitrary amplitudes
    rng = np.random.default_rng(7)
    s = rng.normal(size=4) + 1j * rng.normal(size=4)
    coeffs = bell_decomposition(s)
    order = (basis.psi_plus, basis.psi_minus, basis.phi_plus, basis.phi_minus)
    rebuilt = sum(c * v for c, v in zip(coeffs, order))
    assert np.abs(rebuilt - s).max() <= 1e-12


def test_singlet_amplitudes():
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(bell_states().psi_minus, [0.0, r, -r, 0.0])


def test_singlet_anticorrelation():
    assert correlator(bell_states().psi_minus, SIGMA3, SIGMA3) == pytest.approx(-1.0, abs=1e-12)


def test_initial_state_is_singlet():
    assert np.allclose(initial_state(), bell_states().psi_minus)
    assert np.linalg.norm(initial_state()) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("axis", [SIGMA1, SIGMA2, SIGMA3, (SIGMA1 + SIGMA3) / math.sqrt(2)])
def test_singlet_equal_axis_anticorrelation(axis):
    assert correlator(initial_state(), axis, axis) == pytest.approx(-1.0, abs=1e-12)


def test_bell_decomposition_of_singlet():
    assert np.allclose(bell_decomposition(initial_state()), [0.0, 1.0, 0.0, 0.0], atol=1e-15)


# ---------------------------------------------------------- pair evolution


def test_evolve_with_identities_is_identity():
    out = evolve_pair(initial_state(), IDENTITY2, IDENTITY2)
    assert np.allclose(out, initial_state(), atol=1e-15)


def test_rest_frame_quarter_turn_gives_phi_plus():
    # alpha = 0.5, Phi = pi, xi = 0: theta = pi/2, the singlet rotates onto phi+
    state = evolved_state(0.5, 0.0, math.pi)
    theta = wigner_angle(0.5, 0.0, math.pi)
    basis = bell_states()
    expected = math.cos(theta) * basis.psi_minus + math.sin(theta) * basis.phi_plus
    assert np.abs(state - expected).max() <= 1e-12


def test_rest_frame_generic_angle_mixture():
    alpha, Phi = 0.9, 1.1
    state = evolved_state(alpha, 0.0, Phi)
    theta = alpha * Phi
    basis = bell_states()
    expected = math.cos(theta) * basis.psi_minus + math.sin(theta) * basis.phi_plus
    assert np.abs(state - expected).max() <= 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("sh", SINH_XIS)
@pytest.mark.parametrize("Phi", PHIS)
def test_pair_evolution_reproduces_closed_form(alpha, sh, Phi):
    # the convention-pinning check: every +- assignment is exercised here
    xi = math.asinh(sh)
    state = evolved_state(alpha, xi, Phi)
    expected = final_state_closed_form(alpha, xi, Phi)
    assert np.abs(state - expected).max() <= 1e-10


def test_swapped_roles_are_the_mirror_branch():
    alpha, xi, Phi = 0.5, math.asinh(0.75), math.pi / 2
    plus, minus = transport_pair(alpha, xi, Phi)
    swapped = evolve_pair(initial_state(), minus, plus)
    assert np.abs(swapped - final_state_closed_form(alpha, xi, -Phi)).max() <= 1e-12


def test_flipping_only_the_rotation_leg_is_rejected():
    # transporting the partner with only eta2 flipped leaks a psi+ component:
    # the pair-evolution test above is what pins the convention
    alpha, xi, Phi = 0.5, math.asinh(0.75), math.pi
    geom = StringGeometry(alpha)
    wl = CircularWorldline(geom, rho=1.0, xi=xi, direction=+1)
    params = transport_params(wl, Phi)
    from eprfw.transport import TransportParams

    # flipping eta2 swaps Gamma's entries eta1 + eta2 and eta1 - eta2
    wrong_minus = TransportParams(
        eta1=params.eta1, eta2=-params.eta2, theta=params.theta,
        eta_plus=params.eta_minus, eta_minus=params.eta_plus,
    )
    state = evolve_pair(
        initial_state(),
        transport_closed_form(params),
        transport_closed_form(wrong_minus),
    )
    psi_plus_amp = abs(bell_decomposition(state)[0])
    assert psi_plus_amp > 0.1


# -------------------------------------------------------- closed-form state


def test_closed_form_without_precession():
    state = final_state_closed_form(0.5, 1.2, 0.0)
    assert np.allclose(state, bell_states().psi_minus, atol=1e-15)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-14)


def test_closed_form_quarter_turn_ray():
    state = final_state_closed_form(0.5, 0.0, math.pi)  # theta = pi/2
    assert np.abs(state - bell_states().phi_plus).max() <= 1e-12


def test_closed_form_norm():
    xi = math.asinh(0.75)
    theta = wigner_angle(0.5, xi, math.pi)
    state = final_state_closed_form(0.5, xi, math.pi)
    expected = math.cos(theta) ** 2 + math.sin(theta) ** 2 * (0.75**2 + 1.25**2)
    assert np.linalg.norm(state) ** 2 == pytest.approx(expected, rel=1e-12)
    assert np.linalg.norm(state) ** 2 == pytest.approx(
        math.cos(theta) ** 2 + math.sin(theta) ** 2 * math.cosh(2 * xi), rel=1e-12
    )


def test_closed_form_rest_frame_decomposition():
    theta = 0.9 * 1.3
    coeffs = bell_decomposition(final_state_closed_form(0.9, 0.0, 1.3))
    assert np.allclose(coeffs, [0.0, math.cos(theta), math.sin(theta), 0.0], atol=1e-13)


# -------------------------------------------------------------------- CHSH


def test_settings_are_unit_observables():
    for op in chsh_settings():
        assert np.abs(op.conj().T - op).max() <= 1e-12
        assert np.abs(op @ op - IDENTITY2).max() <= 1e-12


def test_primed_pair_anticommutes():
    settings_ = chsh_settings()
    anti = settings_.a @ settings_.a_prime + settings_.a_prime @ settings_.a
    assert np.abs(anti).max() <= 1e-12


def test_chsh_degrades_at_eighth_turn():
    state = evolved_state(0.25, 0.0, math.pi)  # theta = pi/4
    assert chsh_direct(state) < TWO_SQRT2 - 1e-6


@pytest.mark.parametrize("k", range(4))
def test_chsh_product_states_classical(k):
    basis_state = np.zeros(4, dtype=complex)
    basis_state[k] = 1.0
    assert chsh_direct(basis_state) <= 2.0 + 1e-12


def test_correlator_reference_values():
    basis = bell_states()
    assert correlator(basis.phi_plus, SIGMA1, SIGMA1) == pytest.approx(1.0, abs=1e-12)
    state = evolved_state(0.5, 0.0, math.pi)  # phi+ up to sign
    assert correlator(state, SIGMA3, SIGMA3) == pytest.approx(1.0, abs=1e-12)


def test_kron2_equals_numpy_kron_exactly():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        assert np.array_equal(_kron2(a, b), np.kron(a, b))


def test_correlator_zero_norm_rejected():
    with pytest.raises(ValueError, match="zero-norm"):
        correlator(np.zeros(4), SIGMA3, SIGMA3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
def test_correlator_real_and_bounded(raw):
    vec = np.array(raw[:4]) + 1j * np.array(raw[4:])
    if np.linalg.norm(vec) < 1e-6:
        vec = vec + 1.0
    settings_ = chsh_settings()
    val = correlator(vec, settings_.a, settings_.b)
    assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


def test_chsh_closed_form_values():
    for xi in (0.0, 0.4, math.asinh(2.0)):
        assert chsh_closed_form(0.0, xi) == pytest.approx(TWO_SQRT2, abs=1e-12)
        assert chsh_closed_form(math.pi, xi) == pytest.approx(TWO_SQRT2, abs=1e-12)
    # at theta = pi/2, xi = 0 the evolved state is phi+, still maximally violating
    assert chsh_closed_form(math.pi / 2, 0.0) == pytest.approx(TWO_SQRT2, abs=1e-12)
    assert chsh_closed_form(math.pi / 4, 0.0) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(theta=st.floats(-10.0, 10.0), xi=st.floats(0.0, 2.0))
def test_chsh_closed_form_periodic_and_even(theta, xi):
    val = chsh_closed_form(theta, xi)
    assert chsh_closed_form(theta + 2 * math.pi, xi) == pytest.approx(val, abs=1e-9)
    assert chsh_closed_form(-theta, xi) == pytest.approx(val, abs=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("Phi", PHIS)
def test_rest_frame_direct_equals_closed_form(alpha, Phi):
    state = evolved_state(alpha, 0.0, Phi)
    theta = wigner_angle(alpha, 0.0, Phi)
    assert chsh_direct(state) == pytest.approx(chsh_closed_form(theta, 0.0), abs=1e-10)


def test_boosted_closed_form_equals_unnormalized_direct():
    # the closed form skips normalization; multiplying back the squared norm
    # of the transported state recovers the direct expectation at xi > 0
    xi = math.asinh(0.75)
    state = evolved_state(0.5, xi, math.pi)
    theta = wigner_angle(0.5, xi, math.pi)
    assert chsh_closed_form(theta, xi) == pytest.approx(
        chsh_direct(state) * np.linalg.norm(state) ** 2, rel=1e-10
    )


# ------------------------------------------------------------- restoration


def test_restored_settings_identity_at_zero_angle():
    base = chsh_settings()
    rotated = restored_settings(0.0)
    for left, right in zip(base, rotated):
        assert np.allclose(left, right, atol=1e-15)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("Phi", PHIS)
def test_restoration_rest_frame(alpha, Phi):
    state = evolved_state(alpha, 0.0, Phi)
    theta = wigner_angle(alpha, 0.0, Phi)
    assert chsh_restored(state, theta) == pytest.approx(TWO_SQRT2, abs=1e-10)


def test_restoration_assignment_selection():
    # turning the observer at +Phi by +theta restores the maximum at xi = 0;
    # the opposite sense must not restore a generic angle
    alpha, Phi = 0.7, 1.1
    state = evolved_state(alpha, 0.0, Phi)
    theta = alpha * Phi
    chosen = chsh_restored(state, theta)
    opposite = chsh_restored(state, -theta)
    assert chosen == pytest.approx(TWO_SQRT2, abs=1e-10)
    assert chosen > opposite + 1e-3


def test_restored_residual_reported_at_boost():
    report = bell_report(0.5, math.asinh(0.75), math.pi / 2)
    assert report.restored_residual == pytest.approx(
        abs(report.chsh_restored - TWO_SQRT2), abs=1e-15
    )
    assert math.isfinite(report.restored_residual)


def test_roty_matches_exponential():
    angle = 0.83
    expected = np.array(
        [
            [math.cos(angle / 2), -math.sin(angle / 2)],
            [math.sin(angle / 2), math.cos(angle / 2)],
        ]
    )
    assert np.allclose(roty(angle), expected, atol=1e-15)
    phase = cmath.exp(-0.5j * angle)
    eig = np.linalg.eigvals(roty(angle))
    assert sorted(np.round(eig, 12).tolist(), key=lambda z: z.imag) == sorted(
        np.round([phase, phase.conjugate()], 12).tolist(), key=lambda z: z.imag
    )


# ------------------------------------------------------------------ report


def test_bell_report_fields_consistent():
    report = bell_report(0.5, math.asinh(0.75), math.pi)
    assert report.theta == pytest.approx(0.625 * math.pi, abs=1e-12)
    assert report.norm**2 == pytest.approx(
        math.cos(report.theta) ** 2 + math.sin(report.theta) ** 2 * math.cosh(2 * report.xi),
        rel=1e-12,
    )
    psi_minus_coeff, psi_plus_coeff, phi_minus_coeff, phi_plus_coeff = report.bell_coefficients
    assert psi_minus_coeff.real == pytest.approx(math.cos(report.theta), abs=1e-12)
    assert abs(psi_plus_coeff) <= 1e-12
    assert phi_minus_coeff.real == pytest.approx(math.sin(report.theta) * 0.75, abs=1e-12)
    assert phi_plus_coeff.real == pytest.approx(math.sin(report.theta) * 1.25, abs=1e-12)


def test_bell_report_rest_frame_round_trip():
    report = bell_report(1.0, 0.0, 2 * math.pi)
    assert report.chsh_direct == pytest.approx(TWO_SQRT2, abs=1e-10)
    assert report.chsh_closed == pytest.approx(TWO_SQRT2, abs=1e-10)
    assert report.restored_residual <= 1e-10


def test_boosted_pair_without_precession_keeps_maximal_violation():
    # theta = 0: direct and closed form both sit at 2*sqrt(2) for any xi
    report = bell_report(0.5, math.asinh(2.0), 0.0)
    assert report.theta == 0.0
    assert report.chsh_direct == pytest.approx(TWO_SQRT2, abs=1e-12)
    assert report.chsh_closed == pytest.approx(TWO_SQRT2, abs=1e-12)


# ------------------------------------------------------------ array kernel

GRID_XIS = tuple(math.asinh(sh) for sh in SINH_XIS)


def verify_grid_columns():
    """bell_columns over ALPHAS x SINH_XIS x PHIS, one broadcast call."""
    alpha = np.array(ALPHAS)[:, None, None]
    xi = np.array(GRID_XIS)[None, :, None]
    return bell_columns(alpha, xi, np.array(PHIS))


def test_bell_columns_match_bell_report_on_verify_grid():
    columns = verify_grid_columns()
    assert all(values.shape == (len(ALPHAS), len(SINH_XIS), len(PHIS)) for values in columns.values())
    for i, alpha in enumerate(ALPHAS):
        for j, xi in enumerate(GRID_XIS):
            for k, Phi in enumerate(PHIS):
                report = bell_report(alpha, xi, Phi)
                for name, values in columns.items():
                    expected = getattr(report, name)
                    tol = 1e-12 * expected if name == "norm" else 1e-12
                    assert abs(values[i, j, k] - expected) <= tol, (name, alpha, xi, Phi)


@pytest.mark.parametrize("xi", [5.0, 17.8, 100.0, 300.0])
def test_bell_columns_match_bell_report_at_large_rapidity(xi):
    # bell_report builds its state from the two transport operators, whose small
    # entries e^-xi sin(theta/2) must keep their digits for the two to agree
    alpha = 0.5
    Phi = 1.0 / (alpha * math.cosh(xi))  # theta = 1
    columns = bell_columns(alpha, xi, Phi)
    report = bell_report(alpha, xi, Phi)
    for name, values in columns.items():
        expected = getattr(report, name)
        tol = 1e-12 * abs(expected) if name in ("norm", "chsh_closed") else 1e-12
        assert abs(values - expected) <= tol, (name, xi)


def test_bell_columns_reject_non_finite_output():
    # cosh(2 xi) overflows beyond XI_MAX; the kernel's callers validate the
    # domain, and the finite-output check is the backstop
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        bell_columns(0.5, [0.3, 400.0], 1.0)


def test_direct_chsh_is_normalized_closed_form_on_verify_grid():
    # chsh_direct = chsh_closed / norm^2 with norm^2 = cos^2 theta + sin^2 theta cosh 2 xi,
    # for the per-point report and the array kernel alike
    columns = verify_grid_columns()
    for i, alpha in enumerate(ALPHAS):
        for j, xi in enumerate(GRID_XIS):
            for k, Phi in enumerate(PHIS):
                report = bell_report(alpha, xi, Phi)
                row = {name: values[i, j, k] for name, values in columns.items()}
                for theta, norm, direct, closed in (
                    (report.theta, report.norm, report.chsh_direct, report.chsh_closed),
                    (row["theta"], row["norm"], row["chsh_direct"], row["chsh_closed"]),
                ):
                    norm2 = math.cos(theta) ** 2 + math.sin(theta) ** 2 * math.cosh(2.0 * xi)
                    assert abs(norm**2 - norm2) <= 1e-12
                    assert abs(direct - closed / norm**2) <= 1e-12
