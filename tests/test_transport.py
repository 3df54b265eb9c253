"""Lorentz generators and transport operators, closed form and path ordered."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from eprfw import geometry, transport, verify
from eprfw.geometry import (
    MINKOWSKI,
    PHI,
    T,
    SpacetimePoint,
    StringGeometry,
    spin_connection_at,
    total_connection_at,
    transport_frame_vector,
)
from eprfw.kinematics import CircularWorldline, proper_acceleration
from eprfw.transport import (
    IDENTITY2,
    chiral_block,
    gamma_matrices,
    lorentz_generators,
    rotation_angle,
    transport_closed_form,
    transport_from_connection,
    transport_params,
    wigner_angle,
)
from eprfw.transport import _expm_traceless, _gamma_matrix, _power, _split_blocks
from eprfw.verify import ALPHAS

XI_REF = math.asinh(0.75)  # cosh = 1.25


def ref_worldline(direction=+1, alpha=0.5, sh=0.75):
    return CircularWorldline(StringGeometry(alpha), rho=2.0, xi=math.asinh(sh), direction=direction)


def params_grid():
    return list(verify._params_grid())


# -------------------------------------------------------------- generators


@pytest.mark.parametrize("rep", ["spin-half", "dirac"])
def test_generators_antisymmetric(rep):
    sig = lorentz_generators(rep)
    for a in range(4):
        for b in range(4):
            assert np.allclose(sig[a, b], -sig[b, a], atol=1e-15)


@pytest.mark.parametrize("rep", ["spin-half", "dirac"])
def test_generators_close_lorentz_algebra(rep):
    # [S^{ab}, S^{cd}] = s * i (eta^{ad} S^{bc} + eta^{bc} S^{ad}
    #                           - eta^{ac} S^{bd} - eta^{bd} S^{ac})
    # with one fixed structure-constant sign s = -1 for the whole family;
    # the sign is tied to the connection convention the transport exponent uses.
    sig = lorentz_generators(rep)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    lhs = sig[a, b] @ sig[c, d] - sig[c, d] @ sig[a, b]
                    rhs = -1j * (
                        eta[a, d] * sig[b, c]
                        + eta[b, c] * sig[a, d]
                        - eta[a, c] * sig[b, d]
                        - eta[b, d] * sig[a, c]
                    )
                    assert np.abs(lhs - rhs).max() <= 1e-12


def test_spin_half_hermiticity_split():
    sig = lorentz_generators("spin-half")
    for k in range(1, 4):
        boost = sig[0, k]
        assert np.allclose(boost.conj().T, -boost, atol=1e-15)  # anti-Hermitian
    for j in range(1, 4):
        for k in range(1, 4):
            rot = sig[j, k]
            assert np.allclose(rot.conj().T, rot, atol=1e-15)  # Hermitian


def test_spin_half_rotation_exponentiates_to_real_rotation():
    sig = lorentz_generators("spin-half")
    angle = 0.7
    # rotation about the 2-axis is generated by Sigma^{31} = sigma^2 / 2
    rot = expm(-1j * angle * sig[3, 1])
    assert np.abs(rot.imag).max() <= 1e-14
    assert np.allclose(rot @ rot.conj().T, IDENTITY2, atol=1e-14)
    assert rotation_angle(rot) == pytest.approx(angle, abs=1e-12)


def test_gamma_matrices_clifford_algebra():
    g = gamma_matrices()
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    for a in range(4):
        for b in range(4):
            anti = g[a] @ g[b] + g[b] @ g[a]
            assert np.allclose(anti, 2.0 * eta[a, b] * np.eye(4), atol=1e-15)


def test_dirac_generators_block_diagonal():
    sig = lorentz_generators("dirac")
    for a in range(4):
        for b in range(4):
            assert np.abs(sig[a, b][:2, 2:]).max() == 0.0
            assert np.abs(sig[a, b][2:, :2]).max() == 0.0


def test_dirac_right_block_is_spin_half_family():
    dirac = lorentz_generators("dirac")
    half = lorentz_generators("spin-half")
    for a in range(4):
        for b in range(4):
            assert np.allclose(dirac[a, b][2:, 2:], half[a, b], atol=1e-15)


def test_unknown_representation_rejected():
    with pytest.raises(ValueError):
        lorentz_generators("vector")


# ------------------------------------------------------------------ params


def test_transport_params_reference_values():
    params = transport_params(ref_worldline(), math.pi)
    assert params.eta1 == pytest.approx(-0.5 * math.pi * 0.75 * 1.25, abs=1e-12)
    assert params.eta2 == pytest.approx(-0.5 * math.pi * 1.25**2, abs=1e-12)
    assert params.eta1 == pytest.approx(-1.472622, abs=1e-6)
    assert params.eta2 == pytest.approx(-2.454369, abs=1e-6)
    assert params.theta == pytest.approx(0.625 * math.pi, abs=1e-12)


def test_transport_params_at_rest():
    params = transport_params(ref_worldline(sh=0.0), math.pi)
    assert params.eta1 == 0.0
    assert params.eta2 == pytest.approx(-0.5 * math.pi, abs=1e-15)
    assert params.theta == pytest.approx(0.5 * math.pi, abs=1e-15)


def test_transport_params_reject_theta_beyond_trig_accuracy():
    # at rest with alpha = 1, theta = Phi exactly, so the bound is hit to the bit
    wl = CircularWorldline(StringGeometry(1.0), rho=1.0, xi=0.0)
    largest = 1e-8 * 2.0**52
    assert transport_params(wl, largest).theta == largest
    with pytest.raises(ValueError, match=r"theta = alpha Phi cosh\(xi\) = .* at alpha=1.0, xi=0.0, Phi="):
        transport_params(wl, math.nextafter(largest, math.inf))


@pytest.mark.parametrize("params", params_grid())
def test_gamma_squared_identity(params):
    gamma2 = -(params.theta**2)  # gamma = i theta
    assert abs(gamma2 - (params.eta1**2 - params.eta2**2)) <= 1e-12 * max(1.0, params.theta**2)
    gam = _gamma_matrix(params)
    assert np.abs(gam @ gam - gamma2 * np.eye(2)).max() <= 1e-12 * max(1.0, params.theta**2)


def test_partner_particle_flips_both_parameters():
    plus = transport_params(ref_worldline(+1), math.pi)
    minus = transport_params(ref_worldline(-1), math.pi)
    assert minus.eta1 == -plus.eta1
    assert minus.eta2 == -plus.eta2
    assert minus.theta == plus.theta


# ------------------------------------------------------------- closed form


def test_closed_form_full_loop_is_minus_identity():
    # theta = alpha Phi = 2 pi at rest: the spinor double cover
    wl = CircularWorldline(StringGeometry(1.0), rho=1.0, xi=0.0)
    op = transport_closed_form(transport_params(wl, 2 * math.pi))
    assert np.allclose(op, -IDENTITY2, atol=1e-12)


def test_closed_form_rest_frame_rotation():
    wl = ref_worldline(sh=0.0)
    theta = 0.5 * math.pi
    op = transport_closed_form(transport_params(wl, math.pi))
    expected = np.array(
        [
            [math.cos(theta / 2), -math.sin(theta / 2)],
            [math.sin(theta / 2), math.cos(theta / 2)],
        ]
    )
    assert np.allclose(op, expected, atol=1e-14)
    assert np.abs(op.conj().T @ op - IDENTITY2).max() <= 1e-12
    assert rotation_angle(op) == pytest.approx(theta, abs=1e-12)


def test_closed_form_without_transport_is_identity():
    from eprfw.transport import TransportParams

    op = transport_closed_form(TransportParams(eta1=0.0, eta2=0.0, theta=0.0, eta_plus=0.0, eta_minus=0.0))
    assert np.allclose(op, IDENTITY2, atol=1e-15)


def test_closed_form_coefficient_matches_cardinal_sine():
    # sin(theta/2)/theta is formed in math; 0.5 np.sinc(theta / 2 pi) is the reference,
    # to 1 ulp, so that a host whose sin differs from numpy's in the last bit passes
    from eprfw.transport import TransportParams

    rng = np.random.default_rng(14)
    thetas = np.concatenate([
        [0.0, 5e-324, 1e-300, 1e-12, 2 * math.pi, 4.5e7],
        rng.uniform(0.0, 1e-3, 300),
        rng.uniform(0.0, 4 * math.pi, 1500),
        np.exp(rng.uniform(math.log(1e-3), math.log(4.5e7), 1500)),
    ])
    for theta in map(float, thetas):
        # eta1 = 1, eta2 = 0 puts the coefficient alone in entry (0, 1)
        params = TransportParams(eta1=1.0, eta2=0.0, theta=theta, eta_plus=1.0, eta_minus=1.0)
        coeff = transport_closed_form(params)[0, 1].real
        expected = 0.5 * np.sinc(theta / (2.0 * math.pi))
        assert abs(coeff - expected) <= np.spacing(abs(expected)), theta


# rapidities where eta1 - eta2 = d theta e^-xi is e^(2 xi) times smaller than eta1 and eta2
LARGE_XIS = (5.0, 17.8, 100.0, 300.0)


def mp_closed_form(alpha, xi, Phi, direction):
    """The closed form from eta1 +- eta2 as written, rounded from 2 xi / ln 10 + 30 digits.

    The difference eta1 - eta2 cancels all but about a factor e^(-2 xi) of its
    operands, so the working precision grows with xi.
    """
    with mpmath.workdps(int(2.0 * xi / math.log(10.0)) + 30):
        alpha, xi, Phi = mpmath.mpf(alpha), mpmath.mpf(xi), mpmath.mpf(Phi)
        ch, sh = mpmath.cosh(xi), mpmath.sinh(xi)
        eta1, eta2 = -direction * alpha * Phi * sh * ch, -direction * alpha * Phi * ch * ch
        theta = alpha * Phi * ch
        cos, coeff = mpmath.cos(theta / 2), mpmath.sin(theta / 2) / theta
        return np.array([[float(cos), float(coeff * (eta1 + eta2))], [float(coeff * (eta1 - eta2)), float(cos)]])


@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("xi", LARGE_XIS)
def test_closed_form_is_entrywise_accurate_at_large_rapidity(xi, direction):
    alpha = 0.5
    Phi = 1.0 / (alpha * math.cosh(xi))  # theta = 1
    wl = CircularWorldline(StringGeometry(alpha), rho=1.0, xi=xi, direction=direction)
    op = transport_closed_form(transport_params(wl, Phi))
    ref = mp_closed_form(alpha, xi, Phi, direction)
    assert np.abs(op.imag).max() == 0.0
    assert (np.abs(op.real - ref) / np.abs(ref)).max() <= 1e-14
    assert abs(np.linalg.det(op) - 1.0) <= 1e-14


@pytest.mark.parametrize("params", params_grid())
def test_closed_form_against_scaling_squaring_oracle(params):
    ours = transport_closed_form(params)
    oracle = expm(0.5 * _gamma_matrix(params))
    assert np.abs(ours - oracle).max() <= 1e-12


@pytest.mark.parametrize("params", params_grid())
def test_closed_form_unimodular(params):
    assert abs(np.linalg.det(transport_closed_form(params)) - 1.0) <= 1e-10


def test_closed_form_boosted_entries():
    params = transport_params(ref_worldline(), math.pi)
    op = transport_closed_form(params)
    theta = params.theta
    assert op[0, 0].real == pytest.approx(math.cos(theta / 2), abs=1e-14)
    assert op[1, 0].real == pytest.approx((params.eta1 - params.eta2) * math.sin(theta / 2) / theta, abs=1e-14)
    assert op[0, 1].real == pytest.approx((params.eta1 + params.eta2) * math.sin(theta / 2) / theta, abs=1e-14)


def test_boosted_transport_is_not_unitary():
    for sh in (0.75, 2.0):
        op = transport_closed_form(transport_params(ref_worldline(sh=sh), math.pi))
        assert np.abs(op.conj().T @ op - IDENTITY2).max() > 1e-6


def test_full_period_boosted_transport_is_unitary():
    # theta = 2 pi kills the boost part even for xi > 0
    wl = ref_worldline(alpha=1.0)
    op = transport_closed_form(transport_params(wl, 2 * math.pi / 1.25))
    assert np.abs(op.conj().T @ op - IDENTITY2).max() <= 1e-12


# ------------------------------------------------------------- wigner angle


def test_wigner_angle_values():
    assert wigner_angle(1.0, 0.0, math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-15)
    assert wigner_angle(0.5, XI_REF, math.pi) == pytest.approx(0.625 * math.pi, abs=1e-12)
    assert wigner_angle(0.5, XI_REF, math.pi) == pytest.approx(1.963495, abs=1e-6)


def test_wigner_angle_monotone():
    base = wigner_angle(0.5, 0.8, 1.0)
    assert wigner_angle(0.6, 0.8, 1.0) > base
    assert wigner_angle(0.5, 0.9, 1.0) > base
    assert wigner_angle(0.5, 0.8, 1.1) > base


# ---------------------------------------------------------------- numeric


def test_numeric_empty_path_is_identity():
    wl = ref_worldline()
    for steps in (1, 7):
        assert np.allclose(transport_from_connection(wl, 0.0, steps), IDENTITY2, atol=1e-15)


def test_numeric_rejects_zero_steps():
    with pytest.raises(ValueError):
        transport_from_connection(ref_worldline(), math.pi, 0)


@pytest.mark.parametrize("Phi", [math.nan, math.inf, -math.inf])
def test_numeric_rejects_non_finite_azimuth(Phi):
    with pytest.raises(ValueError, match="Phi must be finite and non-negative"):
        transport_from_connection(ref_worldline(), Phi, 8)


@pytest.mark.parametrize("xi", [2.2250738585e-313, 1e-200], ids=["subnormal", "tiny"])
def test_numeric_tiny_rapidity_matches_rest_frame(xi):
    # U^t / U^phi overflows at a subnormal xi, where the acceleration is already zero
    for direction in (+1, -1):
        wl = CircularWorldline(StringGeometry(0.5), rho=1.0, xi=xi, direction=direction)
        rest = CircularWorldline(StringGeometry(0.5), rho=1.0, xi=0.0, direction=direction)
        assert np.array_equal(transport_from_connection(wl, 1.0, 4), transport_from_connection(rest, 1.0, 4))


def test_numeric_partner_particle_matches_closed_form():
    wl = ref_worldline(direction=-1)
    closed = transport_closed_form(transport_params(wl, math.pi))
    num = transport_from_connection(wl, math.pi, 512)
    assert np.abs(num - closed).max() <= 1e-10


def test_numeric_full_loop_holonomy():
    wl = CircularWorldline(StringGeometry(1.0), rho=1.0, xi=0.0)
    op = transport_from_connection(wl, 2 * math.pi, 4096)
    assert np.allclose(op, -IDENTITY2, atol=1e-10)


# the convergence study's generator, which varies along phi
modulated_connection = verify._modulated_connection


def starting_at(phi0, connection_fn=total_connection_at):
    """Connection hook that moves the transported arc to start at azimuth ``phi0``."""

    def shifted(geom, pt, accel):
        return connection_fn(geom, SpacetimePoint(rho=pt.rho, phi=pt.phi + phi0), accel)

    return shifted


def test_numeric_convergence_is_second_order():
    errors = verify.convergence_errors()
    assert errors[0] > 1e-6  # the perturbation actually bites
    result = verify.check_integrator_convergence()
    assert result.passed, result.line()


def test_convergence_reference_is_fourth_order_accurate():
    # a finer Richardson pair, (4 X(2^14) - X(2^13)) / 3, must see the same
    # errors: the study's reference is then far below what it measures
    wl = ref_worldline()

    def product(steps):
        return transport_from_connection(wl, math.pi, steps, connection_fn=modulated_connection)

    fine = (4.0 * product(2**14) - product(2**13)) / 3.0
    for k, error in zip(range(4, 11), verify.convergence_errors(), strict=True):
        assert abs(error - np.abs(product(2**k) - fine).max()) <= 1e-12


def test_variable_mode_requires_path_ordering():
    # per-step generators must not commute, otherwise ordering is untested
    wl = ref_worldline()
    a = transport_from_connection(wl, 0.5, 1, connection_fn=modulated_connection)
    b = transport_from_connection(wl, 0.5, 1, connection_fn=starting_at(wl.direction * 0.5, modulated_connection))
    assert np.abs(a @ b - b @ a).max() > 1e-4


def test_transport_composition_path_ordered():
    wl = ref_worldline()
    full = transport_from_connection(wl, math.pi, 1024, connection_fn=modulated_connection)
    first = transport_from_connection(wl, math.pi / 2, 512, connection_fn=modulated_connection)
    second_half = starting_at(math.pi / 2, modulated_connection)
    second = transport_from_connection(wl, math.pi / 2, 512, connection_fn=second_half)
    assert np.abs(second @ first - full).max() <= 1e-12


def test_closed_form_composition_fixed_coefficients():
    wl = ref_worldline()
    op_a = transport_closed_form(transport_params(wl, 0.8))
    op_b = transport_closed_form(transport_params(wl, 1.3))
    op_ab = transport_closed_form(transport_params(wl, 2.1))
    assert np.abs(op_b @ op_a - op_ab).max() <= 1e-12


# ---------------------------------------------------------------- chirality


def test_dirac_transport_reduces_to_right_block():
    wl = ref_worldline()
    dirac_op = transport_from_connection(wl, math.pi, 2048, representation="dirac")
    block = chiral_block(dirac_op, "right")
    closed = transport_closed_form(transport_params(wl, math.pi))
    assert np.abs(block - closed).max() <= 1e-10


def test_chiral_blocks_of_identity():
    ident = np.eye(4, dtype=complex)
    assert np.allclose(chiral_block(ident, "left"), IDENTITY2)
    assert np.allclose(chiral_block(ident, "right"), IDENTITY2)


def test_rotation_only_transport_has_equal_unitary_blocks():
    wl = ref_worldline(sh=0.0)
    dirac_op = transport_from_connection(wl, math.pi, 256, representation="dirac")
    left = chiral_block(dirac_op, "left")
    right = chiral_block(dirac_op, "right")
    assert np.allclose(left, right, atol=1e-12)
    assert np.abs(left.conj().T @ left - IDENTITY2).max() <= 1e-12


def test_chiral_block_rejects_off_block_mass():
    bad = np.eye(4, dtype=complex)
    bad[0, 3] = 1e-3
    with pytest.raises(ValueError, match="not block diagonal"):
        chiral_block(bad)


def test_dirac_determinant():
    wl = ref_worldline()
    dirac_op = transport_from_connection(wl, math.pi, 512, representation="dirac")
    assert abs(np.linalg.det(dirac_op) - 1.0) <= 1e-9


# ------------------------------------------------------------ c invariance


def test_transport_independent_of_unit_choice():
    ops = []
    for c in (1.0, 2.0):
        wl = CircularWorldline(StringGeometry(0.5, c=c), rho=2.0, xi=XI_REF)
        ops.append(transport_from_connection(wl, math.pi, 128))
        params = transport_params(wl, math.pi)
        assert params.theta == pytest.approx(0.625 * math.pi, abs=1e-12)
    assert np.abs(ops[0] - ops[1]).max() <= 1e-12


# ------------------------------------------------------------------ engine
#
# The two loops below are the sequential per-step products (one connection
# evaluation and one scipy expm per step) that the array engine replaced,
# kept as its reference.


def sequential_transport(wl, Phi, steps, representation="spin-half", phi0=0.0, connection_fn=total_connection_at):
    sig = lorentz_generators(representation)
    op = np.eye(sig.shape[-1], dtype=complex)
    geom, accel = wl.geom, proper_acceleration(wl)
    ch, sh = math.cosh(wl.xi), math.sinh(wl.xi)
    dphi = wl.direction * Phi / steps
    for k in range(steps):
        pt = SpacetimePoint(rho=wl.rho, phi=phi0 + (k + 0.5) * dphi)
        w = MINKOWSKI @ connection_fn(geom, pt, accel)
        wab = w[PHI].copy()
        if wl.xi > 0.0:
            wab += w[T] * (geom.alpha * wl.rho * ch / (geom.c * sh))
        gen = -0.5j * np.einsum("ab,abij->ij", wab, sig)
        op = expm(gen * dphi) @ op
    return op


def sequential_frame_vector(geom, v, Phi, rho=1.0, steps=256, connection_fn=spin_connection_at):
    v = np.asarray(v, dtype=float).copy()
    dphi = Phi / steps
    angle = 0.0
    for k in range(steps):
        w = connection_fn(geom, SpacetimePoint(rho=rho, phi=(k + 0.5) * dphi))[PHI]
        prev = math.atan2(v[3], v[1]) if (v[1] or v[3]) else None
        v = expm(-w * dphi) @ v
        if prev is not None:
            d = math.atan2(v[3], v[1]) - prev
            angle += (d + math.pi) % (2.0 * math.pi) - math.pi
    return v, angle


def random_traceless(rng, shape, complex_=True, scale=0.5):
    # Entries of order 0.5 are already larger than any step of a dense
    # product.  scipy's expm is the oracle here, and at real entries of
    # order 1 it is itself off by up to 1e-11 (against 40-digit arithmetic),
    # while the closed form stays within 1e-14.
    a = scale * rng.standard_normal(shape + (2, 2))
    if complex_:
        a = a + 1j * scale * rng.standard_normal(shape + (2, 2))
    a[..., 1, 1] = -a[..., 0, 0]
    return a


def test_closed_form_step_exponential_matches_stacked_expm():
    rng = np.random.default_rng(7)
    for complex_ in (True, False):
        gens = random_traceless(rng, (200,), complex_)
        assert np.abs(_expm_traceless(gens) - expm(gens)).max() <= 1e-13
    # Dirac generators: random connections through the chiral family, per block
    wab = rng.standard_normal((50, 4, 4))
    dirac = -0.5j * np.einsum("mab,abij->mij", wab, lorentz_generators("dirac"))
    blocks = _split_blocks(dirac, ((0, 1), (2, 3)))
    assert np.abs(_expm_traceless(blocks) - expm(blocks)).max() <= 1e-13
    assert np.abs(blocks[:, 0] - dirac[:, :2, :2]).max() == 0.0
    assert np.abs(blocks[:, 1] - dirac[:, 2:, 2:]).max() == 0.0


def test_closed_form_step_exponential_edge_cases():
    zero = np.zeros((2, 2), dtype=complex)
    assert np.array_equal(_expm_traceless(zero), np.eye(2))  # s = 0 gives exactly I
    nilpotent = np.array([[0.0, 0.3], [0.0, 0.0]])  # s = 0 with a != 0: exp = I + a
    assert np.array_equal(_expm_traceless(nilpotent), np.eye(2) + nilpotent)
    rotation = np.array([[0.0, -0.7], [0.7, 0.0]])  # s^2 = -0.49: imaginary s
    out = _expm_traceless(rotation)
    assert out.dtype == float
    assert np.abs(out - expm(rotation)).max() <= 1e-13
    boost = 0.4j * np.array([[0.0, 1.0], [1.0, 0.0]])  # s^2 = -0.16 with complex entries
    assert np.abs(_expm_traceless(boost) - expm(boost)).max() <= 1e-13
    tiny = random_traceless(np.random.default_rng(3), (20,)) * 1e-9
    assert np.abs(_expm_traceless(tiny) - expm(tiny)).max() <= 1e-13


def test_split_blocks_rejects_mixing_generator():
    mixing = np.zeros((4, 4))
    mixing[0, 1] = 1.0
    with pytest.raises(ValueError, match="not block diagonal"):
        _split_blocks(mixing, ((0, 2), (1, 3)))


def test_lorentz_generators_are_cached_read_only():
    for rep in ("spin-half", "dirac"):
        sig = lorentz_generators(rep)
        assert lorentz_generators(rep) is sig
        with pytest.raises(ValueError):
            sig[0, 1, 0, 0] = 1.0


ENGINE_STEPS = (1, 2, 3, 1023, 1025, 4097)


@pytest.mark.parametrize("steps", ENGINE_STEPS)
@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("rep", ["spin-half", "dirac"])
@pytest.mark.parametrize("modulated", [False, True], ids=["string", "modulated"])
def test_engine_matches_sequential_product(steps, direction, rep, modulated):
    # the modulated connection varies along phi, so the engine takes its pairwise tree
    connection_fn = modulated_connection if modulated else total_connection_at
    wl = ref_worldline(direction)
    engine = transport_from_connection(wl, math.pi, steps, rep, connection_fn=starting_at(0.3, connection_fn))
    reference = sequential_transport(wl, math.pi, steps, rep, phi0=0.3, connection_fn=connection_fn)
    assert np.abs(engine - reference).max() <= 1e-12


@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("xi", [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0])
def test_engine_small_entry_within_its_documented_bound(xi, direction):
    # the static-frame generator's small entry is a difference of two connection sums of
    # size alpha cosh^2 xi, so the product's entries carry a relative error up to e^(2 xi) 2^-52
    alpha = 0.5
    Phi = 1.0 / (alpha * math.cosh(xi))  # theta = 1
    wl = CircularWorldline(StringGeometry(alpha), rho=2.0, xi=xi, direction=direction)
    op = transport_from_connection(wl, Phi, 1024)
    theta = wigner_angle(alpha, xi, Phi)
    cos, sin = math.cos(theta / 2), math.sin(theta / 2)
    exact = np.array([[cos, -direction * math.exp(xi) * sin], [direction * math.exp(-xi) * sin, cos]])  # D R D^-1
    assert (np.abs(op - exact) / np.abs(exact)).max() <= 4.0 * math.exp(2.0 * xi) * 2.0**-52 + 1e-13


def test_connection_hook_gets_chunks_of_midpoints():
    wl = ref_worldline()
    steps, seen = 2500, []

    def recording(geom, pt, accel):
        seen.append(np.array(pt.phi))
        return modulated_connection(geom, pt, accel)

    op = transport_from_connection(wl, math.pi, steps, connection_fn=recording)
    chunk = transport._CHUNK
    assert steps > 2 * chunk  # several chunks, the last one partial
    assert [len(phi) for phi in seen] == [min(chunk, steps - s) for s in range(0, steps, chunk)]
    dphi = math.pi / steps
    assert np.array_equal(np.concatenate(seen), [(k + 0.5) * dphi for k in range(steps)])
    assert np.abs(op - transport_from_connection(wl, math.pi, steps, connection_fn=modulated_connection)).max() == 0.0


@pytest.mark.parametrize("steps", [1, 1024, 16384, 65536])
def test_constant_connection_is_called_once(steps):
    wl, seen = ref_worldline(), []

    def recording(geom, pt, accel):
        seen.append(np.array(pt.phi))
        return total_connection_at(geom, pt, accel)

    op = transport_from_connection(wl, math.pi, steps, connection_fn=recording)
    assert len(seen) == 1
    dphi = math.pi / steps
    assert np.array_equal(seen[0], [(k + 0.5) * dphi for k in range(min(steps, transport._CHUNK))])
    assert np.abs(op - transport_from_connection(wl, math.pi, steps)).max() == 0.0


def per_step_connection(geom, pt, accel):
    # the same constant connection with a step axis, which forces the pairwise tree
    return np.broadcast_to(total_connection_at(geom, pt, accel), np.shape(pt.phi) + (4, 4, 4))


@pytest.mark.parametrize("steps", [1, 2, 3, 1023, 1024, 1025, 4097, 16384, 16385])
@pytest.mark.parametrize("xi", [0.0, XI_REF, 2.0])
@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("rep", ["spin-half", "dirac"])
def test_power_of_constant_step_matches_tree(steps, xi, direction, rep):
    wl = CircularWorldline(StringGeometry(0.5), rho=2.0, xi=xi, direction=direction)
    power = transport_from_connection(wl, math.pi, steps, rep)
    tree = transport_from_connection(wl, math.pi, steps, rep, connection_fn=per_step_connection)
    assert np.abs(power - tree).max() <= 1e-12


def test_power_is_repeated_squaring_of_the_step():
    rng = np.random.default_rng(5)
    step = _expm_traceless(random_traceless(rng, (2,), scale=0.01))
    for n in (1, 2, 5, 64, 1000):
        power = _power(step.transpose(1, 2, 0), n).transpose(2, 0, 1)  # matrix indices in front
        expected = np.stack([np.linalg.matrix_power(block, n) for block in step])
        assert np.abs(power - expected).max() <= 1e-13 * np.abs(expected).max()


def test_non_finite_product_is_rejected():
    def overflowing(geom, pt, accel):
        return total_connection_at(geom, pt, accel) * 1e300

    # the overflow is reported once, as the ValueError: no numpy warning escapes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            transport_from_connection(ref_worldline(), math.pi, 16, connection_fn=overflowing)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_frame_vector_matches_sequential_on_holonomy_grid(alpha):
    geom = StringGeometry(alpha)
    v0 = np.array([0.0, 1.0, 0.0, 0.0])
    v, angle = transport_frame_vector(geom, v0, 2 * math.pi, steps=512)
    v_ref, angle_ref = sequential_frame_vector(geom, v0, 2 * math.pi, steps=512)
    assert np.abs(v - v_ref).max() <= 1e-12
    assert abs(angle - angle_ref) <= 1e-12


def modulated_spin_connection(geom, pt):
    """The spin connection times 1 + 0.4 sin(2 phi), one per azimuth of ``pt.phi``."""
    return np.multiply.outer(1.0 + 0.4 * np.sin(2.0 * pt.phi), spin_connection_at(geom, pt))


@pytest.mark.parametrize("v0", [[0.3, 0.2, -0.5, 0.7], [1.0, 0.0, 0.4, 0.0]])
def test_frame_vector_matches_sequential_modulated(v0, monkeypatch):
    # a spin connection that varies along phi takes the engine's pairwise tree
    geom = StringGeometry(0.5)
    monkeypatch.setattr(geometry, "spin_connection_at", modulated_spin_connection)
    # the reference runs at rho = 1.5: omega_phi, and so the transport, does not depend on rho
    v, angle = transport_frame_vector(geom, v0, 5.0, steps=1500)
    v_ref, angle_ref = sequential_frame_vector(
        geom, v0, 5.0, rho=1.5, steps=1500, connection_fn=modulated_spin_connection
    )
    assert np.abs(v - v_ref).max() <= 1e-12
    assert abs(angle - angle_ref) <= 1e-12


def test_frame_vector_angle_of_constant_connection_takes_one_call(monkeypatch):
    geom, steps, calls = StringGeometry(0.5), 2**20, []

    def counting(*args):
        calls.append(args)
        return spin_connection_at(*args)

    monkeypatch.setattr(geometry, "spin_connection_at", counting)
    v, angle = transport_frame_vector(geom, [0.0, 1.0, 0.0, 0.0], 2 * math.pi, steps=steps)
    assert len(calls) == 1
    assert abs(angle + 0.5 * 2 * math.pi) <= 1e-12
    # alpha Phi = pi; the vector carries the round-off of 20 squarings (2.1e-11)
    assert np.abs(v - [0.0, -1.0, 0.0, 0.0]).max() <= 1e-10
