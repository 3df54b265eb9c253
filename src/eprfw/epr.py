"""Bell basis, pair evolution under spin transport, and CHSH machinery.

Two-qubit amplitudes are length-4 complex vectors in the product basis
(|up,up>, |up,down>, |down,up>, |down,down>), with the particle sent toward
phi = +Phi as the first tensor factor.  Transported states are generally not
normalized (the boost part of the transport is non-unitary on the spin factor
alone), so expectation values divide by the state norm and reports carry the
raw norm alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import StringGeometry
from .kinematics import CircularWorldline
from .transport import (
    SIGMA1,
    SIGMA3,
    transport_closed_form,
    transport_params,
    wigner_angle,
)

__all__ = [
    "BellBasis",
    "MeasurementSettings",
    "BellReport",
    "bell_states",
    "initial_state",
    "evolve_pair",
    "final_state_closed_form",
    "bell_decomposition",
    "chsh_settings",
    "correlator",
    "chsh_value",
    "chsh_direct",
    "chsh_closed_form",
    "roty",
    "restored_settings",
    "chsh_restored",
    "bell_report",
    "bell_columns",
]

TWO_SQRT2 = 2.0 * math.sqrt(2.0)


class BellBasis(NamedTuple):
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    phi_plus: np.ndarray
    phi_minus: np.ndarray


class MeasurementSettings(NamedTuple):
    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray


def bell_states() -> BellBasis:
    """The four maximally entangled states psi+-, phi+- as amplitude vectors."""
    r = 1.0 / math.sqrt(2.0)
    return BellBasis(
        psi_plus=np.array([0.0, r, r, 0.0], dtype=complex),
        psi_minus=np.array([0.0, r, -r, 0.0], dtype=complex),
        phi_plus=np.array([r, 0.0, 0.0, r], dtype=complex),
        phi_minus=np.array([r, 0.0, 0.0, -r], dtype=complex),
    )


def initial_state() -> np.ndarray:
    """The singlet psi- emitted at the source (phi = 0)."""
    return bell_states().psi_minus.copy()


def _kron2(a, b) -> np.ndarray:
    """Kronecker product a (x) b of two 2x2 matrices, as one broadcast outer product.

    Forms the same products as ``np.kron`` at a fraction of its call overhead.
    """
    return (np.asarray(a)[:, None, :, None] * np.asarray(b)[None, :, None, :]).reshape(4, 4)


def evolve_pair(initial: np.ndarray, xi_plus: np.ndarray, xi_minus: np.ndarray) -> np.ndarray:
    """Apply per-particle transport operators: (xi_plus (x) xi_minus) |initial>."""
    return _kron2(xi_plus, xi_minus) @ np.asarray(initial, dtype=complex)


def final_state_closed_form(alpha: float, xi: float, Phi: float) -> np.ndarray:
    """Closed-form transported pair state.

    cos(theta) |psi-> + sin(theta) (sinh(xi) |phi-> + cosh(xi) |phi+>)
    with theta = alpha * Phi * cosh(xi).  The relative phase between the psi-
    and phi blocks is real: applying the two closed-form transport operators
    to the singlet (:func:`evolve_pair`) produces exactly this state, which
    the ``pair_evolution_closed_form`` check of :mod:`eprfw.verify` asserts
    amplitude by amplitude.  The state at -Phi, where theta and so the
    sin(theta) term flip sign, is the mirror labeling with the two particles'
    roles swapped.

    The squared norm is cos^2(theta) + sin^2(theta) cosh(2 xi) >= 1.
    """
    theta = wigner_angle(alpha, xi, Phi)
    amplitudes = _closed_form_amplitudes(math.cos(theta), math.sin(theta), math.sinh(xi), math.cosh(xi))
    return amplitudes.astype(complex)


def _closed_form_amplitudes(cos_theta, sin_theta, sinh_xi, cosh_xi) -> np.ndarray:
    """Real amplitudes ``(..., 4)`` of :func:`final_state_closed_form` from its trigonometric factors.

    The factors broadcast; scalars give one amplitude vector.
    """
    basis = bell_states()
    c, s, sh, ch = (np.asarray(v)[..., None] for v in (cos_theta, sin_theta, sinh_xi, cosh_xi))
    return c * basis.psi_minus.real + s * (sh * basis.phi_minus.real + ch * basis.phi_plus.real)


def bell_decomposition(s: np.ndarray) -> np.ndarray:
    """Coefficients of ``s`` in the Bell basis, ordered (psi+, psi-, phi+, phi-)."""
    basis = bell_states()
    return np.array(
        [
            np.vdot(basis.psi_plus, s),
            np.vdot(basis.psi_minus, s),
            np.vdot(basis.phi_plus, s),
            np.vdot(basis.phi_minus, s),
        ]
    )


def chsh_settings() -> MeasurementSettings:
    """Singlet-optimal spin observables a, a', b, b' in the 1-3 plane."""
    r = 1.0 / math.sqrt(2.0)
    return MeasurementSettings(
        a=r * (SIGMA1 + SIGMA3),
        a_prime=r * (-SIGMA1 + SIGMA3),
        b=SIGMA3.copy(),
        b_prime=SIGMA1.copy(),
    )


def correlator(s: np.ndarray, A: np.ndarray, B: np.ndarray) -> float:
    """Normalized expectation <s| A (x) B |s> / <s|s> of a joint spin measurement."""
    s = np.asarray(s, dtype=complex)
    n2 = np.vdot(s, s).real
    if n2 <= 0.0 or not np.isfinite(n2):
        raise ValueError("correlator of a zero-norm state is undefined")
    val = np.vdot(s, _kron2(A, B) @ s) / n2
    return float(val.real)


def chsh_value(s: np.ndarray, settings: MeasurementSettings) -> float:
    """|<ab> + <a'b> + <ab'> - <a'b'>| for the given settings."""
    a, ap, b, bp = settings
    return abs(
        correlator(s, a, b)
        + correlator(s, ap, b)
        + correlator(s, a, bp)
        - correlator(s, ap, bp)
    )


def chsh_direct(s: np.ndarray) -> float:
    """CHSH combination of the fixed settings on state ``s``."""
    return chsh_value(s, chsh_settings())


def chsh_closed_form(theta: float, xi: float) -> float:
    """Closed-form CHSH value of the transported (unnormalized) pair state.

    sqrt(2) * | -cos(2 theta) - cos^2(theta) + cosh(2 xi) sin^2(theta) |.

    The cosh(2 xi) term enters with a plus sign, i.e. as (eta1^2 + eta2^2)
    over |gamma|^2: this is the combination that equals the direct CHSH
    expectation of the transported state (exactly at xi = 0, and up to the
    state norm for xi > 0, since this closed form does not normalize).
    Reading the ratio against the signed gamma^2 instead would flip the term
    and disagree with the direct computation already at xi = 0.

    ``theta`` and ``xi`` may be arrays that broadcast.
    """
    return math.sqrt(2.0) * np.abs(
        -np.cos(2.0 * theta)
        - np.cos(theta) ** 2
        + np.cosh(2.0 * xi) * np.sin(theta) ** 2
    )


def roty(angle: float) -> np.ndarray:
    """Spin-half rotation about the 2-axis by ``angle``: exp(-i angle sigma^2 / 2)."""
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def restored_settings(theta: float) -> MeasurementSettings:
    """CHSH settings with each observer's axes rotated against the precession.

    The observer at +Phi conjugates their observables with a rotation by
    +theta about the 2-axis, the observer at -Phi with a rotation by -theta.
    This sense returns the CHSH value to 2 sqrt(2) at xi = 0 (Terashima and
    Ueda, Phys. Rev. A 69 (2004) 032113); the opposite one does not.
    """
    base = chsh_settings()
    r1 = roty(theta)
    r2 = roty(-theta)

    def rotate(r, op):
        return r @ op @ r.conj().T

    return MeasurementSettings(
        a=rotate(r1, base.a),
        a_prime=rotate(r1, base.a_prime),
        b=rotate(r2, base.b),
        b_prime=rotate(r2, base.b_prime),
    )


def chsh_restored(s: np.ndarray, theta: float) -> float:
    """CHSH combination after the observers rotate their axes by +-theta (:func:`restored_settings`)."""
    return chsh_value(s, restored_settings(theta))


@dataclass(frozen=True)
class BellReport:
    """Summary of one transported-pair evaluation at (alpha, xi, Phi)."""

    alpha: float
    xi: float
    Phi: float
    theta: float
    norm: float
    chsh_direct: float
    chsh_closed: float
    chsh_restored: float
    restored_residual: float
    bell_coefficients: tuple  # (psi-, psi+, phi-, phi+) components


def bell_report(alpha: float, xi: float, Phi: float) -> BellReport:
    """Evolve the singlet with the two closed-form transport operators and measure.

    The orbit radius drops out of every reported quantity, so a unit-radius
    worldline pair is used internally.
    """
    geom = StringGeometry(alpha=alpha)
    plus = transport_params(CircularWorldline(geom, rho=1.0, xi=xi, direction=+1), Phi)
    minus = transport_params(CircularWorldline(geom, rho=1.0, xi=xi, direction=-1), Phi)
    state = evolve_pair(initial_state(), transport_closed_form(plus), transport_closed_form(minus))
    theta = plus.theta
    restored = chsh_restored(state, theta)
    coeffs = bell_decomposition(state)
    return BellReport(
        alpha=alpha,
        xi=xi,
        Phi=Phi,
        theta=theta,
        norm=float(np.linalg.norm(state)),
        chsh_direct=chsh_direct(state),
        chsh_closed=float(chsh_closed_form(theta, xi)),
        chsh_restored=restored,
        restored_residual=abs(restored - TWO_SQRT2),
        bell_coefficients=(coeffs[1], coeffs[0], coeffs[3], coeffs[2]),
    )


# sigma^i (x) sigma^j for i, j in (1, 3), over the product basis: the real
# correlation operators of the 1-3 plane, indexed [p, (i, j, q)] so that one
# matrix product with the stacked states applies all four.
_PLANE_PAULIS = np.stack([SIGMA1.real, SIGMA3.real])
_PLANE_CORRELATORS = np.einsum("iab,jcd->acijbd", _PLANE_PAULIS, _PLANE_PAULIS).reshape(4, 16)
# The 1-3 plane components (tr(op sigma^i) / 2) of the settings a, a', b, b'.
_PLANE_SETTINGS = np.einsum("kab,iba->ki", np.array(chsh_settings()), _PLANE_PAULIS).real / 2.0


def _turned(v, cos, sin) -> np.ndarray:
    """1-3 plane components (x, z) of a setting conjugated by roty(angle), given cos and sin of the angle.

    roty(angle) sigma^1 roty(angle)^H = cos sigma^1 - sin sigma^3 and
    roty(angle) sigma^3 roty(angle)^H = cos sigma^3 + sin sigma^1.
    """
    x, z = v
    return np.stack([x * cos + z * sin, z * cos - x * sin], axis=-1)


def _chsh_of_correlations(t, a, a_prime, b, b_prime) -> np.ndarray:
    """|E(a, b) + E(a', b) + E(a, b') - E(a', b')| with E(u, v) = u . t v.

    ``t[..., i, j]`` are correlation matrices over the 1-3 plane and the
    settings their 1-3 plane components, ``(2,)`` or stacked like ``t``.

    E is written out as the sum of u_i t_ij v_j, each product formed left to
    right and the terms added in (i, j) order, as ``np.einsum`` orders them
    for a stack of points.  A three-operand einsum takes another loop when
    the stack holds one point and changes the last bits, so the written-out
    sum is what makes a point's value independent of how many points share
    its call: a single point equals the same point inside a sweep, and a
    sweep evaluated in chunks equals the sweep in one call.
    """
    def e(u, v):
        u0, u1, v0, v1 = u[..., 0], u[..., 1], v[..., 0], v[..., 1]
        return u0 * t[..., 0, 0] * v0 + u0 * t[..., 0, 1] * v1 + u1 * t[..., 1, 0] * v0 + u1 * t[..., 1, 1] * v1

    return np.abs(e(a, b + b_prime) + e(a_prime, b - b_prime))


def bell_columns(alpha, xi, Phi) -> dict[str, np.ndarray]:
    """The fields of :func:`bell_report`, less the Bell coefficients, over broadcast arrays.

    Returns one array per field name, with one entry per point of the
    broadcast of ``alpha``, ``xi`` and ``Phi``.  The definitions are those of
    :func:`bell_report`, the per-point oracle: the Wigner angle; the
    amplitudes of :func:`final_state_closed_form`; the correlation matrix
    T_ij = <sigma^i (x) sigma^j> / norm^2 over the 1-3 plane, where both the
    fixed settings and the settings turned by +-theta lie; and the paper's
    unnormalized :func:`chsh_closed_form`.  The restored settings are those
    of :func:`restored_settings`.

    The inputs must lie in the domain that :func:`bell_report` enforces
    point by point; the caller validates them.  Raises ``ValueError`` if an
    output is not finite.
    """
    alpha, xi, Phi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha, xi, Phi)))
    theta = wigner_angle(alpha, xi, Phi)
    state = _closed_form_amplitudes(np.cos(theta), np.sin(theta), np.sinh(xi), np.cosh(xi))
    norm2 = np.einsum("...p,...p->...", state, state)
    applied = (state @ _PLANE_CORRELATORS).reshape(state.shape[:-1] + (2, 2, 4))
    t = np.einsum("...ijq,...q->...ij", applied, state) / norm2[..., None, None]
    # the observer at +Phi turns by +theta, the one at -Phi by -theta
    cos, sin = np.cos(theta), np.sin(theta)
    a, a_prime, b, b_prime = _PLANE_SETTINGS
    restored = _chsh_of_correlations(
        t, _turned(a, cos, sin), _turned(a_prime, cos, sin), _turned(b, cos, -sin), _turned(b_prime, cos, -sin)
    )
    columns = {
        "alpha": alpha,
        "xi": xi,
        "Phi": Phi,
        "theta": theta,
        "norm": np.sqrt(norm2),
        "chsh_direct": _chsh_of_correlations(t, *_PLANE_SETTINGS),
        "chsh_closed": chsh_closed_form(theta, xi),
        "chsh_restored": restored,
        "restored_residual": np.abs(restored - TWO_SQRT2),
    }
    for name, values in columns.items():
        if not np.isfinite(values).all():
            raise ValueError(f"bell column {name} is not finite at some point; the input leaves the domain")
    return columns
