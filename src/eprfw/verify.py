"""Self-verification battery: every module invariant and oracle comparison.

The battery is the ordered registry :data:`CHECKS`; ``eprfw verify`` and the
acceptance tests both run it.  Each check reports its name, the tolerance it
enforces, the observed error, and pass/fail.  Investigative checks
(quantities the theory leaves open, such as the restoration residual at
nonzero rapidity) carry ``tolerance=None`` and always pass; they exist to put
the measured numbers in the report.

A grid check calls the function under test at every point of its grid,
collects the outputs into one array, and compares that stack with its oracle
in one call (one subtraction, ``einsum`` or ``np.linalg.det``).  Its observed
error is the largest over the same entries as a point-by-point comparison,
and a NaN at any point makes it NaN, which fails the check (Python's ``max``
would skip it).  The grids build one geometry per deficit factor and one
worldline per orbit.

The battery needs only numpy.  Its matrix-exponential oracle is a generic
Taylor scaling-and-squaring exponential of its own, so the closed-form
transport operator is checked against code that shares nothing with it.

``run_checks(inject_omega_sign_flip=True)`` corrupts the sign of the spin
connection fed to the path-ordered integrator; the end-to-end pair-evolution
check must then fail, which proves the suite can catch a wrong connection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import epr, geometry, kinematics, transport
from .epr import TWO_SQRT2
from .geometry import MINKOWSKI, SpacetimePoint, StringGeometry
from .kinematics import CircularWorldline

__all__ = ["CheckResult", "CHECKS", "run_checks", "ALPHAS", "RHOS", "SINH_XIS", "PHIS"]

ALPHAS = (0.25, 0.5, 0.9, 1.0)
RHOS = (0.5, 1.0, 2.0)
SINH_XIS = (0.0, 0.75, 2.0)
PHIS = (math.pi / 4, math.pi / 2, math.pi, 2 * math.pi)


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float | None
    observed: float
    passed: bool
    note: str = ""

    def __post_init__(self):
        # numpy scalars leak in from the comparisons; keep plain types so the
        # report serializes cleanly
        object.__setattr__(self, "observed", float(self.observed))
        object.__setattr__(self, "passed", bool(self.passed))
        if self.tolerance is not None:
            object.__setattr__(self, "tolerance", float(self.tolerance))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tol = "----" if self.tolerance is None else f"{self.tolerance:.1e}"
        text = f"[{status}] {self.name:<38s} observed={self.observed:.3e} tol={tol}"
        return text + (f"  ({self.note})" if self.note else "")


def _gated(name: str, tolerance: float, observed: float, note: str = "") -> CheckResult:
    """Result of a check that passes when ``observed`` <= ``tolerance``."""
    return CheckResult(name, tolerance, observed, observed <= tolerance, note)


def _max_deviation(pairs) -> float:
    """Largest |x - y| over every entry of the ``(x, y)`` pairs, in one stacked subtraction."""
    x, y = (np.array(side) for side in zip(*pairs))
    return np.abs(x - y).max()


def _grid_points():
    for alpha in ALPHAS:
        geom = StringGeometry(alpha)
        for rho in RHOS:
            yield geom, SpacetimePoint(rho=rho, phi=0.7)


def _worldlines():
    for alpha in ALPHAS:
        geom = StringGeometry(alpha)
        for rho in RHOS:
            for sh in SINH_XIS:
                yield CircularWorldline(geom, rho=rho, xi=math.asinh(sh))


def _expected_connections(geom, wl):
    """Closed-form nonzero component tables (with antisymmetric partners)."""
    a_rho = float(kinematics.proper_acceleration(wl)[geometry.RHO])
    c2 = geom.c**2
    alpha, rho = geom.alpha, wl.rho
    omega = np.zeros((4, 4, 4))
    omega[geometry.PHI, 1, 3] = -alpha
    omega[geometry.PHI, 3, 1] = +alpha
    tau = np.zeros((4, 4, 4))
    tau[geometry.T, 0, 1] = tau[geometry.T, 1, 0] = -a_rho / c2
    tau[geometry.Z, 1, 2] = a_rho / c2
    tau[geometry.Z, 2, 1] = -a_rho / c2
    tau[geometry.PHI, 1, 3] = alpha * rho * a_rho / c2
    tau[geometry.PHI, 3, 1] = -alpha * rho * a_rho / c2
    return omega, tau, omega + tau


def _flipped_connection(geom, pt, accel):
    """Mutated total connection with the spin-connection sign inverted."""
    return -geometry.spin_connection_at(geom, pt) + geometry.fw_connection_at(geom, pt, accel)


def _modulated_connection(geom, pt, accel):
    """Total connection plus 0.4 sin(phi) times the spin connection, one per azimuth of ``pt.phi``.

    A variable-coefficient problem for the convergence study: only the
    rotation part varies along phi, so the steps do not commute and the
    product must be path ordered.  It is a test generator, not a connection
    of any metric.
    """
    out = np.multiply.outer(0.4 * np.sin(pt.phi), geometry.spin_connection_at(geom, pt))
    out += geometry.total_connection_at(geom, pt, accel)
    return out


# ---------------------------------------------------------------- geometry


def _connection_forms(wl):
    """Spin, Fermi-Walker and total connection at the orbit's point phi = 0."""
    geom, pt = wl.geom, wl.point(0.0)
    accel = kinematics.proper_acceleration(wl)
    return (
        geometry.spin_connection_at(geom, pt),
        geometry.fw_connection_at(geom, pt, accel),
        geometry.total_connection_at(geom, pt, accel),
    )


def check_tetrad_identities() -> CheckResult:
    metrics, frames, inverses = [], [], []
    for geom, pt in _grid_points():
        metrics.append(geometry.metric_at(geom, pt))
        tet = geometry.tetrad_at(geom, pt)
        frames.append(tet.e)
        inverses.append(tet.einv)
    e, einv = np.array(frames), np.array(inverses)
    err = np.max([
        np.abs(e.swapaxes(-1, -2) @ MINKOWSKI @ e - np.array(metrics)).max(),
        np.abs(e @ einv - np.eye(4)).max(),
        np.abs(einv @ e - np.eye(4)).max(),
    ])
    return _gated("tetrad_identities", 1e-12, err)


def check_connection_tables() -> CheckResult:
    err = _max_deviation(
        (_connection_forms(wl), _expected_connections(wl.geom, wl)) for wl in _worldlines()
    )
    return _gated("connection_component_tables", 1e-12, err)


def check_connection_antisymmetry() -> CheckResult:
    forms = np.array([_connection_forms(wl) for wl in _worldlines()])
    raised = np.einsum("...mac,cb->...mab", forms, MINKOWSKI)  # X_mu^{ab}
    err = np.abs(raised + raised.swapaxes(-1, -2)).max()
    return _gated("connection_antisymmetry_raised", 1e-12, err)


def check_christoffel_oracle() -> CheckResult:
    err = _max_deviation(
        (geometry.christoffel_fd(geom, pt), geometry.christoffel_at(geom, pt)) for geom, pt in _grid_points()
    )
    return _gated("christoffel_finite_difference", 1e-6, err)


def check_spin_connection_pipeline() -> CheckResult:
    err = _max_deviation(
        (geometry.spin_connection_fd(geom, pt), geometry.spin_connection_at(geom, pt))
        for geom, pt in _grid_points()
    )
    return _gated("spin_connection_generic_pipeline", 1e-6, err)


def check_riemann_flatness() -> CheckResult:
    err = np.abs(np.array([geometry.riemann_at(geom, pt) for geom, pt in _grid_points()])).max()
    return _gated("riemann_off_axis_flatness", 1e-6, err)


def check_holonomy_deficit() -> CheckResult:
    err = _max_deviation(
        (geometry.holonomy_deficit_angle(StringGeometry(alpha)), 2.0 * math.pi * (1.0 - alpha)) for alpha in ALPHAS
    )
    return _gated("holonomy_deficit_full_loop", 1e-8, err)


# -------------------------------------------------------------- kinematics


def check_velocity_normalization() -> CheckResult:
    norms, u, g, a = [], [], [], []
    for wl in _worldlines():
        norms.append((kinematics.velocity_norm(wl), -wl.geom.c**2))
        u.append(kinematics.four_velocity(wl))
        g.append(geometry.metric_at(wl.geom, wl.point()))
        a.append(kinematics.proper_acceleration(wl))
    dots = np.array(u)[:, None, :] @ np.array(g) @ np.array(a)[:, :, None]  # g(U, a)
    err = np.max([_max_deviation(norms), np.abs(dots).max()])
    return _gated("velocity_norm_and_orthogonality", 1e-12, err)


def check_acceleration_oracle() -> CheckResult:
    err = _max_deviation(
        (kinematics.proper_acceleration(wl), kinematics.acceleration_from_velocity(wl)) for wl in _worldlines()
    )
    return _gated("acceleration_covariant_oracle", 1e-8, err)


# ---------------------------------------------------------------- transport


def _pair_orbits(geom, xi):
    """The pair's two worldlines at rho = 1: the particle toward +Phi, then its partner."""
    return [CircularWorldline(geom, rho=1.0, xi=xi, direction=direction) for direction in (+1, -1)]


def _params_grid():
    for alpha in ALPHAS:
        geom = StringGeometry(alpha)
        for sh in SINH_XIS:
            orbits = _pair_orbits(geom, math.asinh(sh))
            for Phi in PHIS:
                for wl in orbits:
                    yield transport.transport_params(wl, Phi)


def check_gamma_matrix_square() -> CheckResult:
    grid = list(_params_grid())
    gam = np.array([transport._gamma_matrix(params) for params in grid])
    theta2 = np.array([params.theta**2 for params in grid])
    err = np.abs(gam @ gam + theta2[:, None, None] * np.eye(2)).max()  # gamma^2 = -theta^2
    return _gated("gamma_matrix_square_identity", 1e-12, err)


def check_transport_determinant() -> CheckResult:
    ops = np.array([transport.transport_closed_form(params) for params in _params_grid()])
    err = np.abs(np.linalg.det(ops) - 1.0).max()
    return _gated("transport_determinant", 1e-10, err)


def _expm_taylor(a: np.ndarray) -> np.ndarray:
    """Exponential of each square matrix in the stack ``a[..., n, n]``.

    Scaling and squaring with a Taylor series (Moler & Van Loan, SIAM Rev.
    45 (2003) 3, method 3): each matrix is scaled by 2^-s so that its 1-norm
    is at most 1/4, the series is summed to degree 18, whose truncation error
    (1/4)^19 / 19! is far below round-off, and the sum is squared s times.
    It uses no property of the transport generators, so it stays an oracle
    independent of the closed form.
    """
    a = np.asarray(a, dtype=complex)
    norm = np.abs(a).sum(axis=-2).max(axis=-1)  # largest column sum
    s = np.maximum(np.frexp(4.0 * norm)[1], 0)  # 4 * norm < 2^s, exactly
    scaled = a * np.exp2(-s)[..., None, None]
    term = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
    total = term.copy()
    for k in range(1, 19):
        term = (term @ scaled) / k
        total += term
    for k in range(int(s.max(initial=0))):
        total = np.where((s > k)[..., None, None], total @ total, total)
    return total


def check_closed_form_vs_expm() -> CheckResult:
    grid = list(_params_grid())
    closed = np.array([transport.transport_closed_form(params) for params in grid])
    oracle = _expm_taylor(np.array([0.5 * transport._gamma_matrix(params) for params in grid]))
    return _gated("closed_form_vs_scaling_squaring", 1e-12, np.abs(closed - oracle).max())


def _reference_worldline(direction=+1):
    return CircularWorldline(StringGeometry(0.5), rho=2.0, xi=math.asinh(0.75), direction=direction)


def check_numeric_fixed_coefficients(steps: int = 4096) -> CheckResult:
    wl = _reference_worldline()
    Phi = math.pi
    num = transport.transport_from_connection(wl, Phi, steps)
    ref = transport.transport_closed_form(transport.transport_params(wl, Phi))
    err = float(np.abs(num - ref).max())
    return _gated("numeric_transport_fixed_coefficients", 1e-10, err, note=f"N={steps}")


def convergence_errors():
    """Integrator errors at N = 16, 32, ..., 1024 for :func:`_modulated_connection`.

    The products X(N) at N = 16, ..., 2048 are formed once.  The exponential
    midpoint rule is symmetric, so its global error expands in even powers of
    the step (Gragg, SIAM J. Numer. Anal. 2 (1965) 384), and one Richardson
    step on the two finest products, (4 X(2048) - X(1024)) / 3, is a
    fourth-order reference.  Each error is the largest entry of |X(N) - ref|
    for N <= 1024.
    """
    wl = _reference_worldline()
    Phi = math.pi
    products = [
        transport.transport_from_connection(wl, Phi, 2**k, connection_fn=_modulated_connection) for k in range(4, 12)
    ]
    ref = (4.0 * products[-1] - products[-2]) / 3.0
    return [float(np.abs(x - ref).max()) for x in products[:-1]]


def check_integrator_convergence() -> CheckResult:
    errors = convergence_errors()
    floor = 1e-10
    ratios = [
        errors[i] / errors[i + 1]
        for i in range(len(errors) - 1)
        if errors[i + 1] > floor
    ]
    worst = min(ratios, default=0.0)  # no error above the floor measures no order: fail
    bound = 3.5  # an observed order of at least 1.8; a first-order product measures about 2
    return CheckResult(
        "integrator_convergence_order", bound, worst, worst >= bound,
        note="threshold is a lower bound on the error ratio per step doubling",
    )


def check_single_step_vs_dense(steps_dense: int = 65536) -> CheckResult:
    wl = _reference_worldline()
    Phi = math.pi
    ref = transport.transport_closed_form(transport.transport_params(wl, Phi))
    err1 = float(np.abs(transport.transport_from_connection(wl, Phi, 1) - ref).max())
    err_dense = float(np.abs(transport.transport_from_connection(wl, Phi, steps_dense) - ref).max())
    ratio = err1 / err_dense if err_dense > 0 else float("inf")
    return CheckResult(
        "single_step_vs_dense_product", None, ratio, True,
        note=f"constant generator: err(N=1)={err1:.2e}, err(N={steps_dense})={err_dense:.2e}",
    )


def check_dirac_chiral_block() -> CheckResult:
    wl = _reference_worldline()
    Phi, steps = math.pi, 65536  # a constant generator: the product costs O(log N)
    dirac_op = transport.transport_from_connection(wl, Phi, steps, representation="dirac")
    block = transport.chiral_block(dirac_op, "right")
    ref = transport.transport_closed_form(transport.transport_params(wl, Phi))
    err = float(np.abs(block - ref).max())
    return _gated("dirac_right_block_reduction", 1e-8, err, note=f"N={steps}")


def check_wigner_rest_frame() -> CheckResult:
    angles, expected = [], []
    for alpha in ALPHAS:
        wl = CircularWorldline(StringGeometry(alpha), rho=1.0, xi=0.0)
        for Phi in (math.pi / 4, math.pi / 2, math.pi):
            op = transport.transport_closed_form(transport.transport_params(wl, Phi))
            angles.append(transport.rotation_angle(op))
            expected.append(alpha * Phi)
    err = np.abs(np.array(angles) - np.array(expected)).max()
    return _gated("wigner_angle_rest_frame", 1e-10, err)


# --------------------------------------------------------------------- epr


def _evolved_pair(orbits, Phi, connection_fn=None, steps=None):
    """The singlet carried along both ``orbits`` to ``Phi``: closed form, or ``steps`` path-ordered steps."""
    if steps is None:
        ops = [transport.transport_closed_form(transport.transport_params(wl, Phi)) for wl in orbits]
    else:
        ops = [transport.transport_from_connection(wl, Phi, steps, connection_fn=connection_fn) for wl in orbits]
    return epr.evolve_pair(epr.initial_state(), ops[0], ops[1])


def _closed_pair(alpha, xi, Phi, connection_fn=None, steps=None):
    return _evolved_pair(_pair_orbits(StringGeometry(alpha), xi), Phi, connection_fn, steps)


def _rest_frame_pairs():
    """``(alpha, Phi, evolved pair)`` at rest over ``ALPHAS`` x ``PHIS``, one pair of orbits per alpha."""
    for alpha in ALPHAS:
        orbits = _pair_orbits(StringGeometry(alpha), 0.0)
        for Phi in PHIS:
            yield alpha, Phi, _evolved_pair(orbits, Phi)


def check_pair_evolution_closed_form() -> CheckResult:
    pairs = []
    for alpha in ALPHAS:
        geom = StringGeometry(alpha)
        for sh in SINH_XIS:
            xi = math.asinh(sh)
            orbits = _pair_orbits(geom, xi)
            for Phi in PHIS:
                pairs.append((_evolved_pair(orbits, Phi), epr.final_state_closed_form(alpha, xi, Phi)))
    return _gated("pair_evolution_closed_form", 1e-10, _max_deviation(pairs))


def check_pair_evolution_from_connection(inject_omega_sign_flip: bool = False) -> CheckResult:
    connection_fn = _flipped_connection if inject_omega_sign_flip else None
    pairs = []
    for alpha, sh, Phi in ((0.5, 0.75, math.pi), (0.9, 2.0, math.pi / 2), (1.0, 0.0, math.pi)):
        xi = math.asinh(sh)
        evolved = _closed_pair(alpha, xi, Phi, connection_fn=connection_fn, steps=512)
        pairs.append((evolved, epr.final_state_closed_form(alpha, xi, Phi)))
    note = "spin-connection sign flip injected" if inject_omega_sign_flip else "N=512"
    return _gated("pair_evolution_from_connection", 1e-9, _max_deviation(pairs), note=note)


def check_chsh_singlet() -> CheckResult:
    err = abs(epr.chsh_direct(epr.initial_state()) - TWO_SQRT2)
    return _gated("chsh_singlet_tsirelson", 1e-12, err)


def check_chsh_closed_theta_zero() -> CheckResult:
    closed = [epr.chsh_closed_form(0.0, math.asinh(sh)) for sh in SINH_XIS]
    return _gated("chsh_closed_form_at_theta_zero", 1e-12, np.abs(np.array(closed) - TWO_SQRT2).max())


def check_chsh_rest_frame_equivalence() -> CheckResult:
    pairs = []
    for alpha, Phi, evolved in _rest_frame_pairs():
        theta = transport.wigner_angle(alpha, 0.0, Phi)
        pairs.append((epr.chsh_direct(evolved), epr.chsh_closed_form(theta, 0.0)))
    return _gated("chsh_direct_vs_closed_rest_frame", 1e-10, _max_deviation(pairs))


def check_restoration_rest_frame() -> CheckResult:
    restored = [
        epr.chsh_restored(evolved, transport.wigner_angle(alpha, 0.0, Phi))
        for alpha, Phi, evolved in _rest_frame_pairs()
    ]
    err = np.abs(np.array(restored) - TWO_SQRT2).max()
    return _gated("chsh_restoration_rest_frame", 1e-10, err)


def check_restoration_residual_boosted() -> CheckResult:
    worst = 0.0
    for sh in (0.75, 2.0):
        for Phi in (math.pi / 4, math.pi / 2):
            report = epr.bell_report(0.5, math.asinh(sh), Phi)
            worst = max(worst, report.restored_residual)
    return CheckResult(
        "restoration_residual_boosted", None, worst, True,
        note="investigative: no asserted value at xi > 0",
    )


def check_chsh_normalization_discrepancy() -> CheckResult:
    worst = 0.0
    for sh in (0.75, 2.0):
        for Phi in (math.pi / 4, math.pi / 2):
            report = epr.bell_report(0.5, math.asinh(sh), Phi)
            worst = max(worst, abs(report.chsh_direct - report.chsh_closed))
    return CheckResult(
        "chsh_direct_vs_closed_boosted", None, worst, True,
        note="investigative: closed form is unnormalized at xi > 0",
    )


def check_c_scaling_regression() -> CheckResult:
    """The c^2 factors must drop out of every physical output at c = 2."""
    errors = []
    for c in (1.0, 2.0):
        geom = StringGeometry(0.5, c=c)
        pt = SpacetimePoint(rho=2.0)
        tet = geometry.tetrad_at(geom, pt)
        errors.append(np.abs(tet.e.T @ MINKOWSKI @ tet.e - geometry.metric_at(geom, pt)).max())
        wl = CircularWorldline(geom, rho=2.0, xi=math.asinh(0.75))
        errors.append(abs(kinematics.velocity_norm(wl) + c**2))
    op1 = transport.transport_from_connection(
        CircularWorldline(StringGeometry(0.5, c=1.0), 2.0, math.asinh(0.75)), math.pi, 64
    )
    op2 = transport.transport_from_connection(
        CircularWorldline(StringGeometry(0.5, c=2.0), 2.0, math.asinh(0.75)), math.pi, 64
    )
    errors.append(np.abs(op1 - op2).max())
    return _gated("c_scaling_regression", 1e-12, np.max(errors))  # np.max, unlike max, keeps a NaN


# The battery, in report order; run_checks passes its options to the checks that take them.
CHECKS = (
    check_tetrad_identities,
    check_connection_tables,
    check_connection_antisymmetry,
    check_christoffel_oracle,
    check_spin_connection_pipeline,
    check_riemann_flatness,
    check_holonomy_deficit,
    check_velocity_normalization,
    check_acceleration_oracle,
    check_gamma_matrix_square,
    check_transport_determinant,
    check_closed_form_vs_expm,
    check_numeric_fixed_coefficients,
    check_integrator_convergence,
    check_single_step_vs_dense,
    check_dirac_chiral_block,
    check_wigner_rest_frame,
    check_pair_evolution_closed_form,
    check_pair_evolution_from_connection,
    check_chsh_singlet,
    check_chsh_closed_theta_zero,
    check_chsh_rest_frame_equivalence,
    check_restoration_rest_frame,
    check_restoration_residual_boosted,
    check_chsh_normalization_discrepancy,
    check_c_scaling_regression,
)


def run_checks(inject_omega_sign_flip: bool = False, steps_dense: int = 65536) -> list[CheckResult]:
    """Run :data:`CHECKS` in order; the optional mutation must make the suite fail."""
    options = {
        check_single_step_vs_dense: {"steps_dense": steps_dense},
        check_pair_evolution_from_connection: {"inject_omega_sign_flip": inject_omega_sign_flip},
    }
    return [check(**options.get(check, {})) for check in CHECKS]
