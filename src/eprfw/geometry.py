"""Conical (cosmic-string) spacetime: metric, tetrad, and connection 1-forms.

Index conventions used throughout the package:

* coordinate index mu runs over (t, rho, z, phi) = (0, 1, 2, 3);
* frame (orthonormal) indices a, b run 0..3 with eta = diag(-1, +1, +1, +1);
* Christoffel symbols are arrays ``gamma[lam, mu, nu]`` = Gamma^lam_{mu nu};
* connection 1-forms are arrays ``X[mu, a, b]`` with mixed frame indices,
  upper a and lower b.

The line element is ``ds^2 = -c^2 dt^2 + drho^2 + dz^2 + alpha^2 rho^2 dphi^2``
with deficit factor 0 < alpha <= 1 (alpha = 1 is flat space in cylindrical
coordinates).  The axis rho = 0 carries all of the curvature and is excluded
from the domain; everywhere else the space is flat, which the finite-difference
Riemann tensor and the holonomy deficit check verify independently.

The fields (:func:`metric_at`, :func:`tetrad_at`, :func:`christoffel_at`,
:func:`spin_connection_at`, :func:`fw_connection_at`,
:func:`total_connection_at`) do not depend on phi, so each returns its single
array of the shape listed above, also for a point whose ``phi`` is an array
of azimuths; the path-ordered product engine passes such points.  The
finite-difference oracles take scalar points only.

The Christoffel symbols and connections are built from the diagonals of the
tetrad (it is diagonal in these coordinates), so every contraction with the
tetrad keeps a single term and is one elementwise product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "T", "RHO", "Z", "PHI",
    "MINKOWSKI",
    "OnAxisError",
    "StringGeometry",
    "SpacetimePoint",
    "Tetrad",
    "metric_at",
    "tetrad_at",
    "christoffel_at",
    "christoffel_fd",
    "spin_connection_at",
    "spin_connection_fd",
    "fw_connection_at",
    "total_connection_at",
    "riemann_at",
    "transport_frame_vector",
    "holonomy_deficit_angle",
]

# coordinate indices
T, RHO, Z, PHI = 0, 1, 2, 3

MINKOWSKI = np.diag([-1.0, 1.0, 1.0, 1.0])
# its diagonal eta_a: lowering a frame index is one elementwise product with it
_ETA = np.diag(MINKOWSKI)

# Frame planes the spin connection along phi can rotate: it mixes frame legs
# 1 and 3 and leaves legs 0 and 2 alone, for every deficit factor.
_FRAME_PLANES = ((0, 2), (1, 3))

# For a field x[mu, a, b], x[_DIAG, :, _DIAG] is its plane b = mu and
# x[_DIAG, _DIAG] its plane a = mu: the two planes the Fermi-Walker term lives on.
_DIAG = np.arange(4)


class OnAxisError(ValueError):
    """Point lies on the string axis (rho <= 0), where the geometry is singular."""


@dataclass(frozen=True)
class StringGeometry:
    """Conical spacetime parameters: deficit factor ``alpha`` and light speed ``c``."""

    alpha: float
    c: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (0.0 < self.c and 0.0 < self.c * self.c < math.inf):  # g_tt = -c^2
            raise ValueError(f"c must be positive with c^2 a positive finite float, got c={self.c}")


@dataclass(frozen=True)
class SpacetimePoint:
    """Event in string coordinates (t, rho, z, phi); phi is stored unwrapped.

    ``phi`` may be an array of azimuths on the circle of radius ``rho``; the
    fields of this module do not depend on it (see the module docstring).
    """

    t: float = 0.0
    rho: float = 1.0
    z: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.rho):
            raise ValueError(f"rho must be finite, got {self.rho}")
        if self.rho <= 0.0:
            raise OnAxisError(f"on string axis: rho must be positive, got {self.rho}")

    def shifted(self, mu: int, h: float) -> "SpacetimePoint":
        """Same event with coordinate ``mu`` offset by ``h`` (for differencing)."""
        coords = [self.t, self.rho, self.z, self.phi]
        coords[mu] += h
        return SpacetimePoint(*coords)


@dataclass(frozen=True)
class Tetrad:
    """Orthonormal frame ``e[a, mu]`` = e^a_mu and inverse ``einv[mu, a]`` = e^mu_a."""

    e: np.ndarray
    einv: np.ndarray


def metric_at(geom: StringGeometry, pt: SpacetimePoint) -> np.ndarray:
    """Metric g_{mu nu} at ``pt``: diag(-c^2, 1, 1, alpha^2 rho^2)."""
    return np.diag([-geom.c**2, 1.0, 1.0, (geom.alpha * pt.rho) ** 2])


def _tetrad_diagonals(geom: StringGeometry, pt: SpacetimePoint) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (c, 1, 1, alpha rho) of the tetrad and their inverses."""
    d = np.array([geom.c, 1.0, 1.0, geom.alpha * pt.rho])
    return d, 1.0 / d


def tetrad_at(geom: StringGeometry, pt: SpacetimePoint) -> Tetrad:
    """Rest-frame tetrad of the static observer, diagonal in these coordinates.

    e^0_t = c, e^1_rho = 1, e^2_z = 1, e^3_phi = alpha*rho.  The time leg
    carries the factor c so that e^a_mu e^b_nu eta_ab = g_{mu nu} holds for
    any unit choice (it reduces to 1 for the default c = 1).
    """
    d, dinv = _tetrad_diagonals(geom, pt)
    return Tetrad(e=np.diag(d), einv=np.diag(dinv))


def christoffel_at(geom: StringGeometry, pt: SpacetimePoint) -> np.ndarray:
    """Levi-Civita connection; only Gamma^rho_{phi phi} and Gamma^phi_{rho phi} survive."""
    gamma = np.zeros((4, 4, 4))
    gamma[RHO, PHI, PHI] = -(geom.alpha**2) * pt.rho
    gamma[PHI, RHO, PHI] = gamma[PHI, PHI, RHO] = 1.0 / pt.rho
    return gamma


def _fd_step(pt: SpacetimePoint, h: float) -> float:
    """Difference step ``h``, capped at rho / 2 so that no stencil point crosses the axis."""
    return min(h, 0.5 * pt.rho)


def christoffel_fd(geom: StringGeometry, pt: SpacetimePoint) -> np.ndarray:
    """Christoffel symbols from central differences of the metric.

    Independent of :func:`christoffel_at`; step h = 1e-5 balances truncation
    against round-off for first derivatives in double precision.  Within
    2h of the axis the step is rho / 2.
    """
    h = _fd_step(pt, 1e-5)
    dg = np.zeros((4, 4, 4))  # dg[sig, mu, nu] = d_sig g_{mu nu}
    for sig in range(4):
        gp = metric_at(geom, pt.shifted(sig, +h))
        gm = metric_at(geom, pt.shifted(sig, -h))
        dg[sig] = (gp - gm) / (2.0 * h)
    ginv = np.linalg.inv(metric_at(geom, pt))
    # Gamma^lam_{mu nu} = 1/2 g^{lam sig} (d_mu g_{sig nu} + d_nu g_{sig mu} - d_sig g_{mu nu})
    return 0.5 * np.einsum(
        "ls,smn->lmn",
        ginv,
        np.einsum("msn->smn", dg) + np.einsum("nsm->smn", dg) - dg,
    )


def _spin_connection(pt: SpacetimePoint, gamma: np.ndarray, d: np.ndarray, dinv: np.ndarray) -> np.ndarray:
    """omega[mu, a, b] from Christoffels and the tetrad diagonals.

    e^a_nu (d_mu e^nu_b + Gamma^nu_{mu sig} e^sig_b): the tetrad is diagonal,
    so each contraction with it keeps one term, an elementwise product.
    """
    omega = gamma.swapaxes(0, 1) * dinv  # Gamma^nu_{mu b} e^b_b, indexed [mu, nu, b]
    # the only nonzero d_mu e^nu_b, d_rho (1/(alpha rho)) = -(1/rho) e^phi_3, formed from
    # the operands of the closed-form Gamma^phi_{rho phi} e^phi_3 so that the two cancel exactly
    omega[RHO, PHI, 3] -= (1.0 / pt.rho) * dinv[3]
    omega *= d[:, None]  # e^a_a: the row index nu becomes the frame index a
    return omega


def spin_connection_at(geom: StringGeometry, pt: SpacetimePoint) -> np.ndarray:
    """Spin connection omega[mu, a, b] of the rest-frame tetrad.

    Computed as e^a_nu (d_mu e^nu_b + Gamma^nu_{mu sig} e^sig_b).  The overall
    sign/index placement is fixed so that the phi components come out as
    omega_phi^1_3 = -alpha, omega_phi^3_1 = +alpha, the set that sums with the
    boost term to the total transport connection used downstream (the opposite
    placement would flip every precession angle).
    """
    d, dinv = _tetrad_diagonals(geom, pt)
    return _spin_connection(pt, christoffel_at(geom, pt), d, dinv)


def spin_connection_fd(geom: StringGeometry, pt: SpacetimePoint) -> np.ndarray:
    """Spin connection through the generic pipeline with finite-difference Christoffels."""
    return _spin_connection(pt, christoffel_fd(geom, pt), *_tetrad_diagonals(geom, pt))


def _fw_terms(geom: StringGeometry, accel: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two terms of tau[mu, a, b] from the tetrad diagonals; see :func:`fw_connection_at`.

    tau[mu, a, b] = ae[a] e_{b mu} - e^a_mu al[b] with ae = e^a_nu a^nu and al = e_{b nu} a^nu:
    the first term lives on the plane b = mu and is returned as ``first[mu, a]``, the
    second on the plane a = mu, as ``second[mu, b]``.
    """
    acc = np.asarray(accel, dtype=float) / geom.c**2
    lower = _ETA * d  # e_{b b}
    ae, al = d * acc, lower * acc
    return ae * lower[:, None], d[:, None] * al


def fw_connection_at(
    geom: StringGeometry, pt: SpacetimePoint, accel: np.ndarray
) -> np.ndarray:
    """Fermi-Walker boost 1-form tau[mu, a, b] for proper acceleration ``accel``.

    tau_mu^a_b = (a^nu / c^2) (e^a_nu e_{b mu} - e^a_mu e_{b nu}) with
    e_{b mu} = eta_{bc} e^c_mu; ``accel`` is given in coordinate components.
    It is divided by c^2 before the frame products, which carry e^0_t = c and
    would overflow first wherever c^2 |a| is near the float maximum.
    """
    d = _tetrad_diagonals(geom, pt)[0]
    first, second = _fw_terms(geom, accel, d)
    tau = np.zeros((4, 4, 4))
    tau[_DIAG, :, _DIAG] = first
    tau[_DIAG, _DIAG] -= second
    return tau


def total_connection_at(
    geom: StringGeometry, pt: SpacetimePoint, accel: np.ndarray
) -> np.ndarray:
    """Total transport connection: spin connection plus Fermi-Walker term.

    The Fermi-Walker term's two planes are added into the spin connection in
    place, with no separate tau array.  The result has the bits of
    ``spin_connection_at + fw_connection_at``: the spin connection holds no
    -0.0, and it is +0.0 on the line mu = a = b where the two planes overlap.
    """
    d, dinv = _tetrad_diagonals(geom, pt)
    omega = _spin_connection(pt, christoffel_at(geom, pt), d, dinv)
    first, second = _fw_terms(geom, accel, d)
    omega[_DIAG, :, _DIAG] += first
    omega[_DIAG, _DIAG] -= second
    return omega


def riemann_at(geom: StringGeometry, pt: SpacetimePoint) -> np.ndarray:
    """Riemann tensor R^lam_{mu nu kap} from finite differences of the Christoffels.

    Vanishes off the axis (all curvature is concentrated at rho = 0); the
    larger step h = 1e-4 suits the second-derivative round-off balance.
    Within 2h of the axis the step is rho / 2.
    """
    h = _fd_step(pt, 1e-4)
    dgam = np.zeros((4, 4, 4, 4))  # dgam[sig, lam, mu, nu] = d_sig Gamma^lam_{mu nu}
    for sig in range(4):
        gp = christoffel_at(geom, pt.shifted(sig, +h))
        gm = christoffel_at(geom, pt.shifted(sig, -h))
        dgam[sig] = (gp - gm) / (2.0 * h)
    gamma = christoffel_at(geom, pt)
    riem = np.einsum("nlmk->lmnk", dgam) - np.einsum("klmn->lmnk", dgam)
    riem += np.einsum("lns,smk->lmnk", gamma, gamma) - np.einsum("lks,smn->lmnk", gamma, gamma)
    return riem


def transport_frame_vector(
    geom: StringGeometry, v: np.ndarray, Phi: float, steps: int = 256
) -> tuple[np.ndarray, float]:
    """Parallel-transport frame components of ``v`` along the unit circle.

    Integrates dV^a/dphi = -omega_phi^a_b V^b over the arc [0, Phi] in
    ``steps`` midpoint sub-arcs with the path-ordered product engine of
    :mod:`eprfw.transport`, and returns the transported components and the
    signed rotation angle in the (1, 3) plane.  omega_phi does not depend on
    rho, so the unit circle stands for every radius.  Every step rotates the (1, 3) plane and such rotations
    commute, so the unwrapped angle is the (1, 3) entry of the sum of the
    step generators, however far one step turns; it is 0 when ``v`` has no
    (1, 3) part to rotate.
    """
    from .transport import _path_ordered  # transport imports this module

    v = np.asarray(v, dtype=float)

    def generator(phi):
        return -spin_connection_at(geom, SpacetimePoint(rho=1.0, phi=phi))[..., PHI, :, :]

    op, total = _path_ordered(generator, Phi, steps, _FRAME_PLANES, 4)
    angle = float(total[1, 1, 0]) if v[1] or v[3] else 0.0  # generator of leg 1 into leg 3
    return op @ v, angle


def holonomy_deficit_angle(geom: StringGeometry) -> float:
    """Deficit rotation of a frame vector carried once around the string at rest.

    The transport rotates the vector by -2 pi alpha in the (1, 3) plane; the
    flat-space reference is -2 pi, so the deficit is 2 pi (1 - alpha).  The
    loop takes 512 steps of :func:`transport_frame_vector`.
    """
    _, angle = transport_frame_vector(geom, np.array([0.0, 1.0, 0.0, 0.0]), 2.0 * math.pi, steps=512)
    return 2.0 * math.pi + angle
