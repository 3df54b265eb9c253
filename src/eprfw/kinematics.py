"""Circular worldlines around the string axis: velocity, acceleration, proper time.

A particle orbits at fixed radius rho with constant rapidity xi, where
v/c = tanh(xi) is the local speed measured by the static observer.  The
orbital sense is ``direction`` = +1 for the particle sent toward phi = +Phi
and -1 for its partner sent toward phi = -Phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PHI, RHO, T, SpacetimePoint, StringGeometry, christoffel_at, metric_at

__all__ = [
    "CircularWorldline",
    "four_velocity",
    "proper_acceleration",
    "proper_time_total",
    "four_momentum_frame",
    "xi_from_beta",
    "XI_MAX",
]

# Largest accepted rapidity: at alpha = 0.5, Phi = 1 the pair's squared norm
# overflows in the CHSH correlators from xi ~ 354.89 (cosh(2 xi) at 355.24).
XI_MAX = 350.0


@dataclass(frozen=True)
class CircularWorldline:
    """Circular orbit of radius ``rho`` and rapidity ``xi`` in geometry ``geom``."""

    geom: StringGeometry
    rho: float
    xi: float
    direction: int = +1

    def __post_init__(self):
        self.point()  # rejects a radius off the domain of SpacetimePoint
        # the connection along the orbit carries 1/(alpha rho^2); it must not overflow
        coefficient = self.geom.alpha * self.rho * self.rho
        if not (coefficient > 0.0 and math.isfinite(1.0 / coefficient)):
            raise ValueError(
                f"connection coefficient 1/(alpha rho^2) is not finite at alpha={self.geom.alpha}, rho={self.rho}"
            )
        leg = self.geom.alpha * self.rho  # g_phiphi = (alpha rho)^2
        if not 0.0 < leg * leg < math.inf:
            raise ValueError(
                f"rho is out of range: (alpha rho)^2 is not a positive finite float at alpha={self.geom.alpha}, rho={self.rho}"
            )
        if not 0.0 <= self.xi <= XI_MAX:
            raise ValueError(f"rapidity xi must lie in [0, {XI_MAX:g}], got {self.xi}")
        if not math.isfinite(_radial_acceleration(self)):
            raise ValueError(
                f"proper acceleration c^2 sinh^2(xi)/rho is not finite at c={self.geom.c}, rho={self.rho}, xi={self.xi}"
            )
        if self.direction not in (+1, -1):
            raise ValueError(f"direction must be +1 or -1, got {self.direction}")

    def point(self, phi: float = 0.0) -> SpacetimePoint:
        return SpacetimePoint(rho=self.rho, phi=phi)


def four_velocity(wl: CircularWorldline) -> np.ndarray:
    """U^mu = dx^mu/dtau: U^t = cosh(xi), U^phi = direction * c sinh(xi) / (alpha rho).

    Normalized to g_{mu nu} U^mu U^nu = -c^2 for every unit choice; the time
    component is the plain Lorentz factor because the metric already carries
    the c^2 in g_tt.
    """
    u = np.zeros(4)
    u[T] = math.cosh(wl.xi)
    u[PHI] = wl.direction * wl.geom.c * math.sinh(wl.xi) / (wl.geom.alpha * wl.rho)
    return u


def _radial_acceleration(wl: CircularWorldline) -> float:
    # c**2 and sinh(xi)**2 stay finite inside the domain; the quotient and the
    # product may overflow, which gives inf and no exception.  At rest the
    # result is -0.0, the bits of -(c^2 / rho) * 0.0, even where c^2 / rho overflows.
    if wl.xi == 0.0:
        return -0.0
    return -(wl.geom.c**2 / wl.rho) * math.sinh(wl.xi) ** 2


def proper_acceleration(wl: CircularWorldline) -> np.ndarray:
    """Centripetal a^rho = -(c^2 / rho) sinh^2(xi); the only nonzero component."""
    a = np.zeros(4)
    a[RHO] = _radial_acceleration(wl)
    return a


def acceleration_from_velocity(wl: CircularWorldline) -> np.ndarray:
    """Oracle for :func:`proper_acceleration`: a^mu = Gamma^mu_{nu sig} U^nu U^sig.

    The convective part U^nu d_nu U^mu vanishes because U is constant along
    the orbit, leaving the pure connection contraction.
    """
    u = four_velocity(wl)
    gamma = christoffel_at(wl.geom, wl.point())
    return np.einsum("mns,n,s->m", gamma, u, u)


def proper_time_total(wl: CircularWorldline, Phi: float) -> float:
    """Proper time to sweep azimuth Phi: tau = alpha rho Phi / (c sinh xi)."""
    if not 0.0 < Phi < math.inf:
        raise ValueError(f"Phi must be positive and finite, got {Phi}")
    if wl.xi == 0.0:
        raise ValueError("particle at rest never reaches the observer")
    return wl.geom.alpha * wl.rho * Phi / (wl.geom.c * math.sinh(wl.xi))


def four_momentum_frame(wl: CircularWorldline, mass: float) -> np.ndarray:
    """Frame components p^a = (m c cosh xi, 0, 0, direction * m c sinh xi)."""
    if not 0.0 < mass < math.inf:
        raise ValueError(f"mass must be positive and finite, got {mass}")
    mc = mass * wl.geom.c
    return np.array([mc * math.cosh(wl.xi), 0.0, 0.0, wl.direction * mc * math.sinh(wl.xi)])


def xi_from_beta(beta: float) -> float:
    """Rapidity from speed ratio v/c = tanh(xi); requires 0 <= beta < 1."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta (v/c) must lie in [0, 1), got {beta}")
    return math.atanh(beta)


def velocity_norm(wl: CircularWorldline) -> float:
    """g_{mu nu} U^mu U^nu, equal to -c^2 for a timelike worldline."""
    g = metric_at(wl.geom, wl.point())
    u = four_velocity(wl)
    return float(u @ g @ u)
