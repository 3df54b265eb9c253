"""Circular worldline kinematics: velocity, acceleration, proper time, momenta."""

import math

import numpy as np
import pytest

from eprfw.geometry import PHI, RHO, StringGeometry, fw_connection_at, metric_at
from eprfw.kinematics import (
    CircularWorldline,
    acceleration_from_velocity,
    four_momentum_frame,
    four_velocity,
    proper_acceleration,
    proper_time_total,
    velocity_norm,
    xi_from_beta,
)
from eprfw import verify


def worldlines():
    return list(verify._worldlines())


def test_worldline_validation():
    geom = StringGeometry(0.5)
    with pytest.raises(ValueError):
        CircularWorldline(geom, rho=0.0, xi=0.5)
    with pytest.raises(ValueError):
        CircularWorldline(geom, rho=1.0, xi=-0.1)
    with pytest.raises(ValueError):
        CircularWorldline(geom, rho=1.0, xi=0.5, direction=2)


@pytest.mark.parametrize("alpha, rho", [(1e-10, 1e-300), (1.0, 1e-160), (0.5, 5e-324)])
def test_worldline_rejects_overflowing_connection_coefficient(alpha, rho):
    with pytest.raises(ValueError, match="not finite"):
        CircularWorldline(StringGeometry(alpha), rho=rho, xi=0.5)


@pytest.mark.parametrize("alpha, rho", [(0.5, 1e200), (1.0, 1e300), (1.0, 1.5e154), (1e-200, 1e-50)])
def test_worldline_rejects_metric_out_of_range(alpha, rho):
    with pytest.raises(ValueError, match="rho"):
        CircularWorldline(StringGeometry(alpha), rho=rho, xi=0.5)
    CircularWorldline(StringGeometry(alpha), rho=1e150, xi=0.5)


@pytest.mark.parametrize("c, rho, xi", [(1e154, 2.0, 3.0), (1e100, 2.0, 300.0)])
def test_worldline_rejects_non_finite_acceleration(c, rho, xi):
    with pytest.raises(ValueError, match=r"c=.*rho=.*xi="):
        CircularWorldline(StringGeometry(0.5, c=c), rho=rho, xi=xi)


def test_worldline_at_rest_where_c2_over_rho_overflows():
    # c^2 / rho = 1e313 overflows, but a particle at rest has a^rho = -0.0 without it
    wl = CircularWorldline(StringGeometry(0.5, c=1e154), rho=1e-5, xi=0.0)
    a_rho = proper_acceleration(wl)[RHO]
    assert a_rho == 0.0 and math.copysign(1.0, a_rho) == -1.0


def test_fw_connection_finite_at_large_acceleration():
    # c^2 sinh^2(xi) / rho = 6.9e307 is finite; c^2 |a| is not, so a is scaled by 1/c^2 first
    wl = CircularWorldline(StringGeometry(0.5, c=1e154), rho=2.0, xi=1.0)
    accel = proper_acceleration(wl)
    assert math.isfinite(accel[RHO])
    with np.errstate(all="raise"):
        tau = fw_connection_at(wl.geom, wl.point(), accel)
    assert np.isfinite(tau).all()
    assert tau[PHI, 1, 3] == pytest.approx(-math.sinh(1.0) ** 2 / 2.0, rel=1e-15)


def test_four_velocity_at_rest():
    wl = CircularWorldline(StringGeometry(0.5), rho=2.0, xi=0.0)
    assert np.allclose(four_velocity(wl), [wl.geom.c, 0.0, 0.0, 0.0])


def test_four_velocity_reference_values():
    # tanh(xi) = 0.6 gives cosh = 1.25, sinh = 0.75
    wl = CircularWorldline(StringGeometry(0.5), rho=2.0, xi=xi_from_beta(0.6))
    u = four_velocity(wl)
    assert u[0] == pytest.approx(1.25, abs=1e-15)
    assert u[PHI] == pytest.approx(0.75, abs=1e-15)
    assert u[1] == 0.0 and u[2] == 0.0


@pytest.mark.parametrize("wl", worldlines())
def test_four_velocity_normalization(wl):
    assert abs(velocity_norm(wl) + wl.geom.c**2) <= 1e-12


@pytest.mark.parametrize("wl", worldlines())
def test_velocity_acceleration_orthogonality(wl):
    g = metric_at(wl.geom, wl.point())
    assert abs(four_velocity(wl) @ g @ proper_acceleration(wl)) <= 1e-12


def test_acceleration_at_rest_vanishes():
    wl = CircularWorldline(StringGeometry(0.5), rho=2.0, xi=0.0)
    assert np.abs(proper_acceleration(wl)).max() == 0.0


def test_acceleration_reference_value():
    wl = CircularWorldline(StringGeometry(0.5), rho=2.0, xi=math.asinh(0.75))
    assert proper_acceleration(wl)[RHO] == pytest.approx(-0.28125, abs=1e-15)


@pytest.mark.parametrize("wl", worldlines())
def test_acceleration_covariant_derivative_oracle(wl):
    assert np.abs(proper_acceleration(wl) - acceleration_from_velocity(wl)).max() <= 1e-8


def test_proper_time_reference_values():
    wl = CircularWorldline(StringGeometry(0.5), rho=2.0, xi=math.asinh(0.75))
    assert proper_time_total(wl, math.pi) == pytest.approx(math.pi / 0.75, abs=1e-12)
    wl = CircularWorldline(StringGeometry(1.0), rho=1.0, xi=math.asinh(1.0))
    assert proper_time_total(wl, math.pi) == pytest.approx(math.pi, abs=1e-12)


def test_proper_time_linear_in_angle():
    wl = CircularWorldline(StringGeometry(0.9), rho=1.5, xi=0.8)
    assert proper_time_total(wl, 2.4) == pytest.approx(2.0 * proper_time_total(wl, 1.2), rel=1e-14)


def test_proper_time_rest_raises():
    wl = CircularWorldline(StringGeometry(0.5), rho=2.0, xi=0.0)
    with pytest.raises(ValueError, match="at rest"):
        proper_time_total(wl, math.pi)


def test_proper_time_requires_positive_angle():
    wl = CircularWorldline(StringGeometry(0.5), rho=2.0, xi=0.5)
    with pytest.raises(ValueError):
        proper_time_total(wl, 0.0)


def test_momentum_reference_values():
    geom = StringGeometry(0.5)
    rest = CircularWorldline(geom, rho=1.0, xi=0.0)
    assert np.allclose(four_momentum_frame(rest, 1.0), [1.0, 0.0, 0.0, 0.0])
    moving = CircularWorldline(geom, rho=1.0, xi=math.asinh(0.75), direction=-1)
    assert np.allclose(four_momentum_frame(moving, 1.0), [1.25, 0.0, 0.0, -0.75])


@pytest.mark.parametrize("wl", worldlines())
def test_momentum_mass_shell(wl):
    m = 1.7
    p = four_momentum_frame(wl, m)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert p @ eta @ p == pytest.approx(-(m * wl.geom.c) ** 2, rel=1e-14)


def test_direction_flips_only_angular_components():
    geom = StringGeometry(0.5)
    plus = CircularWorldline(geom, rho=2.0, xi=0.9, direction=+1)
    minus = CircularWorldline(geom, rho=2.0, xi=0.9, direction=-1)
    u_plus, u_minus = four_velocity(plus), four_velocity(minus)
    assert u_minus[PHI] == -u_plus[PHI]
    assert np.allclose(np.delete(u_minus, PHI), np.delete(u_plus, PHI))
    p_plus, p_minus = four_momentum_frame(plus, 1.0), four_momentum_frame(minus, 1.0)
    assert p_minus[3] == -p_plus[3]
    assert np.allclose(p_minus[:3], p_plus[:3])
    assert np.allclose(proper_acceleration(plus), proper_acceleration(minus))


def test_xi_from_beta_bounds():
    assert xi_from_beta(0.0) == 0.0
    assert xi_from_beta(0.6) == pytest.approx(math.atanh(0.6))
    with pytest.raises(ValueError):
        xi_from_beta(1.0)
    with pytest.raises(ValueError):
        xi_from_beta(-0.1)
