"""The battery's own exponential oracle, and the stacked grids of its checks."""

import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from eprfw import epr, geometry, kinematics, transport, verify
from eprfw.geometry import StringGeometry
from eprfw.kinematics import CircularWorldline, proper_acceleration
from eprfw.verify import _expm_taylor


def mp_expm(a):
    """exp(a) in 40-digit arithmetic, rounded to complex128."""
    with mpmath.workdps(40):
        m = mpmath.expm(mpmath.matrix(a.tolist()))
    return np.array([[complex(m[i, j]) for j in range(m.cols)] for i in range(m.rows)])


def grid_generators():
    return np.array([0.5 * transport._gamma_matrix(params) for params in verify._params_grid()])


def random_generators(n, count, seed):
    """Seeded complex Gaussian n x n matrices, scaled to 1-norms from 1/8 up to 64."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    target = np.geomspace(0.125, 64.0, count)
    return a * (target / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]


def test_oracle_matches_40_digit_exponential_on_the_grid():
    a = grid_generators()
    ref = np.array([mp_expm(x) for x in a])
    assert np.abs(_expm_taylor(a) - ref).max() <= 1e-13


@pytest.mark.parametrize("n, count", [(2, 8), (4, 4)])
def test_oracle_matches_40_digit_exponential_on_non_normal_matrices(n, count):
    a = random_generators(n, count, seed=2009 + n)
    departure = np.abs(a @ a.conj().transpose(0, 2, 1) - a.conj().transpose(0, 2, 1) @ a).max(axis=(1, 2))
    assert (departure > 0.1 * np.abs(a).max(axis=(1, 2)) ** 2).all()  # far from normal
    ours = _expm_taylor(a)
    for x, y in zip(a, ours):
        ref = mp_expm(x)
        assert np.abs(y - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_oracle_agrees_with_scipy_expm():
    a = grid_generators()
    assert np.abs(_expm_taylor(a) - expm(a)).max() <= 1e-13
    for n in (2, 4):
        a = random_generators(n, 16, seed=n)
        ref = expm(a)
        scale = np.maximum(1.0, np.abs(ref).max(axis=(1, 2)))
        assert (np.abs(_expm_taylor(a) - ref).max(axis=(1, 2)) <= 1e-12 * scale).all()


def test_oracle_of_zero_is_identity():
    assert np.array_equal(_expm_taylor(np.zeros((3, 2, 2))), np.broadcast_to(np.eye(2), (3, 2, 2)))


# ------------------------------------------- the stacked grids keep every point

# Each case corrupts library output at one interior point of one grid: each function named
# returns its output plus an offset where its predicate holds on the call's arguments, and
# nowhere else.  A check that dropped or misaligned that point while stacking its grid would pass.
ORBIT = CircularWorldline(StringGeometry(0.9), rho=2.0, xi=math.asinh(0.75))  # one of _worldlines
ORBIT_ACCEL = proper_acceleration(ORBIT)
PARAMS = transport.transport_params(
    CircularWorldline(StringGeometry(0.5), rho=1.0, xi=math.asinh(0.75), direction=-1), math.pi / 2
)  # one of _params_grid


def at_grid_point(geom, pt):  # alpha = 0.9, rho = 2 of _grid_points
    return (geom.alpha, pt.rho, pt.phi) == (0.9, 2.0, 0.7)


def on_orbit(geom, pt, accel):
    return (geom.alpha, pt.rho) == (ORBIT.geom.alpha, ORBIT.rho) and np.array_equal(accel, ORBIT_ACCEL)


def is_orbit(wl):
    return wl == ORBIT


def at_params(params):
    return params == PARAMS


def at_rest_point(params):  # alpha = 0.9, Phi = pi/2 at rest, in both directions
    return params.eta1 == 0.0 and params.theta == 0.9 * (math.pi / 2)


STACKED_GRIDS = {
    "grid_points": (
        [(geometry, "metric_at", at_grid_point), (geometry, "christoffel_at", at_grid_point),
         (geometry, "spin_connection_at", at_grid_point), (geometry, "riemann_at", at_grid_point)],
        [verify.check_tetrad_identities, verify.check_christoffel_oracle,
         verify.check_spin_connection_pipeline, verify.check_riemann_flatness],
    ),
    "worldlines": (
        [(geometry, "fw_connection_at", on_orbit), (geometry, "total_connection_at", on_orbit),
         (kinematics, "velocity_norm", is_orbit), (kinematics, "acceleration_from_velocity", is_orbit)],
        [verify.check_connection_tables, verify.check_connection_antisymmetry,
         verify.check_velocity_normalization, verify.check_acceleration_oracle],
    ),
    "params_grid": (
        [(transport, "_gamma_matrix", at_params), (transport, "transport_closed_form", at_params)],
        [verify.check_gamma_matrix_square, verify.check_transport_determinant,
         verify.check_closed_form_vs_expm],
    ),
    "pair_grid": (
        [(epr, "final_state_closed_form", lambda *point: point == (0.9, math.asinh(0.75), math.pi / 2))],
        [verify.check_pair_evolution_closed_form],
    ),
    "rest_frame_grids": (
        [(transport, "transport_closed_form", at_rest_point)],
        [verify.check_wigner_rest_frame, verify.check_pair_evolution_closed_form,
         verify.check_chsh_rest_frame_equivalence, verify.check_restoration_rest_frame],
    ),
    "alphas": (
        [(geometry, "holonomy_deficit_angle", lambda geom: geom.alpha == 0.9)],
        [verify.check_holonomy_deficit],
    ),
    "theta_zero": (
        [(epr, "chsh_closed_form", lambda theta, xi: xi == math.asinh(0.75))],
        [verify.check_chsh_closed_theta_zero],
    ),
    "light_speeds": (
        [(kinematics, "velocity_norm", lambda wl: wl.geom.c == 2.0)],
        [verify.check_c_scaling_regression],
    ),
}


def corrupt(monkeypatch, module, name, at, offset):
    """Patch ``module.name`` to add ``offset`` to its output where ``at(*args)``; returns the list of hits."""
    original = getattr(module, name)
    hits = []

    def corrupted(*args):
        out = original(*args)
        if at(*args):
            hits.append(args)
            return out + offset
        return out

    monkeypatch.setattr(module, name, corrupted)
    return hits


def passes(check):
    try:
        return check().passed
    except ValueError:  # a NaN pair state has no correlator, and a check may say so
        return False


# a NaN must fail a check as a wrong value does: Python's max(err, nan) returns err
@pytest.mark.parametrize("offset", [1.0, math.nan], ids=["one", "nan"])
@pytest.mark.parametrize("grid", list(STACKED_GRIDS))
def test_every_stacked_check_sees_one_corrupted_point(grid, offset, monkeypatch):
    targets, checks = STACKED_GRIDS[grid]
    assert all(check().passed for check in checks)
    hits = [corrupt(monkeypatch, *target, offset) for target in targets]
    with np.errstate(invalid="ignore"):  # a NaN operator has a NaN determinant
        passed = [passes(check) for check in checks]
    assert all(hits), "a corrupted function was never called at its point"
    assert not any(passed)
