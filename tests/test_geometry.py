"""Geometry layer: metric, tetrad, connections, curvature, holonomy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprfw.geometry import (
    MINKOWSKI,
    PHI,
    RHO,
    T,
    Z,
    OnAxisError,
    PhiModulatedGeometry,
    SpacetimePoint,
    StringGeometry,
    christoffel_at,
    christoffel_fd,
    fw_connection_at,
    holonomy_deficit_angle,
    metric_at,
    riemann_at,
    spin_connection_at,
    spin_connection_fd,
    tetrad_at,
    total_connection_at,
)
from eprfw.kinematics import CircularWorldline, proper_acceleration
from eprfw.verify import ALPHAS, RHOS

REF_GEOM = StringGeometry(0.5)
REF_PT = SpacetimePoint(rho=2.0)


def every_point():
    return [
        (StringGeometry(alpha), SpacetimePoint(rho=rho, phi=0.3))
        for alpha in ALPHAS
        for rho in RHOS
    ]


# ------------------------------------------------------------------ types


def test_geometry_validation():
    with pytest.raises(ValueError):
        StringGeometry(0.0)
    with pytest.raises(ValueError):
        StringGeometry(1.2)  # anti-conical range is rejected
    with pytest.raises(ValueError):
        StringGeometry(0.5, c=0.0)
    for c in (1e300, 4.946743251852692e-168):  # c^2 overflows or underflows to 0
        with pytest.raises(ValueError, match="c\\^2"):
            StringGeometry(0.5, c=c)
    StringGeometry(0.5, c=1e150)
    StringGeometry(1.0)  # flat limit is allowed


def test_point_rejects_axis():
    with pytest.raises(OnAxisError, match="on string axis"):
        SpacetimePoint(rho=0.0)
    with pytest.raises(OnAxisError):
        SpacetimePoint(rho=-1.0)


# ----------------------------------------------------------------- metric


def test_metric_reference_values():
    g = metric_at(REF_GEOM, REF_PT)
    assert g[PHI, PHI] == pytest.approx(1.0, abs=1e-15)  # (alpha*rho)^2 = 1
    assert g[T, T] == pytest.approx(-1.0, abs=1e-15)
    assert np.allclose(g, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_metric_flat_limit_is_cylindrical_minkowski():
    for rho in RHOS:
        g = metric_at(StringGeometry(1.0), SpacetimePoint(rho=rho))
        assert np.allclose(g, np.diag([-1.0, 1.0, 1.0, rho**2]), atol=1e-15)


def test_metric_carries_c_squared():
    g = metric_at(StringGeometry(0.5, c=2.0), REF_PT)
    assert g[T, T] == -4.0


# ----------------------------------------------------------------- tetrad


def test_tetrad_reference_entries():
    tet = tetrad_at(REF_GEOM, REF_PT)
    assert tet.e[3, PHI] == pytest.approx(1.0, abs=1e-15)
    assert tet.e[0, T] == 1.0 and tet.e[1, RHO] == 1.0 and tet.e[2, Z] == 1.0


def test_tetrad_inverse_against_numeric_inversion():
    tet = tetrad_at(REF_GEOM, REF_PT)
    assert np.allclose(tet.einv, np.linalg.inv(tet.e), atol=1e-13)
    assert tet.einv[PHI, 3] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("geom,pt", every_point())
def test_tetrad_identities_on_grid(geom, pt):
    g = metric_at(geom, pt)
    tet = tetrad_at(geom, pt)
    assert np.abs(tet.e.T @ MINKOWSKI @ tet.e - g).max() <= 1e-12
    assert np.abs(tet.e @ tet.einv - np.eye(4)).max() <= 1e-12
    assert np.abs(tet.einv @ tet.e - np.eye(4)).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=0.05, max_value=1.0),
    rho=st.floats(min_value=0.05, max_value=25.0),
    c=st.sampled_from([1.0, 2.0, 0.5]),
)
def test_tetrad_identity_property(alpha, rho, c):
    geom = StringGeometry(alpha, c=c)
    pt = SpacetimePoint(rho=rho)
    tet = tetrad_at(geom, pt)
    g = metric_at(geom, pt)
    scale = max(1.0, np.abs(g).max())
    assert np.abs(tet.e.T @ MINKOWSKI @ tet.e - g).max() <= 1e-12 * scale


# ------------------------------------------------------------ christoffel


def test_christoffel_closed_form_values():
    gamma = christoffel_at(REF_GEOM, REF_PT)
    assert gamma[RHO, PHI, PHI] == pytest.approx(-0.5, abs=1e-15)
    assert gamma[PHI, RHO, PHI] == pytest.approx(0.5, abs=1e-15)
    assert gamma[PHI, PHI, RHO] == pytest.approx(0.5, abs=1e-15)
    assert np.abs(gamma[T]).max() == 0.0  # static metric
    # nothing else survives
    mask = np.ones((4, 4, 4), dtype=bool)
    mask[RHO, PHI, PHI] = mask[PHI, RHO, PHI] = mask[PHI, PHI, RHO] = False
    assert np.abs(gamma[mask]).max() == 0.0


@pytest.mark.parametrize("geom,pt", every_point())
def test_christoffel_finite_difference_oracle(geom, pt):
    assert np.abs(christoffel_fd(geom, pt) - christoffel_at(geom, pt)).max() <= 1e-6


def test_christoffel_lower_index_symmetry():
    gamma = christoffel_fd(REF_GEOM, REF_PT)
    assert np.abs(gamma - np.einsum("lmn->lnm", gamma)).max() <= 1e-12


# -------------------------------------------------------- spin connection


def test_spin_connection_tabulated_components():
    omega = spin_connection_at(REF_GEOM, REF_PT)
    assert abs(omega[PHI, 1, 3]) == pytest.approx(0.5, abs=1e-15)
    assert omega[PHI, 1, 3] == pytest.approx(-omega[PHI, 3, 1], abs=1e-15)
    # the normative sign placement
    assert omega[PHI, 1, 3] == pytest.approx(-0.5, abs=1e-15)
    mask = np.ones((4, 4, 4), dtype=bool)
    mask[PHI, 1, 3] = mask[PHI, 3, 1] = False
    assert np.abs(omega[mask]).max() <= 1e-12


def test_spin_connection_flat_limit():
    omega = spin_connection_at(StringGeometry(1.0), SpacetimePoint(rho=3.0))
    assert abs(omega[PHI, 1, 3]) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("rho", [5e-6, 1e-3, 1.0, 1e5])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_spin_connection_has_no_radial_component(alpha, rho):
    # d_rho e^phi_3 cancels Gamma^phi_{rho phi} e^phi_3 exactly, not to round-off
    omega = spin_connection_at(StringGeometry(alpha), SpacetimePoint(rho=rho, phi=0.3))
    assert not omega[RHO].any()


@pytest.mark.parametrize("geom,pt", every_point())
def test_spin_connection_generic_pipeline(geom, pt):
    assert np.abs(spin_connection_fd(geom, pt) - spin_connection_at(geom, pt)).max() <= 1e-6


# ------------------------------------------------- Fermi-Walker and total


def accel_for(sh, rho=2.0, geom=REF_GEOM):
    wl = CircularWorldline(geom, rho=rho, xi=math.asinh(sh))
    return proper_acceleration(wl)


def test_fw_connection_tabulated_components():
    accel = accel_for(0.75)
    assert accel[RHO] == pytest.approx(-0.28125, abs=1e-15)
    tau = fw_connection_at(REF_GEOM, REF_PT, accel)
    assert tau[PHI, 1, 3] == pytest.approx(-0.28125, abs=1e-15)  # alpha rho a^rho / c^2
    assert tau[T, 0, 1] == pytest.approx(0.28125, abs=1e-15)
    assert tau[T, 1, 0] == pytest.approx(0.28125, abs=1e-15)
    assert tau[Z, 1, 2] == pytest.approx(-0.28125, abs=1e-15)
    assert tau[Z, 2, 1] == pytest.approx(0.28125, abs=1e-15)
    assert tau[PHI, 3, 1] == pytest.approx(0.28125, abs=1e-15)
    listed = {(T, 0, 1), (T, 1, 0), (Z, 1, 2), (Z, 2, 1), (PHI, 1, 3), (PHI, 3, 1)}
    for idx in np.argwhere(np.abs(tau) > 1e-12):
        assert tuple(idx) in listed


def test_fw_connection_zero_acceleration():
    assert np.abs(fw_connection_at(REF_GEOM, REF_PT, np.zeros(4))).max() == 0.0


def test_total_connection_tabulated_components():
    accel = accel_for(0.75)
    total = total_connection_at(REF_GEOM, REF_PT, accel)
    assert total[PHI, 1, 3] == pytest.approx(-0.78125, abs=1e-15)  # -alpha cosh^2 xi
    assert total[T, 0, 1] == pytest.approx(0.28125, abs=1e-15)  # -a^rho / c^2
    assert total[Z, 1, 2] == pytest.approx(-0.28125, abs=1e-15)


def test_total_connection_at_rest():
    total = total_connection_at(REF_GEOM, REF_PT, accel_for(0.0))
    assert total[PHI, 1, 3] == pytest.approx(-0.5, abs=1e-15)
    assert np.abs(total[T]).max() == 0.0
    assert np.abs(total[Z]).max() == 0.0


@pytest.mark.parametrize("geom,pt", every_point())
def test_raised_index_antisymmetry(geom, pt):
    accel = np.array([0.0, -0.3, 0.0, 0.0])
    for form in (
        spin_connection_at(geom, pt),
        fw_connection_at(geom, pt, accel),
        total_connection_at(geom, pt, accel),
    ):
        raised = np.einsum("mac,cb->mab", form, MINKOWSKI)
        assert np.abs(raised + np.einsum("mab->mba", raised)).max() <= 1e-12


# -------------------------------------------------------------- curvature


@pytest.mark.parametrize("geom,pt", every_point())
def test_riemann_vanishes_off_axis(geom, pt):
    assert np.abs(riemann_at(geom, pt)).max() <= 1e-6


def test_riemann_flat_space():
    assert np.abs(riemann_at(StringGeometry(1.0), SpacetimePoint(rho=1.0))).max() <= 1e-6


@pytest.mark.parametrize("alpha", ALPHAS)
def test_holonomy_deficit_full_loop(alpha):
    deficit = holonomy_deficit_angle(StringGeometry(alpha))
    assert deficit == pytest.approx(2.0 * math.pi * (1.0 - alpha), abs=1e-8)


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_holonomy_deficit_of_coarse_steps(alpha, steps):
    # one step may turn the frame by more than pi; the angle is still unwrapped
    deficit = holonomy_deficit_angle(StringGeometry(alpha), steps=steps)
    assert abs(deficit - 2.0 * math.pi * (1.0 - alpha)) <= 1e-12


# ------------------------------------------------------- modulation hook


def test_phi_modulated_geometry_bounds():
    geom = PhiModulatedGeometry(alpha=0.5, epsilon=0.4, k=1)
    values = [geom.alpha_at(phi) for phi in np.linspace(0, 2 * math.pi, 64)]
    assert min(values) > 0.0 and max(values) <= 1.0
    with pytest.raises(ValueError):
        PhiModulatedGeometry(alpha=0.9, epsilon=0.4)
    with pytest.raises(ValueError):
        PhiModulatedGeometry(alpha=0.5, epsilon=math.nan)


def test_phi_modulated_geometry_is_pointwise():
    geom = PhiModulatedGeometry(alpha=0.5, epsilon=0.4, k=1)
    phi = 0.8
    local = StringGeometry(geom.alpha_at(phi))
    pt = SpacetimePoint(rho=2.0, phi=phi)
    pt_local = SpacetimePoint(rho=2.0, phi=0.0)
    assert np.allclose(spin_connection_at(geom, pt), spin_connection_at(local, pt_local), atol=1e-15)


# -------------------------------------------------- fields over phi arrays


PHI_ARRAY = np.linspace(-2.0, 7.0, 37)
ARRAY_GEOMS = (StringGeometry(0.5), PhiModulatedGeometry(alpha=0.5, epsilon=0.4, k=3))


def test_phi_modulated_alpha_accepts_arrays():
    geom = ARRAY_GEOMS[1]
    values = geom.alpha_at(PHI_ARRAY)
    assert values.shape == PHI_ARRAY.shape
    assert np.array_equal(values, [geom.alpha_at(phi) for phi in PHI_ARRAY])


@pytest.mark.parametrize("geom", ARRAY_GEOMS)
@pytest.mark.parametrize("field", ["spin", "fw", "total", "metric", "christoffel"])
def test_fields_over_phi_array_match_pointwise(geom, field):
    accel = accel_for(0.75, geom=geom)
    fn = {
        "spin": spin_connection_at,
        "fw": lambda g, pt: fw_connection_at(g, pt, accel),
        "total": lambda g, pt: total_connection_at(g, pt, accel),
        "metric": metric_at,
        "christoffel": christoffel_at,
    }[field]
    stacked = np.stack([fn(geom, SpacetimePoint(rho=2.0, phi=phi)) for phi in PHI_ARRAY])
    batch = fn(geom, SpacetimePoint(rho=2.0, phi=PHI_ARRAY))
    # a geometry constant along phi returns its single value, which broadcasts
    expected_shape = stacked.shape if isinstance(geom, PhiModulatedGeometry) else stacked.shape[1:]
    assert batch.shape == expected_shape
    assert np.abs(np.broadcast_to(batch, stacked.shape) - stacked).max() <= 1e-15


def test_tetrad_over_phi_array_matches_pointwise():
    geom = ARRAY_GEOMS[1]
    tet = tetrad_at(geom, SpacetimePoint(rho=2.0, phi=PHI_ARRAY))
    for k, phi in enumerate(PHI_ARRAY):
        one = tetrad_at(geom, SpacetimePoint(rho=2.0, phi=phi))
        assert np.abs(tet.e[k] - one.e).max() <= 1e-15
        assert np.abs(tet.einv[k] - one.einv).max() <= 1e-15


@pytest.mark.parametrize("geom", ARRAY_GEOMS)
def test_scalar_phi_keeps_field_shapes(geom):
    pt = SpacetimePoint(rho=2.0, phi=0.3)
    accel = accel_for(0.75, geom=geom)
    assert metric_at(geom, pt).shape == (4, 4)
    tet = tetrad_at(geom, pt)
    assert tet.e.shape == tet.einv.shape == (4, 4)
    assert christoffel_at(geom, pt).shape == (4, 4, 4)
    assert spin_connection_at(geom, pt).shape == (4, 4, 4)
    assert fw_connection_at(geom, pt, accel).shape == (4, 4, 4)
    assert total_connection_at(geom, pt, accel).shape == (4, 4, 4)
