"""Spin transport around the string: closed form, path ordering, precession.

Shows that the path-ordered product of one-step exponentials built from the
total connection lands on the closed-form operator, that the same transport
in the 4x4 Dirac representation reduces to the 2x2 operator on one chiral
block, and that the precession angle of the transported spin is
theta = alpha * Phi * cosh(xi).

On the string the generator is the same at every azimuth, so every
integrator step is exact.  The convergence order is therefore shown on a
generator that varies along phi: the total connection plus 0.4 sin(phi)
times the spin connection, passed to the integrator through its
``connection_fn`` hook.  Its steps do not commute.

Run:  python demos/transport_and_wigner.py
"""

import math

import numpy as np

from eprfw import (
    CircularWorldline,
    StringGeometry,
    chiral_block,
    transport,
    transport_closed_form,
    transport_params,
    verify,
    wigner_angle,
)
from eprfw.transport import rotation_angle

geom = StringGeometry(alpha=0.5)
wl = CircularWorldline(geom, rho=2.0, xi=math.asinh(0.75))
Phi = math.pi

params = transport_params(wl, Phi)
print(f"orbit: alpha = 0.5, sinh(xi) = 0.75, swept azimuth Phi = pi")
print(f"  eta1 = {params.eta1:+.12f}   (boost leg)")
print(f"  eta2 = {params.eta2:+.12f}   (rotation leg)")
print(f"  theta = alpha Phi cosh(xi) = {params.theta:.12f} = {params.theta / math.pi:.4f} pi")

closed = transport_closed_form(params)
print("\nclosed-form operator (real entries):")
print(np.array2string(closed.real, precision=12))
print(f"  det = {np.linalg.det(closed).real:+.12f}")
print(f"  unitarity defect |Xi' Xi - I| = {np.abs(closed.conj().T @ closed - np.eye(2)).max():.3f}"
      "  (boosted transport is not unitary)")

num = transport.transport_from_connection(wl, Phi, steps=256)
print(f"\npath-ordered product, N = 256 steps: max deviation {np.abs(num - closed).max():.2e}")

dirac = transport.transport_from_connection(wl, Phi, steps=2048, representation="dirac")
block = chiral_block(dirac, "right")
print(f"Dirac transport, right chiral block vs 2x2: {np.abs(block - closed).max():.2e}")

print("\nat rest (xi = 0) the operator is a pure rotation by alpha * Phi:")
for alpha in (0.25, 0.5, 1.0):
    rest = CircularWorldline(StringGeometry(alpha), rho=1.0, xi=0.0)
    op = transport_closed_form(transport_params(rest, Phi))
    print(
        f"  alpha = {alpha:4.2f}: extracted angle {rotation_angle(op):+.10f}"
        f"   wigner angle {wigner_angle(alpha, 0.0, Phi):+.10f}"
    )
full_loop = transport_closed_form(
    transport_params(CircularWorldline(StringGeometry(1.0), 1.0, 0.0), 2 * math.pi)
)
print(f"  full flat loop: Xi = -I (spinor double cover), max |Xi + I| = {np.abs(full_loop + np.eye(2)).max():.2e}")

print("\nconvergence study on the phi-modulated generator (second-order midpoint product")
print("against the fourth-order Richardson reference (4 X(2048) - X(1024)) / 3):")
previous = None
for n, err in zip((16, 32, 64, 128, 256, 512, 1024), verify.convergence_errors()):
    ratio = "" if previous is None else f"   ratio {previous / err:4.2f}"
    print(f"  N = {n:5d}: error {err:.3e}{ratio}")
    previous = err
