"""Spin transport operators along circular orbits: closed form and path-ordered.

The transported spin picks up the operator

    Xi = P exp( -(i/2) integral Omega_{mu a b} Sigma^{ab} U^mu dtau ),

where Omega is the total connection (spin connection plus Fermi-Walker boost
term) and Sigma^{ab} is a Lorentz-generator family.  For the circular orbit
the exponent collapses to Gamma/2 with

    Gamma = eta1 sigma^1 + eta2 (i sigma^2),
    eta1 = -alpha Phi sinh(xi) cosh(xi),   eta2 = -alpha Phi cosh^2(xi),

and gamma^2 = eta1^2 - eta2^2 = -(alpha Phi cosh xi)^2, so gamma is imaginary
and the closed form is evaluated through real trigonometry of
theta = |gamma| = alpha Phi cosh(xi), the spin precession angle.

Sign conventions are load-bearing and pinned by tests, not by taste:

* the spin-half family is Sigma^{0k} = (i/2) sigma^k (boosts, anti-Hermitian)
  and Sigma^{jk} = (1/2) eps^{jkl} sigma^l (rotations, Hermitian), the unique
  normalization for which the circular-orbit exponent reduces exactly to
  Gamma/2 above;
* the Dirac family is -(i/4)[gamma^a, gamma^b] in a chiral basis, scaled so
  its right-handed 2x2 block coincides with the spin-half family entry by
  entry (a (i/2)[gamma, gamma] normalization would double every precession
  angle and cannot reproduce the 2x2 closed form);
* the partner particle sent toward -Phi is transported with the azimuth
  continued to -Phi at a positive time measure, which flips both eta1 and
  eta2.  This writes the partner's spin in the static frame turned by pi
  about frame leg 2, R = ``epr.roty(pi)``, which maps (e1, e3) to
  (-e1, -e3): the frame whose leg 3 points along the partner's motion.
  Transport in the one static frame shared with the first particle, with
  the signed dt/dphi = U^t / U^phi < 0 so that the partner's proper time
  still grows, flips eta2 only, and the two operators are related exactly
  by Xi_-(this module) = R Xi_-(eta2 flipped) R^-1.  At rest (xi = 0) eta1
  vanishes and the two coincide.  The pair-evolution checks compare with
  this module's closed form and with ``epr.final_state_closed_form``, which
  use the same frame, so they cannot tell the two frames apart.

The path-ordered product is one engine function, shared with the
frame-vector transport of :mod:`eprfw.geometry`.  It takes the midpoint
azimuths of the steps in chunks of ``_CHUNK`` and evaluates the generators in
one call per chunk.  Each chunk is a stack of step generators and a repeat
count.  A generator that varies along phi gives one step per azimuth,
repeated once: every step is exponentiated in closed form and the steps are
multiplied by a pairwise tree, later steps on the left (Blelloch, "Prefix
sums and their applications", CMU-CS-90-190 (1990)).  A generator that comes
back with no step axis does not vary along phi (the physical string
geometry on a circular orbit): it is one step repeated over the rest of the
path, evaluated once, and its product is formed by repeated squaring in
floor(log2 N) squarings and one product per set bit of N (cf. Higham, "The
scaling and squaring method for the matrix exponential revisited", SIAM J.
Matrix Anal. Appl. 26 (2005) 1179).  The chunk products are folded in path
order.  The closed form holds because every generator is block diagonal in
traceless 2x2 blocks: one block for spin-half, the two chiral blocks for
Dirac.  The engine also returns the sum of the step generators, which is the
frame-vector rotation angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    _ETA,
    PHI,
    T,
    SpacetimePoint,
    total_connection_at,
)
from .kinematics import CircularWorldline, proper_acceleration

__all__ = [
    "SIGMA1", "SIGMA2", "SIGMA3", "IDENTITY2",
    "REPRESENTATIONS",
    "TransportParams",
    "gamma_matrices",
    "lorentz_generators",
    "transport_params",
    "transport_closed_form",
    "transport_from_connection",
    "chiral_block",
    "wigner_angle",
    "rotation_angle",
]

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

# Row/column index pairs of the diagonal 2x2 blocks of each representation.
_BLOCKS = {"spin-half": ((0, 1),), "dirac": ((0, 1), (2, 3))}

REPRESENTATIONS = tuple(_BLOCKS)

# Largest off-block magnitude that chiral_block accepts as block diagonal.
_OFF_BLOCK_TOL = 1e-8

# Largest error bound theta * 2^-52 on cos and sin of the precession angle
# that transport_params accepts: the loosest transport tolerance checked
# anywhere, the Dirac block's (see check_dirac_chiral_block).
_THETA_ERROR_MAX = 1e-8

# Steps per generator evaluation.  Bounds the per-chunk arrays: a connection
# that varies along phi takes 512 bytes per step for each (4, 4, 4) array.
_CHUNK = 1024

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_j, _i, _k] = -1.0


def gamma_matrices() -> np.ndarray:
    """Dirac matrices gamma^a, shape (4, 4, 4), chiral basis, signature (-+++).

    {gamma^a, gamma^b} = 2 eta^{ab}; built as i times the familiar mostly-plus
    Weyl matrices, which moves the squares to (-1, +1, +1, +1).
    """
    zero = np.zeros((2, 2), dtype=complex)
    g = np.empty((4, 4, 4), dtype=complex)
    g[0] = 1j * np.block([[zero, IDENTITY2], [IDENTITY2, zero]])
    for k, pauli in enumerate((SIGMA1, SIGMA2, SIGMA3), start=1):
        g[k] = 1j * np.block([[zero, pauli], [-pauli, zero]])
    return g


def _build_generators(representation: str) -> np.ndarray:
    """The family of one of :data:`REPRESENTATIONS`; see :func:`lorentz_generators`."""
    if representation == "spin-half":
        sig = np.zeros((4, 4, 2, 2), dtype=complex)
        paulis = (SIGMA1, SIGMA2, SIGMA3)
        for k in range(3):
            sig[0, k + 1] = 0.5j * paulis[k]
            sig[k + 1, 0] = -sig[0, k + 1]
        for j in range(3):
            for k in range(3):
                for ell in range(3):
                    if _EPS3[j, k, ell]:
                        sig[j + 1, k + 1] += 0.5 * _EPS3[j, k, ell] * paulis[ell]
        return sig
    g = gamma_matrices()
    sig = np.zeros((4, 4, 4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            sig[a, b] = -0.25j * (g[a] @ g[b] - g[b] @ g[a])
    return sig


_GENERATORS = {rep: _build_generators(rep) for rep in REPRESENTATIONS}
for _sig in _GENERATORS.values():
    _sig.setflags(write=False)


def lorentz_generators(representation: str = "spin-half") -> np.ndarray:
    """Lorentz-generator family Sigma^{ab}, shape (4, 4, n, n), antisymmetric in (a, b).

    ``spin-half`` gives the 2x2 family described in the module docstring;
    ``dirac`` gives the block-diagonal 4x4 chiral family -(i/4)[g^a, g^b],
    whose right-handed block equals the spin-half family exactly.  The
    families are built once; the returned array is shared and read-only.
    """
    try:
        return _GENERATORS[representation]
    except KeyError:
        raise ValueError(
            f"unknown representation {representation!r}; expected one of {REPRESENTATIONS}"
        ) from None


# ------------------------------------------------------ path-ordered engine


def _split_blocks(a: np.ndarray, blocks) -> np.ndarray:
    """Diagonal 2x2 blocks ``(..., B, 2, 2)`` of matrices ``(..., n, n)``; all else must vanish."""
    idx = np.array(blocks)
    out = a[..., idx[:, :, None], idx[:, None, :]]
    # the blocks are a subset of the entries: equal nonzero counts mean the rest vanishes
    if np.count_nonzero(out) != np.count_nonzero(a):
        raise ValueError(f"generator is not block diagonal in the index pairs {blocks}")
    return out


def _join_blocks(b: np.ndarray, blocks, n: int) -> np.ndarray:
    """Inverse of :func:`_split_blocks`: ``(B, 2, 2)`` blocks into one ``(n, n)`` matrix."""
    idx = np.array(blocks)
    out = np.zeros((n, n), dtype=b.dtype)
    out[idx[:, :, None], idx[:, None, :]] = b
    return out


def _expm_traceless(a: np.ndarray) -> np.ndarray:
    """exp(a) for stacked traceless 2x2 matrices ``a[..., 2, 2]``, in closed form.

    a @ a = s^2 I with s^2 = -det a, so exp(a) = cosh(s) I + (sinh(s)/s) a.
    s = 0 gives I + a, exactly I for a = 0.  Real ``a`` gives a real result.
    """
    s2 = a[..., 0, 1] * a[..., 1, 0] - a[..., 0, 0] * a[..., 1, 1]
    s = np.sqrt(s2.astype(complex))
    out = np.sinc(1j * s / np.pi)[..., None, None] * a  # sinh(s)/s, exactly 1 at s = 0
    cosh = np.cosh(s)
    out[..., 0, 0] += cosh
    out[..., 1, 1] += cosh
    return out if np.iscomplexobj(a) else out.real


def _pair_product(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """``later @ earlier`` for 2x2 matrices stacked with their indices in front, ``x[i, j, ...]``."""
    return later[:, :1] * earlier[:1] + later[:, 1:] * earlier[1:]


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """``n``-th power (``n`` >= 1) of 2x2 matrices ``x[i, j, ...]`` by repeated squaring."""
    out = None
    while True:
        if n & 1:
            out = x if out is None else _pair_product(x, out)
        n >>= 1
        if not n:
            return out
        x = _pair_product(x, x)


def _tree_product(x: np.ndarray) -> np.ndarray:
    """Ordered product ``x[..., -1] @ ... @ x[..., 0]`` of 2x2 matrices ``x[i, j, ..., k]``.

    Each level multiplies neighbouring pairs, later on the left, carrying an
    odd one out.  The matrix indices stay in front, so that each level is
    three elementwise operations over the whole stack (numpy's matmul spends
    one BLAS call on every 2x2 product).
    """
    while x.shape[-1] > 1:
        n = x.shape[-1]
        paired = _pair_product(x[..., 1::2], x[..., : n - 1 : 2])
        x = np.concatenate([paired, x[..., -1:]], axis=-1) if n % 2 else paired
    return x[..., 0]


def _path_ordered(generator, arc: float, steps: int, blocks, n: int):
    """Midpoint-rule product of the path's steps and the sum of their generators.

    The path is the signed azimuth ``arc`` from 0, split into ``steps`` >= 1
    sub-arcs of ``dphi = arc / steps``: step k runs from ``k dphi`` to
    ``(k + 1) dphi``.
    ``generator(phi)`` receives the array of midpoint azimuths of one chunk
    and returns the generators per unit azimuth, ``(..., n, n)`` broadcasting
    to ``(len(phi), n, n)`` and block diagonal in the index pairs ``blocks``.
    A generator with no step axis is one step repeated over the rest of the
    path (see the module docstring), and it is not called again.

    Returns the ``(n, n)`` product, later steps on the left, and the
    ``(B, 2, 2)`` diagonal blocks of the sum of every step's generator times
    ``dphi``.  Raises ``ValueError`` if ``steps`` < 1 or if the product is not
    finite; an overflow in the engine's own arithmetic raises nothing else.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    dphi = arc / steps
    op, total, start = None, 0.0, 0
    while start < steps:
        phi = (np.arange(start, min(start + _CHUNK, steps)) + 0.5) * dphi
        gen = generator(phi)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the finiteness check below reports it
            gen = _split_blocks(gen * dphi, blocks)
            if gen.ndim == 3:  # (B, 2, 2): constant along phi
                stack, repeat = gen[None], steps - start
            else:
                stack, repeat = np.broadcast_to(gen, phi.shape + gen.shape[-3:]), 1
            exps = _expm_traceless(stack).transpose(2, 3, 1, 0)  # exps[i, j, b, k]
            part = _power(_tree_product(exps), repeat).transpose(2, 0, 1)
            op = part if op is None else part @ op
            total = total + repeat * stack.sum(axis=0)
        start += len(stack) * repeat
    if not np.isfinite(op).all():
        raise ValueError("path-ordered product is not finite; the connection overflows on this path")
    return _join_blocks(op, blocks, n), total


@dataclass(frozen=True)
class TransportParams:
    """Closed-form transport parameters for one particle of the pair.

    ``eta1``/``eta2`` carry the particle's orbital sense (both flip for the
    partner sent toward -Phi); ``theta`` = alpha Phi cosh(xi) is the
    sense-independent precession angle.  The module docstring's gamma is
    i theta: gamma^2 = eta1^2 - eta2^2 = -theta^2.  ``eta_plus`` and
    ``eta_minus`` are Gamma's off-diagonal entries eta1 + eta2 = -d theta e^xi
    and eta1 - eta2 = d theta e^-xi, with d the orbital sense, formed as
    these products: the difference of eta1 and eta2, two numbers of size
    theta cosh(xi), would lose all of the small entry's digits at large xi.
    """

    eta1: float
    eta2: float
    theta: float
    eta_plus: float
    eta_minus: float


def _check_azimuth(Phi: float) -> None:
    if not 0.0 <= Phi < math.inf:
        raise ValueError(f"Phi must be finite and non-negative, got {Phi}")


def transport_params(wl: CircularWorldline, Phi: float) -> TransportParams:
    """Transport parameters for sweeping a finite azimuth ``Phi`` >= 0 along ``wl``.

    Raises ``ValueError`` when the entries eta1 +- eta2 of Gamma overflow,
    which large ``Phi`` at large rapidity can make happen, and when theta =
    alpha Phi cosh(xi) is so large that cos(theta/2) and sin(theta/2) carry an
    error bound theta * 2^-52 above ``_THETA_ERROR_MAX``.
    """
    _check_azimuth(Phi)
    alpha = wl.geom.alpha
    ch, sh, ex = math.cosh(wl.xi), math.sinh(wl.xi), math.exp(wl.xi)
    signed = wl.direction * alpha * Phi
    eta1 = -signed * sh * ch
    eta2 = -signed * ch * ch
    # e^xi >= cosh(xi) >= sinh(xi): eta_plus is the largest, and finite only if eta1 and eta2 are
    eta_plus, eta_minus = -signed * ch * ex, signed * ch / ex
    if not math.isfinite(eta_plus):
        raise ValueError(f"transport parameters overflow at alpha={alpha}, xi={wl.xi}, Phi={Phi}")
    theta = float(wigner_angle(alpha, wl.xi, Phi))
    if theta * 2.0**-52 > _THETA_ERROR_MAX:
        raise ValueError(
            f"precession angle too large to evaluate: theta = alpha Phi cosh(xi) = {theta:.3e} "
            f"at alpha={alpha}, xi={wl.xi}, Phi={Phi} (theta * 2^-52 must not exceed {_THETA_ERROR_MAX:g})"
        )
    return TransportParams(eta1=eta1, eta2=eta2, theta=theta, eta_plus=eta_plus, eta_minus=eta_minus)


def _gamma_matrix(params: TransportParams) -> np.ndarray:
    return np.array([[0.0, params.eta_plus], [params.eta_minus, 0.0]], dtype=complex)


def transport_closed_form(params: TransportParams) -> np.ndarray:
    """Closed-form operator Xi = cosh(gamma/2) I + (sinh(gamma/2)/gamma) Gamma.

    gamma is imaginary, so the coefficients are cos(theta/2) and
    sin(theta/2)/theta; the latter is 0.5 sinc(theta / 2 pi), formed in
    ``math`` from the same argument y = pi (theta / 2 pi) as ``np.sinc``,
    whose per-call cost dominates on a scalar.  theta = 0 takes the limit
    0.5, so Xi = I + Gamma/2 there.
    """
    theta = params.theta
    y = math.pi * (theta / (2.0 * math.pi))
    coeff = 0.5 * (math.sin(y) / y) if y else 0.5  # sin(theta/2)/theta
    return math.cos(0.5 * theta) * IDENTITY2 + coeff * _gamma_matrix(params)


def transport_from_connection(
    wl: CircularWorldline,
    Phi: float,
    steps: int,
    representation: str = "spin-half",
    connection_fn=None,
) -> np.ndarray:
    """Path-ordered product of one-step exponentials of the transport generator.

    The arc [0, direction * Phi] is split into ``steps`` uniform sub-arcs;
    on each, the generator is evaluated at the midpoint azimuth and
    exponentiated (exponential midpoint rule: globally second order once the
    generator varies along the path, exact per step when it does not).  The
    product is formed by the array engine described in the module docstring.

    ``connection_fn(geom, pt, accel)`` may replace the total connection; the
    self-check suite uses this to prove that a corrupted connection is caught
    by the end-to-end tests.  It is called once per chunk of up to ``_CHUNK``
    steps with a point whose ``phi`` is the array of the chunk's M midpoint
    azimuths, and must return the connection ``X[..., mu, a, b]`` as an
    array that broadcasts to ``(M, 4, 4, 4)``; a connection that does not
    vary along phi may return a single ``(4, 4, 4)`` array.  Such an array
    is one step with a repeat count over the whole path: the hook is then
    called once, with the first chunk's midpoints.  The connection functions
    of :mod:`eprfw.geometry` all behave this way.  A hook that adds phi0 to
    ``pt.phi`` transports along the arc that starts at phi0 instead.
    Raises ``ValueError`` if ``steps`` < 1 or if the product is not finite.

    The azimuth is continued with its sign, so the partner particle
    (direction = -1) is transported toward -Phi; see the module docstring.

    Accuracy at large rapidity: the generator's entry for eta1 - eta2 is the
    difference of two connection sums of size alpha cosh^2(xi), so each
    entry of the product carries a relative error of up to about
    e^(2 xi) 2^-52.  It is largest in the small entry d e^-xi sin(theta/2):
    7e-3 at xi = 16 with theta = 1 and N = 1024, against 1e-3 on the
    diagonal, while the determinant stays within 1e-13 of 1.  Near xi = 25
    the product can stop being finite.  :func:`transport_closed_form` forms
    that entry as a product and keeps its digits at every admitted xi.
    """
    _check_azimuth(Phi)
    if connection_fn is None:
        connection_fn = total_connection_at
    geom = wl.geom
    sig = lorentz_generators(representation)
    dim = sig.shape[-1]
    sig_flat = sig.reshape(16, dim * dim)
    accel = proper_acceleration(wl)
    ch, sh = math.cosh(wl.xi), math.sinh(wl.xi)

    def generator(phi):
        omega = connection_fn(geom, SpacetimePoint(rho=wl.rho, phi=phi), accel)
        # lower the first frame index: w[mu, a, b] = Omega_{mu a b}
        wab = _ETA[:, None] * omega[..., PHI, :, :]  # dx^phi/dphi = 1 along the continued azimuth
        if accel.any():
            # dx^t/dphi = U^t / U^phi; at rest, and wherever c^2 sinh^2(xi)/rho
            # underflows, the acceleration is zero and the boost rows of Omega
            # vanish identically, so the time leg drops out exactly (U^t / U^phi
            # itself overflows where sinh(xi) is subnormal).
            wab = wab + (_ETA[:, None] * omega[..., T, :, :]) * (geom.alpha * wl.rho * ch / (geom.c * sh))
        lead = wab.shape[:-2]
        return -0.5j * (wab.reshape(lead + (16,)) @ sig_flat).reshape(lead + (dim, dim))

    return _path_ordered(generator, wl.direction * Phi, steps, _BLOCKS[representation], dim)[0]


def chiral_block(d: np.ndarray, which: str = "right") -> np.ndarray:
    """Extract one 2x2 diagonal block of a block-diagonal 4x4 operator.

    Raises if the off-diagonal blocks carry more than 1e-8 in magnitude.
    The ``right`` (lower) block of a Dirac transport is the one that matches
    the spin-half closed form.
    """
    d = np.asarray(d)
    if d.shape != (4, 4):
        raise ValueError(f"expected a 4x4 operator, got shape {d.shape}")
    off = max(np.abs(d[:2, 2:]).max(), np.abs(d[2:, :2]).max())
    if off > _OFF_BLOCK_TOL:
        raise ValueError(f"not block diagonal: off-block magnitude {off:.3e} exceeds {_OFF_BLOCK_TOL:.3e}")
    if which == "left":
        return d[:2, :2].copy()
    if which == "right":
        return d[2:, 2:].copy()
    raise ValueError(f"which must be 'left' or 'right', got {which!r}")


def wigner_angle(alpha, xi, Phi):
    """Spin precession angle theta = alpha * Phi * cosh(xi); the arguments may be arrays that broadcast."""
    return alpha * Phi * np.cosh(xi)


def rotation_angle(op: np.ndarray) -> float:
    """Rotation angle of a real 2x2 rotation-form operator [[c, -s], [s, c]]."""
    return 2.0 * math.atan2(op[1, 0].real, op[0, 0].real)
