"""The battery's own exponential oracle, against 40-digit arithmetic and scipy."""

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from eprfw import transport, verify
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
