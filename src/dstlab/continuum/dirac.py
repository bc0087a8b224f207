"""Gamma-matrix conventions for the Minkowski-space correspondence.

Everything downstream assumes the signature (+, -, -, -) and the Dirac
representation

    gamma^0 = diag(1, 1, -1, -1),    gamma^i = [[0, sigma_i], [-sigma_i, 0]],

so that gamma^0 is Hermitian, the spatial matrices are anti-Hermitian, and
the spin scalar product <u|v> = u^dag gamma^0 v has signature (2, 2) -- the
same (+,+,-,-) block structure as a two-particle point space in the discrete
setting.  For grid experiments in 1+1 dimensions we use the 2x2 pair
gamma^0 = sigma_3, gamma^1 = i sigma_2, which obeys the same Clifford
relations with metric diag(1, -1).
"""

import numpy as np

from ..core import indefinite_adjoint

METRIC4 = np.diag([1.0, -1.0, -1.0, -1.0])

_SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_Z2 = np.zeros((2, 2), dtype=complex)
_SPIN_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])  # = diag(gamma^0): an n = 2 point block

GAMMA4 = np.stack(
    [np.diag(_SPIN_SIGNS).astype(complex)]
    + [np.block([[_Z2, s], [-s, _Z2]]) for s in _SIGMA]
)

# 1+1 dimensional pair: gamma^0 = sigma_3, gamma^1 = i sigma_2.
GAMMA2 = np.stack([_SIGMA[2], 1j * _SIGMA[1]])


def minkowski_square(v):
    """v.v with signature (+, -, -, ...) for a real or complex vector."""
    v = np.asarray(v)
    return v[0] * v[0] - np.sum(v[1:] * v[1:])


def slash4(v):
    """Contraction v_mu gamma^mu in 3+1 dimensions (lower index via metric)."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (4,):
        raise ValueError(f"expected a 4-vector, got shape {v.shape}")
    return v[0] * GAMMA4[0] - v[1] * GAMMA4[1] - v[2] * GAMMA4[2] - v[3] * GAMMA4[3]


def slash2(v):
    """Contraction v_mu gamma^mu in 1+1 dimensions."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {v.shape}")
    return v[0] * GAMMA2[0] - v[1] * GAMMA2[1]


def spin_adjoint(mat):
    """Adjoint with respect to <u|v> = u^dag gamma^0 v, of a 4x4 matrix or a stack."""
    return indefinite_adjoint(np.asarray(mat, dtype=complex), _SPIN_SIGNS)
