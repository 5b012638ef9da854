"""Spin-3/2 operators, the anticommuting 4x4 gammas, Pauli matrices, step tables.

Conventions
-----------
* The Sz eigenbasis is ordered (3/2, 1/2, -1/2, -3/2), with hbar = 1.
* Anticommutators are HALVED throughout this package:

      {A, B} = (AB + BA) / 2

  Most texts use the unhalved convention; factors of two in the matrix
  constructions below differ from those references accordingly.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def acomm(a, b):
    """Halved anticommutator (AB + BA)/2."""
    return 0.5 * (a @ b + b @ a)


def _frozen(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


PAULI = _frozen(np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                         dtype=complex))


@dataclass(frozen=True)
class SpinOperators:
    """The three 4x4 spin-3/2 angular momentum matrices (dimensionless)."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

    def __post_init__(self):
        for name in ("sx", "sy", "sz"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


@dataclass(frozen=True)
class CliffordBasis:
    """Five mutually anticommuting Hermitian 4x4 matrices and their rotation
    generators.

    gamma[a] squares to the identity; gammab[a, b] = (1/2i)[gamma_a, gamma_b]
    is Hermitian, traceless and antisymmetric in (a, b).
    """

    gamma: np.ndarray  # (5, 4, 4)
    gammab: np.ndarray  # (5, 5, 4, 4)

    def __post_init__(self):
        object.__setattr__(self, "gamma", _frozen(self.gamma))
        object.__setattr__(self, "gammab", _frozen(self.gammab))


def spin_matrices():
    """Spin-3/2 matrices in the Sz eigenbasis ordered (3/2, 1/2, -1/2, -3/2).

    Standard ladder construction: Sz is diagonal, S+ has matrix elements
    sqrt(s(s+1) - m(m+1)) on the first superdiagonal.
    """
    m = np.array([1.5, 0.5, -0.5, -1.5])
    sz = np.diag(m).astype(complex)
    splus = np.zeros((4, 4), dtype=complex)
    for i in range(1, 4):
        splus[i - 1, i] = np.sqrt(3.75 - m[i] * (m[i] + 1))
    sx = 0.5 * (splus + splus.conj().T)
    sy = (splus - splus.conj().T) / 2j
    return SpinOperators(sx=sx, sy=sy, sz=sz)


def _generators(gamma):
    gammab = np.einsum("aij,bjk->abik", gamma, gamma)
    return (gammab - np.swapaxes(gammab, 0, 1)) / 2j


def gamma_basis(spin):
    """Build the anticommuting quintet from spin matrices.

    gamma_1 = (2/sqrt3){Sy,Sz}, gamma_2 = (2/sqrt3){Sz,Sx},
    gamma_3 = (2/sqrt3){Sy,Sx}, gamma_4 = (1/sqrt3)(Sx^2 - Sy^2),
    gamma_5 = Sz^2 - (5/4) I, with the halved anticommutator.
    """
    sx, sy, sz = spin.sx, spin.sy, spin.sz
    s3 = np.sqrt(3.0)
    gamma = np.stack([
        (2 / s3) * acomm(sy, sz),
        (2 / s3) * acomm(sz, sx),
        (2 / s3) * acomm(sy, sx),
        (1 / s3) * (sx @ sx - sy @ sy),
        sz @ sz - 1.25 * np.eye(4),
    ])
    return CliffordBasis(gamma=gamma, gammab=_generators(gamma))


@lru_cache(maxsize=1)
def default_basis():
    """The shared Sz-ordered CliffordBasis used by downstream modules."""
    return gamma_basis(spin_matrices())


def wedge(u, v, out=None):
    """The rows (k, 10) u_a v_b - u_b v_a, a < b, of the bivectors u ^ v of
    real rows u, v (k, 5): the coefficients of step_table("transport").
    The shapes are the contract; the storage is component-major: each
    product is taken between rows of u.T and v.T, contiguous when u and v
    are transposed (5, k) storage, and the result is the transpose of
    (10, k) rows, written into ``out`` when given (a (10, k) array)."""
    u, v = u.T, v.T
    if out is None:
        out = np.empty((10,) + u.shape[1:])
    lo = 0
    for a in range(4):  # the pairs (a, b > a) fill rows lo .. lo + 3 - a
        np.subtract(u[a] * v[a + 1:], u[a + 1:] * v[a], out=out[lo:lo + 4 - a])
        lo += 4 - a
    return out.T


@lru_cache(maxsize=3)
def step_table(kind):
    """The _linalg.clifford_steps table of the "transport" steps, on the ten
    i gamma_ab = gamma_a gamma_b (a < b, as in wedge), of the "schrodinger"
    steps, on the five -i gamma_a, or of the 2x2 "pauli" steps, on the three
    i sigma_c: the real forms [[Re, -Im], [Im, Re]] of I and those, flattened
    (the real form of a product is the product's)."""
    g = default_basis()
    xs = {"transport": 1j * g.gammab[np.triu_indices(5, 1)], "schrodinger": -1j * g.gamma,
          "pauli": 1j * PAULI}[kind]
    x = np.concatenate([np.eye(xs.shape[-1])[None], xs])
    return _frozen(np.block([[x.real, -x.imag], [x.imag, x.real]]).reshape(len(x), -1))
