"""Shared helpers for the test suite: independent oracle constructions."""

import numpy as np

from holostark import acomm, default_basis
from holostark._linalg import dagger
from holostark.connection import gap_norms
from holostark.stark import d_components, d_jacobian


def expm_antiherm(a):
    """exp(A) for anti-Hermitian A (stacked ok), via eigendecomposition of iA.

    Independent of the closed-form Clifford kernel, so the tests use it as
    the reference exponential.
    """
    h = 1j * np.asarray(a)
    h = 0.5 * (h + dagger(h))
    w, v = np.linalg.eigh(h)
    return np.einsum("...ik,...k,...jk->...ij", v, np.exp(-1j * w), np.conj(v))


def transport_exponents_einsum(points, regime, m):
    """Per-step transport exponents (i / 2|d|^2) jde_a d_b gamma_ab built with
    one three-operand einsum, independent of the production matmul."""
    points = np.asarray(points, dtype=float)
    mids = 0.5 * (points[1:] + points[:-1])
    comps = d_components(mids, m, regime)
    norms = gap_norms(comps)
    jde = np.einsum("kai,ki->ka", d_jacobian(mids, m, regime), points[1:] - points[:-1])
    expo = np.einsum("ka,kb,abij->kij", jde, comps[:, 1:], default_basis().gammab)
    return (0.5j / (norms * norms))[:, None, None] * expo


def d_dot_gamma_einsum(comps):
    """The stack d . gamma (k, 4, 4) from d-components (k, 6), by einsum."""
    return np.einsum("ka,aij->kij", comps[:, 1:], default_basis().gamma)


def random_unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_su2(rng):
    """Haar-random SU(2) element."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.sqrt(np.linalg.det(q).astype(complex))


def quadratic_hamiltonian_direct(e, m, spin):
    """Quadratic Stark Hamiltonian built term by term from spin matrices,
    independent of the d-vector decomposition."""
    sx, sy, sz = spin.sx, spin.sy, spin.sz
    ex, ey, ez = e
    e2 = ex**2 + ey**2 + ez**2
    p0 = m.dipole_mev_per_field
    pref = -(p0 * p0) / m.ionization_meV
    eye = np.eye(4)
    h = m.alpha * e2 * eye
    h = h + m.beta * (ex**2 * sx @ sx + ey**2 * sy @ sy + ez**2 * sz @ sz
                      - 1.25 * e2 * eye)
    h = h + (2 / np.sqrt(3)) * m.delta * (ey * ez * acomm(sy, sz)
                                          + ez * ex * acomm(sz, sx)
                                          + ex * ey * acomm(sx, sy))
    return pref * h


def linear_hamiltonian_direct(e, m, spin):
    """Linear Stark Hamiltonian built term by term from spin matrices."""
    sx, sy, sz = spin.sx, spin.sy, spin.sz
    ex, ey, ez = e
    p = m.dipole_mev_per_field
    return (2 * p * m.chi / np.sqrt(3)) * (
        ex * acomm(sy, sz) + ey * acomm(sz, sx) + ez * acomm(sx, sy))
