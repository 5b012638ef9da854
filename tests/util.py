"""Shared helpers for the test suite: independent oracle constructions."""

import numpy as np

from holostark import acomm, default_basis, gamma_basis
from holostark._linalg import PAULI, dagger
from holostark.algebra import CliffordBasis, _generators
from holostark.connection import gap_norms
from holostark.stark import d_components, d_increment


class NoIntertwiner(Exception):
    """No unitary relates the two matrix bases."""


def unitarize(m):
    """Nearest unitary to m in Frobenius norm (polar factor via SVD)."""
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def canonical_gamma():
    """The explicit block forms of the quintet.

    gamma_i (i=1..3) has i*sigma_i / -i*sigma_i off-diagonal blocks, gamma_4
    is the antidiagonal block identity and gamma_5 = diag(I, -I).  These live
    in a basis permuted relative to the Sz ordering; see basis_intertwiner.
    """
    z = np.zeros((2, 2))
    i2 = np.eye(2)
    gamma = np.zeros((5, 4, 4), dtype=complex)
    for i in range(3):
        gamma[i] = np.block([[z, 1j * PAULI[i]], [-1j * PAULI[i], z]])
    gamma[3] = np.block([[z, i2], [i2, z]])
    gamma[4] = np.block([[i2, z], [z, -i2]])
    return CliffordBasis(gamma=gamma, gammab=_generators(gamma))


def basis_intertwiner(a, b, tol=1e-10):
    """Unitary Q with Q a.gamma[k] Q^dag = b.gamma[k] for all k.

    Solves the stacked linear intertwining system by SVD, unitarizes the
    null vector, and verifies the residual.  Raises NoIntertwiner when the
    two quintets are not unitarily equivalent (e.g. a single generator with
    flipped sign, which changes the product gamma_1...gamma_5).
    """
    eye = np.eye(4)
    rows = [np.kron(eye, ak.T) - np.kron(bk, eye) for ak, bk in zip(a.gamma, b.gamma)]
    system = np.vstack(rows)
    _, _, vh = np.linalg.svd(system)
    q = unitarize(vh[-1].reshape(4, 4))
    residual = max(
        np.abs(q @ ak @ q.conj().T - bk).max() for ak, bk in zip(a.gamma, b.gamma)
    )
    if not residual <= tol:
        raise NoIntertwiner(
            f"no unitary relates the two bases (best residual {residual:.3e})"
        )
    return q


def isotropic_check(e, m_iso, spin):
    """Residual of the spherical-limit identity, per unit field squared.

    For beta = delta/sqrt(3) the traceless part of the quadratic Hamiltonian
    collapses to beta * [(Ehat.S)^2 - (5/4) I] in units of the quadratic
    prefactor.  Returns the max-abs deviation between the two constructions
    evaluated at the unit field direction; anisotropic constants give a
    strictly positive residual.
    """
    e = np.asarray(e, dtype=float)
    ehat = e / np.linalg.norm(e)
    basis = gamma_basis(spin)
    comps = d_components(ehat, m_iso, "quadratic")
    p0 = m_iso.dipole_mev_per_field
    kappa = -(p0 * p0) / m_iso.ionization_meV
    lhs = np.einsum("a,aij->ij", comps[1:] / kappa, basis.gamma)
    es = ehat[0] * spin.sx + ehat[1] * spin.sy + ehat[2] * spin.sz
    rhs = m_iso.beta * (es @ es - 1.25 * np.eye(4))
    return float(np.abs(lhs - rhs).max())


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
    one three-operand einsum, independent of the production matmul; the
    Jacobian columns are the increments of d along the unit vectors."""
    points = np.asarray(points, dtype=float)
    mids = 0.5 * (points[1:] + points[:-1])
    comps = d_components(mids, m, regime)
    norms = gap_norms(comps)
    jac = np.stack([d_increment(mids, np.broadcast_to(u, mids.shape), m, regime)
                    for u in np.eye(3)], axis=-1)
    jde = np.einsum("kai,ki->ka", jac, points[1:] - points[:-1])
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
