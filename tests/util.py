"""Shared helpers for the test suite: independent oracle constructions."""

import itertools
import math

import numpy as np

from holostark import acomm, default_basis, gamma_basis
from holostark._linalg import (blocked_product, clifford_steps, complex_block, dagger,
                               exp_coefficients, ordered_product, pow2_exponent)
from holostark.algebra import PAULI, CliffordBasis, _generators, step_table
from holostark.connection import gap_norms
from holostark.stark import d_components
from holostark.units import HBAR_MEV_S


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


def clifford_exp(x):
    """exp(X) = cos(theta) I + sin(theta)/theta X for stacked anti-Hermitian
    n x n X with X^2 = -theta^2 I, so theta = ||X||_F / sqrt(n) (Hestenes &
    Sobczyk 1984).  Unitary at any step size; exactly I at theta = 0."""
    n = x.shape[-1]
    theta = np.linalg.norm(x, axis=(-2, -1)) / np.sqrt(n)
    return (np.cos(theta)[..., None, None] * np.eye(n)
            + np.sinc(theta / np.pi)[..., None, None] * x)


def triangle_product(theta, phi, rows):
    """Product (..., 2, 2) of exp(i v . sigma) over four factor rows v, first
    to last, each row three scalars or arrays: the reference for the
    triangle oracles' own row builders."""
    vs = np.zeros((4,) + np.broadcast(theta, phi).shape + (3,))  # factor axis first
    for k, c in itertools.product(range(4), range(3)):
        vs[k, ..., c] = rows[k][c]
    return complex_block(ordered_product(clifford_steps(step_table("pauli"),
                                                        exp_coefficients(vs))))


def d_increment(e, de, m, regime):
    """J(e) de for d_1..d_5 (..., 5) of points e, de (..., 3): 2 B(e, de) in
    the quadratic regime, d(de) in the linear one.  At the chord midpoint
    e = (a + b)/2 with de = b - a it is exactly d(b) - d(a), free of the
    cancellation of that difference: the increment of the midpoint scheme."""
    e, de = np.asarray(e, dtype=float), np.asarray(de, dtype=float)
    if regime == "quadratic":
        return 2.0 * quadratic_form_point_major(e, de, m)[..., 1:]
    return d_components_point_major(de, m, regime)[..., 1:]


def midpoint_exponents_einsum(points, regime, m):
    """Per-step exponents A^i(E_mid) dE_i = (i / 2|d|^2) jde_a d_b gamma_ab of
    the midpoint scheme, the transport before the rotor, built with one
    three-operand einsum; the Jacobian columns are the increments of d
    along the unit vectors."""
    points = np.asarray(points, dtype=float)
    mids = 0.5 * (points[1:] + points[:-1])
    comps = d_components(mids, m, regime)
    norms = gap_norms(comps)
    jac = np.stack([d_increment(mids, np.broadcast_to(u, mids.shape), m, regime)
                    for u in np.eye(3)], axis=-1)
    jde = np.einsum("kai,ki->ka", jac, points[1:] - points[:-1])
    expo = np.einsum("ka,kb,abij->kij", jde, comps[:, 1:], default_basis().gammab)
    return (0.5j / (norms * norms))[:, None, None] * expo


def rotors_complex(points, regime, m):
    """The per-step rotors (1 + B A) / |1 + B A| (k, 4, 4) of the polyline,
    A = dhat_k . gamma and B = dhat_{k+1} . gamma, as complex matrix
    products, independent of the wedge and the step table.  The scalar part
    is then taken as sqrt(1 - |Q|^2) from the bivector part Q, whose
    Frobenius norm is 2 |Q|, as the per-step transport rows took it."""
    comps = d_components(np.asarray(points, dtype=float), m, regime)
    dhat = comps[:, 1:] / gap_norms(comps)[:, None]
    g = np.einsum("ka,aij->kij", dhat, default_basis().gamma)
    r = np.eye(4) + g[1:] @ g[:-1]
    bivector = r - (np.trace(r, axis1=1, axis2=2).real / 4)[:, None, None] * np.eye(4)
    bivector /= np.linalg.norm(dhat[1:] + dhat[:-1], axis=1)[:, None, None]
    scalar = np.sqrt(1.0 - (np.linalg.norm(bivector, axis=(1, 2)) / 2) ** 2)
    return bivector + scalar[:, None, None] * np.eye(4)


def pair_rotors_complex(points, regime, m):
    """The transport rotors of each pair of steps a -> b -> c (ceil(k/2), 4,
    4) of the polyline, (1 + C B)(1 + B A) / (|a + b||b + c|) with A =
    a . gamma, as complex matrix products, independent of the wedge and the
    step table; an odd step count pads its last pair with c = b."""
    comps = d_components(np.asarray(points, dtype=float), m, regime)
    dhat = comps[:, 1:] / gap_norms(comps)[:, None]
    if len(dhat) % 2 == 0:
        dhat = np.vstack([dhat, dhat[-1:]])
    a, b, c = dhat[:-1:2], dhat[1::2], dhat[2::2]
    ga, gb, gc = (np.einsum("ka,aij->kij", x, default_basis().gamma) for x in (a, b, c))
    eye = np.eye(4)
    r = (eye + gc @ gb) @ (eye + gb @ ga)
    return r / (np.linalg.norm(a + b, axis=1) * np.linalg.norm(b + c, axis=1))[:, None, None]


def quadratic_form_point_major(e, f, m):
    """The bilinear form B(e, f) (..., 6) of points e, f (..., 3), written
    into C-ordered (..., 6) rows through strided component views: the
    point-major reference for stark._quadratic_form."""
    p0 = m.dipole_mev_per_field
    kappa = -(p0 * p0) / m.ionization_meV
    hd = 0.5 * kappa * m.delta
    ex, ey, ez = np.moveaxis(e, -1, 0)
    fx, fy, fz = np.moveaxis(f, -1, 0)
    xx, yy, zz = ex * fx, ey * fy, ez * fz
    out = np.empty(e.shape[:-1] + (6,))
    out[..., 0] = kappa * m.alpha * (xx + yy + zz)
    out[..., 1] = hd * ez * fy + hd * fz * ey
    out[..., 2] = hd * ez * fx + hd * fz * ex
    out[..., 3] = hd * ex * fy + hd * fx * ey
    out[..., 4] = kappa * (math.sqrt(3.0) / 2.0) * m.beta * (xx - yy)
    out[..., 5] = kappa * 0.5 * m.beta * (2 * zz - xx - yy)
    return out


def d_components_point_major(e, m, regime):
    """d_components of points e (..., 3) as C-ordered rows (..., 6), with
    the same 2^-k scaling below 0.5 V/m; no range checks."""
    e = np.asarray(e, dtype=float)
    if regime == "linear":
        out = np.zeros(e.shape[:-1] + (6,))
        out[..., 1:4] = m.dipole_mev_per_field * m.chi * e
        return out
    k = pow2_exponent(e)
    if k < 0:
        scaled = np.ldexp(e, -k)
        return np.ldexp(quadratic_form_point_major(scaled, scaled, m), 2 * k)
    return quadratic_form_point_major(e, e, m)


def midpoint_rows(points, regime, m):
    """The per-step exponent rows B (k, 10) of the midpoint scheme, the
    transport before the rotor, by the point-major chain: C-ordered points
    scaled by one power of two, their midpoints, d rows and |d|, the
    increments 2 B(E_mid, dE) (linear: d(dE)), and B = (0.5/|d|^2) jde ^ d
    gathered with fancy indexing, which leaves the rows column-ordered.
    exp_coefficients of them gives that scheme's steps, with the bits its
    Wilson loop had: the second-order accuracy reference for the rotor."""
    points = np.ascontiguousarray(points, dtype=float)
    points = np.ldexp(points, -pow2_exponent(points))
    mids = 0.5 * points[1:] + 0.5 * points[:-1]
    comps = d_components_point_major(mids, m, regime)
    norms = gap_norms(comps)
    jde = (0.5 / (norms * norms))[:, None] * d_increment(mids, points[1:] - points[:-1],
                                                         m, regime)
    a, b = np.triu_indices(5, 1)
    return jde[:, a] * comps[:, 1 + b] - jde[:, b] * comps[:, 1 + a]


def midpoint_loop(path, regime, m, steps):
    """The full 4x4 transport of the midpoint scheme around a path."""
    rows = midpoint_rows(path.points(steps), regime, m)
    return blocked_product(len(rows), step_table("transport"),
                           lambda lo, hi, out: exp_coefficients(rows[lo:hi], out=out))


def _sum_left(x):
    """x[:, 0] + x[:, 1] + ... summed left to right, as einsum sums the
    component rows of (n, k) storage."""
    out = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        out += x[:, j]
    return out


def rotor_rows_point_major(points, regime, m):
    """The per-step rotor rows (k, 11) of a polyline by the point-major
    chain: C-ordered points scaled by one power of two, their d rows, |d|
    and dhat, the wedge b ^ a gathered with fancy indexing over |a + b|,
    and sqrt(1 - |R_ab|^2), sums taken left to right.  one_product of them
    has the bits of the Wilson loop's per-step product before it took one
    row per pair of steps: the reference the pair rows are bounded by."""
    points = np.ascontiguousarray(points, dtype=float)
    comps = d_components_point_major(np.ldexp(points, -pow2_exponent(points)), m, regime)
    dhat = comps[:, 1:] / gap_norms(comps)[:, None]
    a, b = dhat[:-1], dhat[1:]
    h = a + b
    i, j = np.triu_indices(5, 1)
    w = (b[:, i] * a[:, j] - b[:, j] * a[:, i]) / np.sqrt(_sum_left(h * h))[:, None]
    return np.column_stack([np.sqrt(1.0 - _sum_left(w * w)), w])


def pair_rows_point_major(points, regime, m):
    """The pair rows (ceil(k/2), 11) of transport_exponents by the
    point-major chain: C-ordered points scaled by one power of two, their d
    rows, |d| and dhat, the last repeated at an odd step count, the sums h
    of consecutive dhat and |h|^2, and for each pair's p, q (h of its two
    steps) the row [q . p, q ^ p gathered with fancy indexing] over
    sqrt(|p|^2 |q|^2), sums taken left to right.  Every entry is the same
    chain of IEEE operations as in transport_exponents, so one_product of
    them has the Wilson loop's bits."""
    points = np.ascontiguousarray(points, dtype=float)
    comps = d_components_point_major(np.ldexp(points, -pow2_exponent(points)), m, regime)
    dhat = comps[:, 1:] / gap_norms(comps)[:, None]
    if len(dhat) % 2 == 0:
        dhat = np.vstack([dhat, dhat[-1:]])
    h = dhat[:-1] + dhat[1:]
    hh = _sum_left(h * h)
    p, q = h[0::2], h[1::2]
    i, j = np.triu_indices(5, 1)
    rows = np.column_stack([_sum_left(q * p), q[:, i] * p[:, j] - q[:, j] * p[:, i]])
    return rows / np.sqrt(hh[0::2] * hh[1::2])[:, None]


def propagate_point_major(drive, regime, m, block):
    """dynamics._propagate of the drive's checked steps by the point-major
    chain: one_product of the C-ordered rows (dt/hbar) d1..d5, with the
    angles (dt/hbar)|d|, applied to block."""
    pts = np.ascontiguousarray(drive.path.points(drive.time_steps))
    comps = d_components_point_major(0.5 * pts[1:] + 0.5 * pts[:-1], m, regime)
    scale = drive.total_time / len(comps) / HBAR_MEV_S
    return one_product(step_table("schrodinger"), exp_coefficients(
        scale * comps[:, 1:], scale * gap_norms(comps))) @ block


def transport_matrices(rows):
    """The complex matrices (k, 4, 4) of transport rows by einsum: the
    bivectors sum_{a<b} B_ab i gamma_ab of exponent rows B (k, 10), or
    R_0 I + sum_{a<b} R_ab i gamma_ab of the rotor rows R (k, 11) of
    transport_exponents."""
    a, b = np.triu_indices(5, 1)
    rows = np.asarray(rows)
    out = np.einsum("kp,pij->kij", rows[:, -10:], 1j * default_basis().gammab[a, b])
    if rows.shape[1] == 11:
        out += rows[:, 0, None, None] * np.eye(4)
    return out


def one_product(table, coef):
    """The complex n x n of one ordered_product over all real-form steps of
    the coefficient rows coef."""
    r = ordered_product(clifford_steps(table, coef))
    n = r.shape[-1] // 2
    return r[:n, :n] + 1j * r[n:, :n]


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
