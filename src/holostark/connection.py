"""Band projectors and the adiabatic transport gauge field.

For H = d0*I + d_a gamma_a the band projectors are

    P_pm = (1 pm dhat_a gamma_a) / 2

and the generator of adiabatic transport along a change of d is the
commutator of the projector with its differential,

    A_a = [dP/d(d_a), P] = +(i / 2 d^2) d_b gamma_ab ,

identical for either projector.  A_a is anti-Hermitian, so its path-ordered
exponential is unitary; it is purely off-band (P_pm A_a P_pm = 0), is
homogeneous of degree -1 in d, and annihilates radial moves (dhat_a A_a = 0).

A frequently quoted Hermitian variant i[dP, P] differs by a factor of i and
cannot be exponentiated to a unitary; this package transports with [dP, P]
itself, the convention singled out by the time-dependent Schrodinger oracle
(see dynamics) and by the Berry-phase limit.

transport_exponents pulls them back to electric-field space one path step
at a time: a step from a to b changes d by J(E_mid) dE = d(b) - d(a), which
stark.d_increment takes from the same bilinear form as d itself.
"""

import numpy as np

from ._linalg import pow2_exponent, scaled_norm
from .algebra import default_basis, wedge
from .errors import DegeneratePoint, InvalidInput
from .stark import d_components, d_increment

# points with |d| below this fraction of the largest |d| seen on a path are
# treated as gap closures: 1/d^2 amplifies noise near degeneracy
DEGENERACY_RTOL = 1e-9


def projectors(d):
    """Band projectors (P_plus, P_minus) for the d_components row d = (d0,
    d1..d5) of one field point.

    Each is Hermitian, idempotent, rank 2, and they resolve the identity.
    Raises DegeneratePoint when |d| = 0 (gap closed, no band decomposition).
    """
    n = float(scaled_norm(d[1:]))
    if not n > 0:
        raise DegeneratePoint("zero d-vector: Kramers bands are degenerate")
    nd = np.einsum("a,aij->ij", d[1:] / n, default_basis().gamma)
    eye = np.eye(4)
    return (eye + nd) / 2, (eye - nd) / 2


def connection_d(d):
    """The five transport generators A_a = +(i/2d^2) d_b gamma_ab, (5, 4, 4),
    at the d_components row d.

    Anti-Hermitian, in 1/meV.  Matches the finite-difference commutator
    [dP/d(d_a), P] built from either projector.
    """
    n = float(scaled_norm(d[1:]))
    if not n > 0:
        raise DegeneratePoint("zero d-vector: transport generator undefined")
    return (0.5j / (n * n)) * np.einsum("b,abij->aij", d[1:], default_basis().gammab)


def gap_norms(comps):
    """|d| per row of d_components output, exact to rounding at any scale
    (_linalg.scaled_norm); DegeneratePoint if the gap closes (|d| not above
    DEGENERACY_RTOL times the largest |d|), InvalidInput if |d| overflows."""
    norms = scaled_norm(comps[..., 1:], axis=-1)
    if not np.all(np.isfinite(norms)):
        raise InvalidInput("field too strong for float64: |d| overflows")
    if not norms.min() > DEGENERACY_RTOL * norms.max():
        raise DegeneratePoint("gap closes: |d| vanishes at a field point")
    return norms


def transport_exponents(points, regime, m, d=None):
    """Per-step exponents X = A^i(E_mid) dE_i along a polyline (k+1, 3), as
    real rows B (k, 10) of X = sum_{a<b} B_ab i gamma_ab (algebra.step_table).

    The shapes are the contract; the storage is component-major.  The rows
    are the transpose of (10, k) storage (algebra.wedge), the layout in
    which they reach _linalg.clifford_steps, and points stored as (3, k+1)
    rows, as FieldPath.points returns them, are read row by row.
    Midpoint evaluation makes the ordered product of their exponentials a
    second-order integrator.  With jde = J(E_mid) dE, the step's change of d
    (stark.d_increment), B = (0.5/|d|^2) jde ^ d (algebra.wedge): a simple
    bivector, so X^2 = -|B|^2 I.  B is homogeneous of degree 0 in E, so the
    points are first scaled by a power of two (_linalg.pow2_exponent),
    exactly; a caller passing ``d``, the midpoints with their
    (d_components, gap_norms), has scaled them itself, as one scale must
    serve d and jde.  DegeneratePoint if the gap closes."""
    points = np.asarray(points, dtype=float)
    if d is None:
        points = np.ldexp(points, -pow2_exponent(points))
        mids = 0.5 * points[1:] + 0.5 * points[:-1]
        comps = d_components(mids, m, regime)
        norms = gap_norms(comps)
    else:
        mids, comps, norms = d
    jde = (0.5 / (norms * norms)) * d_increment(mids, points[1:] - points[:-1], m,
                                                regime).T
    return wedge(jde.T, comps[:, 1:])
