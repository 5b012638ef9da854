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

from .algebra import default_basis
from .errors import DegeneratePoint, InvalidInput
from .stark import d_components, d_increment

# points with |d| below this fraction of the largest |d| seen on a path are
# treated as gap closures: 1/d^2 amplifies noise near degeneracy
DEGENERACY_RTOL = 1e-9


def projectors(d):
    """Band projectors (P_plus, P_minus) for a DVector.

    Each is Hermitian, idempotent, rank 2, and they resolve the identity.
    Raises DegeneratePoint when |d| = 0 (gap closed, no band decomposition).
    """
    n = d.norm
    if not n > 0:
        raise DegeneratePoint("zero d-vector: Kramers bands are degenerate")
    nd = np.einsum("a,aij->ij", d.d / n, default_basis().gamma)
    eye = np.eye(4)
    return (eye + nd) / 2, (eye - nd) / 2


def connection_d(d):
    """The five transport generators A_a = +(i/2d^2) d_b gamma_ab, (5, 4, 4).

    Anti-Hermitian, in 1/meV.  Matches the finite-difference commutator
    [dP/d(d_a), P] built from either projector.
    """
    n = d.norm
    if not n > 0:
        raise DegeneratePoint("zero d-vector: transport generator undefined")
    return (0.5j / (n * n)) * np.einsum("b,abij->aij", d.d, default_basis().gammab)


def gap_norms(comps):
    """|d| per row of d_components output; DegeneratePoint if the gap closes
    (|d| not above DEGENERACY_RTOL times the largest |d|), InvalidInput if
    |d| overflows float64."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(comps[..., 1:], axis=-1)
    if not np.all(np.isfinite(norms)):
        raise InvalidInput("field too strong for float64: |d| overflows")
    if not norms.min() > DEGENERACY_RTOL * norms.max():
        raise DegeneratePoint("gap closes: |d| vanishes at a field point")
    return norms


def transport_exponents(points, regime, m):
    """Per-step anti-Hermitian exponents A^i(E_mid) dE_i along a polyline.

    Midpoint evaluation makes the ordered product of their exponentials a
    second-order integrator.  jde = J(E_mid) dE is the step's change of d
    (stark.d_increment); the contraction with the Clifford generators is one
    (k, 25) @ (25, 16) matmul of the bivectors jde_a d_b.  Raises
    DegeneratePoint if the gap closes along the way (see gap_norms).
    """
    points = np.asarray(points, dtype=float)
    mids = 0.5 * (points[1:] + points[:-1])
    comps = d_components(mids, m, regime)
    norms = gap_norms(comps)
    jde = d_increment(mids, points[1:] - points[:-1], m, regime)
    bivector = (jde[:, :, None] * comps[:, None, 1:]).reshape(-1, 25)
    expo = (bivector @ default_basis().gammab.reshape(25, 16)).reshape(-1, 4, 4)
    return (0.5j / (norms * norms))[:, None, None] * expo
