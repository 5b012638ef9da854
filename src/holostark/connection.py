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

Homogeneity and dhat_a A_a = 0 make the transport blind to |d|: it depends
only on the curve dhat(E(t)) on the unit sphere S^4.  Along a great-circle
arc of dhat the generator is constant, and the transport from a = dhat_k to
b = dhat_{k+1} is the rotor R = (1 + b a) / |1 + b a| of Clifford products
of the vectors a.gamma, b.gamma: Kato's direct rotation between the two
band projectors (Kato, J. Phys. Soc. Jpn. 5, 435 (1950)), R (a.gamma) R^dag
= b.gamma.  Its coefficients (1 + a.b)/|a + b| and (b ^ a)/|a + b| go
straight onto the transport step table: no angle, no cos or sinc, and d
only at the path points.  Against the analytic oracles the rotor is as
accurate as the chord-midpoint exponents it replaced (second order; see
holonomy), and exact where dhat follows great circles, as on the straight
chords of a linear-regime path.
"""

import numpy as np

from ._linalg import pow2_exponent, scaled_norm
from .algebra import default_basis, wedge
from .errors import DegeneratePoint, InvalidInput
from .stark import d_components

# points with |d| below this fraction of the largest |d| seen on a path are
# treated as gap closures: near degeneracy the band direction dhat = d/|d|
# turns arbitrarily fast
DEGENERACY_RTOL = 1e-9
# a step whose dhat turns to within sqrt(2e-12) = 1.4e-6 rad of pi (1 + c at
# or below this, c = a.b) has no rotor: the rounding of a and b, 2^-53 a
# component, would leave the plane of its turn uncertain past 1e-10
ANTIPODAL_ATOL = 1e-12


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


def check_chords(samples, m, regime, top):
    """DegeneratePoint if the gap closes on a chord between consecutive
    samples (n, 3): gap_norms of d at each chord's point nearest E = 0, with
    the d_components row top, the largest |d| elsewhere on the path, as the
    scale.  A chord can pass through zero field between its end points,
    where a rotor would step straight across: quadratic d(-E) = d(E)."""
    a, u = samples[:-1], np.diff(samples, axis=0)
    uu = np.einsum("ki,ki->k", u, u)
    t = np.divide(-np.einsum("ki,ki->k", a, u), uu, out=np.zeros_like(uu), where=uu > 0)
    nearest = a + np.clip(t, 0.0, 1.0)[:, None] * u
    gap_norms(np.vstack([top, d_components(nearest, m, regime)]))


def band_directions(comps, norms):
    """The unit vectors dhat = d1..d5 / |d| (k, 5) of d_components rows and
    their gap_norms, stored component-major like d_components."""
    return (comps.T[1:] / norms).T


def transport_exponents(points, regime, m, d=None):
    """Per-step transport rotors along a polyline (k+1, 3), as real rows R
    (k, 11) of R = R_0 I + sum_{a<b} R_ab i gamma_ab on
    algebra.step_table("transport").  The name is kept from the per-step
    exponents these rows replaced: bench/tracing.py finds the function, and
    counts the steps from its rows, under it, so a rename goes with a
    change of the benchmark.

    The step from a = dhat_k to b = dhat_{k+1} is the rotor (1 + b a) /
    |1 + b a|: R_ab = (b ^ a)_ab / |a + b| (algebra.wedge) and R_0 =
    (1 + a.b) / |a + b|, taken as sqrt(1 - |R_ab|^2), a unit row.  It is
    exact on the great-circle arc from a to b, and second order in the step
    along any smooth curve dhat(E); b ^ a = -(a ^ b) to the bit, so the
    reversed step is its exact inverse R^dag.  The shapes are the contract;
    the storage is component-major: the rows are the transpose of (11, k)
    storage, the layout in which they reach _linalg.clifford_steps, and
    points stored as (3, k+1) rows, as FieldPath.points returns them, are
    read row by row.  dhat is homogeneous of degree 0 in E, so the points
    are first scaled by a power of two (_linalg.pow2_exponent), exactly.  A
    caller passing ``d``, the points' band_directions, has evaluated them
    and checked the chords itself.  DegeneratePoint if the gap closes at a
    point or on a chord (check_chords); InvalidInput if a step turns dhat
    by nearly pi (1 + a.b <= ANTIPODAL_ATOL), naming the step by the
    directions of its field points."""
    points = np.asarray(points, dtype=float)
    if d is None:
        scaled = np.ldexp(points, -pow2_exponent(points))
        comps = d_components(scaled, m, regime)
        norms = gap_norms(comps)
        check_chords(scaled, m, regime, comps[np.argmax(norms)])
        d = band_directions(comps, norms)
    a, b = d.T[:, :-1], d.T[:, 1:]
    h = a + b
    hh = np.einsum("ak,ak->k", h, h)  # |1 + b a|^2 = |a + b|^2 = 2 (1 + a.b)
    if not hh.min(initial=np.inf) > 2 * ANTIPODAL_ATOL:
        j = int(np.argmin(hh))
        ends = np.ldexp(points[j:j + 2], -pow2_exponent(points[j:j + 2]))
        ends /= np.linalg.norm(ends, axis=1)[:, None]
        raise InvalidInput("a step turns the band direction dhat by nearly pi, from E "
                           "along ({:.4g}, {:.4g}, {:.4g}) to ({:.4g}, {:.4g}, {:.4g}): "
                           "refine the path".format(*ends.ravel()))
    rows = np.empty((11, h.shape[1]))
    np.divide(wedge(b.T, a.T).T, np.sqrt(hh), out=rows[1:])
    # R_0 = sqrt(1 - |R_ab|^2) rounds, near 1, as cos does: the row's norm
    # does not follow the rounding of the path points, which (1 + a.b)/|a + b|
    # would pass on to a loop's unitarity defect
    np.sqrt(1.0 - np.einsum("jk,jk->k", rows[1:], rows[1:]), out=rows[0])
    return rows.T
