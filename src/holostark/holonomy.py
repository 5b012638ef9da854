"""Closed field loops, the path-ordered transport integrator, and analytic
cross-checks.

Path ordering is later-to-the-left throughout: the loop transport is

    U = R_N ... R_2 R_1 = P_M ... P_1,   P_j = R_{2j} R_{2j-1},   M = ceil(N/2)

with R_k the exact rotor from the band direction dhat at point k - 1 to the
one at point k: the transport along the great-circle arc between them,
which maps one band projector exactly onto the next.  Each row of
connection.transport_exponents is one pair P_j, the last one padded with
R_{N+1} = I at an odd N.  Each P_j is unitary to roundoff, and so is U; discretization
error, from replacing the curve dhat(E(t)) by great-circle arcs between its
points, shows up as a second-order difference between refinements, not as
unitarity loss or leakage between the bands.  Where dhat does follow great
circles, as along the straight chords of a linear-regime sampled path, U is
exact at any step count.  Against the analytic oracles below, on the
octant and nine seeded triangles, the worst eigenphase error against
zee_holonomy at 800 / 5 000 / 20 000 steps is 1.4e-5 / 3.7e-7 / 2.3e-8, the
same to three figures per step and per pair of steps.  Corners of piecewise
paths are plain C0 junctions -- segment products with no extra factor --
since the bounded connection contributes nothing from a corner in the
fine-step limit.

Band blocks are reported in a deterministic orthonormal frame of the
basepoint projectors.  Blocks from different frames are never compared
entry-wise; comparisons use conjugation-invariant eigenphases or the
phase-blind fidelity |tr(u^dag v)| / 2.

Two analytic oracles cover special cases:

* linear regime, constant |E|: per-step 2x2 increments
  (i / 2|E|^2) sigma . (dE x E), whose ordered product is the closed-form
  holonomy (both band blocks share its eigenphases);
* spherical quadratic model (beta = delta/sqrt3): the three-exponential
  product ``zee_holonomy`` for meridian-arc-meridian triangles, describing
  the band that carries the spin-projection +-1/2 doublet (see
  ``half_spin_band``).

Their factors exp(i v . sigma), and those of ``linear_stark_holonomy``, are
real rows v whose exponentials (``_linalg.exp_coefficients``) are built by
the Wilson loop's own kernel, ``_linalg.clifford_steps``, on the "pauli"
table: the triangles' four factors, on any batch of angles, in one
``ordered_product``, and the per-step increments through ``blocked_product``.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from ._linalg import (blocked_product, clifford_steps, complex_block, dagger,
                      exp_coefficients, ordered_product, pow2_exponent, projector_frame,
                      require_unitary, unitarity_defect)
from .algebra import step_table
from .connection import band_directions, projectors, transport_exponents
from .errors import (InvalidAngle, InvalidInput, NonPositiveMagnitude, NotClosed,
                     NotConstantMagnitude, is_finite_number, is_number_tree)
from .stark import d_components

DEFAULT_STEPS = 20000
MIN_STEPS = 100
CLOSURE_RTOL = 1e-9  # largest endpoint gap of a closed path, relative to |E|

# each kind of path: {key of its JSON description: FieldPath field it sets}
_PATH_KEYS = {"spherical_triangle": {"theta": "theta", "phi": "phi",
                                     "magnitude_V_per_m": "magnitude"},
              "latitude_loop": {"theta": "theta", "magnitude_V_per_m": "magnitude"},
              "sampled": {"samples": "samples"}}


@dataclass(frozen=True)
class FieldPath:
    """A closed, piecewise-smooth curve in electric-field space.

    Built-in kinds (spherical_triangle, latitude_loop) keep |E| = magnitude
    constant and take exactly max(steps, 3) steps, shared among their smooth
    segments by length; sampled paths split each segment into
    ceil(steps / segments) equal substeps, so at steps <= segments the
    samples come back unchanged.  Construction makes the checks of
    make_spherical_triangle, make_latitude_loop and sampled_path, with
    their messages.  A kind takes the fields _PATH_KEYS lists for it, and
    leaves the others at their defaults; a sampled path's magnitude is the
    mean |E| of its samples, so None or exactly that value must be given.
    """

    kind: str
    magnitude: float = None
    theta: float = 0.0
    phi: float = 0.0
    samples: np.ndarray = None

    def __post_init__(self):
        if self.kind not in _PATH_KEYS:
            raise InvalidInput(f"unknown path kind {self.kind!r}")
        t, taken = self.theta, _PATH_KEYS[self.kind].values()
        if self.samples is not None and "samples" not in taken:
            raise InvalidInput(f"only a sampled path takes samples, not {self.kind!r}")
        for name in ("theta", "phi"):
            if name not in taken and getattr(self, name) != 0.0:
                raise InvalidInput(f"a {self.kind} path takes no {name}, "
                                   f"got {getattr(self, name)}")
        if self.kind == "sampled":
            samples, magnitude = _checked_samples(self.samples)
            if self.magnitude not in (None, magnitude):
                raise InvalidInput(f"a sampled path's magnitude is the mean |E| of its "
                                   f"samples, {magnitude}, got {self.magnitude}")
            object.__setattr__(self, "samples", samples)
            object.__setattr__(self, "magnitude", magnitude)
        elif self.kind == "spherical_triangle":
            if not (np.isfinite(t) and 0 < t <= np.pi):
                raise InvalidAngle(f"theta must lie in (0, pi], got {t}")
            if not np.isfinite(self.phi):
                raise InvalidAngle(f"phi must be finite, got {self.phi}")
        elif not (np.isfinite(t) and 0 < t < np.pi):
            raise InvalidAngle(f"theta must lie in (0, pi), got {t}")
        _check_magnitude(self.magnitude)
        for name in ("magnitude", "theta", "phi"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def points(self, steps=DEFAULT_STEPS):
        """Closed polyline (n+1, 3) with first and last points identical, a
        new array each call.  The shape is the contract; the storage is
        component-major, the transpose of (3, n+1) rows, which is how
        d_components and band_directions read it.  A built-in loop takes
        sin and cos per point only of the angle that varies on a segment;
        being elementwise, they give the bytes of all four over both angles."""
        if self.kind == "sampled":
            return _refined_points(self.samples, steps)
        steps, t, p = max(steps, 3), self.theta, self.phi
        if self.kind == "latitude_loop":
            return _sphere_points([(t, 0.0), (t, 2 * np.pi)], [steps], self.magnitude)
        # each meridian its share of the length t + |p| sin t + t, the arc the
        # rest; every segment at least one step
        leg = min(max(1, round(steps * t / (t + abs(p) * np.sin(t) + t))), (steps - 1) // 2)
        return _sphere_points([(0.0, 0.0), (t, 0.0), (t, p), (0.0, p)],
                              [leg, steps - 2 * leg, leg], self.magnitude)


def _refined_points(samples, steps):
    s, k = samples.T, len(samples) - 1
    substeps = max(1, -(-steps // k))
    out = np.empty((3, k * substeps + 1))
    out[:, ::substeps] = s
    if substeps > 1:  # every substep a + w (b - a), w = 0 too: -0.0 + 0.0 is +0.0
        seg = out[:, :-1].reshape(3, k, substeps)  # a view: one axis split in two
        np.multiply(np.arange(substeps) / substeps, s[:, 1:, None] - s[:, :-1, None], out=seg)
        np.add(s[:, :-1, None], seg, out=seg)
    return out.T


def _sphere_points(knots, counts, magnitude):
    """Loop on the |E| sphere through (polar, azimuthal) angle knots: counts[k]
    steps from knot k to knot k + 1, both angles linear in the step, closing
    on the first knot.  A segment's changing angle comes from one linspace
    with scalar ends (array ends would round differently), its constant one
    is the a + 0.0 that linspace(a, a, c) holds (-0.0 gives +0.0), so the
    sin and cos of a constant are taken once and broadcast."""
    out = np.empty((3, sum(counts) + 1))
    segments = [[np.linspace(a, b, c, endpoint=False) if a != b else a + 0.0
                 for a, b in zip(start, end)] for start, end, c in zip(knots, knots[1:], counts)]
    for rows, (t, p) in zip(np.split(out, np.cumsum(counts), axis=1), segments + [knots[0]]):
        st = np.sin(t)
        rows[0], rows[1], rows[2] = st * np.cos(p), st * np.sin(p), np.cos(t)
    out *= magnitude
    return out.T


def _check_magnitude(magnitude):
    if not (magnitude is not None and np.isfinite(magnitude) and magnitude > 0):
        raise NonPositiveMagnitude(f"field magnitude must be positive, got {magnitude}")


def make_spherical_triangle(theta, phi, magnitude):
    """Three-segment loop: meridian down at phi=0, arc at fixed theta, meridian
    back to the pole at fixed phi.

    Only one angle changes per segment.  theta must lie in (0, pi]; phi = 0
    is allowed and gives a retraced out-and-back path with identity holonomy.
    """
    return FieldPath(kind="spherical_triangle", magnitude=magnitude, theta=theta, phi=phi)


def make_latitude_loop(theta, magnitude):
    """Full 2*pi turn at fixed polar angle theta (equator for theta = pi/2);
    theta must lie in (0, pi)."""
    return FieldPath(kind="latitude_loop", magnitude=magnitude, theta=theta)


def sampled_path(samples):
    """Closed path through explicit field samples (n, 3); see FieldPath.points
    for how they are refined."""
    return FieldPath(kind="sampled", samples=samples)


def _checked_samples(samples):
    """A checked, read-only float copy of a sampled path's samples, and their
    mean |E|."""
    try:
        samples = np.array(samples, dtype=float)
    except (TypeError, OverflowError, ValueError):
        raise InvalidInput("samples must be an (n, 3) array of numbers") from None
    if samples.ndim != 2 or samples.shape[1] != 3 or samples.shape[0] < 2:
        raise InvalidInput("samples must be an (n, 3) array with n >= 2")
    if not np.all(np.isfinite(samples)):
        raise InvalidInput("samples must be finite")
    k = pow2_exponent(samples)  # |E| and the gap at E 2^-k, so no |E|^2 leaves float64
    scaled = np.ldexp(samples, -k)
    norms = np.linalg.norm(scaled, axis=1)
    with np.errstate(over="ignore"):
        magnitude = float(np.ldexp(norms.mean(), k))
        gap = np.ldexp(np.linalg.norm(scaled[0] - scaled[-1]), k)
    if not np.isfinite(magnitude):
        raise InvalidInput("field too strong for float64: |E| overflows")
    _check_magnitude(magnitude)
    if not norms.min() > 0:
        raise NonPositiveMagnitude("sampled path passes through zero field")
    if gap > CLOSURE_RTOL * magnitude:
        raise NotClosed(f"endpoints differ by {gap:.3e} (tolerance "
                        f"{CLOSURE_RTOL * magnitude:.3e})")
    samples.setflags(write=False)
    return samples, magnitude


def path_to_dict(path):
    """JSON-ready description of a path (inverse of path_from_dict)."""
    return {"kind": path.kind, **{key: np.asarray(getattr(path, field)).tolist()
                                  for key, field in _PATH_KEYS[path.kind].items()}}


def path_from_dict(desc):
    """Build a FieldPath from its JSON description: an object with a known
    "kind" and every key _PATH_KEYS lists for that kind, each a finite
    number ("samples": a list of 3-vectors of them).  Other keys are
    ignored, and FieldPath makes the range and closure checks.
    """
    try:
        kind = desc["kind"]
    except (TypeError, KeyError):
        raise InvalidInput("path description needs a 'kind' key")
    if not (isinstance(kind, str) and kind in _PATH_KEYS):
        raise InvalidInput(f"unknown path kind {kind!r}")
    fields = {}
    for key, field in _PATH_KEYS[kind].items():
        if key not in desc:
            raise InvalidInput(f"{kind} path description needs a {key!r} key")
        if not (is_number_tree if key == "samples" else is_finite_number)(desc[key]):
            raise InvalidInput(f"{kind} path description needs finite numbers for {key!r}")
        fields[field] = desc[key]
    return FieldPath(kind=kind, **fields)


@dataclass(frozen=True)
class Holonomy:
    """Transport result of one closed loop.

    ``full`` is the 4x4 unitary; ``block_plus`` / ``block_minus`` are its 2x2
    restrictions to the basepoint bands, expressed in the deterministic
    basepoint frames ``frame_plus`` / ``frame_minus`` (4x2 each).
    """

    full: np.ndarray
    block_plus: np.ndarray
    block_minus: np.ndarray
    frame_plus: np.ndarray
    frame_minus: np.ndarray
    basepoint: np.ndarray
    steps: int
    unitarity_defect: float

    def block(self, band):
        return self.block_plus if _is_plus(band) else self.block_minus

    def frame(self, band):
        return self.frame_plus if _is_plus(band) else self.frame_minus


def _is_plus(band):
    if band not in ("plus", "minus"):
        raise InvalidInput(f"band must be 'plus' or 'minus', got {band!r}")
    return band == "plus"


def basepoint_frames(point, regime, m):
    """Deterministic band frames (F_plus, F_minus) at one field point."""
    pp, pm = projectors(d_components(point, m, regime))
    return projector_frame(pp), projector_frame(pm)


def wilson_loop(path, regime, m, steps=DEFAULT_STEPS):
    """Path-ordered transport around a closed loop.

    The product of the exact rotors between the band directions dhat at
    consecutive points, a second-order scheme whose steps are unitary to
    roundoff, one row per pair of steps (connection.transport_exponents),
    built and multiplied in real form in blocks of rows
    (_linalg.blocked_product); block [lo, hi) reads points 2 lo to 2 hi, so
    the loop has the bits of one ordered_product over all its rows.
    Holonomy.steps counts steps, not rows.  The blocks reuse one
    connection.band_directions of the whole path: the points scaled in place
    by one power of two, d and |d| once at each of the n + 1 points, and
    the chords of a sampled path checked.  Each rotor maps one band
    projector onto the next, so the full unitary commutes with the
    basepoint projectors to roundoff, and its band blocks are the loop
    holonomies.
    """
    if steps < MIN_STEPS:
        raise InvalidInput(f"steps must be >= {MIN_STEPS}")
    pts = path.points(steps)
    basepoint = pts[0].copy()
    dhat = band_directions(pts, regime, m, path.samples)
    full = blocked_product(len(pts) // 2, step_table("transport"), lambda lo, hi, out:
                           transport_exponents(pts[2 * lo:2 * hi + 1],
                                               dhat[2 * lo:2 * hi + 1], out=out))
    fp, fm = basepoint_frames(pts[0], regime, m)  # the same bits as unscaled
    return Holonomy(
        full=full,
        block_plus=dagger(fp) @ full @ fp,
        block_minus=dagger(fm) @ full @ fm,
        frame_plus=fp, frame_minus=fm,
        basepoint=basepoint, steps=len(pts) - 1,
        unitarity_defect=unitarity_defect(full),
    )


def linear_stark_holonomy(path, steps=DEFAULT_STEPS):
    """The linear-regime 2x2 oracle at constant |E|: the ordered product of
    the band increments (i / 2|E|^2) sigma . (dE x E_mid), one real row v
    per step.  Material constants cancel, so the increments depend on the
    direction history only.  The points are first scaled by a power of two,
    exactly, so no square over- or underflows."""
    pts = path.points(steps)
    np.ldexp(pts, -pow2_exponent(pts), out=pts)
    norms = np.linalg.norm(pts, axis=1)
    if norms.max() - norms.min() > 1e-9 * norms.mean():
        raise NotConstantMagnitude("path does not keep |E| constant")
    # row-ordered: einsum's |E_mid|^2 has other bits on column-ordered rows
    mids = np.add(0.5 * pts[1:], 0.5 * pts[:-1], order="C")
    v = np.cross(pts[1:] - pts[:-1], mids)
    v /= 2.0 * np.einsum("ki,ki->k", mids, mids)[:, None]
    return blocked_product(len(v), step_table("pauli"),
                           lambda lo, hi, out: exp_coefficients(v[lo:hi], out=out))


def _check_loop_angles(theta, phi):
    t, p = np.asarray(theta), np.asarray(phi)
    for bad, rule in ((t[~((t >= 0) & (t <= np.pi))], "theta must lie in [0, pi]"),
                      (p[~np.isfinite(p)], "phi must be finite")):
        if bad.size:
            raise InvalidAngle(f"{rule}, got {bad[0]}")


def linear_triangle_holonomy(theta, phi):
    """Closed-form linear-regime holonomy of the meridian-arc-meridian
    triangle (exact evaluation of the ordered product).

    Meridians contribute rotations about the local azimuthal axis; the arc is
    solved in a frame corotating with the field.  The four factors
    exp(i v . sigma) are listed first to last; angle arrays give a stack.
    """
    _check_loop_angles(theta, phi)
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    v = np.zeros((4,) + np.broadcast(theta, phi).shape + (3,))  # factor axis first
    v[0, ..., 1] = -theta / 2.0
    v[1, ..., 0], v[1, ..., 2] = phi * ct * st / 2.0, phi * ct * ct / 2.0
    v[2, ..., 2] = -phi / 2.0
    v[3, ..., 0], v[3, ..., 1] = -theta * sp / 2.0, theta * cp / 2.0
    return complex_block(ordered_product(clifford_steps(step_table("pauli"), exp_coefficients(v))))


def zee_holonomy(theta, phi):
    """Spherical-quadratic-model holonomy of the same triangle, as the
    three-factor product W1^{-1} V W of exponentials exp(i v . sigma); V
    is itself a product of two, and the four factors are listed first to
    last.  Takes scalar or array angles like linear_triangle_holonomy.

    Describes the transport of the spin-projection +-1/2 doublet when
    beta = delta/sqrt(3); exactly unitary by construction.
    """
    _check_loop_angles(theta, phi)
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    v = np.zeros((4,) + np.broadcast(theta, phi).shape + (3,))  # factor axis first
    v[0, ..., 1] = theta
    v[1, ..., 0], v[1, ..., 2] = -phi * st, phi * ct / 2.0
    v[2, ..., 2] = -phi / 2.0
    v[3, ..., 0], v[3, ..., 1] = theta * sp, -theta * cp
    return complex_block(ordered_product(clifford_steps(step_table("pauli"), exp_coefficients(v))))


def half_spin_band(m):
    """Which quadratic-regime band carries the spin-projection +-1/2 doublet.

    The quadratic prefactor is negative, so the band ordering follows the
    sign of beta: for beta < 0 (all tabulated materials) the +-1/2 doublet is
    the lower ("minus") band, and it is the band zee_holonomy describes.
    """
    if m.beta == 0:
        raise InvalidInput("beta = 0 leaves no quadratic splitting at all")
    return "minus" if m.beta < 0 else "plus"


def holonomy_fidelity(u, v, tol=1e-8):
    """Phase-blind overlap |tr(u^dag v)| / n of two unitaries.

    1 when u and v agree up to a global phase; insensitive to the global
    phase of either argument.  Clipped at 1, which roundoff can exceed.
    """
    u, v = np.asarray(u), np.asarray(v)
    require_unitary(u, tol, "first argument")
    require_unitary(v, tol, "second argument")
    return min(1.0, float(abs(np.trace(dagger(u) @ v)) / u.shape[-1]))


def eigenphases(u, tol=1e-8):
    """Sorted eigenvalue phases of a unitary, in (-pi, pi].

    Invariant under conjugation u -> Q u Q^dag, which makes them the
    frame-independent signature used for cross-oracle comparisons.
    """
    u = np.asarray(u)
    require_unitary(u, tol, "argument")
    return np.sort(np.angle(np.linalg.eigvals(u)))


def eigenphase_distance(u, v, tol=1e-8):
    """Circle-aware distance between the eigenphase multisets of two
    unitaries: the best matching's largest phase difference mod 2*pi."""
    pu = eigenphases(u, tol)
    best = np.inf
    for pv in itertools.permutations(eigenphases(v, tol)):
        d = np.abs(pu - pv) % (2 * np.pi)
        best = min(best, np.minimum(d, 2 * np.pi - d).max())
    return float(best)
