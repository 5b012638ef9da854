"""Closed field loops, the path-ordered transport integrator, and analytic
cross-checks.

Path ordering is later-to-the-left throughout: the loop transport is

    U = exp(A_N) ... exp(A_2) exp(A_1)

with per-step exponents A_k = A^i(E_mid) dE_i.  Each A_k is a simple bivector,
A_k^2 = -theta_k^2 I, so exp(A_k) = cos(theta_k) I + sin(theta_k)/theta_k A_k
is unitary to roundoff, and so is U; discretization error shows up as a
second-order difference between refinements, not as unitarity loss.
Corners of piecewise paths are plain C0 junctions -- segment products with no
extra factor -- since the bounded connection contributes nothing from a
corner in the fine-step limit.

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
"""

import itertools
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import (PAULI, blocked_product, clifford_exp, dagger, ordered_product,
                      projector_frame, require_unitary, unitarity_defect)
from .connection import gap_norms, projectors, transport_exponents
from .errors import (InvalidAngle, InvalidInput, NonPositiveMagnitude, NotClosed,
                     NotConstantMagnitude, is_finite_number, is_number_tree, load_json)
from .stark import MaterialParams, d_components, d_vector

DEFAULT_STEPS = 20000
MIN_STEPS = 100
CLOSURE_RTOL = 1e-9  # largest endpoint gap of a closed path, relative to |E|


@dataclass(frozen=True)
class FieldPath:
    """A closed, piecewise-smooth curve in electric-field space.

    Built-in kinds (spherical_triangle, latitude_loop) keep |E| constant and
    are discretized by arc length at a caller-chosen step count; sampled
    paths split each segment into ceil(steps / segments) equal substeps, so
    at steps <= segments the samples come back unchanged.
    """

    kind: str
    magnitude: float
    theta: float = 0.0
    phi: float = 0.0
    samples: np.ndarray = None
    backwards: bool = False

    def __post_init__(self):
        if self.samples is not None:
            s = np.ascontiguousarray(self.samples, dtype=float)
            s.setflags(write=False)
            object.__setattr__(self, "samples", s)

    def points(self, steps=DEFAULT_STEPS):
        """Closed polyline (n+1, 3) with first and last points identical."""
        if self.kind == "sampled":
            pts = _refined_points(self.samples, steps)
        elif self.kind == "spherical_triangle":
            pts = _triangle_points(self.theta, self.phi, self.magnitude, steps)
        elif self.kind == "latitude_loop":
            pts = _latitude_points(self.theta, self.magnitude, steps)
        else:
            raise InvalidInput(f"unknown path kind {self.kind!r}")
        return pts[::-1].copy() if self.backwards else pts

    def reverse(self):
        """The same geometric loop traversed in the opposite direction."""
        return replace(self, backwards=not self.backwards)


def _refined_points(samples, steps):
    substeps = -(-steps // (len(samples) - 1))
    if substeps <= 1:
        return np.array(samples)
    w = (np.arange(substeps) / substeps)[:, None]
    pts = samples[:-1, None] + w * (samples[1:, None] - samples[:-1, None])
    return np.vstack([pts.reshape(-1, 3), samples[-1:]])


def _triangle_points(theta, phi, magnitude, steps):
    lengths = np.array([theta, abs(phi) * np.sin(theta), theta])
    total = lengths.sum()
    counts = np.maximum(1, np.round(steps * lengths / total).astype(int))
    # polar and azimuthal angle of each point: meridian, arc, meridian, pole
    t = np.concatenate([np.linspace(0.0, theta, counts[0] + 1)[:-1],
                        np.full(counts[1], theta),
                        np.linspace(theta, 0.0, counts[2] + 1)[:-1], [0.0]])
    p = np.concatenate([np.zeros(counts[0]), np.linspace(0.0, phi, counts[1] + 1)[:-1],
                        np.full(counts[2], phi), [0.0]])
    return magnitude * np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p),
                                 np.cos(t)], axis=1)


def _latitude_points(theta, magnitude, steps):
    ph = np.linspace(0.0, 2 * np.pi, max(steps, 3) + 1)
    pts = np.stack([np.sin(theta) * np.cos(ph), np.sin(theta) * np.sin(ph),
                    np.cos(theta) * np.ones_like(ph)], axis=1)
    pts[-1] = pts[0]
    return magnitude * pts


def _check_magnitude(magnitude):
    if not (np.isfinite(magnitude) and magnitude > 0):
        raise NonPositiveMagnitude(f"field magnitude must be positive, got {magnitude}")


def make_spherical_triangle(theta, phi, magnitude):
    """Three-segment loop: meridian down at phi=0, arc at fixed theta, meridian
    back to the pole at fixed phi.

    Only one angle changes per segment.  theta must lie in (0, pi]; phi = 0
    is allowed and gives a retraced out-and-back path with identity holonomy.
    """
    if not (np.isfinite(theta) and 0 < theta <= np.pi):
        raise InvalidAngle(f"theta must lie in (0, pi], got {theta}")
    if not np.isfinite(phi):
        raise InvalidAngle(f"phi must be finite, got {phi}")
    _check_magnitude(magnitude)
    return FieldPath(kind="spherical_triangle", magnitude=float(magnitude),
                     theta=float(theta), phi=float(phi))


def make_latitude_loop(theta, magnitude):
    """Full 2*pi turn at fixed polar angle theta (equator for theta = pi/2)."""
    if not (np.isfinite(theta) and 0 < theta < np.pi):
        raise InvalidAngle(f"theta must lie in (0, pi), got {theta}")
    _check_magnitude(magnitude)
    return FieldPath(kind="latitude_loop", magnitude=float(magnitude), theta=float(theta))


def sampled_path(samples):
    """Closed path through explicit field samples (n, 3); see FieldPath.points
    for how they are refined."""
    try:
        samples = np.asarray(samples, dtype=float)
    except (TypeError, OverflowError, ValueError):
        raise InvalidInput("samples must be an (n, 3) array of numbers") from None
    if samples.ndim != 2 or samples.shape[1] != 3 or samples.shape[0] < 2:
        raise InvalidInput("samples must be an (n, 3) array with n >= 2")
    if not np.all(np.isfinite(samples)):
        raise InvalidInput("samples must be finite")
    norms = np.linalg.norm(samples, axis=1)
    magnitude = float(norms.mean())
    _check_magnitude(magnitude)
    if not norms.min() > 0:
        raise NonPositiveMagnitude("sampled path passes through zero field")
    gap = np.linalg.norm(samples[0] - samples[-1])
    if gap > CLOSURE_RTOL * magnitude:
        raise NotClosed(f"endpoints differ by {gap:.3e} (tolerance "
                        f"{CLOSURE_RTOL * magnitude:.3e})")
    return FieldPath(kind="sampled", magnitude=magnitude, samples=samples)


def path_to_dict(path):
    """JSON-ready description of a path (inverse of path_from_dict)."""
    if path.kind == "sampled":
        return {"kind": "sampled", "samples": path.samples.tolist()}
    out = {"kind": path.kind, "theta": path.theta,
           "magnitude_V_per_m": path.magnitude}
    if path.kind == "spherical_triangle":
        out["phi"] = path.phi
    return out


# the keys each kind of path description must carry besides "kind"
_PATH_KEYS = {"spherical_triangle": ("theta", "phi", "magnitude_V_per_m"),
              "latitude_loop": ("theta", "magnitude_V_per_m"),
              "sampled": ("samples",)}


def path_from_dict(desc):
    """Build a FieldPath from its JSON description.

    Triangles carry keys theta, phi, magnitude_V_per_m; latitude loops theta
    and magnitude_V_per_m; sampled paths a "samples" list of 3-vectors.
    """
    try:
        kind = desc["kind"]
    except (TypeError, KeyError):
        raise InvalidInput("path description needs a 'kind' key")
    if not (isinstance(kind, str) and kind in _PATH_KEYS):
        raise InvalidInput(f"unknown path kind {kind!r}")
    for key in _PATH_KEYS[kind]:
        if key not in desc:
            raise InvalidInput(f"{kind} path description needs a {key!r} key")
    num = {k: v for k, v in desc.items() if k in ("theta", "phi", "magnitude_V_per_m")}
    if not all(is_finite_number(v) for v in num.values()):
        raise InvalidInput(f"path values must be finite numbers, got {num}")
    if kind == "spherical_triangle":
        return make_spherical_triangle(num["theta"], num["phi"],
                                       num["magnitude_V_per_m"])
    if kind == "latitude_loop":
        return make_latitude_loop(num["theta"], num["magnitude_V_per_m"])
    if not is_number_tree(desc["samples"]):
        raise InvalidInput("path samples must be finite numbers")
    return sampled_path(desc["samples"])


def load_path(path_file):
    return path_from_dict(load_json(path_file))


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
    regime: str
    material: MaterialParams
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
    pp, pm = projectors(d_vector(np.asarray(point, dtype=float), m, regime))
    return projector_frame(pp), projector_frame(pm)


def wilson_loop(path, regime, m, steps=DEFAULT_STEPS):
    """Path-ordered transport around a closed loop.

    Midpoint-evaluated exponents (second-order accurate), exactly unitary
    steps, built and multiplied in blocks (see _linalg.blocked_product)
    after one degeneracy check over the whole path.  The full unitary
    commutes with the basepoint projectors up to the integration tolerance,
    so its band blocks are the loop holonomies.
    """
    if steps < MIN_STEPS:
        raise InvalidInput(f"steps must be >= {MIN_STEPS}")
    pts = path.points(steps)
    gap = np.linalg.norm(pts[0] - pts[-1])
    if gap > CLOSURE_RTOL * path.magnitude:
        raise NotClosed(f"path endpoints differ by {gap:.3e}")
    gap_norms(d_components(0.5 * (pts[1:] + pts[:-1]), m, regime))
    full = blocked_product(len(pts) - 1, lambda lo, hi: clifford_exp(
        transport_exponents(pts[lo:hi + 1], regime, m)))
    fp, fm = basepoint_frames(pts[0], regime, m)
    return Holonomy(
        full=full,
        block_plus=dagger(fp) @ full @ fp,
        block_minus=dagger(fm) @ full @ fm,
        frame_plus=fp, frame_minus=fm,
        basepoint=pts[0].copy(), steps=len(pts) - 1, regime=regime, material=m,
        unitarity_defect=unitarity_defect(full),
    )


def _su2_generators(v):
    """The stack i v_k . sigma (k, 2, 2) for real vectors v (k, 3)."""
    return 1j * np.einsum("kc,cij->kij", v, PAULI)


def linear_stark_block_connection(path, steps=DEFAULT_STEPS):
    """Per-step 2x2 anti-Hermitian increments of the linear-regime holonomy.

    At constant |E| the band transport reduces to increments
    (i / 2|E|^2) sigma . (dE x E_mid); their ordered product is the
    closed-form oracle (see linear_stark_holonomy).  Material constants
    cancel, so the increments depend on the direction history only.
    """
    pts = path.points(steps)
    norms = np.linalg.norm(pts, axis=1)
    if norms.max() - norms.min() > 1e-9 * norms.mean():
        raise NotConstantMagnitude("path does not keep |E| constant")
    mids = 0.5 * (pts[1:] + pts[:-1])
    diffs = pts[1:] - pts[:-1]
    v = np.cross(diffs, mids) / (2.0 * np.einsum("ki,ki->k", mids, mids))[:, None]
    return _su2_generators(v)


def linear_stark_holonomy(path, steps=DEFAULT_STEPS):
    """Ordered product of the linear-regime increments: the 2x2 oracle."""
    return ordered_product(clifford_exp(linear_stark_block_connection(path, steps)))


def _check_loop_angles(theta, phi):
    if not (np.isfinite(theta) and 0 <= theta <= np.pi):
        raise InvalidAngle(f"theta must lie in [0, pi], got {theta}")
    if not np.isfinite(phi):
        raise InvalidAngle(f"phi must be finite, got {phi}")


def linear_triangle_holonomy(theta, phi):
    """Closed-form linear-regime holonomy of the meridian-arc-meridian
    triangle (exact evaluation of the ordered product).

    Meridians contribute rotations about the local azimuthal axis; the arc is
    solved in a frame corotating with the field.  The four factors
    exp(i v . sigma) are listed first to last.
    """
    _check_loop_angles(theta, phi)
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    vs = np.array([[0.0, -theta / 2.0, 0.0],
                   [phi * ct * st / 2.0, 0.0, phi * ct * ct / 2.0],
                   [0.0, 0.0, -phi / 2.0],
                   [-theta * sp / 2.0, theta * cp / 2.0, 0.0]])
    return ordered_product(clifford_exp(_su2_generators(vs)))


def zee_holonomy(theta, phi):
    """Spherical-quadratic-model holonomy of the same triangle, as the
    three-factor product W1^{-1} V W of exponentials exp(i v . sigma); V
    is itself a product of two, and the four factors are listed first to
    last.

    Describes the transport of the spin-projection +-1/2 doublet when
    beta = delta/sqrt(3); exactly unitary by construction.
    """
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    vs = np.array([[0.0, theta, 0.0],
                   [-phi * st, 0.0, phi * ct / 2.0],
                   [0.0, 0.0, -phi / 2.0],
                   [theta * sp, -theta * cp, 0.0]])
    return ordered_product(clifford_exp(_su2_generators(vs)))


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

    1 exactly when u and v agree up to a global phase; insensitive to the
    global phase of either argument.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    require_unitary(u, tol, "first argument")
    require_unitary(v, tol, "second argument")
    n = u.shape[-1]
    return float(abs(np.trace(dagger(u) @ v)) / n)


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
    pv = eigenphases(v, tol)

    def circ(a, b):
        d = abs(a - b) % (2 * np.pi)
        return min(d, 2 * np.pi - d)

    best = np.inf
    for perm in itertools.permutations(range(len(pv))):
        best = min(best, max(circ(pu[i], pv[j]) for i, j in enumerate(perm)))
    return float(best)
