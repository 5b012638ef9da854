"""Synthesis of field-loop sequences realizing target SU(2) gates.

A sequence of spherical-triangle loops, all anchored at the pole, composes
holonomies by left multiplication (later loops to the left).  Matching a
target up to global phase is a smooth least-squares problem in the 2L loop
angles: the residual, the vector part of the phase-fixed quaternion of
target^dag u, vanishes exactly at a match.  A coarse grid over loop angles,
scored by that residual, seeds Levenberg-Marquardt refinements (the
package's own ``minimize``) from distinct holonomies.

Per-loop holonomies come from the analytic oracles where they are valid
(spherical quadratic model, linear regime), else from the numeric Wilson
loop; both are built by one kernel, ``_linalg.clifford_steps`` /
``blocked_product``.  The grid evaluates each of its (theta, phi) loops
once, into a table, and scores every candidate from that table.  Each
refinement step scores a point and its forward-difference neighbours in
one objective call, and its trial point in another.  A fixed seed makes
the search deterministic.
"""

import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._linalg import BLOCK, dagger, ordered_product, require_unitary
from .errors import InvalidInput, _ArgumentError
from .holonomy import (_check_loop_angles, half_spin_band, holonomy_fidelity,
                       linear_triangle_holonomy, make_spherical_triangle,
                       wilson_loop, zee_holonomy)
from .stark import MaterialParams

GRID_POINTS = 16
MAX_GRID_COMBINATIONS = 4096
RESTARTS = 8
# restart seeds' grid products lie pairwise farther apart than this 1 - F,
# the phase-blind SU(2) fidelity distance: nearer seeds share a basin
SEED_SEPARATION = 0.05
# forward-difference step of the refinement's Jacobian, and its step budget
JACOBIAN_STEP = 1e-7
MAXITER = 200
# Wilson-loop steps per numeric-model holonomy: the refinement defect falls
# off as 1/steps^2, and 1000 steps reach about 1e-6
NUMERIC_STEPS = 1000


@dataclass(frozen=True)
class LoopModel:
    """Which physical model maps triangle angles to a 2x2 holonomy.

    LoopModel("spherical_quadratic"), the idealized beta = delta/sqrt(3)
    quadratic model, and LoopModel("linear"), the linear Stark regime at
    constant |E|, are analytic oracles.  LoopModel("numeric_quadratic",
    material, magnitude) runs the NUMERIC_STEPS Wilson loop of an anisotropic
    quadratic MaterialParams at |E| = magnitude (V/m, a finite real number
    > 0, kept as a float) on its spin-projection +-1/2 band (half_spin_band).
    Construction checks these, and that only the numeric model takes a
    material and a magnitude.
    """

    kind: str  # spherical_quadratic | linear | numeric_quadratic
    material: MaterialParams = None
    magnitude: float = None

    def __post_init__(self):
        if self.kind not in ("spherical_quadratic", "linear", "numeric_quadratic"):
            raise InvalidInput(f"unknown loop model {self.kind!r}")
        if self.analytic:
            if self.material is not None or self.magnitude is not None:
                raise InvalidInput(f"the {self.kind} model takes no material or magnitude")
        elif not isinstance(self.material, MaterialParams):
            raise InvalidInput(f"the numeric_quadratic model needs a MaterialParams, "
                               f"got {self.material!r}")
        # a missing magnitude (None) reads as nan: not positive
        elif (isinstance(self.magnitude, bool)
              or not isinstance(self.magnitude, (numbers.Real, type(None)))):
            raise _ArgumentError("magnitude", "field magnitude must be a real number, "
                                 f"got {self.magnitude!r}")
        elif not 0 < np.float64(self.magnitude) < np.inf:
            raise _ArgumentError("magnitude", "field magnitude must be positive, "
                                 f"got {self.magnitude}")
        else:
            object.__setattr__(self, "magnitude", float(self.magnitude))

    @property
    def analytic(self):
        return self.kind in ("spherical_quadratic", "linear")


def loop_product(loops, model):
    """Ordered product of per-loop holonomies, later loops multiplying from
    the left: loop_product([a, b]) = holonomy(b) @ holonomy(a).  Takes
    (..., L, 2) (theta, phi) triangle angles and returns (..., 2, 2); L = 1
    gives each loop's own holonomy.  A loop with theta = 0 or phi = 0
    contributes exactly I, and the empty sequence is exactly the identity.
    The analytic oracles check the angles themselves."""
    loops = np.asarray(loops, dtype=float)
    if loops.size == 0:
        return np.eye(2, dtype=complex)
    theta, phi = loops[..., 0], loops[..., 1]
    trivial = (theta == 0.0) | (phi == 0.0)
    if model.kind == "spherical_quadratic":
        units = zee_holonomy(theta, phi)
    elif model.kind == "linear":
        units = linear_triangle_holonomy(theta, phi)
    else:
        _check_loop_angles(theta, phi)
        band = half_spin_band(model.material)
        units = np.empty(trivial.shape + (2, 2), dtype=complex)
        for i in map(tuple, np.argwhere(~trivial)):
            path = make_spherical_triangle(theta[i], phi[i], model.magnitude)
            result = wilson_loop(path, "quadratic", model.material, steps=NUMERIC_STEPS)
            units[i] = result.block(band)
    if trivial.any():
        units[trivial] = np.eye(2)
    return ordered_product(np.moveaxis(units, -3, 0))


@dataclass(frozen=True)
class SynthesisResult:
    loops: tuple  # ordered ((theta, phi), ...) triangle parameters
    achieved: np.ndarray
    fidelity: float
    evaluations: int
    converged: bool


def minimize(fun, x0, *, maxiter=MAXITER):
    """Levenberg-Marquardt least squares (Levenberg, Q. Appl. Math. 2, 164,
    1944; Marquardt, J. SIAM 11, 431, 1963): lowers |r(x)|^2 from x0.

    ``fun`` maps a (k, n) stack of points to their (k, m) residuals, each
    row with the bits of scoring that row alone.  From each new point one
    call scores it and its n forward-difference neighbours x + h e_i
    (h = JACOBIAN_STEP); the step then solves (J^T J + lambda D) dx =
    -J^T r, D the diagonal of J^T J, and one call scores x + dx.  A step
    that lowers |r|^2 is taken and divides lambda by 10; one that does not
    multiplies it by 10 and is solved again from the same Jacobian.  A
    parameter that moves no residual gives a zero row of J^T J, whose
    diagonal is floored, and lambda stays >= 1e-9, so the solve never fails
    on a singular J^T J.  Stops after a step that lowers |r|^2 by at most a
    1e-12 part, before one that would move x by at most a 1e-12 part, or
    after ``maxiter`` steps; returns ``x``, ``fun`` = |r(x)|^2 and
    ``nfev``, every point scored.
    """
    x = np.array(x0, dtype=float).reshape(-1)
    n = len(x)
    shifts = np.vstack([np.zeros(n), JACOBIAN_STEP * np.eye(n)])
    damping, nfev, moved = 1e-3, 0, True
    for _ in range(maxiter):
        if moved:
            rows = fun(x + shifts)
            nfev += n + 1
            r, cost = rows[0], np.square(rows[0]).sum()
            jac = (rows[1:] - r).T / JACOBIAN_STEP
            normal, grad = jac.T @ jac, jac.T @ r
            diag = np.maximum(np.diag(normal), 1e-12)
        step = np.linalg.solve(normal + np.diag(damping * diag), -grad)
        if np.abs(step).max() <= 1e-12 * (1.0 + np.abs(x).max()):
            break
        trial = np.square(fun((x + step)[None])[0]).sum()
        nfev += 1
        moved = trial < cost
        if not moved:
            damping *= 10
            continue
        x, cost, settled = x + step, trial, cost - trial <= 1e-12 * cost
        if settled:
            break
        damping = max(damping / 10, 1e-9)
    return SimpleNamespace(x=x, fun=float(cost), nfev=nfev)


def _clip_angles(x):
    """Map raw optimizer parameters (..., 2L) to valid loop angles (..., L, 2)
    and each theta's excess (..., L) over the [0, pi] box."""
    loops = np.array(x, dtype=float).reshape(np.shape(x)[:-1] + (-1, 2))
    thetas = loops[..., 0].copy()
    loops[..., 0] = np.clip(thetas, 0.0, np.pi)
    return loops, thetas - loops[..., 0]


def _overlap(u, v):
    """The phase-blind fidelity |tr(u^dag v)| / 2 of 2x2 stacks."""
    return np.abs(np.einsum("...ij,...ij->...", np.conj(u), v)) / 2.0


def _residual(products, target, excess):
    """The synthesis residual (..., 3 + L) of products u (..., 2, 2) with
    theta excesses (..., L), for u and the target in SU(2): the vector part
    of the quaternion q of target^dag u, its sign fixed so q0 >= 0, then
    sqrt(10) times each excess, which steers the refinement back into
    theta's box.  It vanishes exactly where u matches the target up to
    phase, and |r|^2 = 1 - F^2 + 10 |excess|^2 for the fidelity F = |q0|."""
    m = dagger(target) @ products
    sign = np.where((m[..., 0, 0] + m[..., 1, 1]).real < 0, -0.5, 0.5)
    q = np.stack([(m[..., 0, 1] + m[..., 1, 0]).imag, (m[..., 0, 1] - m[..., 1, 0]).real,
                  (m[..., 0, 0] - m[..., 1, 1]).imag], axis=-1)
    return np.concatenate([sign[..., None] * q, np.sqrt(10.0) * excess], axis=-1)


def _grid(rng, grid_points, max_loops, max_combinations):
    """(theta, phi) grid indices, each (n, max_loops), of the coarse grid's
    candidates: every pair for one loop, else all zeros (phi index
    grid_points // 2 is phi = 0.0) and max_combinations random draws."""
    if max_loops == 1:
        return np.indices((grid_points, grid_points)).reshape(2, -1, 1)
    index = np.empty((max_combinations + 1, 2 * max_loops), dtype=np.int64)
    index[0] = np.tile([0, grid_points // 2], max_loops)
    for column in index[1:].T:
        column[:] = rng.integers(0, grid_points, size=(max_combinations,))
    return index[:, 0::2], index[:, 1::2]


def _by_block(f, n, factors):
    """f over consecutive slices of range(n), concatenated: with `factors`
    2x2 factors an item, at most BLOCK of them a call."""
    step = max(1, BLOCK // factors)
    return np.concatenate([f(slice(lo, lo + step)) for lo in range(0, n, step)])


def _canonical_phase(target):
    """Strip the global phase: rotate so the largest-magnitude entry is real
    positive.  Phase-equivalent targets then drive identical searches (the
    objective is phase-blind anyway; this removes even float-level drift).
    An exact quarter turn first takes that entry into [0, pi/2), as numpy's
    complex multiply rounds (i a)(-i b) and a b apart."""
    flat = target.reshape(-1)
    z = flat[int(np.argmax(np.abs(flat)))]
    turn = 1
    while not (z.real > 0 and z.imag >= 0):
        z, turn = -1j * z, -1j * turn
    return (turn * target) * (np.conj(z) / abs(z))


def synthesize(target, model=None, max_loops=3, tol=1e-6, seed=0):
    """Search for a loop sequence whose composed holonomy matches the target.

    A coarse 16x16-per-loop grid (capped at a few thousand random
    combinations for multi-loop searches, scored from one table of the 256
    single-loop holonomies) seeds Levenberg-Marquardt refinements of the
    residual ``_residual``, which also scores the grid.  The restarts start
    from the best-scoring candidates whose products lie pairwise more than
    SEED_SEPARATION apart, those with a theta = 0 loop last.  ``evaluations`` counts
    every grid candidate plus every point the refinements score.
    ``converged`` reports whether 1 - fidelity <= tol; an unreachable target
    yields converged=False, never an exception.  Fixed seed, identical bits.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise InvalidInput("target must be a 2x2 unitary")
    require_unitary(target, 1e-10, "target")
    if isinstance(max_loops, bool) or not isinstance(max_loops, numbers.Integral):
        raise _ArgumentError("max_loops",
                             f"max_loops must be an integer, got {max_loops!r}")
    if max_loops < 1:
        raise _ArgumentError("max_loops", f"max_loops must be >= 1, got {max_loops}")
    target = _canonical_phase(target)
    # every loop holonomy is in SU(2): so is the residual's target (its
    # 2x2 det written out, as np.linalg.det pages in more of LAPACK)
    special = target / np.sqrt(target[0, 0] * target[1, 1] - target[0, 1] * target[1, 0])
    model = model or LoopModel("spherical_quadratic")
    rng = np.random.default_rng(seed)
    # the numeric model pays a Wilson loop per loop: shrink the budget
    grid_points = GRID_POINTS if model.analytic else 8
    restarts = RESTARTS if model.analytic else 3
    max_combinations = MAX_GRID_COMBINATIONS if model.analytic else 256

    def units(loops):
        """The holonomy (..., 2, 2) of each single loop (..., 2), _by_block:
        an analytic loop is four 2x2 factors; a numeric loop, a Wilson loop
        of its own, counts as BLOCK, so each is one loop_product call."""
        flat = loops.reshape(-1, 1, 2)
        return _by_block(lambda s: loop_product(flat[s], model), len(flat),
                         4 if model.analytic else BLOCK).reshape(loops.shape[:-1] + (2, 2))

    def objective(x):
        loops, excess = _clip_angles(x)
        return _residual(ordered_product(np.moveaxis(units(loops), -3, 0)), special, excess)

    # every grid loop is one of grid_points^2 (theta, phi) pairs: evaluate
    # each once into a table, then gather and multiply each candidate's
    # units from it, _by_block: a candidate is max_loops factors, so the
    # products' memory does not grow with max_loops
    pairs = np.stack(np.meshgrid(np.linspace(0.0, np.pi, grid_points),
                                 np.linspace(-np.pi, np.pi, grid_points, endpoint=False),
                                 indexing="ij"), axis=-1)
    table = units(pairs)
    t, p = _grid(rng, grid_points, max_loops, max_combinations)
    products = _by_block(lambda s: ordered_product(np.moveaxis(table[t[s], p[s]], 1, 0)),
                         len(t), max_loops)
    scores = np.square(_residual(products, special, np.zeros(t.shape))).sum(axis=-1)
    evaluations = len(t)

    # seeds in score order, each farther than SEED_SEPARATION from every
    # earlier one.  A theta = 0 loop is I at every phi, so its phi has no
    # gradient and the refinement stays on that row: such candidates come
    # last, after every other (at many loops the draws may hold no other)
    ranked = np.lexsort((scores, (t == 0).any(axis=1)))
    seeds = []
    while len(ranked) and len(seeds) < restarts:
        seeds.append(pairs[t[ranked[0]], p[ranked[0]]].reshape(-1))
        far = 1.0 - _overlap(products[ranked], products[ranked[0]]) > SEED_SEPARATION
        ranked = ranked[far]

    # restarts run in seed order; strict improvement keeps the lowest-index
    # winner on ties, so selection is deterministic
    best_x, best_cost = None, np.inf
    for x0 in seeds:
        res = minimize(objective, x0)
        evaluations += res.nfev
        if res.fun < best_cost:
            best_x, best_cost = res.x, res.fun
        if best_cost <= 2e-12:  # |r|^2 = 1 - F^2: 1 - F <= 1e-12
            break

    loops = tuple(map(tuple, _clip_angles(best_x)[0].tolist()))
    achieved = loop_product(loops, model)
    fidelity = holonomy_fidelity(achieved, target)
    return SynthesisResult(
        loops=loops, achieved=achieved, fidelity=float(fidelity),
        evaluations=evaluations, converged=bool(1.0 - fidelity <= tol),
    )
