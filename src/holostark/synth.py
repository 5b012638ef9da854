"""Synthesis of field-loop sequences realizing target SU(2) gates.

A sequence of spherical-triangle loops, all anchored at the pole, composes
holonomies by left multiplication (later loops to the left).  The search is
derivative-free: a coarse grid over loop angles seeds Nelder-Mead
refinements with restarts; the objective 1 - |tr(u^dag target)| / 2 is
global-phase blind, matching holonomy equivalence classes.

Per-loop holonomies come from the analytic oracles where they are valid
(spherical quadratic model, linear regime), else from the numeric Wilson
loop; both are built by one kernel, ``_linalg.clifford_steps`` /
``blocked_product``.  The grid evaluates each of its (theta, phi) loops
once, into a table, and scores every candidate from that table.
Nelder-Mead runs per candidate through the package's own ``minimize``, a
port of scipy's method="Nelder-Mead" with identical iterates, so scipy is
not needed at run time; on the analytic models it scores each iteration's
trial points in one objective call.  A fixed seed makes the search
deterministic.
"""

import numbers
from dataclasses import dataclass

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


@dataclass(frozen=True)
class _NelderMeadResult:
    x: np.ndarray  # best vertex of the final simplex
    fun: float
    nfev: int
    nit: int


class _MaxFev(Exception):
    """The evaluation budget is spent: abandon the current iteration."""


def minimize(fun, x0, *, fatol, xatol, maxiter, maxfev, lookahead=False):
    """Unbounded Nelder-Mead (Nelder & Mead, Comput. J. 7, 308, 1965) with
    the standard coefficients rho = 1, chi = 2, psi = sigma = 0.5.

    ``fun`` maps a (k, n) stack of vertices to its k values, each row with
    the bits of scoring that row alone, and gets a copy of the stack.
    Without ``lookahead`` every call is one vertex.  With it, one call
    scores the initial simplex, one each iteration's four trial points
    (reflection, expansion, outside and inside contraction, all known
    before any is scored, though at most two are used) and one a shrink's
    n vertices, so ``fun`` also meets points the serial method never
    evaluates.

    Either way, operation for operation the non-adaptive, unbounded
    ``scipy.optimize.minimize(fun, x0, method="Nelder-Mead")`` of scipy 1.17,
    so both give the same bits: the same initial simplex, vertex ordering
    and termination test; ``nfev`` counts only the points scipy evaluates;
    and a spent ``maxfev`` abandons the iteration uncounted, leaving a
    half-done shrink with the stale values of the vertices it did not reach.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    sim[1:][np.diag_indices(n)] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def scored(points):
        """value(k) of points[k], counted as one evaluation in the order
        the serial method meets it; raises _MaxFev once the budget is spent."""
        batch = fun(points.copy()) if lookahead and nfev < maxfev else None

        def value(k):
            nonlocal nfev
            if nfev >= maxfev:
                raise _MaxFev
            nfev += 1
            return batch[k] if lookahead else fun(points[k:k + 1].copy())[0]
        return value

    def by_value(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    value = scored(sim)
    try:
        for k in range(n + 1):
            fsim[k] = value(k)
    except _MaxFev:
        pass
    # sorted twice, as scipy does: argsort need not keep ties in place
    sim, fsim = by_value(*by_value(sim, fsim))
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= xatol
                    and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
                break
            xbar = sim[:-1].sum(axis=0) / n
            # reflection, expansion, outside and inside contraction
            trial = np.array([2 * xbar - sim[-1], 3 * xbar - 2 * sim[-1],
                              1.5 * xbar - 0.5 * sim[-1], 0.5 * xbar + 0.5 * sim[-1]])
            value = scored(trial)
            fxr = value(0)
            if fxr < fsim[0]:  # expand
                fxe = value(1)
                sim[-1], fsim[-1] = (trial[1], fxe) if fxe < fxr else (trial[0], fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = trial[0], fxr
            else:
                k = 2 if fxr < fsim[-1] else 3  # outside, else inside contraction
                fxc = value(k)
                if (fxc <= fxr) if k == 2 else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = trial[k], fxc
                else:  # shrink towards the best vertex
                    shrunk = sim[0] + 0.5 * (sim[1:] - sim[0])
                    value = scored(shrunk)
                    for j in range(1, n + 1):
                        sim[j] = shrunk[j - 1]
                        fsim[j] = value(j - 1)
            iterations += 1
        except _MaxFev:
            pass
        sim, fsim = by_value(sim, fsim)
    return _NelderMeadResult(x=sim[0], fun=np.min(fsim), nfev=nfev, nit=iterations)


def _clip_angles(x):
    """Map raw optimizer parameters (..., 2L) to valid loop angles (..., L, 2)
    plus a penalty that steers Nelder-Mead back into theta's [0, pi] box."""
    loops = np.array(x, dtype=float).reshape(np.shape(x)[:-1] + (-1, 2))
    thetas = loops[..., 0].copy()
    loops[..., 0] = np.clip(thetas, 0.0, np.pi)
    penalty = np.sum((thetas - loops[..., 0]) ** 2, axis=-1)
    return loops, penalty


def _score(products, target, penalty):
    """The objective 1 - |tr(u^dag target)| / 2 + 10 penalty of a product u
    or a stack; hypot rounds alike for one product and a batch, np.abs of
    complex does not."""
    tr = np.trace(dagger(products) @ target, axis1=-2, axis2=-1)
    return 1.0 - np.hypot(tr.real, tr.imag) / 2.0 + 10.0 * penalty


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

    Coarse 16x16-per-loop grid seeding (capped at a few thousand random
    combinations for multi-loop searches, scored from one table of the 256
    single-loop holonomies), then per-candidate Nelder-Mead refinement with
    restarts.  ``evaluations`` counts every grid candidate plus the points
    each refinement uses (its ``nfev``), not the trial points an analytic
    model scores ahead and discards.
    ``converged`` reports whether 1 - fidelity <= tol; an unreachable target
    yields converged=False, never an exception.  Fixed seed, identical bits.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise InvalidInput("target must be a 2x2 unitary")
    require_unitary(target, 1e-10, "target")
    if max_loops < 1:
        raise InvalidInput("max_loops must be >= 1")
    target = _canonical_phase(target)
    model = model or LoopModel("spherical_quadratic")
    rng = np.random.default_rng(seed)

    def objective(x):
        loops, penalty = _clip_angles(x)
        return _score(loop_product(loops, model), target, penalty)

    # the numeric model pays a Wilson loop per evaluation: shrink the budget
    grid_points = GRID_POINTS if model.analytic else 8
    restarts = RESTARTS if model.analytic else 3
    max_combinations = MAX_GRID_COMBINATIONS if model.analytic else 256
    maxiter = 4000 if model.analytic else 600
    # every grid loop is one of grid_points^2 (theta, phi) pairs: evaluate
    # each once into a table, then gather and multiply each candidate's
    # units from it, both _by_block.  An analytic loop is four 2x2 factors;
    # a numeric loop, a Wilson loop of its own, counts as BLOCK, so each is
    # one loop_product call as in Nelder-Mead.  A candidate is max_loops
    # factors, so the products' memory does not grow with max_loops.
    pairs = np.stack(np.meshgrid(np.linspace(0.0, np.pi, grid_points),
                                 np.linspace(-np.pi, np.pi, grid_points, endpoint=False),
                                 indexing="ij"), axis=-1)
    singles = pairs.reshape(-1, 1, 2)
    table = _by_block(lambda s: loop_product(singles[s], model), len(singles),
                      4 if model.analytic else BLOCK)
    table = table.reshape(grid_points, grid_points, 2, 2)
    t, p = _grid(rng, grid_points, max_loops, max_combinations)
    products = _by_block(lambda s: ordered_product(np.moveaxis(table[t[s], p[s]], 1, 0)),
                         len(t), max_loops)
    scores = _score(products, target, 0.0)
    evaluations = len(t)
    order = np.argsort(scores, kind="stable")
    # the grid holds at least 64 candidates, more than any restart count
    seeds = [pairs[t[i], p[i]].reshape(-1) for i in order[:restarts]]

    # restarts run in seed order; strict improvement keeps the lowest-index
    # winner on ties, so selection is deterministic.  An analytic objective
    # call costs about as much for the four trial points of an iteration as
    # for one, so it scores them together; a numeric one pays a Wilson loop
    # a point, so it scores only the points Nelder-Mead uses
    best_x, best_obj = None, np.inf
    for x0 in seeds:
        res = minimize(objective, x0, fatol=1e-14, xatol=1e-12,
                       maxiter=maxiter, maxfev=2 * maxiter, lookahead=model.analytic)
        evaluations += res.nfev
        if res.fun < best_obj:
            best_x, best_obj = res.x, res.fun
        if best_obj <= 1e-12:
            break

    loops = tuple(map(tuple, _clip_angles(best_x)[0].tolist()))
    achieved = loop_product(loops, model)
    fidelity = holonomy_fidelity(achieved, target)
    return SynthesisResult(
        loops=loops, achieved=achieved, fidelity=float(fidelity),
        evaluations=evaluations, converged=bool(1.0 - fidelity <= tol),
    )
