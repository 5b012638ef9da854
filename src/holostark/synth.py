"""Synthesis of field-loop sequences realizing target SU(2) gates.

A sequence of spherical-triangle loops, all anchored at the pole, composes
holonomies by left multiplication (later loops to the left).  The search is
derivative-free: a coarse grid over loop angles seeds Nelder-Mead
refinements with restarts; the objective 1 - |tr(u^dag target)| / 2 is
global-phase blind, matching holonomy equivalence classes.

Per-loop holonomies come from the analytic oracles where they are valid
(spherical quadratic model, linear regime); anisotropic quadratic materials
fall back to the numeric Wilson loop.  With a fixed seed the whole search is
deterministic.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ._linalg import require_unitary
from .errors import InvalidInput
from .holonomy import (_check_loop_angles, half_spin_band, holonomy_fidelity,
                       linear_triangle_holonomy, make_spherical_triangle,
                       wilson_loop, zee_holonomy)
from .stark import MaterialParams

GRID_POINTS = 16
MAX_GRID_COMBINATIONS = 4096
RESTARTS = 8


@dataclass(frozen=True)
class LoopModel:
    """Which physical model maps triangle angles to a 2x2 holonomy."""

    kind: str  # spherical_quadratic | linear | numeric_quadratic
    material: MaterialParams = None
    magnitude: float = None
    band: str = None
    steps: int = 4000

    @classmethod
    def spherical_quadratic(cls):
        """Idealized beta = delta/sqrt(3) quadratic model (analytic oracle)."""
        return cls(kind="spherical_quadratic")

    @classmethod
    def linear(cls):
        """Linear Stark regime at constant |E| (analytic oracle)."""
        return cls(kind="linear")

    @classmethod
    def numeric_quadratic(cls, material, magnitude, band=None, steps=1000):
        """Anisotropic quadratic material, evaluated by the Wilson loop.

        steps trades per-evaluation cost against holonomy accuracy (the
        refinement defect falls off as 1/steps^2; 1000 steps reaches ~1e-6).
        """
        band = band or half_spin_band(material)
        return cls(kind="numeric_quadratic", material=material,
                   magnitude=magnitude, band=band, steps=steps)

    @property
    def analytic(self):
        return self.kind in ("spherical_quadratic", "linear")


def loop_holonomy(theta, phi, model):
    """2x2 holonomy of a single (theta, phi) triangle under the model."""
    _check_loop_angles(theta, phi)
    if theta == 0.0 or phi == 0.0:
        return np.eye(2, dtype=complex)
    if model.kind == "spherical_quadratic":
        return zee_holonomy(theta, phi)
    if model.kind == "linear":
        return linear_triangle_holonomy(theta, phi)
    if model.kind == "numeric_quadratic":
        path = make_spherical_triangle(theta, phi, model.magnitude)
        result = wilson_loop(path, "quadratic", model.material, steps=model.steps)
        return result.block(model.band)
    raise InvalidInput(f"unknown loop model {model.kind!r}")


def loop_product(loops, model):
    """Ordered product of per-loop holonomies, later loops multiplying from
    the left: loop_product([a, b]) = holonomy(b) @ holonomy(a)."""
    u = np.eye(2, dtype=complex)
    for theta, phi in loops:
        u = loop_holonomy(theta, phi, model) @ u
    return u


@dataclass(frozen=True)
class SynthesisResult:
    loops: tuple  # ordered ((theta, phi), ...) triangle parameters
    achieved: np.ndarray
    fidelity: float
    evaluations: int
    converged: bool


def _clip_angles(x):
    """Map raw optimizer parameters to valid loop angles plus a penalty that
    steers Nelder-Mead back into theta's [0, pi] box."""
    x = np.asarray(x, dtype=float)
    thetas = x[0::2]
    phis = x[1::2]
    clipped = np.clip(thetas, 0.0, np.pi)
    penalty = float(np.sum((thetas - clipped) ** 2))
    loops = tuple((float(t), float(p)) for t, p in zip(clipped, phis))
    return loops, penalty


def _canonical_phase(target):
    """Strip the global phase: rotate so the largest-magnitude entry is real
    positive.  Phase-equivalent targets then drive identical searches (the
    objective is phase-blind anyway; this removes even float-level drift)."""
    flat = target.reshape(-1)
    k = int(np.argmax(np.abs(flat)))
    return target * (np.conj(flat[k]) / abs(flat[k]))


def synthesize(target, model=None, max_loops=3, tol=1e-6, seed=0):
    """Search for a loop sequence whose composed holonomy matches the target.

    Coarse 16x16-per-loop grid seeding (capped at a few thousand random
    combinations for multi-loop searches) followed by Nelder-Mead refinement
    with restarts.  ``converged`` reports whether 1 - fidelity <= tol; an
    unreachable target yields converged=False, never an exception.  Fixed
    seed implies a bit-for-bit identical result.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise InvalidInput("target must be a 2x2 unitary")
    require_unitary(target, 1e-10, "target")
    if max_loops < 1:
        raise InvalidInput("max_loops must be >= 1")
    target = _canonical_phase(target)
    model = model or LoopModel.spherical_quadratic()
    rng = np.random.default_rng(seed)
    evaluations = 0

    def objective(x):
        nonlocal evaluations
        evaluations += 1
        loops, penalty = _clip_angles(x)
        u = loop_product(loops, model)
        fid = abs(np.trace(u.conj().T @ target)) / 2.0
        return 1.0 - fid + 10.0 * penalty

    # the numeric model pays a Wilson loop per evaluation: shrink the budget
    grid_points = GRID_POINTS if model.analytic else 8
    restarts = RESTARTS if model.analytic else 3
    max_combinations = MAX_GRID_COMBINATIONS if model.analytic else 256
    maxiter = 4000 if model.analytic else 600

    theta_grid = np.linspace(0.0, np.pi, grid_points)
    phi_grid = np.linspace(-np.pi, np.pi, grid_points, endpoint=False)
    if max_loops == 1:
        candidates = np.array([(t, p) for t in theta_grid for p in phi_grid])
    else:
        n = max_combinations
        candidates = np.column_stack([
            theta_grid[rng.integers(0, grid_points, size=(n,))] if k % 2 == 0
            else phi_grid[rng.integers(0, grid_points, size=(n,))]
            for k in range(2 * max_loops)
        ])
        candidates = np.vstack([np.zeros((1, 2 * max_loops)), candidates])
    scores = np.array([objective(x) for x in candidates])
    order = np.argsort(scores, kind="stable")
    # the grid holds at least 64 candidates, more than any restart count
    seeds = [candidates[i] for i in order[:restarts]]

    # restarts run in seed order; strict improvement keeps the lowest-index
    # winner on ties, so selection is deterministic
    best_x, best_obj = None, np.inf
    for x0 in seeds:
        res = minimize(objective, x0, method="Nelder-Mead",
                       options=dict(fatol=1e-14, xatol=1e-12,
                                    maxiter=maxiter, maxfev=2 * maxiter))
        if res.fun < best_obj:
            best_x, best_obj = res.x, res.fun
        if best_obj <= 1e-12:
            break

    loops, _ = _clip_angles(best_x)
    achieved = loop_product(loops, model)
    fidelity = holonomy_fidelity(achieved, target)
    return SynthesisResult(
        loops=loops, achieved=achieved, fidelity=float(fidelity),
        evaluations=evaluations, converged=bool(1.0 - fidelity <= tol),
    )
