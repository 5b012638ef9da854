"""The benchmark's workloads: seeded CLI inputs and the checks on each answer.

Every workload is a list of CLI argument vectors for ``holostark.cli.main``
plus, per call, a check that turns a wrong answer into a failure.  Inputs are
written as the JSON path and target files the CLI reads, so the program sees
only the generated files.  The same seed writes the same files.

Checks use the package's oracles, bound at import time from
``holostark.holonomy`` (``zee_holonomy``, ``linear_triangle_holonomy``,
``wilson_loop``), which the traced run never wraps: a check never adds spans.
"""

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from holostark import cli
from holostark.algebra import default_basis
from holostark.holonomy import (eigenphase_distance, half_spin_band,
                                linear_triangle_holonomy, make_spherical_triangle,
                                wilson_loop, zee_holonomy)
from holostark.stark import material_lookup

GE_B = material_lookup("Ge", "B")
GE_B_SPHERICAL = GE_B.spherical()
MAGNITUDE = 1e6  # |E| in V/m for every generated loop
THETA_RANGE = (0.2, 1.4)
PHI_RANGE = (-2.8, 2.8)
# blocks of a finite-step run are unitary only to the integration tolerance;
# the CLI reports eigenphases at the same tolerance
UNITARY_TOL = 1e-3


@dataclass
class Call:
    """One CLI call and the check of its answer.

    ``check(code, record)`` returns ``(ok, error)``: ``error`` is the
    accuracy figure of a passing call (eigenphase distance in rad, or
    ``1 - fidelity``) or None where the workload has no such figure.
    """

    argv: list
    check: object
    accuracy: str = None  # metric name the error feeds, if any


@dataclass(frozen=True)
class Workload:
    """A named set of seeded inputs.

    ``why`` is the one-line reason the workload exists and ``isolates`` the
    layer it is meant to isolate; a claimed gain cites workloads by name.
    ``sizes`` holds the full-run sizes and ``smoke`` the tiny ones used by
    the benchmark's own tests.  ``pool`` inputs are generated in set-up and
    issued in order, cycling if the run outlasts them.  ``trace_calls`` is
    the fixed number of calls the traced run repeats under tracing.
    """

    name: str
    why: str
    isolates: str
    make_calls: object
    sizes: dict = field(default_factory=dict)
    smoke: dict = field(default_factory=dict)

    def set_up(self, seed, workdir, smoke=False):
        """Everything a run does before its first timed call, after imports:
        build the CLI parser, fill the basis cache and write the inputs."""
        cli.build_parser()
        default_basis()
        sizes = self.smoke if smoke else self.sizes
        return self.make_calls(workload_rng(self.name, seed), sizes, workdir)


def workload_rng(name, seed):
    """Generator for one workload's inputs: a function of the seed only."""
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


def _triangle(rng):
    return (float(rng.uniform(*THETA_RANGE)), float(rng.uniform(*PHI_RANGE)))


def _path_file(workdir, i, theta, phi):
    return _write_json(Path(workdir) / f"path{i:03d}.json",
                       {"kind": "spherical_triangle", "theta": theta, "phi": phi,
                        "magnitude_V_per_m": MAGNITUDE})


def _target_file(workdir, i, u):
    u = np.asarray(u, dtype=complex)
    return _write_json(Path(workdir) / f"target{i:03d}.json",
                       {"matrix": [[[z.real, z.imag] for z in row] for row in u]})


def _matrix(entries):
    return np.array([[complex(re, im) for re, im in row] for row in entries])


def _fidelity(u, v):
    """Phase-blind overlap |tr(u^dag v)| / 2, with no unitarity precondition."""
    return float(abs(np.trace(np.conj(u).T @ v)) / 2.0)


def _check_holonomy(oracle, tol):
    """Exit 0, converged, and (with an oracle) the selected block's
    eigenphases within ``tol`` of the oracle's."""

    def check(code, record):
        if code != 0 or record is None:
            return False, None
        results = record["results"]
        if results["converged"] is not True:
            return False, None
        if oracle is None:
            return True, None
        err = eigenphase_distance(_matrix(results["selected_block"]), oracle(),
                                  tol=UNITARY_TOL)
        return err <= tol, err

    return check


def wilson_fine_calls(rng, sizes, workdir):
    """Seeded triangles cycled through three models: spherical quadratic
    (zee_holonomy oracle on the half-spin band), linear (closed-form
    triangle oracle) and anisotropic quadratic (convergence only)."""
    steps = str(sizes["steps"])
    common = ["--steps", steps, "--defect-tol", repr(sizes["defect_tol"])]
    band = half_spin_band(GE_B_SPHERICAL)
    calls = []
    for i in range(sizes["pool"]):
        theta, phi = _triangle(rng)
        path = _path_file(workdir, i, theta, phi)
        kind = i % 3
        if kind == 0:
            argv = ["holonomy", "--path", path, "--regime", "quadratic",
                    "--spherical", "--band", band]
            oracle = (lambda t=theta, p=phi: zee_holonomy(t, p))
        elif kind == 1:
            argv = ["holonomy", "--path", path, "--regime", "linear"]
            oracle = (lambda t=theta, p=phi: linear_triangle_holonomy(t, p))
        else:
            argv = ["holonomy", "--path", path, "--regime", "quadratic"]
            oracle = None
        calls.append(Call(argv + common, _check_holonomy(oracle, sizes["phase_err_max"]),
                          accuracy="max_phase_err" if oracle else None))
    return calls


def _check_adiabatic(theta, phi, sizes):
    """The record's infidelity within the threshold, recomputed from its two
    blocks, and its Wilson block on the zee_holonomy oracle."""

    def check(code, record):
        if code != 0 or record is None:
            return False, None
        results = record["results"]
        stripped = _matrix(results["stripped_block"])
        wilson = _matrix(results["wilson_block"])
        infidelity = 1.0 - results["fidelity"]
        recomputed = 1.0 - min(1.0, _fidelity(stripped, wilson))
        if abs(recomputed - infidelity) > 1e-12:
            return False, infidelity
        err = eigenphase_distance(wilson, zee_holonomy(theta, phi), tol=UNITARY_TOL)
        ok = (infidelity <= sizes["infidelity_max"]
              and err <= sizes["phase_err_max"])
        return ok, infidelity

    return check


def adiabatic_calls(rng, sizes, workdir):
    """Seeded triangles driven in time on spherical Ge:B."""
    calls = []
    for i in range(sizes["pool"]):
        theta, phi = _triangle(rng)
        path = _path_file(workdir, i, theta, phi)
        argv = ["verify-adiabatic", "--path", path, "--regime", "quadratic",
                "--spherical", "--T", repr(sizes["T"]),
                "--time-steps", str(sizes["time_steps"]),
                "--wl-steps", str(sizes["wl_steps"])]
        calls.append(Call(argv, _check_adiabatic(theta, phi, sizes),
                          accuracy="max_infidelity"))
    return calls


def haar_unitary(rng):
    """Haar-random U(2) element (QR of a complex Gaussian, phases fixed)."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _loop_oracle(loops, holonomy):
    u = np.eye(2, dtype=complex)
    for theta, phi in loops:
        if theta != 0.0 and phi != 0.0:
            u = holonomy(theta, phi) @ u
    return u


def _check_synth(target, tol, holonomy):
    """Exit 0, converged, and the returned loops, re-evaluated with the
    oracle, reaching fidelity >= 1 - tol on the target."""

    def check(code, record):
        if code != 0 or record is None:
            return False, None
        results = record["results"]
        if results["converged"] is not True:
            return False, None
        infidelity = 1.0 - _fidelity(_loop_oracle(results["loops"], holonomy), target)
        return infidelity <= tol, infidelity

    return check


def _synth_argv(target_file, sizes, seed):
    return ["synth", "--target", target_file, "--max-loops", str(sizes["max_loops"]),
            "--tol", repr(sizes["tol"]), "--seed", str(seed)]


def synth_analytic_calls(rng, sizes, workdir):
    """Haar-random targets for the closed-form spherical-quadratic model."""
    calls = []
    for i in range(sizes["pool"]):
        target = haar_unitary(rng)
        argv = _synth_argv(_target_file(workdir, i, target), sizes,
                           int(rng.integers(2**31)))
        calls.append(Call(argv, _check_synth(target, sizes["tol"],
                                             lambda t, p: zee_holonomy(t, p)),
                          accuracy="max_infidelity"))
    return calls


def _numeric_holonomy(steps, band):
    def holonomy(theta, phi):
        path = make_spherical_triangle(theta, phi, MAGNITUDE)
        return wilson_loop(path, "quadratic", GE_B, steps=steps).block(band)
    return holonomy


def synth_numeric_calls(rng, sizes, workdir):
    """Targets that are numeric-model holonomies of seeded triangles, made
    exactly unitary (polar factor), so each is reachable."""
    holonomy = _numeric_holonomy(sizes["model_steps"], half_spin_band(GE_B))
    calls = []
    for i in range(sizes["pool"]):
        w, _, vh = np.linalg.svd(holonomy(*_triangle(rng)))
        target = w @ vh
        argv = _synth_argv(_target_file(workdir, i, target), sizes,
                           int(rng.integers(2**31)))
        argv += ["--model", "numeric_quadratic", "--magnitude", repr(MAGNITUDE)]
        calls.append(Call(argv, _check_synth(target, sizes["tol"], holonomy),
                          accuracy="max_infidelity"))
    return calls


WORKLOADS = {w.name: w for w in [
    Workload(
        name="wilson-fine",
        why="per-step transport is nearly all the work; synth and dynamics stay idle",
        isolates="holonomy -> connection -> stark (FieldPath.points, "
                 "transport_exponents, step exponentials, ordered product)",
        make_calls=wilson_fine_calls,
        # phase_err_max: worst case over the theta/phi corners at 20000 steps
        # is 9.2e-9 (zee) and 2.6e-9 (linear), 1.2e-8 over 200 seeded
        # triangles; the smoke value scales 1e-7 by (20000/400)^2
        sizes=dict(steps=20000, defect_tol=1e-6, phase_err_max=1e-7,
                   pool=48, trace_calls=3),
        smoke=dict(steps=400, defect_tol=1e-3, phase_err_max=2.5e-4,
                   pool=3, trace_calls=3),
    ),
    Workload(
        name="adiabatic",
        why="the only workload that exercises dynamics: Schrodinger propagation "
            "is two thirds of each call, one Wilson loop the rest",
        isolates="dynamics (adiabatic_fidelity propagation and phase stripping)",
        make_calls=adiabatic_calls,
        # infidelity_max: worst case on a 7x8 theta/phi grid is 1.7e-5, and
        # 1.8e-5 over 200 seeded triangles
        sizes=dict(T=5e-10, time_steps=30000, wl_steps=20000, infidelity_max=1e-4,
                   phase_err_max=1e-7, pool=48, trace_calls=3),
        smoke=dict(T=5e-10, time_steps=2000, wl_steps=400, infidelity_max=1e-4,
                   phase_err_max=2.5e-4, pool=2, trace_calls=2),
    ),
    Workload(
        name="synth-analytic",
        why="about 4,600 closed-form 2x2 evaluations per target; wilson_loop "
            "and dynamics are never called, so a Wilson-kernel change should not move it",
        isolates="synth (grid scoring and Nelder-Mead over zee_holonomy)",
        make_calls=synth_analytic_calls,
        sizes=dict(max_loops=3, tol=1e-3, pool=32, trace_calls=2),
        smoke=dict(max_loops=2, tol=1e-3, pool=2, trace_calls=2),
    ),
    # Not listed in BENCHMARK.json: one call takes 20-31 s (1,264 to 1,743
    # evaluations, depending on how many Nelder-Mead restarts the target
    # needs), so a run holds a single call and its time spreads across seeds
    # by more than any bound allows.  Run it by name to measure ROADMAP item 3.
    Workload(
        name="synth-numeric",
        why="synth over numeric Wilson loops of 1,000 steps (about 1,700 per "
            "target), so per-call fixed cost of the holonomy layer matters",
        isolates="synth -> holonomy (numeric_quadratic model)",
        make_calls=synth_numeric_calls,
        sizes=dict(max_loops=1, tol=1e-6, model_steps=1000, pool=4, trace_calls=1),
        smoke=dict(max_loops=1, tol=1e-6, model_steps=1000, pool=1, trace_calls=1),
    ),
]}

