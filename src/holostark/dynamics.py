"""Time-dependent Schrodinger oracle for the adiabatic limit.

Real dynamics under H(E(t)) factorizes, for slow drives, into a scalar
dynamical phase exp(-i int eps_band dt / hbar) times the geometric loop
transport computed by the Wilson-loop integrator.  This module propagates
states exactly.  H = d0 I + d . gamma, and d0 I commutes with every step, so
the d0 part of the evolution is the one scalar exp(-i sum d0 dt/hbar).  The
steps proper are the traceless rotations exp(-i (dt/hbar) d . gamma) =
cos(|d| dt/hbar) I - i sin(|d| dt/hbar) dhat . gamma of the frozen midpoint
field, since (d . gamma)^2 = |d|^2 I: unitary at any step size.  Comparing
with the Wilson loop strips the band part exp(-+i sum |d| dt/hbar) of the
dynamical phase, integrated numerically along the drive (correct even when
the quadratic-regime gap varies with direction); d0 cancels from it exactly.

hbar enters the package only here, in meV*s; with meV gaps, drives in the
ns-us range are already deep in the adiabatic regime.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import blocked_product, dagger, exp_coefficients
from .algebra import step_table
from .connection import gap_norms
from .errors import InvalidInput, _ArgumentError
from .holonomy import DEFAULT_STEPS, MIN_STEPS, FieldPath, _is_plus, wilson_loop
from .stark import d_components
from .units import HBAR_MEV_S


@dataclass(frozen=True)
class Drive:
    """A field loop traversed uniformly over a total time (seconds)."""

    path: FieldPath
    total_time: float
    time_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.total_time) and self.total_time > 0):
            raise _ArgumentError("total_time", "total_time must be finite and positive, "
                                 f"got {self.total_time!r}")
        if self.time_steps < 10:
            raise _ArgumentError("time_steps", "time_steps must be at least 10, "
                                 f"got {self.time_steps!r}")
        if self.path.kind == "sampled":
            segments = len(self.path.samples) - 1
            if self.time_steps < 10 * segments:
                raise _ArgumentError("time_steps", f"time_steps must be >= 10x the "
                                     f"{segments} path segments, got {self.time_steps!r}")


def _drive_steps(drive, regime, m):
    """The drive's per-midpoint d-components, their |d| and dt, after
    checking that the gap stays open, that float64 holds the summed level
    shifts and that their phase stays below 2^53 rad.

    Each time step freezes the field at the midpoint of one segment of
    ``drive.path.points(drive.time_steps)``: exactly time_steps of them on a
    triangle or latitude loop, and on a sampled path time_steps rounded up
    to whole substeps per segment.  dt is total_time divided by the number
    of midpoints; phases must use the same grid.
    """
    pts = drive.path.points(drive.time_steps)
    mids = 0.5 * pts[1:] + 0.5 * pts[:-1]
    comps = d_components(mids, m, regime)
    norms = gap_norms(comps)
    dt = drive.total_time / len(mids)
    # the callers sum level shifts and their phases over the drive; past
    # 2^53 rad a float64 phase keeps no angle at all
    with np.errstate(over="ignore"):
        shifts = len(mids) * (np.abs(comps[:, 0]) + norms).max()
        phase = shifts * (dt / HBAR_MEV_S)
    if not np.isfinite(shifts):
        raise InvalidInput("field too strong for float64: summed level shifts overflow")
    if not phase <= 2.0 ** 53:
        raise _ArgumentError("total_time", f"a {drive.total_time!r} s drive sums "
                             "its phase past 2^53 rad, where float64 keeps no angle")
    return comps, norms, dt


def _propagate(comps, norms, dt, block):
    """Propagate the column(s) of ``block`` through the traceless steps
    exp(-i (dt/hbar) d . gamma) of a checked drive (_drive_steps), built and
    multiplied in real form (blocked_product); the d0 phase is left to the
    caller.  A step squares to -((dt/hbar)|d|)^2 I, so its angle is a norm."""
    scale = dt / HBAR_MEV_S
    theta = scale * norms
    return blocked_product(len(comps), step_table("schrodinger"), lambda lo, hi, out:
                           exp_coefficients(scale * comps[lo:hi, 1:], theta[lo:hi],
                                            out=out)) @ block


def evolve(drive, regime, m, psi0):
    """Schrodinger propagation of a unit state around the drive.

    Per-step exact exponential of the traceless part of the frozen midpoint
    Hamiltonian, then the scalar d0 phase exp(-i sum d0 dt/hbar) once; the
    norm is conserved to roundoff at every step.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (4,):
        raise InvalidInput("psi0 must be a 4-vector")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise InvalidInput("psi0 must be normalized")
    comps, norms, dt = _drive_steps(drive, regime, m)
    psi = _propagate(comps, norms, dt, psi0[:, None])
    return np.exp(-1j * comps[:, 0].sum() * dt / HBAR_MEV_S) * psi[:, 0]


@dataclass(frozen=True)
class AdiabaticFidelity:
    """Outcome of one adiabatic-limit comparison."""

    fidelity: float
    band_leakage: float
    block: np.ndarray  # stripped, band-projected 2x2 propagator block
    reference_block: np.ndarray  # Wilson-loop block in the same frame
    time_steps: int  # Schrodinger steps propagated (midpoints of the drive)


def adiabatic_fidelity(drive, regime, m, band="minus", wl_steps=DEFAULT_STEPS):
    """Transport both basepoint frame vectors of a band and compare with the
    Wilson loop after stripping the dynamical phase.

    The band energy is eps = d0 +- |d|.  The propagation never applies the
    d0 phase (see _propagate), so only exp(-+i sum |d| dt / hbar), the
    midpoint-integrated band part, is removed; the result does not depend
    on d0 at all.  The fidelity is |tr(M^dag B)| / 2 with M the projected
    propagator block and B the Wilson-loop block in the same frame; leakage
    out of the band degrades it gracefully, and the adiabatic theorem
    drives it to 1 as total_time grows.  band_leakage is one minus
    the mean returned band population.  band and wl_steps, then the drive,
    are checked before any work, so a rejected input costs no transport.
    """
    sign = 1.0 if _is_plus(band) else -1.0
    if wl_steps < MIN_STEPS:
        raise _ArgumentError("wl_steps", f"steps must be >= {MIN_STEPS}")
    comps, norms, dt = _drive_steps(drive, regime, m)
    hol = wilson_loop(drive.path, regime, m, steps=wl_steps)
    reference = hol.block(band)
    frame = hol.frame(band)
    psi = _propagate(comps, norms, dt, frame)
    psi = psi * np.exp(1j * sign * norms.sum() * dt / HBAR_MEV_S)
    block = dagger(frame) @ psi
    leakage = float(1.0 - np.sum(np.abs(block) ** 2, axis=0).mean())
    fid = abs(np.trace(dagger(block) @ reference)) / 2.0
    return AdiabaticFidelity(
        fidelity=float(min(1.0, fid)), band_leakage=leakage,
        block=block, reference_block=reference, time_steps=len(comps),
    )
