"""Time-dependent Schrodinger oracle for the adiabatic limit.

Real dynamics under H(E(t)) factorizes, for slow drives, into a scalar
dynamical phase exp(-i int eps_band dt / hbar) times the geometric loop
transport computed by the Wilson-loop integrator.  This module propagates
states exactly: since (d . gamma)^2 = |d|^2 I, one step under the frozen
midpoint Hamiltonian is exp(-i d0 dt/hbar) (cos(|d| dt/hbar) I - i sin(|d|
dt/hbar) dhat . gamma), unitary at any step size.  It strips the dynamical
phase by integrating the band energy numerically along the drive (correct
even when the quadratic-regime gap varies with direction), and compares the
projected band block against the Wilson loop.

hbar enters the package only here, in meV*s; with meV gaps, drives in the
ns-us range are already deep in the adiabatic regime.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._linalg import blocked_product, clifford_exp, dagger
from .algebra import default_basis
from .connection import gap_norms
from .errors import InvalidInput
from .holonomy import DEFAULT_STEPS, FieldPath, wilson_loop
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
            raise InvalidInput("total_time must be positive")
        if self.time_steps < 10:
            raise InvalidInput("time_steps must be at least 10")
        if self.path.kind == "sampled":
            segments = len(self.path.samples) - 1
            if self.time_steps < 10 * segments:
                raise InvalidInput(
                    f"time_steps must be >= 10x the {segments} path segments")


@lru_cache(maxsize=1)
def _gamma_table():
    """gamma as a real (5, 32) table of interleaved (re, im) pairs."""
    return default_basis().gamma.reshape(5, 16).view(float)


def _d_dot_gamma(comps):
    """The stack d . gamma (k, 4, 4) for d-components (k, 6), as one real
    (k, 5) @ (5, 32) matmul with _gamma_table."""
    return (comps[:, 1:] @ _gamma_table()).view(complex).reshape(-1, 4, 4)


def _propagate(drive, regime, m, block):
    """Propagate the column(s) of ``block`` and return them with the
    per-midpoint d-components (for energy integration).

    Each time step freezes the field at the midpoint of one segment of
    ``drive.path.points(drive.time_steps)``.  The discretization may round
    the segment count, so the true step count is the number of midpoints,
    and dt is total_time divided by it; stripping must use the same grid.
    The steps are multiplied in blocks (see _linalg.blocked_product); the
    degeneracy check covers the whole drive.
    """
    pts = drive.path.points(drive.time_steps)
    mids = 0.5 * (pts[1:] + pts[:-1])
    comps = d_components(mids, m, regime)
    norms = gap_norms(comps)
    dt = drive.total_time / len(mids)
    scale = dt / HBAR_MEV_S

    def units(lo, hi):
        x = -1j * scale * _d_dot_gamma(comps[lo:hi])
        return np.exp(-1j * scale * comps[lo:hi, 0])[:, None, None] * clifford_exp(x)

    return blocked_product(len(mids), units) @ block, comps, norms, dt


def evolve(drive, regime, m, psi0):
    """Schrodinger propagation of a unit state around the drive.

    Per-step exact exponential of the frozen midpoint Hamiltonian; the norm
    is conserved to roundoff at every step.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (4,):
        raise InvalidInput("psi0 must be a 4-vector")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise InvalidInput("psi0 must be normalized")
    psi, _, _, _ = _propagate(drive, regime, m, psi0[:, None])
    return psi[:, 0]


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

    The scalar phase exp(-i int eps_band dt / hbar) is removed using the
    midpoint-integrated band energy.  The fidelity is |tr(M^dag B)| / 2 with
    M the projected propagator block and B the Wilson-loop block in the same
    frame; leakage out of the band degrades it gracefully, and the adiabatic
    theorem drives it to 1 as total_time grows.  band_leakage is one minus
    the mean returned band population.
    """
    hol = wilson_loop(drive.path, regime, m, steps=wl_steps)
    reference = hol.block(band)
    frame = hol.frame(band)
    psi, comps, norms, dt = _propagate(drive, regime, m, frame)
    sign = 1.0 if band == "plus" else -1.0
    band_energy = comps[:, 0] + sign * norms
    psi = psi * np.exp(1j * band_energy.sum() * dt / HBAR_MEV_S)
    block = dagger(frame) @ psi
    populations = np.sum(np.abs(block) ** 2, axis=0)
    leakage = float(1.0 - populations.mean())
    fid = abs(np.trace(dagger(block) @ reference)) / 2.0
    return AdiabaticFidelity(
        fidelity=float(min(1.0, fid)), band_leakage=leakage,
        block=block, reference_block=reference, time_steps=len(comps),
    )
