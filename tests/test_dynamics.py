from dataclasses import replace

import numpy as np
import pytest

from holostark import (Drive, InvalidInput, adiabatic_fidelity, evolve,
                       hamiltonian, linear_stark_holonomy, make_latitude_loop,
                       make_spherical_triangle, sampled_path, wilson_loop)
from holostark.connection import transport_exponents
from holostark.stark import d_components
from holostark.units import HBAR_MEV_S

from util import (expm_antiherm, midpoint_exponents_einsum, transport_matrices,
                  unitarize)

OCTANT = make_spherical_triangle(np.pi / 2, np.pi / 2, 1e6)


def static_path(e=(0.0, 0.0, 1e6)):
    return sampled_path(np.array([e, e, e]))


class TestDrive:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            Drive(path=OCTANT, total_time=0.0, time_steps=1000)
        with pytest.raises(InvalidInput):
            Drive(path=OCTANT, total_time=1e-9, time_steps=5)
        with pytest.raises(InvalidInput):
            Drive(path=static_path(), total_time=1e-9, time_steps=12)


class TestEvolve:
    def test_static_field_matches_eigendecomposition(self, ge_b):
        t = 3.7e-10
        drive = Drive(path=static_path(), total_time=t, time_steps=200)
        psi0 = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        out = evolve(drive, "quadratic", ge_b, psi0)
        h = hamiltonian(d_components([0, 0, 1e6], ge_b, "quadratic"))
        w, v = np.linalg.eigh(h)
        expected = v @ (np.exp(-1j * w * t / HBAR_MEV_S) * (v.conj().T @ psi0))
        assert np.abs(out - expected).max() <= 1e-10

    def test_short_time_limit(self, ge_b):
        # dynamical phase ~ eps*T/hbar ~ 1.6e-10 rad at this T
        drive = Drive(path=static_path(), total_time=1e-23, time_steps=100)
        psi0 = np.array([1.0, 0, 0, 0], dtype=complex)
        assert np.abs(evolve(drive, "quadratic", ge_b, psi0) - psi0).max() <= 1e-9

    def test_norm_conserved(self, ge_spherical, rng):
        psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi0 = psi0 / np.linalg.norm(psi0)
        drive = Drive(path=OCTANT, total_time=2e-10, time_steps=5000)
        out = evolve(drive, "quadratic", ge_spherical, psi0)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9

    def test_requires_normalized_state(self, ge_b):
        drive = Drive(path=static_path(), total_time=1e-10, time_steps=100)
        with pytest.raises(InvalidInput):
            evolve(drive, "quadratic", ge_b, np.array([1.0, 1.0, 0, 0]))

    def test_requires_a_four_vector(self, ge_b):
        drive = Drive(path=static_path(), total_time=1e-10, time_steps=100)
        with pytest.raises(InvalidInput, match="psi0 must be a 4-vector"):
            evolve(drive, "quadratic", ge_b, np.array([1.0, 0, 0]))

    def test_eigenstate_stays_in_band_when_slow(self, ge_spherical):
        h = hamiltonian(d_components([0, 0, 1e6], ge_spherical, "quadratic"))
        w, v = np.linalg.eigh(h)
        psi0 = v[:, 0]  # lower band
        drive = Drive(path=OCTANT, total_time=2e-9, time_steps=20000)
        out = evolve(drive, "quadratic", ge_spherical, psi0)
        pop = np.abs(v[:, :2].conj().T @ out) ** 2
        assert pop.sum() >= 1.0 - 1e-4


@pytest.mark.parametrize("total_time, ionization_meV", [
    (1e300, None),  # dt/hbar overflows
    (1e200, None),  # every phase is finite, but the summed one is past 2^53 rad
    (1e120, None),
    (1e40, None),
    (1e-9, 1e-305),  # |d0| is finite, the sum of the level shifts is not
])
def test_phase_overflow_raises_before_propagating(ge_spherical, total_time,
                                                   ionization_meV):
    # warnings are errors in this suite, so no numpy overflow may come first
    m = ge_spherical
    if ionization_meV is not None:  # a huge d0 = kappa alpha |E|^2, small |d|
        m = replace(m, delta=-1e-160, ionization_meV=ionization_meV).spherical()
    drive = Drive(path=OCTANT, total_time=total_time, time_steps=2000)
    with pytest.raises(InvalidInput):
        evolve(drive, "quadratic", m, np.array([1.0, 0, 0, 0]))
    with pytest.raises(InvalidInput):
        adiabatic_fidelity(drive, "quadratic", m, wl_steps=400)


class TestAdiabaticFidelity:
    def test_static_drive_identity(self, ge_b):
        drive = Drive(path=static_path(), total_time=7e-10, time_steps=300)
        out = adiabatic_fidelity(drive, "quadratic", ge_b, band="minus")
        assert out.fidelity >= 1.0 - 1e-9
        assert np.abs(out.block - np.eye(2)).max() <= 1e-9
        assert out.band_leakage <= 1e-12

    def test_invariant_under_d0(self, ge_spherical):
        # alpha moves only d0, whose phase commutes with every step and is
        # never applied, so the stripped block keeps its bits
        drive = Drive(path=OCTANT, total_time=5e-10, time_steps=5000)
        out = [adiabatic_fidelity(drive, "quadratic", m, band="minus", wl_steps=2000)
               for m in (ge_spherical, replace(ge_spherical, alpha=3.0))]
        assert out[0].fidelity == out[1].fidelity
        assert out[0].band_leakage == out[1].band_leakage
        assert np.array_equal(out[0].block, out[1].block)

    def test_retraced_path_is_identity(self, ge_spherical):
        path = make_spherical_triangle(0.8, 0.0, 1e6)
        drive = Drive(path=path, total_time=2e-9, time_steps=20000)
        out = adiabatic_fidelity(drive, "quadratic", ge_spherical, band="minus",
                                 wl_steps=4000)
        assert out.fidelity >= 1.0 - 1e-6
        assert np.abs(unitarize(out.block) - np.eye(2)).max() <= 1e-3

    def test_octant_adiabatic_convergence(self, ge_spherical):
        # empirical convergence order >= 1 in 1/T: a decade of T buys at
        # least a decade of fidelity (measured ~two decades)
        errors = []
        for t, steps in ((5e-11, 20000), (5e-10, 20000)):
            drive = Drive(path=OCTANT, total_time=t, time_steps=steps)
            out = adiabatic_fidelity(drive, "quadratic", ge_spherical,
                                     band="minus", wl_steps=8000)
            errors.append(1.0 - out.fidelity)
        assert errors[1] < errors[0] / 10.0

    def test_leakage_decreases_with_time(self, ge_spherical):
        leaks = []
        for t in (5e-11, 5e-10):
            drive = Drive(path=OCTANT, total_time=t, time_steps=20000)
            out = adiabatic_fidelity(drive, "quadratic", ge_spherical,
                                     band="minus", wl_steps=4000)
            leaks.append(out.band_leakage)
        assert leaks[1] < leaks[0]

    def test_linear_equatorial_matches_oracle(self, ge_b):
        from holostark import eigenphase_distance
        loop = make_latitude_loop(np.pi / 2, 1e6)
        # the residual finite-T phase falls off as 1/T; this T brings it
        # below the 1e-4 comparison tolerance
        drive = Drive(path=loop, total_time=5e-6, time_steps=60000)
        out = adiabatic_fidelity(drive, "linear", ge_b, band="plus",
                                 wl_steps=8000)
        oracle = linear_stark_holonomy(loop, steps=8000)
        assert eigenphase_distance(unitarize(out.block), oracle) <= 1e-4
        assert out.fidelity >= 1.0 - 1e-5

    def test_generic_triangle_orientation(self, ge_spherical):
        # fidelity singles out the transport direction: comparing against the
        # inverse holonomy must fail where comparing against the holonomy works
        path = make_spherical_triangle(0.7, 1.1, 1e6)
        drive = Drive(path=path, total_time=2e-9, time_steps=40000)
        out = adiabatic_fidelity(drive, "quadratic", ge_spherical, band="minus",
                                 wl_steps=8000)
        assert out.fidelity >= 0.9999
        inverted = abs(np.trace(out.block.conj().T
                                @ out.reference_block.conj().T)) / 2
        assert inverted < 0.99

    def test_hermitian_exponent_variant_fails(self, ge_spherical):
        # the Hermitian exponent variant (extra factor of i, found in some
        # references) is not unitary and cannot reproduce the dynamics; the
        # anti-Hermitian convention is the unique choice arbitrated by the
        # Schrodinger oracle.  Its rotor form, (1 + b a)/|1 + b a| from a to
        # b, is singled out the same way: the opposite orientation, (1 + a b)
        # /|1 + a b|, is as unitary, but the oracle rejects it
        from scipy.linalg import expm
        drive = Drive(path=OCTANT, total_time=2e-9, time_steps=40000)
        out = adiabatic_fidelity(drive, "quadratic", ge_spherical, band="minus",
                                 wl_steps=2000)
        rows = transport_exponents(OCTANT.points(2000), "quadratic", ge_spherical)
        frame = wilson_loop(OCTANT, "quadratic", ge_spherical, 2000).frame("minus")
        for sign, agrees in ((1.0, True), (-1.0, False)):
            steps = transport_matrices(rows * np.r_[1.0, np.full(10, sign)])
            full = np.eye(4, dtype=complex)
            for u in steps:
                full = u @ full
            block = frame.conj().T @ full @ frame
            fidelity = abs(np.trace(out.block.conj().T @ block)) / 2
            assert (fidelity >= 0.9999) if agrees else (fidelity < 0.99)
        pts = OCTANT.points(2000)
        exponents = midpoint_exponents_einsum(pts, "quadratic", ge_spherical)
        hermitian_variant = np.eye(4, dtype=complex)
        for w in 1j * exponents:
            hermitian_variant = expm(w) @ hermitian_variant
        defect = np.abs(hermitian_variant.conj().T @ hermitian_variant
                        - np.eye(4)).max()
        assert defect > 1e-2  # visibly non-unitary: no fidelity comparison holds
        repaired = np.eye(4, dtype=complex)
        for u in expm_antiherm(exponents):
            repaired = u @ repaired
        assert np.abs(repaired.conj().T @ repaired - np.eye(4)).max() <= 1e-10
