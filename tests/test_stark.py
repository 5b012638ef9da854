import json

import numpy as np
import pytest

from holostark import (FeasibilityReport, InvalidInput, MaterialParams, UnknownMaterial,
                       builtin_materials, eigen_split, feasibility_report, hamiltonian,
                       material_table, material_lookup)
from holostark.stark import d_components

from util import (d_increment, isotropic_check, linear_hamiltonian_direct,
                  quadratic_hamiltonian_direct, random_unit)


class TestMaterials:
    def test_table_values(self, ge_b, si_b):
        assert (ge_b.alpha, ge_b.beta, ge_b.delta) == (1.0, -0.3, -0.36)
        assert ge_b.chi == 0.7e-3 and ge_b.rbar_angstrom == 91.0
        assert (si_b.alpha, si_b.beta, si_b.delta) == (1.0, -0.2, -0.42)
        assert si_b.chi == 1e-2 and si_b.rbar_angstrom == 34.4

    def test_ionization_energies(self):
        assert material_lookup("Ge", "B").ionization_meV == 10.4
        assert material_lookup("Ge", "Al").ionization_meV == 10.2
        assert material_lookup("Ge", "Ga").ionization_meV == 10.8
        assert material_lookup("Si", "Ga").ionization_meV == 65.0
        assert material_lookup("Si", "Al").ionization_meV == 57.0

    def test_unknown_material(self):
        with pytest.raises(UnknownMaterial):
            material_lookup("GaAs", "B")

    def test_builtin_listing(self):
        mats = builtin_materials()
        assert len(mats) == 6
        assert {(m.name, m.dopant) for m in mats} == {
            ("Ge", "B"), ("Ge", "Al"), ("Ge", "Ga"),
            ("Si", "B"), ("Si", "Al"), ("Si", "Ga")}

    def test_user_table(self, tmp_path):
        rec = dict(material="GaAs", dopant="Be", alpha=1.0, beta=-0.25,
                   delta=-0.4, chi=2e-3, rbar_angstrom=50.0, ionization_meV=28.0)
        path = tmp_path / "materials.json"
        path.write_text(json.dumps([rec]))
        table = material_table(json.loads(path.read_text()), path)
        m = material_lookup("GaAs", "Be", table=table)
        assert m.rbar_angstrom == 50.0
        with pytest.raises(UnknownMaterial):
            material_lookup("GaAs", "Be")

    def test_spherical_variant(self, ge_b):
        m = ge_b.spherical()
        assert m.beta == pytest.approx(-0.36 / np.sqrt(3), rel=1e-15)
        assert m.delta == ge_b.delta

    def test_invalid_constants_rejected(self, ge_b):
        from dataclasses import replace
        with pytest.raises(InvalidInput):
            replace(ge_b, rbar_angstrom=-1.0)

    @pytest.mark.parametrize("key, value", [("beta", np.nan), ("delta", np.inf),
                                            ("alpha", np.inf), ("chi", -np.inf)])
    def test_non_finite_constants_rejected(self, ge_b, key, value):
        from dataclasses import replace
        with pytest.raises(InvalidInput, match=f"needs finite constants, got {key} = "):
            replace(ge_b, **{key: value})


class TestDLinear:
    def test_hand_value(self, ge_b):
        d = d_components([1e5, 0.0, 0.0], ge_b, "linear")
        # 91 Angstrom * 1e5 V/m -> 0.91 meV dipole energy, times chi
        assert d[1] == pytest.approx(6.37e-4, rel=1e-12)
        assert d[2] == 0.0 and d[3] == 0.0
        assert d[0] == 0.0 and d[4] == 0.0 and d[5] == 0.0

    def test_zero_field(self, ge_b):
        d = d_components([0.0, 0.0, 0.0], ge_b, "linear")
        assert np.linalg.norm(d[1:]) == 0.0 and d[0] == 0.0

    def test_direction_independent_gap(self, ge_b, rng):
        e_mag = 2.5e5
        gaps = []
        for _ in range(100):
            d = d_components(random_unit(rng, 3) * e_mag, ge_b, "linear")
            gaps.append(eigen_split(d)[2])
        gaps = np.array(gaps)
        assert (gaps.max() - gaps.min()) / gaps.mean() <= 1e-12

    def test_axis_matches_body_diagonal(self, ge_b):
        g1 = eigen_split(d_components([1e5, 0, 0], ge_b, "linear"))[2]
        e = np.array([1, 1, 1]) * 1e5 / np.sqrt(3)
        g2 = eigen_split(d_components(e, ge_b, "linear"))[2]
        assert g1 == pytest.approx(g2, rel=1e-14)


class TestDQuadratic:
    def test_hand_values_along_z(self, ge_b):
        d = d_components([0.0, 0.0, 1e6], ge_b, "quadratic")
        # p0 E = 9.1 meV; prefactor -(9.1^2)/10.4 = -7.9625 meV
        assert d[0] == pytest.approx(-7.9625, rel=1e-12)
        assert np.allclose(d[1:5], 0.0, atol=0)
        assert d[5] == pytest.approx(2.38875, rel=1e-12)
        eps_minus, eps_plus, gap = eigen_split(d)
        assert eps_minus == pytest.approx(-10.35125, rel=1e-12)
        assert eps_plus == pytest.approx(-5.57375, rel=1e-12)
        assert gap == pytest.approx(4.7775, rel=1e-12)

    def test_zero_field(self, ge_b):
        d = d_components([0.0, 0.0, 0.0], ge_b, "quadratic")
        assert np.linalg.norm(d[1:]) == 0.0 and d[0] == 0.0

    @pytest.mark.parametrize("k", [300, 530])
    def test_weak_field_is_the_scaled_bilinear_form(self, ge_b, k):
        # B(E 2^-k, E 2^-k) = B(E, E) 2^-2k, rounded once: no product E_i E_j
        # underflows before the coefficients scale it (d subnormal at k = 530)
        e = np.array([0.3e6, -0.5e6, 0.8e6])
        d = d_components(np.ldexp(e, -k), ge_b, "quadratic")
        assert np.array_equal(d, np.ldexp(d_components(e, ge_b, "quadratic"), -2 * k))
        assert np.all(d != 0)

    @pytest.mark.parametrize("regime, magnitude", [("quadratic", 1e-170),
                                                   ("linear", 1e-320)])
    def test_d_vector_underflow_is_too_weak_not_a_gap_closure(self, ge_b, regime,
                                                              magnitude):
        with pytest.raises(InvalidInput, match="field too weak for float64: the "
                           "d-vector underflows"):
            d_components([0.0, magnitude, magnitude], ge_b, regime)

    def test_equal_component_symmetry(self, ge_b):
        d = d_components(np.array([1.0, 1.0, 0.0]) * 1e6 / np.sqrt(2), ge_b, "quadratic")
        assert d[4] == 0.0  # Ex^2 = Ey^2
        assert d[3] != 0.0  # ExEy term survives


class TestHamiltonian:
    def test_zero_d(self):
        d = np.zeros(6)
        assert np.abs(hamiltonian(d)).max() == 0.0

    def test_gamma5_only(self):
        d = np.array([0, 0, 0, 0, 0, 1.7])
        h = hamiltonian(d)
        assert np.allclose(np.linalg.eigvalsh(h), [-1.7, -1.7, 1.7, 1.7], atol=1e-13)

    def test_hermitian(self, ge_b, rng):
        for _ in range(20):
            h = hamiltonian(d_components(rng.normal(size=3) * 1e6, ge_b, "quadratic"))
            assert np.abs(h - h.conj().T).max() <= 1e-13

    def test_quadratic_matches_direct_construction(self, spin, ge_b, rng):
        for _ in range(50):
            e = rng.normal(size=3) * 1e6
            h = hamiltonian(d_components(e, ge_b, "quadratic"))
            assert np.abs(h - quadratic_hamiltonian_direct(e, ge_b, spin)).max() <= 1e-10

    def test_linear_matches_direct_construction(self, spin, ge_b, rng):
        for _ in range(50):
            e = rng.normal(size=3) * 1e5
            h = hamiltonian(d_components(e, ge_b, "linear"))
            assert np.abs(h - linear_hamiltonian_direct(e, ge_b, spin)).max() <= 1e-10

    def test_eigen_split_matches_diagonalization(self, ge_b, rng):
        for _ in range(50):
            d = d_components(rng.normal(size=3) * 1e6, ge_b, "quadratic")
            eps_minus, eps_plus, _ = eigen_split(d)
            w = np.linalg.eigvalsh(hamiltonian(d))
            assert np.abs(w - [eps_minus, eps_minus, eps_plus, eps_plus]).max() <= 1e-10

    def test_ge_b_quadratic_levels(self, ge_b):
        h = hamiltonian(d_components([0, 0, 1e6], ge_b, "quadratic"))
        w = np.linalg.eigvalsh(h)
        assert np.allclose(w, [-10.35125, -10.35125, -5.57375, -5.57375], atol=1e-10)


class TestKramers:
    @pytest.mark.parametrize("regime", ["linear", "quadratic"])
    def test_double_degeneracy(self, ge_b, rng, regime):
        for _ in range(100):
            d = d_components(rng.normal(size=3) * 1e6, ge_b, regime)
            w = np.linalg.eigvalsh(hamiltonian(d))
            assert w[1] - w[0] <= 1e-10
            assert w[3] - w[2] <= 1e-10


class TestIsotropicCheck:
    def test_along_z(self, ge_spherical, spin):
        assert isotropic_check([0.0, 0.0, 1e6], ge_spherical, spin) <= 1e-10

    def test_random_directions(self, ge_spherical, spin, rng):
        for _ in range(100):
            assert isotropic_check(random_unit(rng, 3), ge_spherical, spin) <= 1e-10

    def test_real_ge_is_anisotropic(self, ge_b, spin):
        assert isotropic_check([1.0, 1.0, 0.3], ge_b, spin) > 1e-3

    def test_quadratic_gap_depends_on_direction(self, ge_b):
        comps = d_components(np.array([[0, 0, 1.0], [1, 1, 1] / np.sqrt(3)]), ge_b,
                             "quadratic")
        gaps = 2 * np.linalg.norm(comps[:, 1:], axis=1)
        assert gaps.max() / gaps.min() > 1 + 1e-6


class TestFeasibility:
    def test_reference_numbers(self, ge_b):
        rep = feasibility_report(1e6, ge_b, 2020.0)
        # h * 2020 Hz in meV
        assert rep.drive_quantum_meV == pytest.approx(8.35404874592e-9, rel=1e-12)
        assert rep.gap_max_meV == pytest.approx(4.7775, rel=1e-12)
        assert rep.gap_min_meV == pytest.approx(
            2 * (9.1**2 / 10.4) * 0.36 / np.sqrt(3), rel=1e-12)
        assert rep.adiabaticity_ratio > 1e8
        assert rep.flags == []
        # worst-direction level shift sits just inside the ionization energy
        assert 0 < rep.ionization_margin_meV < 0.1

    def test_fast_rotation_flags_adiabaticity(self, ge_b):
        rep = feasibility_report(1e6, ge_b, 1e15)
        assert rep.drive_quantum_meV == pytest.approx(4.135667696e3, rel=1e-12)
        assert rep.adiabaticity_flag and "adiabaticity" in rep.flags

    def test_strong_field_flags_ionization(self, ge_b):
        rep = feasibility_report(1.2e6, ge_b, 2020.0)
        assert rep.ionization_flag

    @pytest.mark.parametrize("ratio, margin, flags", [
        (100.0, 0.0, []),
        (99.999, 0.0, ["adiabaticity"]),
        (100.0, -1e-12, ["ionization"]),
        (99.999, -1e-12, ["adiabaticity", "ionization"]),
    ], ids=["none", "adiabaticity", "ionization", "both"])
    def test_flags_derive_from_ratio_and_margin(self, ratio, margin, flags):
        rep = FeasibilityReport(gap_min_meV=1.0, gap_max_meV=2.0,
                                drive_quantum_meV=1.0 / ratio, adiabaticity_ratio=ratio,
                                ionization_margin_meV=margin)
        assert rep.flags == flags
        assert rep.adiabaticity_flag == ("adiabaticity" in flags)
        assert rep.ionization_flag == ("ionization" in flags)

    def test_invalid_inputs(self, ge_b):
        # 1e-320 Hz: h*f underflows to 0; 1e-300 Hz: the ratio overflows
        for freq in (0.0, 1e-320, 1e-300):
            with pytest.raises(InvalidInput):
                feasibility_report(1e6, ge_b, freq)
        with pytest.raises(InvalidInput):
            feasibility_report(0.0, ge_b, 2020.0)
        with pytest.raises(InvalidInput):
            feasibility_report(-1e6, ge_b, 2020.0)

    @pytest.mark.parametrize("regime", ["linear", "quadratic"])
    def test_extremes_bound_random_directions(self, rng, regime):
        # the seven cubic directions bound the gap and the level shifts over
        # the whole sphere, for any table: anisotropic or spherical
        for _ in range(20):
            m = MaterialParams(name="X", dopant="Y", alpha=rng.uniform(0.1, 2),
                               beta=rng.uniform(-1, 1), delta=rng.uniform(-1, 1),
                               chi=10 ** rng.uniform(-4, -1),
                               rbar_angstrom=rng.uniform(10, 100),
                               ionization_meV=rng.uniform(5, 70))
            e_mag = 10 ** rng.uniform(4, 6.5)
            for mat in (m, m.spherical()):
                rep = feasibility_report(e_mag, mat, 2020.0, regime=regime)
                e = rng.normal(size=(2000, 3))
                e *= e_mag / np.linalg.norm(e, axis=1, keepdims=True)
                comps = d_components(e, mat, regime)
                norms = np.linalg.norm(comps[:, 1:], axis=1)
                gaps = 2 * norms
                assert gaps.min() >= rep.gap_min_meV * (1 - 1e-12)
                assert gaps.max() <= rep.gap_max_meV * (1 + 1e-12)
                # the margin I - max shift carries rounding relative to I
                shift = (np.abs(comps[:, 0]) + norms).max()
                assert (mat.ionization_meV - shift
                        >= rep.ionization_margin_meV - 1e-12 * mat.ionization_meV)
                p0 = mat.dipole_mev_per_field
                if regime == "linear":
                    extremes = [2 * abs(p0 * mat.chi) * e_mag] * 2
                else:
                    k_e2 = p0 * p0 / mat.ionization_meV * e_mag ** 2  # |kappa| |E|^2
                    extremes = sorted([2 * k_e2 * abs(mat.beta),
                                       2 * k_e2 * abs(mat.delta) / np.sqrt(3)])
                assert [rep.gap_min_meV, rep.gap_max_meV] == pytest.approx(extremes,
                                                                           rel=1e-12)


class TestJacobian:
    @pytest.mark.parametrize("regime", ["linear", "quadratic"])
    def test_matches_finite_differences(self, ge_b, rng, regime):
        # J(e) u from the midpoint scheme's d_increment (tests/util.py)
        # against the central difference of d along u
        for _ in range(20):
            e = rng.normal(size=3) * 1e6
            u = random_unit(rng, 3)
            ju = d_increment(e, u, ge_b, regime)
            h = 1e-6 * np.linalg.norm(e)
            fd = (d_components(e + h * u, ge_b, regime)[1:]
                  - d_components(e - h * u, ge_b, regime)[1:]) / (2 * h)
            scale = max(np.abs(ju).max(), 1e-30)
            assert np.abs(fd - ju).max() <= 1e-6 * max(scale, 1.0)

    @pytest.mark.parametrize("regime", ["linear", "quadratic"])
    def test_midpoint_increment_is_the_chord_difference(self, ge_b, si_b, rng, regime):
        # d is linear or quadratic in E, so J((a+b)/2) (b-a) = d(b) - d(a)
        for m in (ge_b, si_b, ge_b.spherical()):
            a = rng.normal(size=(200, 3)) * 1e6
            b = a + rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(0, 6, (200, 1))
            inc = d_increment(0.5 * (a + b), b - a, m, regime)
            da = d_components(a, m, regime)[:, 1:]
            db = d_components(b, m, regime)[:, 1:]
            scale = np.maximum(np.linalg.norm(da, axis=1), np.linalg.norm(db, axis=1))
            rel = np.abs(inc - (db - da)).max(axis=1) / scale
            assert rel.max() <= 1e-15


def test_linear_dvector_invariant_enforced(ge_b, rng):
    # linear rows carry d1..d3 only; an unknown regime is rejected
    d = d_components(rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-3, 8, (200, 1)),
                     ge_b, "linear")
    assert np.all(d[:, [0, 4, 5]] == 0.0) and np.all(d[:, 1:4] != 0.0)
    with pytest.raises(InvalidInput):
        d_components([1e5, 0.0, 0.0], ge_b, "mixed")
