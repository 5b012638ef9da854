import numpy as np
import pytest

from holostark import (DegeneratePoint, connection_d, d_quadratic, projectors,
                       transport_exponents)
from holostark.stark import DVector


def random_dvector(rng, scale=1.0):
    return DVector(d0=float(rng.normal()), d=rng.normal(size=5) * scale,
                   regime="quadratic")


def fd_commutator(d, a, h, band="plus"):
    """[dP/d(d_a), P] by central differences, from either projector."""
    idx = 0 if band == "plus" else 1
    step = np.zeros(5)
    step[a] = h
    pp = projectors(DVector(d0=d.d0, d=d.d + step, regime=d.regime))[idx]
    pm = projectors(DVector(d0=d.d0, d=d.d - step, regime=d.regime))[idx]
    dp = (pp - pm) / (2 * h)
    p = projectors(d)[idx]
    return dp @ p - p @ dp


class TestProjectors:
    def test_identities_on_random_d(self, rng):
        for _ in range(100):
            d = random_dvector(rng)
            pp, pm = projectors(d)
            for p in (pp, pm):
                assert np.abs(p - p.conj().T).max() <= 1e-12
                assert np.abs(p @ p - p).max() <= 1e-12
                assert abs(np.trace(p) - 2.0) <= 1e-12
            assert np.abs(pp + pm - np.eye(4)).max() <= 1e-12
            assert np.abs(pp @ pm).max() <= 1e-12

    def test_single_axis_case(self, basis):
        d = DVector(d0=0.0, d=np.array([0, 0, 0, 0, 2.0]), regime="quadratic")
        pp, _ = projectors(d)
        assert np.abs(pp - (np.eye(4) + basis.gamma[4]) / 2).max() <= 1e-14
        assert np.linalg.matrix_rank(pp) == 2

    def test_zero_d_raises(self):
        with pytest.raises(DegeneratePoint):
            projectors(DVector(d0=1.0, d=np.zeros(5), regime="quadratic"))


class TestConnectionD:
    def test_closed_form_vs_finite_differences(self, rng):
        for _ in range(100):
            d = random_dvector(rng)
            aa = connection_d(d)
            h = 1e-5 * d.norm
            a = int(rng.integers(0, 5))
            fd = fd_commutator(d, a, h)
            assert np.abs(fd - aa[a]).max() <= 1e-8

    def test_same_from_either_projector(self, rng):
        for _ in range(20):
            d = random_dvector(rng)
            h = 1e-5 * d.norm
            for a in range(5):
                fd_p = fd_commutator(d, a, h, band="plus")
                fd_m = fd_commutator(d, a, h, band="minus")
                assert np.abs(fd_p - fd_m).max() <= 1e-8

    def test_axis_aligned_closed_form(self, basis):
        d = DVector(d0=0.0, d=np.array([0, 0, 0, 0, 3.0]), regime="quadratic")
        aa = connection_d(d)
        assert np.abs(aa[4]).max() <= 1e-15
        expected_a1 = (1j / (2 * 3.0)) * basis.gammab[0, 4]
        assert np.abs(aa[0] - expected_a1).max() <= 1e-14

    def test_radial_contraction_vanishes(self, rng):
        for _ in range(50):
            d = random_dvector(rng)
            aa = connection_d(d)
            radial = np.einsum("a,aij->ij", d.d / d.norm, aa)
            assert np.abs(radial).max() <= 1e-13

    def test_homogeneity(self, rng):
        for _ in range(50):
            d = random_dvector(rng)
            lam = float(rng.uniform(0.1, 10.0))
            scaled = DVector(d0=d.d0, d=lam * d.d, regime=d.regime)
            assert np.abs(connection_d(scaled) - connection_d(d) / lam).max() <= 1e-12

    def test_anti_hermitian_and_off_band(self, rng):
        for _ in range(50):
            d = random_dvector(rng)
            aa = connection_d(d)
            pp, pm = projectors(d)
            for a in range(5):
                assert np.abs(aa[a] + aa[a].conj().T).max() <= 1e-12
                assert np.abs(pp @ aa[a] @ pp).max() <= 1e-12
                assert np.abs(pm @ aa[a] @ pm).max() <= 1e-12

    def test_zero_d_raises(self):
        with pytest.raises(DegeneratePoint):
            connection_d(DVector(d0=0.0, d=np.zeros(5), regime="quadratic"))


def field_connection(e, regime, m, h=1.0):
    """The field-space generators A^i(E), (3, 4, 4), from the production
    transport: one step of length h (V/m) along E_i with midpoint E has the
    exponent A^i(E) h."""
    e = np.asarray(e, dtype=float)
    return np.stack([transport_exponents([e - 0.5 * h * u, e + 0.5 * h * u],
                                         regime, m)[0] / h for u in np.eye(3)])


class TestConnectionField:
    def test_linear_scale_cancellation(self, ge_b, rng):
        from dataclasses import replace
        doubled = replace(ge_b, chi=2 * ge_b.chi)
        for _ in range(20):
            e = rng.normal(size=3) * 1e5
            a1 = field_connection(e, "linear", ge_b)
            a2 = field_connection(e, "linear", doubled)
            assert np.abs(a1 - a2).max() <= 1e-12

    def test_linear_radial_component_vanishes(self, ge_b):
        gf = field_connection([0.0, 0.0, 1e5], "linear", ge_b)
        assert np.abs(gf[2]).max() <= 1e-20

    def test_components_anti_hermitian(self, ge_b, rng):
        for regime, scale in (("linear", 1e5), ("quadratic", 1e6)):
            e = rng.normal(size=3) * scale
            gf = field_connection(e, regime, ge_b)
            for a in gf:
                assert np.abs(a + a.conj().T).max() <= 1e-12

    def test_band_diagonal_blocks_vanish(self, ge_b, rng):
        e = rng.normal(size=3) * 1e6
        gf = field_connection(e, "quadratic", ge_b)
        d = d_quadratic(e, ge_b)
        pp, pm = projectors(d)
        for a in gf:
            scale = max(np.abs(a).max(), 1e-30)
            assert np.abs(pp @ a @ pp).max() <= 1e-12 * scale
            assert np.abs(pm @ a @ pm).max() <= 1e-12 * scale

    def test_quadratic_pullback_vs_finite_difference_connection(self, ge_b, rng):
        # A^i from the midpoint increment equals the finite-difference derivative
        # of the projector along E_i, commutated with P
        e = rng.normal(size=3) * 1e6
        gf = field_connection(e, "quadratic", ge_b)
        h = 1e-5 * np.linalg.norm(e)
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            pp = projectors(d_quadratic(e + step, ge_b))[0]
            pm = projectors(d_quadratic(e - step, ge_b))[0]
            dp = (pp - pm) / (2 * h)
            p = projectors(d_quadratic(e, ge_b))[0]
            fd = dp @ p - p @ dp
            scale = max(np.abs(gf[i]).max(), 1e-30)
            assert np.abs(fd - gf[i]).max() <= 1e-6 * scale

    def test_degenerate_field_raises(self, ge_b):
        with pytest.raises(DegeneratePoint):
            field_connection([0.0, 0.0, 0.0], "quadratic", ge_b)


class TestTransportExponents:
    def test_midpoint_count_and_antihermiticity(self, ge_b):
        pts = np.array([[0, 0, 1e6], [1e5, 0, 1e6], [0, 1e5, 1e6], [0, 0, 1e6]])
        w = transport_exponents(pts, "quadratic", ge_b)
        assert w.shape == (3, 4, 4)
        assert np.abs(w + np.conj(np.swapaxes(w, 1, 2))).max() <= 1e-12

    def test_gap_closure_detected(self, ge_b):
        # the second segment's midpoint sits at zero field
        pts = np.array([[0, 0, 1e6], [0, 0, 1e2], [0, 0, -1e2], [0, 0, 1e6]])
        with pytest.raises(DegeneratePoint):
            transport_exponents(pts, "quadratic", ge_b)
