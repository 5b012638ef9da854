from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holostark import (DegeneratePoint, InvalidInput, connection_d, eigenphases,
                       make_spherical_triangle, projectors, sampled_path,
                       transport_exponents, wilson_loop)
from holostark._linalg import BLOCK
from holostark.algebra import step_table
from holostark.connection import gap_norms
from holostark.stark import d_components

from util import d_increment, one_product, transport_matrices


def random_dvector(rng, scale=1.0):
    return np.concatenate([[rng.normal()], rng.normal(size=5) * scale])


def fd_commutator(d, a, h, band="plus"):
    """[dP/d(d_a), P] by central differences, from either projector."""
    idx = 0 if band == "plus" else 1
    step = np.zeros(6)
    step[1 + a] = h
    pp = projectors(d + step)[idx]
    pm = projectors(d - step)[idx]
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
        d = np.array([0, 0, 0, 0, 0, 2.0])
        pp, _ = projectors(d)
        assert np.abs(pp - (np.eye(4) + basis.gamma[4]) / 2).max() <= 1e-14
        assert np.linalg.matrix_rank(pp) == 2

    def test_zero_d_raises(self):
        with pytest.raises(DegeneratePoint):
            projectors(np.array([1.0, 0, 0, 0, 0, 0]))


class TestConnectionD:
    def test_closed_form_vs_finite_differences(self, rng):
        for _ in range(100):
            d = random_dvector(rng)
            aa = connection_d(d)
            h = 1e-5 * np.linalg.norm(d[1:])
            a = int(rng.integers(0, 5))
            fd = fd_commutator(d, a, h)
            assert np.abs(fd - aa[a]).max() <= 1e-8

    def test_same_from_either_projector(self, rng):
        for _ in range(20):
            d = random_dvector(rng)
            h = 1e-5 * np.linalg.norm(d[1:])
            for a in range(5):
                fd_p = fd_commutator(d, a, h, band="plus")
                fd_m = fd_commutator(d, a, h, band="minus")
                assert np.abs(fd_p - fd_m).max() <= 1e-8

    def test_axis_aligned_closed_form(self, basis):
        d = np.array([0, 0, 0, 0, 0, 3.0])
        aa = connection_d(d)
        assert np.abs(aa[4]).max() <= 1e-15
        expected_a1 = (1j / (2 * 3.0)) * basis.gammab[0, 4]
        assert np.abs(aa[0] - expected_a1).max() <= 1e-14

    def test_radial_contraction_vanishes(self, rng):
        for _ in range(50):
            d = random_dvector(rng)
            aa = connection_d(d)
            radial = np.einsum("a,aij->ij", d[1:] / np.linalg.norm(d[1:]), aa)
            assert np.abs(radial).max() <= 1e-13

    def test_homogeneity(self, rng):
        for _ in range(50):
            d = random_dvector(rng)
            lam = float(rng.uniform(0.1, 10.0))
            scaled = np.concatenate([d[:1], lam * d[1:]])
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
            connection_d(np.zeros(6))


def field_connection(e, regime, m):
    """The field-space generators A^i(E) = A_a(d(E)) J_ai(E), (3, 4, 4): the
    paper's connection_d contracted with the Jacobian columns J(E) e_i of d
    (tests/util.py's midpoint increment, exact for d linear or quadratic)."""
    e = np.asarray(e, dtype=float)
    jac = np.stack([d_increment(e, u, m, regime) for u in np.eye(3)])  # (i, a)
    return np.einsum("ia,ajk->ijk", jac, connection_d(d_components(e, m, regime)))


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
        d = d_components(e, ge_b, "quadratic")
        pp, pm = projectors(d)
        for a in gf:
            scale = max(np.abs(a).max(), 1e-30)
            assert np.abs(pp @ a @ pp).max() <= 1e-12 * scale
            assert np.abs(pm @ a @ pm).max() <= 1e-12 * scale

    def test_quadratic_pullback_vs_finite_difference_connection(self, ge_b, rng):
        # A^i from the Jacobian of d equals the finite-difference derivative of
        # the projector along E_i, commutated with P
        e = rng.normal(size=3) * 1e6
        gf = field_connection(e, "quadratic", ge_b)
        h = 1e-5 * np.linalg.norm(e)
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            pp = projectors(d_components(e + step, ge_b, "quadratic"))[0]
            pm = projectors(d_components(e - step, ge_b, "quadratic"))[0]
            dp = (pp - pm) / (2 * h)
            p = projectors(d_components(e, ge_b, "quadratic"))[0]
            fd = dp @ p - p @ dp
            scale = max(np.abs(gf[i]).max(), 1e-30)
            assert np.abs(fd - gf[i]).max() <= 1e-6 * scale

    def test_degenerate_field_raises(self, ge_b):
        with pytest.raises(DegeneratePoint):
            field_connection([0.0, 0.0, 0.0], "quadratic", ge_b)


class TestTransportExponents:
    def test_step_count_and_unitarity(self, ge_b):
        # three steps make two rows: a pair and a padded last pair
        pts = np.array([[0, 0, 1e6], [1e5, 0, 1e6], [0, 1e5, 1e6], [0, 0, 1e6]])
        w = transport_matrices(transport_exponents(pts, "quadratic", ge_b))
        assert w.shape == (2, 4, 4)
        assert np.abs(w @ np.conj(np.swapaxes(w, 1, 2)) - np.eye(4)).max() <= 1e-15

    @pytest.mark.parametrize("regime", ["linear", "quadratic"])
    def test_reversed_polyline_inverts_every_step(self, ge_b, regime):
        # 500 steps, 250 pairs: q ^ p = -(p ^ q), q . p = p . q and |a + b| =
        # |b + a| to the bit, so each pair row of the reversed polyline is the
        # conjugate R_0 I - R_ab i gamma_ab
        pts = make_spherical_triangle(0.7, 1.1, 1e6).points(500)
        fwd = transport_exponents(pts, regime, ge_b)
        bwd = transport_exponents(pts[::-1], regime, ge_b)[::-1]
        assert np.array_equal(bwd[:, 0], fwd[:, 0])
        assert np.array_equal(bwd[:, 1:], -fwd[:, 1:])

    def test_rotor_generator_matches_the_connection(self, rng):
        # a straight move of d, from d - h u/2 to d + h u/2, sweeps dhat along
        # a great circle, where the rotor is the exact transport, the
        # exponential of the integral of A_a(d) dd_a; connection_d at the
        # middle, contracted with h u, is that integral by the midpoint rule,
        # so the two generators differ by O(h^3): 8x less per halving of h
        for _ in range(20):
            d, u = random_dvector(rng), rng.normal(size=5)
            errors = []
            for h in (2e-2, 1e-2, 5e-3):
                ends = d[1:] + np.outer([-0.5 * h, 0.5 * h], u)
                dhat = ends / np.linalg.norm(ends, axis=1)[:, None]
                r = transport_exponents(np.zeros((2, 3)), "linear", None, d=dhat)[0]
                angle = np.arctan2(np.linalg.norm(r[1:]), r[0])
                bivector = (angle / np.linalg.norm(r[1:])) * r[None, 1:]
                generator = transport_matrices(bivector)
                exponent = np.einsum("a,aij->ij", h * u, connection_d(d))
                errors.append(np.abs(generator[0] - exponent).max())
            assert all(6.0 <= e / f <= 10.0 for e, f in zip(errors, errors[1:]))

    def test_near_pi_turn_is_an_error(self, ge_b):
        # linear dhat = Ehat turns by pi - 1e-8 rad on this chord, which passes
        # 5e-3 V/m from E = 0 (|d| there is 5e-9 of the largest, so the gap is
        # open): no rotor, and an error that names the step
        pts = np.array([[1e6, 0, 0], [-1e6, 1e-2, 0], [0, 1e6, 0]])
        with pytest.raises(InvalidInput, match=r"^a step turns the band direction dhat by "
                           r"nearly pi, from E along \(1, 0, 0\) to \(-1, 1e-08, 0\): "
                           r"refine the path$"):
            transport_exponents(pts, "linear", ge_b)
        assert np.all(np.isfinite(transport_exponents(pts[1:], "linear", ge_b)))

    @pytest.mark.parametrize("before", [[[0, 1e6, 0]], [[0, 1e6, 0], [0, 0, 1e6]]],
                             ids=["second-of-a-pair", "padded-pair"])
    def test_near_pi_turn_inside_a_pair_is_an_error(self, ge_b, before):
        # the same chord as the second step of a pair, and as the padded
        # last pair of three steps: the check and its message are per step
        pts = np.vstack([before, [[1e6, 0, 0], [-1e6, 1e-2, 0]]])
        with pytest.raises(InvalidInput, match=r"^a step turns the band direction dhat by "
                           r"nearly pi, from E along \(1, 0, 0\) to \(-1, 1e-08, 0\): "
                           r"refine the path$"):
            transport_exponents(pts, "linear", ge_b)

    def test_gap_closure_detected(self, ge_b):
        # the second segment's midpoint sits at zero field, between two
        # points whose dhat is the same (d(-E) = d(E))
        pts = np.array([[0, 0, 1e6], [0, 0, 1e2], [0, 0, -1e2], [0, 0, 1e6]])
        with pytest.raises(DegeneratePoint):
            transport_exponents(pts, "quadratic", ge_b)

    @pytest.mark.parametrize("regime, magnitude", [
        ("linear", 1e-147), ("linear", 1e-150), ("linear", 1e-160), ("linear", 1e-300),
        ("quadratic", 1e-72), ("quadratic", 1e-74), ("quadratic", 1e-80),
        ("quadratic", 1e-150)])
    def test_field_too_weak_for_float64(self, ge_b, regime, magnitude):
        # every d component is a nonzero finite number, though |d|^2
        # underflows: the rotors are homogeneous of degree 0 in E, so they,
        # and the loop, have the bits of the same path scaled by a power of
        # two to about 1e6 V/m
        path = make_spherical_triangle(1.0, 0.7, magnitude)
        pts = path.points(400)
        assert np.all(np.any(d_components(pts, ge_b, regime)[:, 1:] != 0, axis=1))
        k = int(np.round(np.log2(1e6 / magnitude)))
        assert np.array_equal(transport_exponents(pts, regime, ge_b),
                              transport_exponents(np.ldexp(pts, k), regime, ge_b))
        scaled = make_spherical_triangle(1.0, 0.7, np.ldexp(magnitude, k))
        assert np.array_equal(wilson_loop(path, regime, ge_b, steps=400).full,
                              wilson_loop(scaled, regime, ge_b, steps=400).full)

    def test_gap_norms_tell_underflow_from_gap_closure(self, ge_b):
        # a |d| whose square underflows is returned exactly, from the
        # power-of-two-scaled row; a zero d closes the gap
        def row(e, regime):
            return d_components(np.array(e, dtype=float), ge_b, regime)

        assert gap_norms(row([1e-152, 0, 0], "linear")) > 0
        assert gap_norms(row([1e-75, 0, 0], "quadratic")) > 0
        d = row([1e-160, 0, 0], "linear")
        assert gap_norms(d) == abs(d[1]) > 0
        d = row([1e-100, 0, 0], "quadratic")
        assert gap_norms(d) == np.ldexp(np.linalg.norm(np.ldexp(d[1:], 700)), -700) > 0
        with pytest.raises(DegeneratePoint):
            gap_norms(row([0, 0, 0], "quadratic"))

    def test_gap_norms_report_a_norm_beyond_float64(self, ge_b):
        # a user material with a huge chi: every linear d component is a
        # finite float64 near its largest, but |d| = sqrt(3) |d_1| is not
        m = replace(ge_b, chi=1e12)
        e = np.full(3, 1.5e308 / (m.dipole_mev_per_field * m.chi))
        d = d_components(e, m, "linear")
        assert np.all(np.isfinite(d))
        with pytest.raises(InvalidInput,
                           match=r"field too strong for float64: \|d\| overflows$"):
            gap_norms(d)


@pytest.fixture(scope="module")
def reference(ge_b):
    return {regime: wilson_loop(make_spherical_triangle(1.0, 0.7, 1e6), regime, ge_b, 400)
            for regime in ("linear", "quadratic")}


class TestScaleFree:
    """The rotor between dhat = d/|d| at consecutive points is homogeneous of
    degree 0 in E: a loop's holonomy depends on its direction history only,
    at any field strength float64 holds."""

    @settings(max_examples=40, deadline=None)
    @given(regime=st.sampled_from(["linear", "quadratic"]), k=st.integers(-1016, 976))
    def test_power_of_two_multiples_of_1e6_keep_the_bits(self, ge_b, reference, regime,
                                                          k):
        hol = wilson_loop(make_spherical_triangle(1.0, 0.7, np.ldexp(1e6, k)),
                          regime, ge_b, 400)
        assert np.array_equal(hol.full, reference[regime].full)
        assert np.array_equal(hol.block_plus, reference[regime].block_plus)

    @settings(max_examples=40, deadline=None)
    @given(regime=st.sampled_from(["linear", "quadratic"]),
           decade=st.floats(-300.0, 300.0))
    def test_any_magnitude_keeps_the_eigenphases(self, ge_b, reference, regime, decade):
        hol = wilson_loop(make_spherical_triangle(1.0, 0.7, 10.0 ** decade),
                          regime, ge_b, 400)
        want = eigenphases(reference[regime].full, tol=1e-3)
        assert np.abs(eigenphases(hol.full, tol=1e-3) - want).max() <= 1e-15

    @pytest.mark.parametrize("regime", ["linear", "quadratic"])
    @pytest.mark.parametrize("k", [-1000, -600, 600, 900])
    def test_transport_exponents_ignore_a_power_of_two(self, ge_b, regime, k):
        pts = make_spherical_triangle(1.0, 0.7, 1e6).points(300)
        assert np.array_equal(transport_exponents(np.ldexp(pts, k), regime, ge_b),
                              transport_exponents(pts, regime, ge_b))

    @pytest.mark.parametrize("regime", ["linear", "quadratic"])
    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_blocks_share_the_whole_path_scale(self, ge_b, regime, scale):
        # |E| varies 10x along the loop, so a block of the Wilson loop must
        # not take its own power of two while it reuses the path's d and |d|
        path = sampled_path(scale * np.array([[0, 0, 1e0], [1e1, 0, 1e0], [0, 3e0, 2e0],
                                              [0, 0, 1e0]]))
        pts = path.points(3 * BLOCK)
        single = one_product(step_table("transport"), transport_exponents(pts, regime, ge_b))
        hol = wilson_loop(path, regime, ge_b, 3 * BLOCK)
        assert len(pts) - 1 > 2 * BLOCK
        assert np.array_equal(hol.full, single)

    def test_one_d_row_and_one_norm_per_point(self, ge_b, monkeypatch):
        # the blocks reuse the whole path's d and |d|; the one more row of
        # each is the basepoint of the band frames
        from holostark import connection, holonomy, stark
        rows = {"d": 0, "norm": 0}

        def spy(module, name, what):
            original = getattr(module, name)

            def counted(x, *args, **kwargs):
                rows[what] += np.size(x) // np.shape(x)[-1]
                return original(x, *args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for module in (connection, holonomy):
            spy(module, "d_components", "d")
        for module in (connection, stark):
            spy(module, "scaled_norm", "norm")
        hol = wilson_loop(make_spherical_triangle(0.7, 1.1, 1e6), "quadratic", ge_b,
                          3 * BLOCK)
        assert rows == {"d": hol.steps + 2, "norm": hol.steps + 2}
