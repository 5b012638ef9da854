from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holostark import (DegeneratePoint, FieldPath, InvalidAngle, InvalidInput,
                       NonPositiveMagnitude, NotClosed, NotConstantMagnitude,
                       NotUnitary, eigenphase_distance, eigenphases,
                       half_spin_band, holonomy_fidelity, linear_stark_holonomy,
                       linear_triangle_holonomy, make_latitude_loop,
                       make_spherical_triangle, path_from_dict, path_to_dict,
                       projectors, sampled_path, wilson_loop, zee_holonomy)
from holostark import holonomy
from holostark._linalg import unitarity_defect
from holostark.algebra import step_table
from holostark.stark import d_components

from util import refined_points_reference, sphere_points_reference, triangle_product

OCTANT = (np.pi / 2, np.pi / 2)


def octant_path(magnitude=1e6):
    return make_spherical_triangle(*OCTANT, magnitude)


_RANDOM_KNOTS = np.random.default_rng(7).uniform(-1e6, 1e6, (7, 3)) + [0, 0, 1.5e6]
# under.json's loop, the south-pole triangle, a latitude loop, the octant and
# a random 7-segment polyline: in the quadratic regime each is under-resolved
# at 100 and 400 steps (step-doubling defects from 9e-6 to 0.07)
UNDER_RESOLVED = {
    "under": sampled_path([[0, 0, 1e6], [1e3, 0, -1e6], [1e6, 0, 0], [0, 0, 1e6]]),
    "south_pole": make_spherical_triangle(3.14, 6.2, 1e6),
    "latitude": make_latitude_loop(1.0, 1e6),
    "octant": octant_path(),
    "random_7": sampled_path(np.vstack([_RANDOM_KNOTS, _RANDOM_KNOTS[:1]])),
}


class TestPaths:
    def test_triangle_construction(self):
        path = octant_path()
        pts = path.points(3000)
        assert np.allclose(pts[0], [0, 0, 1e6])
        assert np.array_equal(pts[0], pts[-1])
        norms = np.linalg.norm(pts, axis=1)
        assert (norms.max() - norms.min()) / norms.mean() <= 1e-12

    def test_invalid_angles(self):
        with pytest.raises(InvalidAngle):
            make_spherical_triangle(0.0, 1.0, 1e6)
        with pytest.raises(InvalidAngle):
            make_spherical_triangle(3.5, 1.0, 1e6)
        with pytest.raises(InvalidAngle):
            make_spherical_triangle(np.nan, 1.0, 1e6)

    def test_invalid_magnitude(self):
        with pytest.raises(NonPositiveMagnitude):
            make_spherical_triangle(1.0, 1.0, 0.0)
        with pytest.raises(NonPositiveMagnitude):
            make_latitude_loop(1.0, -5.0)

    def test_latitude_loop_closed(self):
        pts = make_latitude_loop(0.8, 1e6).points(500)
        assert np.array_equal(pts[0], pts[-1])

    def test_sampled_closure_enforced(self):
        samples = np.array([[0, 0, 1e6], [1e5, 0, 1e6], [5e4, 5e4, 1.2e6]])
        with pytest.raises(NotClosed):
            sampled_path(samples)

    def test_sampled_zero_point_rejected(self):
        samples = np.array([[0, 0, 1e6], [0, 0, 0], [0, 0, 1e6]])
        with pytest.raises(NonPositiveMagnitude):
            sampled_path(samples)

    @pytest.mark.parametrize("build, error, says", [
        (lambda: FieldPath(kind="bogus", magnitude=1e6).points(100), InvalidInput,
         "unknown path kind 'bogus'"),
        (lambda: make_spherical_triangle(1.0, np.inf, 1e6), InvalidAngle,
         "phi must be finite, got inf"),
        (lambda: make_latitude_loop(0.0, 1e6), InvalidAngle,
         r"theta must lie in \(0, pi\), got 0.0"),
        (lambda: make_latitude_loop(np.pi, 1e6), InvalidAngle,
         r"theta must lie in \(0, pi\), got 3.14"),
        (lambda: sampled_path(np.ones((3, 2))), InvalidInput,
         r"samples must be an \(n, 3\) array with n >= 2"),
        (lambda: sampled_path([[0, 0, 1e6], [np.nan, 0, 1e6], [0, 0, 1e6]]), InvalidInput,
         "samples must be finite"),
        # built directly, a path gets the same checks
        (lambda: FieldPath(kind="spherical_triangle", magnitude=-1e6, theta=9.0, phi=1.0),
         InvalidAngle, r"theta must lie in \(0, pi\], got 9.0"),
        (lambda: FieldPath(kind="spherical_triangle", magnitude=1e6, theta=np.nan),
         InvalidAngle, r"theta must lie in \(0, pi\], got nan"),
        (lambda: FieldPath(kind="spherical_triangle", magnitude=-1e6, theta=1.0),
         NonPositiveMagnitude, "field magnitude must be positive, got -1000000.0"),
        (lambda: FieldPath(kind="latitude_loop", magnitude=1e6, theta=0.0), InvalidAngle,
         r"theta must lie in \(0, pi\), got 0.0"),
        (lambda: FieldPath(kind="latitude_loop", theta=1.0), NonPositiveMagnitude,
         "field magnitude must be positive, got None"),
        (lambda: FieldPath(kind="sampled", magnitude=np.nan,
                           samples=octant_path().points(40)), InvalidInput,
         r"magnitude is the mean \|E\| of its samples, .*, got nan"),
        (lambda: FieldPath(kind="latitude_loop", magnitude=1e6, theta=1.0,
                           samples=np.ones((5, 3))), InvalidInput,
         "only a sampled path takes samples, not 'latitude_loop'"),
    ], ids=["unknown-kind", "infinite-phi", "latitude-pole", "latitude-south-pole",
            "two-columns", "nan-sample", "direct-theta", "direct-nan-theta",
            "direct-magnitude", "direct-latitude-pole", "direct-no-magnitude",
            "direct-sampled-magnitude", "direct-latitude-samples"])
    def test_malformed_path_raises(self, build, error, says):
        with pytest.raises(error, match=says):
            build()

    @pytest.mark.parametrize("kind, fields, says", [
        ("latitude_loop", dict(magnitude=1e6, theta=1.0, phi=np.nan),
         "a latitude_loop path takes no phi, got nan"),
        ("sampled", dict(magnitude=None, samples=octant_path().points(40), theta=7.0,
                         phi=-3.0),
         "a sampled path takes no theta, got 7.0"),
        ("sampled", dict(magnitude=None, samples=octant_path().points(40), phi=-3.0),
         "a sampled path takes no phi, got -3.0"),
    ], ids=["latitude-phi", "sampled-angles", "sampled-phi"])
    def test_kind_takes_only_its_fields(self, kind, fields, says):
        with pytest.raises(InvalidInput, match=f"^{says}$"):
            FieldPath(kind=kind, **fields)

    def test_default_fields_left_alone_build(self):
        # a field at its default is no field taken: the loop equals its builder's
        assert FieldPath(kind="latitude_loop", magnitude=1e6, theta=1.0,
                         phi=0.0) == make_latitude_loop(1.0, 1e6)

    @pytest.mark.parametrize("magnitude", [1e-200, 1e-160, 1e160, 1e300])
    def test_sampled_path_beyond_float64_norms(self, ge_b, magnitude):
        # |E| and the endpoint gap come from the power-of-two-scaled samples:
        # the 1e6 V/m bits in the normal range, and a loop whose squared
        # norms leave float64 is transported like the 1e6 V/m one
        samples = octant_path().points(40)
        path = sampled_path(samples)
        assert path.magnitude == np.linalg.norm(samples, axis=1).mean()
        k = int(np.round(np.log2(magnitude / 1e6)))
        assert sampled_path(np.ldexp(samples, k)).magnitude == np.ldexp(path.magnitude, k)
        scaled = sampled_path(samples * (magnitude / 1e6))
        assert scaled.magnitude == pytest.approx(magnitude, rel=1e-3)
        ref = eigenphases(wilson_loop(path, "quadratic", ge_b, steps=400).full)
        got = eigenphases(wilson_loop(scaled, "quadratic", ge_b, steps=400).full)
        assert np.abs(got - ref).max() <= 4e-15

    def test_sampled_path_keeps_its_own_samples(self):
        samples = octant_path().points(40)
        path = sampled_path(samples)
        samples[1] = 0.0  # the caller's array stays writable, and the path unchanged
        assert not path.samples.flags.writeable and path.samples[1].any()

    @pytest.mark.parametrize("steps", [1, 20, 39])
    def test_sampled_points_unchanged_up_to_segment_count(self, steps):
        samples = octant_path().points(39)  # 39 segments
        assert np.array_equal(sampled_path(samples).points(steps), samples)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(theta=st.floats(0.0, np.pi, exclude_min=True),
           phi=st.one_of(st.sampled_from([0.0, -0.0, 2 * np.pi, -2 * np.pi,
                                          np.nextafter(2 * np.pi, 0.0),
                                          np.nextafter(-2 * np.pi, -7.0)]),
                         st.floats(-7.0, 7.0)),
           steps=st.integers(3, 50_000))
    def test_triangle_takes_exactly_the_steps_asked(self, theta, phi, steps):
        pts = make_spherical_triangle(theta, phi, 1e6).points(steps)
        assert len(pts) - 1 == steps
        assert np.array_equal(pts[0], [0.0, 0.0, 1e6])
        assert np.array_equal(pts[-1], pts[0])
        # each meridian takes its share of the loop length, at least one step,
        # and leaves the arc at least one
        length = theta + abs(phi) * np.sin(theta) + theta
        leg = min(max(1, round(steps * theta / length)), (steps - 1) // 2)
        assert np.array_equal(pts[leg], 1e6 * np.array([np.sin(theta), 0.0, np.cos(theta)]))
        assert np.array_equal(pts[steps - leg], 1e6 * np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]))
        # the two meridians pass the same polar angles, one down and one up
        assert np.allclose(pts[:leg + 1, 2], pts[steps - leg:, 2][::-1], rtol=0, atol=1e-3)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(theta=st.floats(0.0, np.pi, exclude_min=True, exclude_max=True),
           steps=st.integers(3, 50_000))
    def test_latitude_loop_takes_exactly_the_steps_asked(self, theta, steps):
        pts = make_latitude_loop(theta, 1e6).points(steps)
        assert len(pts) - 1 == steps
        assert np.array_equal(pts[0], 1e6 * np.array([np.sin(theta), 0.0, np.cos(theta)]))
        assert np.array_equal(pts[-1], pts[0])
        assert np.all(pts[:, 2] == 1e6 * np.cos(theta))
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.allclose(chords, chords[0], rtol=1e-6, atol=1e-9)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(latitude=st.booleans(),
           theta=st.one_of(st.sampled_from([np.pi, np.nextafter(np.pi, 0.0), 1e-300,
                                            5e-324]),
                           st.floats(0.0, np.pi, exclude_min=True)),
           phi=st.one_of(st.sampled_from([0.0, -0.0, 2 * np.pi, -2 * np.pi,
                                          np.nextafter(2 * np.pi, 0.0),
                                          np.nextafter(2 * np.pi, 7.0),
                                          np.nextafter(-2 * np.pi, 0.0),
                                          np.nextafter(-2 * np.pi, -7.0)]),
                         st.floats(-7.0, 7.0)),
           steps=st.one_of(st.integers(-2, 2), st.integers(3, 50_000)),
           magnitude=st.one_of(st.sampled_from([1e-300, 1e300]),
                               st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)))
    def test_points_have_the_bytes_of_the_reference_builder(self, latitude, theta, phi,
                                                            steps, magnitude):
        # tobytes, not array_equal, so a signed zero that moves fails
        if latitude:
            path = make_latitude_loop(min(theta, np.nextafter(np.pi, 0.0)), magnitude)
        else:
            path = make_spherical_triangle(theta, phi, magnitude)
        got = path.points(steps)
        with mock.patch.object(holonomy, "_sphere_points", sphere_points_reference):
            want = path.points(steps)
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("theta", [1.0, np.pi])
    @pytest.mark.parametrize("steps", [3, 400, 20_001])
    def test_negative_zero_phi_has_the_bytes_of_phi_zero(self, theta, steps):
        # linspace(-0.0, -0.0, c) is +0.0 throughout, so the last meridian
        # of a phi = -0.0 triangle is the phi = 0.0 one
        minus = make_spherical_triangle(theta, -0.0, 1e6)
        assert np.signbit(minus.phi)
        plus = make_spherical_triangle(theta, 0.0, 1e6).points(steps)
        assert minus.points(steps).tobytes() == plus.tobytes()

    @pytest.mark.parametrize("make", [octant_path, lambda: make_latitude_loop(1.0, 1e6)])
    def test_built_in_loops_take_at_least_three_steps(self, make):
        for steps in (-1, 0, 1, 2, 3):
            assert len(make().points(steps)) - 1 == 3

    @pytest.mark.parametrize("samples", [
        octant_path().points(39),
        [[-0.0, 0.0, 1e6], [1e6, -0.0, 0.0], [0.0, 1e6, -0.0], [-0.0, 0.0, 1e6]],
        [[0.0, 0.0, 1e6], [1e3, 0.0, -1e6], [1e6, 0.0, 0.0], [0.0, 0.0, 1e6]],
        [[3e-300, 0.0, -1e-300], [3e-300, 0.0, -1e-300]]],
        ids=["octant-39", "signed-zeros-3", "under-3", "one-segment"])
    @pytest.mark.parametrize("multiple", [-1, 0, 1, 2, 257])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_sampled_points_have_the_bytes_of_the_reference_builder(self, samples,
                                                                    multiple, extra):
        # steps <= segments give the samples; every other count takes the
        # ceil(steps / segments) substeps of the segments, whether or not the
        # count is a multiple of them; tobytes, so a signed zero that moves fails
        path = sampled_path(samples)
        steps = multiple * (len(path.samples) - 1) + extra
        got = path.points(steps)
        with mock.patch.object(holonomy, "_refined_points", refined_points_reference):
            want = path.points(steps)
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("steps", [40, 100, 1000])
    def test_sampled_points_split_each_segment(self, steps):
        samples = octant_path().points(39)
        sub = int(np.ceil(steps / 39))
        pts = sampled_path(samples).points(steps)
        assert len(pts) - 1 == 39 * sub
        assert np.array_equal(pts[::sub], samples)
        # each point lies on the chord between the samples it refines
        a = np.repeat(samples[:-1], sub, axis=0)
        chord = np.repeat(samples[1:] - samples[:-1], sub, axis=0)
        rel = pts[:-1] - a
        t = np.einsum("ki,ki->k", rel, chord) / np.einsum("ki,ki->k", chord, chord)
        off = np.linalg.norm(rel - t[:, None] * chord, axis=1)
        assert np.all((t >= 0) & (t < 1))
        assert off.max() <= 1e-9 * np.linalg.norm(chord, axis=1).min()

    def test_roundtrip_dict(self):
        path = make_spherical_triangle(0.7, 1.1, 2e6)
        spec = path_to_dict(path)
        assert spec["magnitude_V_per_m"] == 2e6
        again = path_from_dict(spec)
        assert np.allclose(again.points(500), path.points(500))


class TestWilsonLoop:
    def test_constant_path_is_identity(self, ge_b):
        path = sampled_path(np.array([[0, 0, 1e6]] * 4))
        hol = wilson_loop(path, "quadratic", ge_b, steps=100)
        assert np.abs(hol.full - np.eye(4)).max() == 0.0

    def test_retraced_triangle_is_identity(self, ge_b):
        path = make_spherical_triangle(0.9, 0.0, 1e6)
        hol = wilson_loop(path, "quadratic", ge_b, steps=2000)
        assert np.abs(hol.full - np.eye(4)).max() <= 1e-9

    def test_unitarity_and_block_structure(self, ge_spherical):
        coarse = wilson_loop(octant_path(), "quadratic", ge_spherical, steps=2000)
        hol = wilson_loop(octant_path(), "quadratic", ge_spherical, steps=4000)
        assert (coarse.steps, hol.steps) == (2000, 4000)
        assert hol.unitarity_defect <= 1e-9
        assert abs(abs(np.linalg.det(hol.block_plus)) - 1) <= 1e-9
        assert abs(abs(np.linalg.det(hol.block_minus)) - 1) <= 1e-9
        # each rotor maps one band projector exactly onto the next, so
        # commutation with the basepoint projectors and off-band leakage are
        # roundoff, whatever the step-refinement defect
        d = d_components(hol.basepoint, ge_spherical, "quadratic")
        for p in projectors(d):
            assert np.abs(hol.full @ p - p @ hol.full).max() <= 1e-13
        off = hol.frame_plus.conj().T @ hol.full @ hol.frame_minus
        assert np.abs(off).max() <= 1e-13

    @pytest.mark.parametrize("regime", ["linear", "quadratic"])
    @pytest.mark.parametrize("steps", [100, 400, 4000])
    @pytest.mark.parametrize("loop", sorted(UNDER_RESOLVED))
    def test_band_blocks_unitary_when_under_resolved(self, ge_b, loop, regime, steps):
        # far from converged (under.json's defect at 400 steps is 0.067),
        # the rotors still keep the bands apart: blocks unitary, no off-band
        # part and no commutator with the basepoint projectors, to roundoff.
        # The blocks' roundoff grows about linearly with the step count
        # (1.9e-13 at 4 000, 1.2e-12 at 20 000), hence the 4 000 cap
        hol = wilson_loop(UNDER_RESOLVED[loop], regime, ge_b, steps)
        for band in ("plus", "minus"):
            assert unitarity_defect(hol.block(band)) <= 1e-12
        off = hol.frame_plus.conj().T @ hol.full @ hol.frame_minus
        assert np.abs(off).max() <= 1e-13
        for p in projectors(d_components(hol.basepoint, ge_b, regime)):
            assert np.abs(hol.full @ p - p @ hol.full).max() <= 1e-13

    def test_unknown_band_rejected(self, ge_b):
        hol = wilson_loop(octant_path(), "quadratic", ge_b, steps=100)
        for pick in (hol.block, hol.frame):
            with pytest.raises(InvalidInput):
                pick("bogus")

    def test_transports_the_steps_asked(self, ge_b):
        assert wilson_loop(octant_path(), "quadratic", ge_b, steps=100).steps == 100

    def test_min_steps_enforced(self, ge_b):
        with pytest.raises(InvalidInput):
            wilson_loop(octant_path(), "quadratic", ge_b, steps=50)

    def test_not_closed_rejected(self):
        with pytest.raises(NotClosed):
            FieldPath(kind="sampled", magnitude=None, samples=np.array(
                [[0, 0, 1e6], [1e5, 0, 1e6], [0, 1e4, 1e6]], dtype=float))

    def test_degenerate_point_en_route(self, ge_b):
        samples = np.array([[0, 0, 1e6], [0, 0, 1e2], [0, 0, -1e2],
                            [0, 0, -1e6], [0, 0, 1e6]])
        path = sampled_path(samples)
        with pytest.raises(DegeneratePoint):
            wilson_loop(path, "quadratic", ge_b, steps=100)

    @pytest.mark.parametrize("regime", ["linear", "quadratic"])
    @pytest.mark.parametrize("steps", [300, 303], ids=["zero-on-a-point",
                                                      "zero-between-points"])
    def test_chord_through_zero_field_closes_the_gap(self, ge_b, regime, steps):
        # the first chord runs from E to -E: at 100 substeps a point falls on
        # E = 0; at 101 it lies between two points, whose quadratic dhat is
        # the same (d(-E) = d(E)), so only the chord check sees it
        path = sampled_path([[0, 0, 1e6], [0, 0, -1e6], [1e6, 0, 0], [0, 0, 1e6]])
        with pytest.raises(DegeneratePoint, match="^gap closes"):
            wilson_loop(path, regime, ge_b, steps)

    def test_near_pi_step_is_an_error(self, ge_b):
        # linear: the first chord passes 5e-3 V/m from E = 0, an open gap;
        # at 35 substeps one step straddles that point and turns dhat by pi
        # - 3.5e-7 rad, at 100 substeps a point sits next to it
        path = sampled_path([[1e6, 0, 0], [-1e6, 1e-2, 0], [0, 1e6, 0], [1e6, 0, 0]])
        with pytest.raises(InvalidInput, match="^a step turns the band direction dhat "
                           r"by nearly pi, from E along \(1, 1.7"):
            wilson_loop(path, "linear", ge_b, 105)
        assert wilson_loop(path, "linear", ge_b, 300).unitarity_defect <= 1e-14

    @pytest.mark.parametrize("regime, path", [
        ("linear", make_latitude_loop(1.1, 1e6)),
        ("quadratic", make_latitude_loop(1.1, 1e6)),
        ("linear", make_spherical_triangle(2.4, -0.8, 1e6)),
        ("quadratic", make_spherical_triangle(2.4, -0.8, 1e6)),
        ("quadratic", sampled_path([[0, 0, 1e6], [1e6, 0, 1e6], [0, 3e6, 2e6],
                                    [0, 0, 1e6]]))],
        ids=["latitude-linear", "latitude-quadratic", "triangle-linear",
             "triangle-quadratic", "sampled-quadratic"])
    def test_observed_order_is_two(self, ge_b, regime, path):
        # anisotropic Ge:B; the sampled loop's 3 segments take 200, 400 and 800
        # substeps.  Its linear chords are great circles of dhat = Ehat, which
        # the rotors transport exactly (test_linear_polyline_is_exact), so it
        # has no discretization error to show an order
        fulls = [wilson_loop(path, regime, ge_b, n).full for n in (600, 1200, 2400)]
        ratio = np.abs(fulls[0] - fulls[1]).max() / np.abs(fulls[1] - fulls[2]).max()
        assert 3.0 <= ratio <= 5.0

    def test_linear_polyline_is_exact(self, ge_b):
        # the rotors along one great circle compose to the rotor of the whole
        # arc, so refining the chords moves the loop only at roundoff
        path = sampled_path([[0, 0, 1e6], [1e6, 0, 1e6], [0, 3e6, 2e6], [0, 0, 1e6]])
        fulls = [wilson_loop(path, "linear", ge_b, n).full for n in (500, 1000, 2000)]
        assert max(np.abs(fulls[0] - fulls[1]).max(),
                   np.abs(fulls[1] - fulls[2]).max()) <= 5e-13

    def test_double_traversal_squares(self, ge_spherical):
        pts = octant_path().points(3000)
        single = wilson_loop(sampled_path(pts), "quadratic", ge_spherical, steps=100)
        doubled = sampled_path(np.vstack([pts, pts[1:]]))
        twice = wilson_loop(doubled, "quadratic", ge_spherical, steps=100)
        # at steps <= segments a sampled path transports its own segments
        assert (single.steps, twice.steps) == (3000, 6000)
        assert np.abs(twice.full - single.full @ single.full).max() <= 1e-8

    def test_path_reversal_inverts(self, ge_spherical):
        path = make_spherical_triangle(0.8, 1.2, 1e6)
        fwd = wilson_loop(path, "quadratic", ge_spherical, steps=2000)
        # at steps = segments a sampled path transports its own points
        backwards = sampled_path(path.points(2000)[::-1])
        bwd = wilson_loop(backwards, "quadratic", ge_spherical, steps=2000)
        assert np.abs(bwd.full - fwd.full.conj().T).max() <= 1e-8

    def test_composition_multiplicativity(self, ge_spherical):
        p1 = make_spherical_triangle(0.7, 0.9, 1e6).points(2000)
        p2 = make_spherical_triangle(1.1, -0.6, 1e6).points(2000)
        u1 = wilson_loop(sampled_path(p1), "quadratic", ge_spherical, steps=100)
        u2 = wilson_loop(sampled_path(p2), "quadratic", ge_spherical, steps=100)
        both = wilson_loop(sampled_path(np.vstack([p1, p2[1:]])), "quadratic",
                           ge_spherical, steps=100)
        assert np.abs(both.full - u2.full @ u1.full).max() <= 1e-8

    def test_reparameterization_invariance(self, ge_spherical):
        path = octant_path()
        uniform = path.points(30000)
        s = np.linspace(0.0, 1.0, 30001)
        warped_idx = (0.5 * (s + s**2)) * 30000
        lo = np.minimum(warped_idx.astype(int), 29999)
        w = (warped_idx - lo)[:, None]
        warped = (1 - w) * uniform[lo] + w * uniform[lo + 1]
        warped[-1] = uniform[-1]
        h1 = wilson_loop(sampled_path(uniform), "quadratic", ge_spherical, steps=100)
        h2 = wilson_loop(sampled_path(warped), "quadratic", ge_spherical, steps=100)
        assert np.abs(h1.full - h2.full).max() <= 1e-8

    def test_linear_magnitude_invariance(self, ge_b):
        small = wilson_loop(make_spherical_triangle(0.8, 1.2, 1e5), "linear",
                            ge_b, steps=2000)
        large = wilson_loop(make_spherical_triangle(0.8, 1.2, 1e6), "linear",
                            ge_b, steps=2000)
        assert np.abs(small.full - large.full).max() <= 1e-9

    def test_convergence_is_second_order(self, ge_spherical):
        path = make_spherical_triangle(0.9, 1.3, 1e6)
        results = {n: wilson_loop(path, "quadratic", ge_spherical, steps=n).full
                   for n in (500, 1000, 2000)}
        d1 = np.abs(results[500] - results[1000]).max()
        d2 = np.abs(results[1000] - results[2000]).max()
        assert 3.0 <= d1 / d2 <= 5.0


class TestLinearOracle:
    def test_equatorial_loop_is_minus_identity(self):
        loop = make_latitude_loop(np.pi / 2, 1e6)
        u = linear_stark_holonomy(loop, steps=4000)
        assert np.abs(u + np.eye(2)).max() <= 1e-6
        phases = eigenphases(u)
        assert np.allclose(np.abs(phases), np.pi, atol=1e-10)

    def test_latitude_closed_form(self):
        # rotating-frame solution of the latitude transport
        theta = 0.7
        loop = make_latitude_loop(theta, 1e6)
        u = linear_stark_holonomy(loop, steps=20000)
        mhat = np.array([np.sin(theta), 0.0, np.cos(theta)])
        from holostark.algebra import PAULI
        from util import expm_antiherm
        expected = expm_antiherm(-1j * np.pi * PAULI[2]) @ expm_antiherm(
            1j * np.pi * np.cos(theta) * np.einsum("c,cij->ij", mhat, PAULI))
        assert np.abs(u - expected).max() <= 1e-7

    def test_retraced_path_identity(self):
        path = make_spherical_triangle(0.9, 0.0, 1e6)
        u = linear_stark_holonomy(path, steps=2000)
        assert np.abs(u - np.eye(2)).max() <= 1e-10

    def test_increments_are_antihermitian(self):
        # one real row v per step, on the i sigma_c, whose real forms are
        # antisymmetric: every increment i v . sigma is anti-Hermitian, so
        # the product is in SU(2)
        u = linear_stark_holonomy(octant_path(), steps=500)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-14
        assert abs(np.linalg.det(u) - 1.0) <= 1e-14
        x = step_table("pauli")[1:].reshape(3, 4, 4)
        assert np.array_equal(x, -np.swapaxes(x, 1, 2))

    @pytest.mark.parametrize("magnitude", [1e-300, 1e-160, 1e160, 1e308])
    def test_scale_free(self, magnitude):
        # the increments are homogeneous of degree 0 in E: no square of a
        # raw field may over- or underflow
        u = linear_stark_holonomy(octant_path(magnitude), steps=400)
        assert np.abs(u - linear_stark_holonomy(octant_path(), steps=400)).max() <= 1e-14

    def test_requires_constant_magnitude(self):
        samples = np.array([[0, 0, 1e6], [1.5e6, 0, 0], [0, 0, 1e6]])
        path = sampled_path(samples)
        with pytest.raises(NotConstantMagnitude):
            linear_stark_holonomy(path, steps=500)

    def test_octant_matches_wilson_block(self, ge_b):
        u = linear_stark_holonomy(octant_path(), steps=20000)
        hol = wilson_loop(octant_path(), "linear", ge_b, steps=20000)
        assert eigenphase_distance(u, hol.block_plus) <= 1e-6
        assert eigenphase_distance(u, hol.block_minus) <= 1e-6

    def test_closed_form_triangle_matches_ordered_product(self, rng):
        for _ in range(5):
            theta = float(rng.uniform(0.2, np.pi / 2))
            phi = float(rng.uniform(-np.pi, np.pi))
            path = make_spherical_triangle(theta, phi, 1e6)
            u_prod = linear_stark_holonomy(path, steps=20000)
            u_closed = linear_triangle_holonomy(theta, phi)
            assert np.abs(u_prod - u_closed).max() <= 1e-6

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(theta=st.floats(0.0, np.pi), phi=st.floats(-10.0, 10.0))
    def test_triangle_is_an_abelian_berry_phase(self, theta, phi):
        # the linear regime is the abelian limit: every triangle's holonomy
        # is diag(exp(-i omega / 2), exp(i omega / 2)), omega = phi (1 - cos
        # theta) its solid angle, so loop sequences reach only diagonal gates
        omega = phi * (1.0 - np.cos(theta))
        u = linear_triangle_holonomy(theta, phi)
        berry = np.diag([np.exp(-0.5j * omega), np.exp(0.5j * omega)])
        assert np.abs(u - berry).max() <= 1e-14

    def test_random_triangles_match_wilson(self, ge_b, rng):
        for _ in range(5):
            theta = float(rng.uniform(0.2, np.pi / 2))
            phi = float(rng.uniform(0.3, np.pi))
            path = make_spherical_triangle(theta, phi, 1e6)
            u = linear_stark_holonomy(path, steps=20000)
            hol = wilson_loop(path, "linear", ge_b, steps=20000)
            assert eigenphase_distance(u, hol.block_plus) <= 1e-6


ZEE_OCTANT = np.array([[0.0, (1 + 1j) / np.sqrt(2)],
                       [(-1 + 1j) / np.sqrt(2), 0.0]])


class TestZeeHolonomy:
    def test_zero_area_loops(self, rng):
        for _ in range(5):
            theta = float(rng.uniform(0, np.pi))
            phi = float(rng.uniform(-np.pi, np.pi))
            assert np.abs(zee_holonomy(theta, 0.0) - np.eye(2)).max() <= 1e-12
            assert np.abs(zee_holonomy(0.0, phi) - np.eye(2)).max() <= 1e-12

    def test_octant_regression_value(self):
        # frozen from direct evaluation of the three exponentials
        assert np.abs(zee_holonomy(*OCTANT) - ZEE_OCTANT).max() <= 1e-12

    def test_unitary_det_one(self, rng):
        for _ in range(10):
            u = zee_holonomy(float(rng.uniform(0, np.pi)),
                             float(rng.uniform(-np.pi, np.pi)))
            assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-12
            assert abs(np.linalg.det(u) - 1) <= 1e-12

    def test_half_spin_band_for_tabulated_materials(self, ge_b, si_b):
        assert half_spin_band(ge_b.spherical()) == "minus"
        assert half_spin_band(si_b) == "minus"

    def test_half_spin_band_needs_a_quadratic_splitting(self, ge_b):
        with pytest.raises(InvalidInput, match="beta = 0 leaves no quadratic splitting"):
            half_spin_band(replace(ge_b, beta=0.0))

    def test_octant_matches_wilson_half_spin_block(self, ge_spherical):
        hol = wilson_loop(octant_path(), "quadratic", ge_spherical, steps=20000)
        band = half_spin_band(ge_spherical)
        assert eigenphase_distance(zee_holonomy(*OCTANT), hol.block(band)) <= 1e-6
        # the other band is the spin-3/2 doublet: solid-angle phases 3*Omega/2
        other = hol.block_plus if band == "minus" else hol.block_minus
        assert np.allclose(np.abs(eigenphases(other)), 3 * np.pi / 4, atol=1e-6)

    def test_random_triangles_match_wilson(self, ge_spherical, rng):
        band = half_spin_band(ge_spherical)
        for _ in range(4):
            theta = float(rng.uniform(0.2, np.pi / 2))
            phi = float(rng.uniform(-np.pi, np.pi))
            path = make_spherical_triangle(theta, phi, 1e6)
            hol = wilson_loop(path, "quadratic", ge_spherical, steps=20000)
            assert eigenphase_distance(zee_holonomy(theta, phi),
                                       hol.block(band)) <= 1e-6


# theta = 0, phi = 0, theta = pi and negative phi, then generic angles
EDGE_ANGLES = np.array([(0.0, 1.3), (0.9, 0.0), (np.pi, 1.1), (0.7, -2.2),
                        (np.pi, -np.pi), (0.0, 0.0), (1.4, -0.3), (0.2, 5.9)])


def _zee_rows(theta, phi):
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    return [[0.0, theta, 0.0],
            [-phi * st, 0.0, phi * ct / 2.0],
            [0.0, 0.0, -phi / 2.0],
            [theta * sp, -theta * cp, 0.0]]


def _linear_rows(theta, phi):
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    return [[0.0, -theta / 2.0, 0.0],
            [phi * ct * st / 2.0, 0.0, phi * ct * ct / 2.0],
            [0.0, 0.0, -phi / 2.0],
            [-theta * sp / 2.0, theta * cp / 2.0, 0.0]]


@pytest.mark.parametrize("oracle,rows", [(zee_holonomy, _zee_rows),
                                         (linear_triangle_holonomy, _linear_rows)],
                         ids=["zee", "linear"])
def test_oracle_rows_match_the_reference_builder(oracle, rows):
    # a 50x50 grid with theta = 0 and pi, phi = 0, and the scalar calls
    theta, phi = np.meshgrid(np.linspace(0.0, np.pi, 50),
                             np.append(np.linspace(-np.pi, np.pi, 49), 0.0), indexing="ij")
    assert np.array_equal(oracle(theta, phi), triangle_product(theta, phi, rows(theta, phi)))
    for t, p in ((0.0, 1.3), (np.pi, 0.0), (0.7, -2.1)):
        assert np.array_equal(oracle(t, p), triangle_product(t, p, rows(t, p)))


@pytest.mark.parametrize("oracle", [zee_holonomy, linear_triangle_holonomy])
class TestBatchedOracles:
    def test_vector_matches_scalar_calls(self, oracle):
        theta, phi = EDGE_ANGLES.T
        batch = oracle(theta, phi)
        assert batch.shape == (len(theta), 2, 2)
        for k, (t, p) in enumerate(EDGE_ANGLES):
            assert np.abs(batch[k] - oracle(float(t), float(p))).max() <= 1e-15

    def test_matrix_matches_scalar_calls(self, oracle, rng):
        theta = rng.uniform(0.0, np.pi, size=(5, 3))
        phi = rng.uniform(-2 * np.pi, 2 * np.pi, size=(5, 3))
        theta[0], phi[1] = EDGE_ANGLES[:3, 0], EDGE_ANGLES[-3:, 1]
        batch = oracle(theta, phi)
        assert batch.shape == (5, 3, 2, 2)
        for i, j in np.ndindex(theta.shape):
            u = oracle(float(theta[i, j]), float(phi[i, j]))
            assert np.abs(batch[i, j] - u).max() <= 1e-15

    def test_zero_dimensional_call(self, oracle):
        for theta, phi in ((0.8, -1.1), (np.float64(0.8), np.array(-1.1)),
                           (np.array(0.8), np.array(-1.1))):
            assert oracle(theta, phi).shape == (2, 2)
        assert np.array_equal(oracle(np.array(0.8), np.array(-1.1)), oracle(0.8, -1.1))


@pytest.mark.parametrize("theta, says", [(4.0, "got 4.0"), (np.inf, "got inf")])
def test_zee_holonomy_rejects_theta_outside_range(theta, says):
    with pytest.raises(InvalidAngle, match=rf"theta must lie in \[0, pi\], {says}$"):
        zee_holonomy(theta, 1.0)


def test_loop_angle_check_names_first_bad_entry():
    with pytest.raises(InvalidAngle, match=r"theta must lie in \[0, pi\], got 4.0$"):
        linear_triangle_holonomy(np.array([0.5, 4.0, -1.0]), np.zeros(3))
    with pytest.raises(InvalidAngle, match=r"got -1.0$"):
        linear_triangle_holonomy(np.array([[0.5, 1.0], [-1.0, np.nan]]), np.ones((2, 2)))
    with pytest.raises(InvalidAngle, match=r"theta must lie in \[0, pi\], got nan$"):
        linear_triangle_holonomy(np.array([np.nan, 7.0]), np.ones(2))
    with pytest.raises(InvalidAngle, match=r"phi must be finite, got nan$"):
        linear_triangle_holonomy(np.ones(3), np.array([0.1, np.nan, np.inf]))
    with pytest.raises(InvalidAngle, match=r"phi must be finite, got -inf$"):
        linear_triangle_holonomy(1.0, -np.inf)


class TestComparisons:
    def test_fidelity_self(self, rng):
        from util import random_su2
        u = random_su2(rng)
        assert holonomy_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_phase_blind(self, rng):
        from util import random_su2
        u = random_su2(rng)
        for alpha in (0.3, -1.2, np.pi):
            assert holonomy_fidelity(u, np.exp(1j * alpha) * u) == pytest.approx(
                1.0, abs=1e-12)

    def test_fidelity_never_exceeds_one(self, rng):
        from util import random_su2
        for alpha in rng.uniform(-np.pi, np.pi, size=200):
            u = random_su2(rng)
            assert 1.0 - 1e-12 <= holonomy_fidelity(u, np.exp(1j * alpha) * u) <= 1.0

    def test_fidelity_orthogonal_case(self):
        v = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert holonomy_fidelity(np.eye(2), v) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_rejects_nonunitary(self):
        with pytest.raises(NotUnitary):
            holonomy_fidelity(np.eye(2) * 1.5, np.eye(2))

    def test_eigenphases_basic(self):
        assert np.allclose(eigenphases(np.eye(2)), [0.0, 0.0], atol=0)
        assert np.allclose(eigenphases(np.diag([1j, -1j])),
                           [-np.pi / 2, np.pi / 2], atol=1e-15)

    def test_eigenphases_conjugation_invariant(self, rng):
        from util import random_su2
        u = random_su2(rng)
        q = random_su2(rng)
        assert np.allclose(eigenphases(u), eigenphases(q @ u @ q.conj().T),
                           atol=1e-10)

    def test_eigenphase_distance_wraps_at_pi(self):
        eps = 1e-7
        u = np.diag([np.exp(1j * (np.pi - eps)), np.exp(-1j * (np.pi - eps))])
        v = np.diag([np.exp(-1j * (np.pi - eps)), np.exp(1j * (np.pi - eps))])
        assert eigenphase_distance(u, v) <= 3 * eps
