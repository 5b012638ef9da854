import tracemalloc

import numpy as np
import pytest

from holostark import (InvalidAngle, InvalidInput, LoopModel, NotUnitary, half_spin_band,
                       holonomy_fidelity, linear_triangle_holonomy, loop_product,
                       synthesize, zee_holonomy)
from holostark import synth
from holostark._linalg import BLOCK
from holostark.synth import GRID_POINTS

from util import random_su2

SPH = LoopModel("spherical_quadratic")


class TestLoopProduct:
    def test_empty_is_identity(self):
        assert np.array_equal(loop_product([], SPH), np.eye(2))

    def test_single_loop_matches_oracle(self):
        u = loop_product([(0.8, 1.3)], SPH)
        assert np.abs(u - zee_holonomy(0.8, 1.3)).max() <= 1e-14

    def test_ordering_contract(self):
        a, b = (0.5, 1.0), (1.2, -0.7)
        u = loop_product([a, b], SPH)
        expected = zee_holonomy(*b) @ zee_holonomy(*a)
        assert np.abs(u - expected).max() <= 1e-14

    def test_linear_model(self):
        u = loop_product([(0.9, 0.8)], LoopModel("linear"))
        assert np.abs(u - linear_triangle_holonomy(0.9, 0.8)).max() <= 1e-14

    def test_invalid_angle(self):
        with pytest.raises(InvalidAngle):
            loop_product([(-0.1, 1.0)], SPH)
        with pytest.raises(InvalidAngle):
            loop_product([(0.5, np.inf)], SPH)
        # in a batch, the message names the first bad entry
        loops = np.full((4, 2, 2), 0.5)
        loops[2, 1, 0] = np.pi + 0.1
        with pytest.raises(InvalidAngle, match="got 3.24"):
            loop_product(loops, SPH)
        loops[2, 1, 0] = 0.5
        loops[3, 0, 1] = np.nan
        with pytest.raises(InvalidAngle, match="phi must be finite, got nan"):
            loop_product(loops, SPH)

    @pytest.mark.parametrize("model", [SPH, LoopModel("linear")], ids=["sph", "linear"])
    def test_angles_checked_once_per_batch(self, monkeypatch, model):
        from holostark import holonomy
        checks = []
        for module in (holonomy, synth):
            original = module._check_loop_angles
            monkeypatch.setattr(module, "_check_loop_angles",
                                lambda t, p, f=original: checks.append(1) or f(t, p))
        loop_product(np.full((4, 3, 2), 0.5), model)
        assert len(checks) == 1

    @pytest.mark.parametrize("model", [SPH, LoopModel("linear")], ids=["sph", "linear"])
    def test_batch_equals_row_by_row(self, model, rng):
        loops = np.stack([rng.uniform(0.0, np.pi, size=(6, 3)),
                          rng.uniform(-np.pi, np.pi, size=(6, 3))], axis=-1)
        loops[0, 1, 0] = 0.0  # theta = 0
        loops[2, :, 1] = 0.0  # a row of phi = 0
        batch = loop_product(loops, model)
        assert batch.shape == (6, 2, 2)
        for row, u in zip(loops, batch):
            assert np.array_equal(u, loop_product(row, model))
            assert np.array_equal(u, loop_product([tuple(a) for a in row], model))
        assert np.array_equal(batch[2], np.eye(2))
        units = loop_product(loops[..., None, :], model)
        assert np.array_equal(units[0, 1], np.eye(2))
        assert np.array_equal(units[2], np.broadcast_to(np.eye(2), (3, 2, 2)))
        assert np.array_equal(loop_product([(0.0, 1.3)], model), np.eye(2))

    def test_unknown_model_rejected(self):
        with pytest.raises(InvalidInput, match="unknown loop model 'bogus'"):
            LoopModel(kind="bogus")

    @pytest.mark.parametrize("kind", ["spherical_quadratic", "linear"])
    @pytest.mark.parametrize("material, magnitude", [("junk", -1), ("Ge:B", None),
                                                     (None, 1e6)],
                             ids=["junk", "material", "magnitude"])
    def test_analytic_model_takes_no_material(self, ge_b, kind, material, magnitude):
        with pytest.raises(InvalidInput, match=f"^the {kind} model takes no material "
                                               "or magnitude$"):
            LoopModel(kind, ge_b if material == "Ge:B" else material, magnitude)

    @pytest.mark.parametrize("material, magnitude, says", [
        (None, 1e6, "the numeric_quadratic model needs a MaterialParams, got None"),
        ("Ge:B", 0.0, "field magnitude must be positive, got 0.0"),
        ("Ge:B", -1e6, "field magnitude must be positive, got -1000000.0"),
        ("Ge:B", np.inf, "field magnitude must be positive, got inf"),
        ("Ge:B", np.nan, "field magnitude must be positive, got nan"),
        ("Ge:B", None, "field magnitude must be positive, got None"),
        ("Ge:B", "1e6", "field magnitude must be a real number, got '1e6'"),
        ("Ge:B", True, "field magnitude must be a real number, got True"),
    ], ids=["no-material", "zero", "negative", "inf", "nan", "none", "str", "bool"])
    def test_numeric_model_checked_when_built(self, ge_b, material, magnitude, says):
        with pytest.raises(InvalidInput, match=f"^{says}$") as info:
            LoopModel("numeric_quadratic", material and ge_b, magnitude)
        assert getattr(info.value, "argument", None) == (material and "magnitude")

    @pytest.mark.parametrize("magnitude", [10**6, np.float32(1e6), np.int64(10**6)])
    def test_numeric_model_keeps_a_float_magnitude(self, ge_b, magnitude):
        model = LoopModel("numeric_quadratic", ge_b, magnitude)
        assert type(model.magnitude) is float and model.magnitude == 1e6

    def test_numeric_model_agrees_with_analytic(self, ge_spherical):
        model = LoopModel("numeric_quadratic", ge_spherical, 1e6)
        assert half_spin_band(ge_spherical) == "minus"
        u_num = loop_product([(0.9, 1.2)], model)
        u_ana = zee_holonomy(0.9, 1.2)
        # same band transport up to frame conjugation: compare eigenphases
        from holostark import eigenphase_distance
        assert eigenphase_distance(u_num, u_ana) <= 1e-5


class TestSynthesize:
    def test_identity_target(self):
        result = synthesize(np.eye(2), model=SPH, max_loops=1, tol=1e-6, seed=7)
        assert result.converged
        assert result.fidelity >= 1.0 - 1e-9
        for theta, phi in result.loops:
            assert min(abs(theta), abs(phi)) <= 1e-6 or result.fidelity >= 1 - 1e-9

    def test_round_trip_single_loop(self, rng):
        for _ in range(3):
            theta = float(rng.uniform(0.3, 1.4))
            phi = float(rng.uniform(-2.5, 2.5))
            target = zee_holonomy(theta, phi)
            result = synthesize(target, model=SPH, max_loops=1, tol=1e-6, seed=3)
            assert result.converged, (theta, phi)
            assert 1.0 - result.fidelity <= 1e-6

    def test_deterministic_under_seed(self):
        target = zee_holonomy(0.9, 1.7)
        r1 = synthesize(target, model=SPH, max_loops=2, tol=1e-6, seed=11)
        r2 = synthesize(target, model=SPH, max_loops=2, tol=1e-6, seed=11)
        assert r1.loops == r2.loops
        assert r1.fidelity == r2.fidelity
        assert r1.evaluations == r2.evaluations

    def test_phase_blind(self):
        target = zee_holonomy(1.1, 0.6)
        r1 = synthesize(target, model=SPH, max_loops=1, tol=1e-6, seed=5)
        # multiplication by 1j is exact in floats: bit-identical search
        r2 = synthesize(1j * target, model=SPH, max_loops=1, tol=1e-6, seed=5)
        assert r1.loops == r2.loops and r1.fidelity == r2.fidelity
        # generic phases agree up to float noise in the canonicalization
        r3 = synthesize(np.exp(0.7j) * target, model=SPH, max_loops=1,
                        tol=1e-6, seed=5)
        assert np.allclose(np.array(r3.loops), np.array(r1.loops), atol=1e-6)
        assert abs(r3.fidelity - r1.fidelity) <= 1e-9

    def test_canonical_phase_is_exact_under_quarter_turns(self, rng):
        # numpy's complex multiply rounds (i a)(-i b) differently from a b, so
        # a continuous rotation alone gives i t other bits than t
        for _ in range(500):
            target = np.exp(1j * rng.uniform(-np.pi, np.pi)) * random_su2(rng)
            want = synth._canonical_phase(target)
            for turn in (1j, -1, -1j):
                assert np.array_equal(synth._canonical_phase(turn * target), want)

    def test_haar_targets_three_loops(self, rng):
        hits = 0
        for _ in range(5):
            target = random_su2(rng)
            result = synthesize(target, model=SPH, max_loops=3, tol=1e-3, seed=1)
            if result.fidelity >= 0.999:
                hits += 1
        assert hits >= 4

    def test_rejects_nonunitary_target(self):
        with pytest.raises(NotUnitary):
            synthesize(np.array([[1.0, 0.1], [0, 1.0]]), model=SPH, seed=0)

    @pytest.mark.parametrize("target, max_loops, says", [
        (np.eye(3), 1, "target must be a 2x2 unitary"),
        (np.eye(2), 0, "max_loops must be >= 1"),
    ], ids=["3x3-target", "no-loops"])
    def test_rejects_malformed_request(self, target, max_loops, says):
        with pytest.raises(InvalidInput, match=says):
            synthesize(target, model=SPH, max_loops=max_loops, seed=0)

    def test_unreachable_reports_not_converged(self):
        # a generic SU(2) element is off the 2-parameter single-loop surface
        target = random_su2(np.random.default_rng(424242))
        result = synthesize(target, model=SPH, max_loops=1, tol=1e-8, seed=2)
        assert not result.converged
        assert result.fidelity < 1.0 - 1e-8

    def test_numeric_model_scores_one_point_a_call(self, monkeypatch, ge_b):
        # each numeric point is a Wilson loop: no trial point scored ahead
        rows, real_minimize = [], synth.minimize

        def minimize_spy(fun, x0, **kwargs):
            assert kwargs["lookahead"] is False
            counted = lambda X: rows.append(len(X)) or fun(X)
            return real_minimize(counted, x0, **dict(kwargs, maxfev=12))

        monkeypatch.setattr(synth, "minimize", minimize_spy)
        model = LoopModel("numeric_quadratic", ge_b, 1e6)
        result = synthesize(random_su2(np.random.default_rng(5)), model=model,
                            max_loops=1, seed=5)
        assert rows == [1] * 3 * 12  # three restarts of 12 points
        assert result.evaluations == 8 ** 2 + len(rows)

    def test_round_trip_generated_by_loop_product(self, rng):
        loops = [(0.7, 1.1), (1.2, -0.8)]
        target = loop_product(loops, SPH)
        result = synthesize(target, model=SPH, max_loops=2, tol=1e-6, seed=9)
        assert result.converged
        assert holonomy_fidelity(result.achieved, target) >= 1.0 - 1e-6


class TestGridScoring:
    def spy(self, monkeypatch):
        """Record the grid's table of single-loop loop_product calls, its
        candidate indices and scores, and what synthesize hands to
        Nelder-Mead: the objective and each restart seed, and each restart's
        nfev."""
        seen = {"table": [], "seeds": [], "nfev": []}
        real_product, real_minimize = synth.loop_product, synth.minimize
        real_grid, real_score = synth._grid, synth._score

        def loop_product_spy(loops, model):
            if "objective" not in seen:
                seen["table"].append(np.array(loops))
            return real_product(loops, model)

        def grid_spy(*args):
            seen["index"] = real_grid(*args)
            return seen["index"]

        def score_spy(products, target, penalty):
            scores = real_score(products, target, penalty)
            if "objective" not in seen:
                seen["scores"] = scores
            return scores

        def minimize_spy(fun, x0, **kwargs):
            seen["objective"] = fun
            seen["seeds"].append(np.array(x0))
            res = real_minimize(fun, x0, **kwargs)
            seen["nfev"].append(res.nfev)
            return res

        monkeypatch.setattr(synth, "loop_product", loop_product_spy)
        monkeypatch.setattr(synth, "_grid", grid_spy)
        monkeypatch.setattr(synth, "_score", score_spy)
        monkeypatch.setattr(synth, "minimize", minimize_spy)
        return seen

    @pytest.mark.parametrize("max_loops", [1, 3])
    def test_batched_scores_match_per_candidate_objective(self, monkeypatch, max_loops):
        seen = self.spy(monkeypatch)
        target = random_su2(np.random.default_rng(31))
        result = synthesize(target, model=SPH, max_loops=max_loops, tol=1e-3, seed=4)
        # the table: each of the 16x16 (theta, phi) grid pairs once, as a
        # single loop, in calls of at most BLOCK 2x2 factors, four per loop
        table = np.concatenate(seen["table"])
        assert table.shape == (GRID_POINTS ** 2, 1, 2)
        assert len(np.unique(table[:, 0, 0])) == len(np.unique(table[:, 0, 1])) == GRID_POINTS
        assert len(np.unique(table[:, 0], axis=0)) == GRID_POINTS ** 2
        assert max(4 * t.shape[0] * t.shape[1] for t in seen["table"]) <= BLOCK
        i, j = seen["index"]
        candidates = table[i * GRID_POINTS + j, 0].reshape(len(i), 2 * max_loops)
        assert len(candidates) == (256 if max_loops == 1 else 4097)
        if max_loops > 1:
            assert np.array_equal(candidates[0], np.zeros(2 * max_loops))
        assert result.evaluations >= len(candidates)

        objective = seen["objective"]
        scores = seen["scores"]
        assert np.array_equal(scores, [objective(x) for x in candidates])
        order = np.argsort(scores, kind="stable")
        seeds = np.array(seen["seeds"])
        assert np.array_equal(seeds, candidates[order[:len(seeds)]])

    @pytest.mark.parametrize("max_loops", [1, 3])
    def test_evaluations_count_grid_candidates_and_nelder_mead_points(self, monkeypatch,
                                                                      max_loops):
        seen = self.spy(monkeypatch)
        target = random_su2(np.random.default_rng(31))
        result = synthesize(target, model=SPH, max_loops=max_loops, tol=1e-3, seed=4)
        assert seen["nfev"]
        assert result.evaluations == len(seen["index"][0]) + sum(seen["nfev"])

    def test_numeric_grid_transports_each_grid_loop_at_most_once(self, monkeypatch, ge_b):
        # the 8x8 numeric grid: at most 64 Wilson loops before Nelder-Mead,
        # however many of its 257 two-loop candidates share a loop
        transported = []
        real_wilson_loop = synth.wilson_loop

        def wilson_loop_spy(*args, **kwargs):
            transported.append(args[0])
            return real_wilson_loop(*args, **kwargs)

        class NelderMeadReached(Exception):
            pass

        def minimize_spy(*args, **kwargs):
            raise NelderMeadReached

        monkeypatch.setattr(synth, "wilson_loop", wilson_loop_spy)
        monkeypatch.setattr(synth, "minimize", minimize_spy)
        model = LoopModel("numeric_quadratic", ge_b, 1e6)
        with pytest.raises(NelderMeadReached):
            synthesize(random_su2(np.random.default_rng(5)), model=model, max_loops=2, seed=5)
        assert 0 < len(transported) <= 8 ** 2

    @pytest.mark.parametrize("max_loops", [3, 6, 16])
    def test_peak_memory_is_bounded(self, max_loops):
        target = random_su2(np.random.default_rng(8))
        tracemalloc.start()
        try:
            synthesize(target, model=SPH, max_loops=max_loops, tol=1e-3, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _rugged(x):
    # bowl with ripples: the simplex shrinks when it straddles a ripple
    return float(np.sum(x ** 2) + 0.3 * np.sum(np.cos(40.0 * x)))


OPTIONS = dict(fatol=1e-14, xatol=1e-12, maxiter=4000, maxfev=8000)


def _rowwise(f):
    """The stack objective synth.minimize takes, from a scalar one."""
    return lambda X: np.array([f(x) for x in X])


class TestNelderMead:
    """synth.minimize against scipy's Nelder-Mead, the method it ports:
    the same options must give the same bits, with and without lookahead."""

    def assert_same_as_scipy(self, fun, x0, options, ours=()):
        """Both modes of synth.minimize on the scalar fun, plus the runs in
        `ours`, against scipy; returns the last run compared."""
        from scipy.optimize import minimize as scipy_minimize
        options = {k: v for k, v in options.items() if k != "lookahead"}
        runs = list(ours) + [synth.minimize(_rowwise(fun), x0, **options, lookahead=mode)
                             for mode in (False, True)]
        ref = scipy_minimize(fun, x0, method="Nelder-Mead", options=options)
        for res in runs:
            assert np.array_equal(res.x, ref.x)
            assert res.fun == ref.fun
            assert (res.nfev, res.nit) == (ref.nfev, ref.nit)
        return runs[-1]

    @pytest.mark.parametrize("max_loops", [1, 3])
    def test_synth_restarts_match_scipy(self, monkeypatch, max_loops):
        runs = []
        real_minimize = synth.minimize

        def minimize_spy(fun, x0, **kwargs):
            runs.append((fun, np.array(x0), kwargs, real_minimize(fun, x0, **kwargs)))
            return runs[-1][-1]

        monkeypatch.setattr(synth, "minimize", minimize_spy)
        synthesize(random_su2(np.random.default_rng(31)), model=SPH,
                   max_loops=max_loops, tol=1e-3, seed=4)
        monkeypatch.undo()
        assert runs
        for fun, x0, kwargs, ours in runs:
            assert kwargs["lookahead"] is True
            self.assert_same_as_scipy(fun, x0, kwargs, [ours])

    def test_rosenbrock_from_a_zero_coordinate(self):
        res = self.assert_same_as_scipy(_rosenbrock, np.array([0.0, 1.2, -0.7, 0.0]),
                                        OPTIONS)
        assert res.nit < OPTIONS["maxiter"] and res.nfev < OPTIONS["maxfev"]
        assert np.abs(res.x - 1.0).max() <= 1e-6

    def test_objective_gets_a_copy(self):
        def clobbering(x):
            f = _rosenbrock(x)
            x[:] = 0.0
            return f

        self.assert_same_as_scipy(clobbering, np.array([-1.2, 1.0]), OPTIONS)

    def test_stops_at_maxiter(self):
        res = self.assert_same_as_scipy(_rosenbrock, np.array([-1.2, 1.0, 0.0]),
                                        dict(OPTIONS, maxiter=50))
        assert res.nit == 50

    @pytest.mark.parametrize("maxfev", [0, 2, 4])
    def test_stops_at_maxfev_inside_the_initial_simplex(self, maxfev):
        # fewer evaluations than the n + 1 vertices: the unevaluated ones
        # keep the value inf, and no iteration runs
        res = self.assert_same_as_scipy(_rosenbrock, np.array([0.0, 1.2, -0.7, 0.0]),
                                        dict(OPTIONS, maxfev=maxfev))
        assert (res.nfev, res.nit) == (maxfev, 1)

    def test_stops_at_maxfev_inside_a_shrink(self):
        # scipy's per-iteration evaluation counts locate the first shrink:
        # an iteration of n + 2 evaluations (reflect, contract, n vertices)
        from scipy.optimize import minimize as scipy_minimize
        x0 = np.array([0.0, 1.2, -0.7, 0.0])
        n, calls = len(x0), []
        marks = [n + 1]
        scipy_minimize(lambda x: calls.append(1) or _rugged(x), x0, method="Nelder-Mead",
                       callback=lambda xk: marks.append(len(calls)), options=OPTIONS)
        first = int(np.flatnonzero(np.diff(marks) == n + 2)[0])
        # the budget runs out after half of the shrink's vertex evaluations
        maxfev = marks[first] + 2 + n // 2
        res = self.assert_same_as_scipy(_rugged, x0, dict(OPTIONS, maxfev=maxfev))
        assert res.nfev == maxfev and res.nit == first + 1

    def test_stops_at_any_maxfev(self):
        # cuts after a reflection, an expansion, a contraction or inside a
        # shrink all leave the simplex as scipy leaves it
        x0 = np.array([0.0, 1.2, -0.7, 0.0])
        for maxfev in range(5, 120, 3):
            res = self.assert_same_as_scipy(_rugged, x0, dict(OPTIONS, maxfev=maxfev))
            assert res.nfev == maxfev

    def test_lookahead_calls_once_per_iteration(self):
        # n = 3 tells a shrink's n vertices from an iteration's four trial
        # points; the n + 1 initial vertices come first
        x0 = np.array([0.5, -1.2, 0.3])
        n = len(x0)
        stacks = []

        def fun(X):
            stacks.append(len(X))
            return _rowwise(_rugged)(X)

        res = synth.minimize(fun, x0, **OPTIONS, lookahead=True)
        assert res.nit < OPTIONS["maxiter"] and res.nfev < OPTIONS["maxfev"]
        assert stacks[0] == n + 1
        shrinks = stacks.count(n)
        assert shrinks > 0
        # the last pass only tests convergence: nit - 1 iterations ran
        assert stacks[1:].count(4) == res.nit - 1
        assert len(stacks) == 1 + (res.nit - 1) + shrinks
        # without lookahead, one call a counted evaluation
        stacks.clear()
        assert synth.minimize(fun, x0, **OPTIONS).nfev == len(stacks) == sum(stacks)

