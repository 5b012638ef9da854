import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from holostark import (InvalidAngle, InvalidInput, LoopModel, NotUnitary, half_spin_band,
                       holonomy_fidelity, linear_triangle_holonomy, loop_product,
                       synthesize, zee_holonomy)
from holostark import synth
from holostark._linalg import BLOCK
from holostark.synth import GRID_POINTS, SEED_SEPARATION

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
        (np.eye(2), 2.5, "max_loops must be an integer, got 2.5"),
        (np.eye(2), True, "max_loops must be an integer, got True"),
    ], ids=["3x3-target", "no-loops", "float-loops", "bool-loops"])
    def test_rejects_malformed_request(self, target, max_loops, says):
        with pytest.raises(InvalidInput, match=says) as info:
            synthesize(target, model=SPH, max_loops=max_loops, seed=0)
        argument = "max_loops" if target.shape == (2, 2) else None
        assert getattr(info.value, "argument", None) == argument

    def test_unreachable_reports_not_converged(self):
        # a generic SU(2) element is off the 2-parameter single-loop surface
        target = random_su2(np.random.default_rng(424242))
        result = synthesize(target, model=SPH, max_loops=1, tol=1e-8, seed=2)
        assert not result.converged
        assert result.fidelity < 1.0 - 1e-8

    @pytest.mark.parametrize("kind, oracle", [("spherical_quadratic", zee_holonomy),
                                              ("linear", linear_triangle_holonomy)])
    def test_round_trip_single_loop_targets(self, kind, oracle):
        # near-identity and phi ~ +-pi targets, where restarts from the best
        # grid scores alone once shared a basin or sat on the theta = 0 row
        missed = []
        for theta in (0.3, 0.7, 1.1721, 1.4, 2.0, 2.6, 3.0):
            for phi in (0.003, 0.0234, 0.1, -0.05, 3.1, -3.1):
                result = synthesize(oracle(theta, phi), model=LoopModel(kind),
                                    max_loops=1, tol=1e-6, seed=1)
                if not result.converged:
                    missed.append((theta, phi, 1.0 - result.fidelity))
        assert not missed

    def test_round_trip_numeric_model(self, ge_b):
        model = LoopModel("numeric_quadratic", ge_b, 1e6)
        w, _, vh = np.linalg.svd(loop_product([(1.1721, 0.0234)], model))
        result = synthesize(w @ vh, model=model, max_loops=1, tol=1e-6, seed=11)
        assert result.converged and 1.0 - result.fidelity <= 1e-6

    def test_numeric_model_scores_one_point_a_call(self, monkeypatch, ge_b):
        # each numeric point is a Wilson loop: a trial step is scored alone,
        # only a Jacobian call scores its stencil of 1 + 2L points together
        rows, real_minimize = [], synth.minimize

        def minimize_spy(fun, x0, **kwargs):
            counted = lambda X: rows.append(len(X)) or fun(X)
            return real_minimize(counted, x0, **dict(kwargs, maxiter=4))

        monkeypatch.setattr(synth, "minimize", minimize_spy)
        model = LoopModel("numeric_quadratic", ge_b, 1e6)
        result = synthesize(random_su2(np.random.default_rng(5)), model=model,
                            max_loops=1, seed=5)
        assert set(rows) == {1, 3}
        # a Jacobian is followed by a trial or ends its restart's refinement
        assert all(b == 1 for a, b in zip(rows, rows[1:]) if a == 3)
        assert result.evaluations == 8 ** 2 + sum(rows)

    def test_round_trip_generated_by_loop_product(self, rng):
        loops = [(0.7, 1.1), (1.2, -0.8)]
        target = loop_product(loops, SPH)
        result = synthesize(target, model=SPH, max_loops=2, tol=1e-6, seed=9)
        assert result.converged
        assert holonomy_fidelity(result.achieved, target) >= 1.0 - 1e-6


class TestGridScoring:
    def spy(self, monkeypatch):
        """Record the grid's table of single-loop loop_product calls, its
        candidate indices and residuals, and what synthesize hands to the
        refinement: the objective and each restart seed, and each restart's
        nfev."""
        seen = {"table": [], "seeds": [], "nfev": []}
        real_product, real_minimize = synth.loop_product, synth.minimize
        real_grid, real_residual = synth._grid, synth._residual

        def loop_product_spy(loops, model):
            if "objective" not in seen:
                seen["table"].append(np.array(loops))
            return real_product(loops, model)

        def grid_spy(*args):
            seen["index"] = real_grid(*args)
            return seen["index"]

        def residual_spy(products, target, excess):
            residual = real_residual(products, target, excess)
            if "objective" not in seen:
                seen["products"], seen["residual"] = products, residual
            return residual

        def minimize_spy(fun, x0, **kwargs):
            seen["objective"] = fun
            seen["seeds"].append(np.array(x0))
            res = real_minimize(fun, x0, **kwargs)
            seen["nfev"].append(res.nfev)
            return res

        monkeypatch.setattr(synth, "loop_product", loop_product_spy)
        monkeypatch.setattr(synth, "_grid", grid_spy)
        monkeypatch.setattr(synth, "_residual", residual_spy)
        monkeypatch.setattr(synth, "minimize", minimize_spy)
        return seen

    def candidates(self, seen, max_loops):
        table = np.concatenate(seen["table"])
        i, j = seen["index"]
        return table[i * GRID_POINTS + j, 0].reshape(len(i), 2 * max_loops)

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
        candidates = self.candidates(seen, max_loops)
        assert len(candidates) == (256 if max_loops == 1 else 4097)
        if max_loops > 1:
            assert np.array_equal(candidates[0], np.zeros(2 * max_loops))
        assert result.evaluations >= len(candidates)

        # the grid's |r|^2, bit for bit the refinement's at each candidate
        objective = seen["objective"]
        scores = np.square(seen["residual"]).sum(axis=-1)
        assert np.array_equal(scores, [np.square(objective(x[None])[0]).sum()
                                       for x in candidates])

    @pytest.mark.parametrize("max_loops", [1, 2])
    def test_restart_seeds_are_distinct(self, monkeypatch, max_loops):
        # seeds in score order, candidates with a theta = 0 loop last,
        # skipping each within 1 - F <= SEED_SEPARATION of an earlier seed
        seen = self.spy(monkeypatch)

        def seed_only(fun, x0):  # the seeds, not the search
            seen["objective"] = fun
            seen["seeds"].append(np.array(x0))
            return SimpleNamespace(x=np.array(x0), fun=1.0, nfev=0)

        monkeypatch.setattr(synth, "minimize", seed_only)
        monkeypatch.setattr(synth, "RESTARTS", 40)
        synthesize(random_su2(np.random.default_rng(31)), model=SPH, max_loops=max_loops,
                   seed=4)
        candidates = self.candidates(seen, max_loops)
        scores = np.square(seen["residual"]).sum(axis=-1)
        products = seen["products"]
        has_zero = (candidates[:, 0::2] == 0).any(axis=1)
        kept = []
        for i in sorted(range(len(scores)), key=lambda i: (has_zero[i], scores[i])):
            if len(kept) < 40 and all(
                    1.0 - holonomy_fidelity(products[i], products[k]) > SEED_SEPARATION
                    for k in kept):
                kept.append(i)
        assert 8 < len(kept) <= 40 and not has_zero[kept].any()
        assert np.array_equal(np.array(seen["seeds"]), candidates[kept])

    @pytest.mark.parametrize("max_loops", [1, 3])
    def test_evaluations_count_grid_candidates_and_nelder_mead_points(self, monkeypatch,
                                                                      max_loops):
        seen = self.spy(monkeypatch)
        target = random_su2(np.random.default_rng(31))
        result = synthesize(target, model=SPH, max_loops=max_loops, tol=1e-3, seed=4)
        assert seen["nfev"]
        assert result.evaluations == len(seen["index"][0]) + sum(seen["nfev"])

    def test_numeric_grid_transports_each_grid_loop_at_most_once(self, monkeypatch, ge_b):
        # the 8x8 numeric grid: at most 64 Wilson loops before the refinement,
        # however many of its 257 two-loop candidates share a loop; then a
        # Jacobian call of 1 + 2L points transports at most (1 + 2L) L loops
        # and a trial point L
        transported, grid, calls = [], [], []
        real_wilson_loop, real_minimize = synth.wilson_loop, synth.minimize
        monkeypatch.setattr(synth, "wilson_loop", lambda *a, **k: transported.append(1)
                            or real_wilson_loop(*a, **k))

        def minimize_spy(fun, x0):
            grid.append(len(transported))

            def counted(X):
                before = len(transported)
                rows = fun(X)
                calls.append((len(X), len(transported) - before))
                return rows
            return real_minimize(counted, x0, maxiter=4)

        monkeypatch.setattr(synth, "minimize", minimize_spy)
        model = LoopModel("numeric_quadratic", ge_b, 1e6)
        synthesize(random_su2(np.random.default_rng(5)), model=model, max_loops=2, seed=5)
        assert 0 < grid[0] <= 8 ** 2
        assert {k for k, _ in calls} == {1, 5}
        assert all(loops <= 2 * k for k, loops in calls)

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


def _circle(X):  # residuals zero at (sqrt 2, sqrt 2)
    return np.stack([X[:, 0] ** 2 + X[:, 1] ** 2 - 4.0, X[:, 0] - X[:, 1]], axis=-1)


def _rosenbrock(X):  # residuals zero at (1, 1)
    return np.stack([10.0 * (X[:, 1] - X[:, 0] ** 2), 1.0 - X[:, 0]], axis=-1)


class TestMinimize:
    def test_zero_residual_converges_quadratically(self):
        costs = []

        def fun(X):
            rows = _circle(X)
            if len(X) > 1:  # a Jacobian call: rows[0] is the new point
                costs.append(np.square(rows[0]).sum())
            X[:] = 0.0  # the points are fun's own copy
            return rows

        res = synth.minimize(fun, [1.0, 1.5])
        assert np.abs(res.x - np.sqrt(2.0)).max() <= 1e-12
        assert res.fun <= 1e-24 and res.nfev <= 20
        costs = np.array(costs)
        assert (costs[1:] <= 10.0 * costs[:-1] ** 2).all()

    @pytest.mark.parametrize("maxiter", [1, 2, 5])
    def test_maxiter_stops_it(self, maxiter):
        sizes = []
        res = synth.minimize(lambda X: sizes.append(len(X)) or _rosenbrock(X),
                             [-1.2, 1.0], maxiter=maxiter)
        assert sizes.count(1) == maxiter and res.nfev == sum(sizes)
        assert res.fun == np.square(_rosenbrock(res.x[None])[0]).sum()
        assert res.fun <= np.square(_rosenbrock(np.array([[-1.2, 1.0]]))).sum()

    def test_singular_normal_matrix(self):
        # from theta = 0 the loop is I at every phi: a zero column of J
        def one_loop(X):
            loops, excess = synth._clip_angles(X)
            return synth._residual(loop_product(loops, SPH), zee_holonomy(0.5, 1.0), excess)

        res = synth.minimize(one_loop, [0.0, 1.0])
        assert res.fun <= 1e-20 and np.abs(res.x - [0.5, 1.0]).max() <= 1e-9

    def test_singular_normal_matrix_after_many_steps(self):
        # both thetas pushed past pi: the residual sees only their excess,
        # and the two phi columns of J are equal.  The damping, divided by
        # 10 at each accepted step, once fell below the roundoff of J^T J
        rng = np.random.default_rng(123)
        target = [random_su2(rng) for _ in range(16)][-1]
        result = synthesize(target, model=LoopModel("linear"), max_loops=2, tol=1e-3,
                            seed=15)
        assert 0.4 < result.fidelity < 0.999

    def test_forward_jacobian_matches_central_differences(self, monkeypatch):
        stacks, real_minimize = [], synth.minimize

        def minimize_spy(fun, x0, **kwargs):
            def recorded(X):
                rows = fun(X)
                if len(X) > 1:
                    stacks.append((fun, X, rows))
                return rows
            return real_minimize(recorded, x0, **kwargs)

        monkeypatch.setattr(synth, "minimize", minimize_spy)
        synthesize(random_su2(np.random.default_rng(31)), model=SPH, max_loops=3,
                   tol=1e-3, seed=4)
        assert stacks
        h, c = synth.JACOBIAN_STEP, 1e-4
        for fun, X, rows in stacks:
            x, n = X[0], X.shape[1]
            assert np.abs(X[1:] - x - h * np.eye(n)).max() <= 1e-15
            forward = (rows[1:] - rows[0]) / h
            central = (fun(x + c * np.eye(n)) - fun(x - c * np.eye(n))) / (2 * c)
            # one side of a theta on the box's edge is flat: skip its column
            inside = np.ones(n, dtype=bool)
            inside[0::2] = (c < x[0::2]) & (x[0::2] < np.pi - c)
            assert inside.sum() >= n - 1
            assert np.abs(forward - central)[inside].max() <= 1e-6
