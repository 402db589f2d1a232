import functools
import sys

import numpy as np
import pytest

import screenlab as sl
from screenlab import solvers
from screenlab.dictionary import _GATHER_COST
from screenlab.problems import penalty_value
from screenlab.solvers import (
    CP,
    SolverConfig,
    SolverState,
    _extrapolated_resid,
    _LiveColumns,
    _reduce_dic,
    _reduce_state,
    init_state,
    update_cp,
    update_fista,
    update_ista,
    update_sparsa,
    update_twist,
)
from conftest import identity_problem, make_group, make_lasso

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


class TestInitState:
    @pytest.mark.parametrize("algo", sl.ALGORITHMS)
    def test_residual_starts_at_minus_y(self, algo):
        p = make_lasso(3)
        st = init_state(p, SolverConfig(algorithm=algo))
        assert not st.x.any()
        assert np.array_equal(st.resid, -p.y)

    @pytest.mark.parametrize("kind", ["lasso", "group"])
    def test_full_layout_and_initial_screened_set(self, kind):
        p = make_lasso(3) if kind == "lasso" else make_group(3)
        st = init_state(p, SolverConfig())
        assert st.layout is (p.partition.full if kind == "group" else None)
        assert np.array_equal(st.screen_state.kept, np.arange(p.n_cols))
        assert st.screen_state.eliminated.size == 0
        assert not st.screen_state.kept.flags.writeable
        assert st.x.size == p.n_cols


class TestReduceState:
    @pytest.mark.parametrize("algo", sl.ALGORITHMS)
    @pytest.mark.parametrize("strategy", ["static", "dynamic"])
    def test_positions_stay_aligned_after_every_fold(self, algo, strategy, monkeypatch):
        # x, the iterates, the layout and the kept set are reduced together:
        # after each fold they have one length, and the layout is the one of
        # the kept columns. Here the static screen keeps 24 of the 30
        # columns, and a dynamic run folds 3 or 4 times.
        p = make_group(15, k=30, ratio=0.5)
        fold = solvers._reduce_state
        sizes = []

        def checking(state, mask):
            fold(state, mask)
            kept = state.screen_state.kept
            sizes.append(kept.size)
            assert state.x.size == state.layout.member.size == kept.size
            for v in (state.x_prev, state.u):
                assert v is None or v.size == kept.size
            for name, ref in vars(p.partition.layout(kept)).items():
                assert np.array_equal(getattr(state.layout, name), ref), name

        monkeypatch.setattr(solvers, "_reduce_state", checking)
        res = sl.run(p, SolverConfig(algorithm=algo, strategy=strategy, test="gst3",
                                     max_iters=300, rel_tol=1e-10))
        assert sizes[-1] == res.screen_state.kept.size < p.n_cols
        if strategy == "dynamic":
            assert len(sizes) > 1

    @pytest.mark.parametrize("algo", sl.ALGORITHMS)
    def test_group_state_without_layout_raises(self, algo):
        p = make_group(3)
        st = init_state(p, SolverConfig(algorithm=algo))
        st.layout = None
        with pytest.raises(ValueError, match="state.layout"):
            solvers._UPDATES[algo](st, p.dictionary, p)


class TestIterationHook:
    @pytest.mark.parametrize("algo", sl.ALGORITHMS)
    @pytest.mark.parametrize("kind,test", [("lasso", "dst3"), ("group", "gst3")])
    def test_hook_reads_the_live_state_unwritten(self, algo, kind, test):
        # the hook gets the state itself, not a snapshot: every array it holds
        # must keep the bytes it had at the call once the run has ended
        p = make_lasso(14, ratio=0.8) if kind == "lasso" else make_group(15, k=30, ratio=0.5)
        held, masks = [], []

        def hook(t, state, mask):
            size = state.x.size
            assert mask is None or mask.shape == (size,)
            assert state.screen_state.kept.size == size
            if kind == "group":
                assert state.layout.member.size == size
            arrays = (state.x, state.theta, state.corr, state.screen_state.kept)
            held.append([(a, a.tobytes()) for a in arrays])
            masks.append(mask)

        res = sl.run(p, SolverConfig(algorithm=algo, strategy="dynamic", test=test,
                                     max_iters=300, rel_tol=1e-10), iteration_hook=hook)
        assert len(held) == res.iterations
        assert any(m is not None and m.any() for m in masks)
        for arrays in held:
            for a, before in arrays:
                assert a.tobytes() == before


# (family, seed, ratio) of a problem on which a dynamic run of each algorithm
# eliminates a coefficient its iterate still holds nonzero, for each penalty
_CLEARING = {
    ("lasso", "ista"): ("pnoise", 0, 0.5), ("lasso", "fista"): ("pnoise", 0, 0.5),
    ("lasso", "sparsa"): ("pnoise", 0, 0.5), ("lasso", "twist"): ("gaussian", 0, 0.9),
    ("lasso", "cp"): ("pnoise", 0, 0.9),
    ("group", "ista"): ("gaussian", 2, 0.5), ("group", "fista"): ("gaussian", 2, 0.5),
    ("group", "sparsa"): ("gaussian", 2, 0.5), ("group", "twist"): ("gaussian", 0, 0.7),
    ("group", "cp"): ("gaussian", 32, 0.5),
}


class TestObjectiveReuse:
    # The objective each iteration records takes the squared residual norm
    # the step already summed. At the moment it is recorded, recomputing it
    # from the live state, ``0.5 * resid @ resid + lam * penalty``, must give
    # the same float, also right after a dynamic elimination that dropped a
    # nonzero coefficient and so cleared the residual.

    @pytest.mark.parametrize("algo", sl.ALGORITHMS)
    @pytest.mark.parametrize("kind,test", [("lasso", "dst3"), ("group", "gst3")])
    def test_recorded_objective_is_recomputed_bit_for_bit(self, algo, kind, test, monkeypatch):
        family, seed, ratio = _CLEARING[kind, algo]
        make = make_lasso if kind == "lasso" else make_group
        p = make(seed, ratio=ratio, family=family)
        live, recorded, recomputed = [], [], []
        cleared = 0
        append = sl.SolveTrace.append

        def hook(t, state, mask):
            nonlocal cleared
            live[:] = [state]
            cleared += int(mask is not None and bool(state.x[mask].any()))

        def recording(trace, t, kept, sparsity, objective, flops_cum, seconds):
            state = live[0]
            resid = state.resid
            recomputed.append(0.5 * float(resid @ resid)
                              + p.lam * penalty_value(state.x, state.layout))
            recorded.append(objective)
            append(trace, t, kept, sparsity, objective, flops_cum, seconds)

        monkeypatch.setattr(sl.SolveTrace, "append", recording)
        for strategy in ("none", "static", "dynamic"):
            recorded.clear(), recomputed.clear()
            res = sl.run(p, SolverConfig(algorithm=algo, strategy=strategy,
                                         test=None if strategy == "none" else test,
                                         max_iters=300, rel_tol=1e-10), iteration_hook=hook)
            assert len(recorded) == res.iterations > 5
            assert [o.hex() for o in recorded] == [o.hex() for o in recomputed], strategy
            assert [o.hex() for o in res.trace.objective] == [o.hex() for o in recorded]
        assert cleared > 0


class TestUpdateIsta:
    def test_one_step_solves_orthonormal(self):
        p = identity_problem(0.8)
        st = init_state(p, SolverConfig())
        update_ista(st, p.dictionary, p)
        assert np.allclose(st.x, sl.prox_l1(p.y, p.lam), atol=1e-15)

    def test_fixed_point(self):
        p = identity_problem(0.8)
        x_star = sl.prox_l1(p.y, p.lam)
        st = SolverState(x=x_star.copy(), L=1.0)
        update_ista(st, p.dictionary, p)
        assert np.allclose(st.x, x_star, atol=1e-14)

    def test_backtracking_certificate(self):
        # after an accepted step, the quadratic model at the previous iterate
        # still upper-bounds the new smooth value
        for seed in range(10):
            p = make_lasso(seed, n=10, k=25)
            st = init_state(p, SolverConfig())
            for _ in range(15):
                x_prev = st.x.copy()
                update_ista(st, p.dictionary, p)
                f_new = 0.5 * float(st.resid @ st.resid)
                f_old = 0.5 * float(st.theta @ st.theta)
                step = st.x - x_prev
                bound = f_old + float(st.corr @ step) + 0.5 * st.L * float(step @ step)
                assert f_new <= bound + 1e-12 * max(1.0, f_old)

    def test_objective_decreases(self):
        p = make_lasso(3)
        st = init_state(p, SolverConfig())
        vals = []
        for _ in range(30):
            update_ista(st, p.dictionary, p)
            vals.append(sl.objective(p, st.x))
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestUpdateFista:
    def test_momentum_scalar_recurrence(self):
        p = identity_problem(0.8)
        st = init_state(p, SolverConfig(algorithm="fista"))
        update_fista(st, p.dictionary, p)
        assert st.l_acc == pytest.approx(GOLDEN, abs=1e-12)
        update_fista(st, p.dictionary, p)
        assert st.l_acc == pytest.approx(0.5 * (1 + np.sqrt(1 + 4 * GOLDEN**2)), abs=1e-12)

    def test_first_step_matches_ista(self):
        p = identity_problem(0.8)
        st = init_state(p, SolverConfig(algorithm="fista"))
        update_fista(st, p.dictionary, p)
        assert np.allclose(st.x, sl.prox_l1(p.y, p.lam), atol=1e-15)


class TestUpdateTwist:
    def test_unit_weights_degenerate_to_ista_step(self):
        # the first step has no previous iterate to mix in, so it is the plain
        # prox step; on an orthonormal dictionary 1 / ||D||^2 = 1 is also the
        # step ISTA accepts
        p = identity_problem(0.8)
        st = init_state(p, SolverConfig(algorithm="twist"))
        assert st.step == 1.0
        update_twist(st, p.dictionary, p)
        ista = SolverState(x=np.zeros(2))
        update_ista(ista, p.dictionary, p)
        assert np.array_equal(st.x, ista.x)

    def test_fixed_point(self):
        p = identity_problem(0.8)
        x_star = sl.prox_l1(p.y, p.lam)
        st = SolverState(x=x_star.copy(), x_prev=x_star.copy(), step=1.0)
        update_twist(st, p.dictionary, p)
        assert np.allclose(st.x, x_star, atol=1e-14)

    @pytest.mark.parametrize("update", [update_twist, update_cp])
    def test_requires_fixed_step(self, update):
        p = identity_problem(0.8)
        st = SolverState(x=np.zeros(2))
        with pytest.raises(ValueError, match="state.step"):
            update(st, p.dictionary, p)

    def test_non_finite_iterate_raises(self):
        p = identity_problem(0.8)
        st = SolverState(x=np.array([np.inf, 0.0]), step=1.0)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            update_twist(st, p.dictionary, p)


class TestUpdateSparsa:
    def test_orthonormal_curvature_is_one(self):
        p = identity_problem(0.8)
        st = init_state(p, SolverConfig(algorithm="sparsa"))
        st.L = 4.0
        for _ in range(2):
            update_sparsa(st, p.dictionary, p)
            assert st.x.any() and (st.x != st.x_prev).any()
            assert st.L == pytest.approx(1.0, abs=1e-12)

    def test_zero_displacement_keeps_previous(self):
        # above the trivial threshold the step from x = 0 stays at 0
        p = identity_problem(1.5)
        st = SolverState(x=np.zeros(2), L=3.0)
        update_sparsa(st, p.dictionary, p)
        assert not st.x.any()
        assert st.L == 3.0

    def test_floors_cancelled_curvature(self):
        # antipodal atoms e1, -e1 cancel on the step s = (-0.5, -0.5): D s = 0,
        # so the curvature estimate 0 is floored
        dic = sl.Dictionary(np.array([[1.0, -1.0], [0.0, 0.0]]))
        p = sl.Problem(dic, np.array([0.6, 0.8]), 0.5)
        st = SolverState(x=np.array([1.2, 0.6]))
        update_sparsa(st, p.dictionary, p)
        assert np.array_equal(st.x - st.x_prev, [-0.5, -0.5])
        assert st.L == solvers._BB_L_MIN

    def test_ista_step_then_product_free_curvature(self):
        # the step is ISTA's, bit for bit; the curvature taken from the two
        # residuals equals ||D s||^2 / ||s||^2 with D s from a product, to
        # rounding, floored below and not capped above; a scaled dictionary
        # moves the estimate below and above the unit-norm range
        p = make_lasso(4)
        x = np.random.default_rng(4).standard_normal(p.n_cols)
        estimates = []
        for scale in (1e-8, 1.0, 1e8):
            dic = _Scaled(p.dictionary, scale)
            st = SolverState(x=x.copy())
            ista = SolverState(x=x.copy())
            update_sparsa(st, dic, p)
            update_ista(ista, dic, p)
            assert st.x.tobytes() == ista.x.tobytes()
            s = st.x - x
            ds = dic.apply(s)
            assert st.L == pytest.approx(max(float(ds @ ds) / float(s @ s), 1e-10), rel=1e-12)
            estimates.append(st.L)
        assert estimates[0] == 1e-10 and estimates[2] > 1e10


class _Scaled:
    """`dic` with both products multiplied by `scale`."""

    def __init__(self, dic, scale):
        self.dic, self.scale, self.n_cols = dic, scale, dic.n_cols

    def apply(self, x):
        return self.scale * self.dic.apply(x)

    def correlate(self, v):
        return self.scale * self.dic.correlate(v)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_accept_rejects(self, bad):
        st = SolverState(x=np.zeros(3))
        cand = np.array([0.5, bad, 0.0])
        with pytest.raises(FloatingPointError, match="non-finite"):
            solvers._accept(st, np.zeros(2), np.zeros(3), cand, None)
        assert st.x is not cand

    @pytest.mark.parametrize("algo", sl.ALGORITHMS)
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_every_algorithm_raises(self, algo, bad):
        p = make_lasso(3)
        st = init_state(p, SolverConfig(algorithm=algo))
        st.x = np.zeros(p.n_cols)
        st.x[2] = bad
        st.resid = None
        st.u, st.u_resid = st.x, None
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            solvers._UPDATES[algo](st, p.dictionary, p)

    def test_nan_step_size_raises(self):
        # a NaN L fails every majorization test and stays NaN when doubled;
        # the apply budget turns a backtracking loop that never stops into a failure
        p = make_lasso(3)
        dic = _Budgeted(p.dictionary, 100)
        st = SolverState(x=np.zeros(p.n_cols), L=float("nan"))
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="backtracking"):
            update_ista(st, dic, p)
        assert dic.calls == 2  # the residual at x and a single trial


class _Budgeted:
    """`dic` that fails once it has made `budget` products `D @ x`."""

    def __init__(self, dic, budget):
        self.dic, self.budget, self.calls, self.n_cols = dic, budget, 0, dic.n_cols

    def apply(self, x):
        self.calls += 1
        if self.calls > self.budget:
            raise AssertionError(f"more than {self.budget} products")
        return self.dic.apply(x)

    def correlate(self, v):
        return self.dic.correlate(v)


class TestFirstCorrelation:
    @pytest.mark.parametrize("algo", sl.ALGORITHMS)
    @pytest.mark.parametrize("kind,test", [("lasso", "safe"), ("group", "gsafe")])
    def test_every_step_correlates_its_own_dual_point(self, algo, kind, test, monkeypatch):
        # `run` correlates y once, for lambda_max and the screening context,
        # and each iteration, the first included, correlates its dual point
        p = make_lasso(6, ratio=0.5) if kind == "lasso" else make_group(6, ratio=0.5)
        correlate = sl.Dictionary.correlate
        for strategy in ("none", "dynamic"):
            cfg = SolverConfig(algorithm=algo, strategy=strategy,
                               test=None if strategy == "none" else test, max_iters=40)
            calls, first = [], []

            def counting(self, v):
                calls.append(1)
                return correlate(self, v)

            def hook(t, state, mask):
                if t == 1:
                    first.append((state.theta, state.corr))

            with monkeypatch.context() as m:
                m.setattr(sl.Dictionary, "correlate", counting)
                res = sl.run(p, cfg, iteration_hook=hook)
            assert res.iterations > 1
            assert len(calls) == res.iterations + 1
            theta, corr = first[0]
            assert corr.tobytes() == p.dictionary.correlate(theta).tobytes()
            if strategy == "none":
                # the same iterates as steps that correlate for themselves
                st = init_state(p, cfg)
                for _ in range(res.iterations):
                    solvers._UPDATES[algo](st, p.dictionary, p)
                assert st.x.tobytes() == res.x_star.tobytes()


class TestUpdateCp:
    def test_zero_gamma_keeps_steps_constant(self):
        # primal and dual steps are both 0.99 / ||D||, so tau*sigma*||D||^2 < 1
        p = make_lasso(5)
        st = init_state(p, SolverConfig(algorithm=CP))
        step = 0.99 / sl.operator_norm(p.dictionary)
        assert st.step == step
        for _ in range(3):
            update_cp(st, p.dictionary, p)
        assert st.step == step

    def test_zero_sigma_freezes_dual(self):
        p = identity_problem(0.8)
        theta0 = np.array([0.3, -0.2])
        st = SolverState(x=np.zeros(2), u=np.zeros(2), theta=theta0.copy(), step=0.0)
        update_cp(st, p.dictionary, p)
        assert np.array_equal(st.theta, theta0)


class TestConfigValidation:
    def test_unknown_names(self):
        with pytest.raises(ValueError):
            SolverConfig(algorithm="sgd").validate("lasso")
        with pytest.raises(ValueError):
            SolverConfig(strategy="sometimes").validate("lasso")

    def test_screening_needs_test_kind(self):
        with pytest.raises(ValueError, match="test"):
            SolverConfig(strategy="dynamic").validate("lasso")

    def test_test_kind_must_match_problem(self):
        with pytest.raises(ValueError, match="does not apply"):
            SolverConfig(strategy="dynamic", test="gsafe").validate("lasso")
        with pytest.raises(ValueError, match="does not apply"):
            SolverConfig(strategy="static", test="dome").validate("group")

    @pytest.mark.parametrize("strategy", sl.STRATEGIES)
    def test_unknown_test_rejected_under_every_strategy(self, strategy):
        for kind in ("lasso", "group"):
            with pytest.raises(ValueError, match="'bogus'"):
                SolverConfig(strategy=strategy, test="bogus").validate(kind)

    @pytest.mark.parametrize("bad", [2.5, True, False, "10", None])
    def test_max_iters_must_be_an_int(self, bad):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=bad).validate("lasso")

    def test_numpy_int_max_iters_accepted(self):
        SolverConfig(max_iters=np.int64(5)).validate("lasso")

    @pytest.mark.parametrize("bad", [0.0, -1e-7, np.inf, np.nan])
    def test_rel_tol_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="rel_tol"):
            SolverConfig(rel_tol=bad).validate("lasso")

    @pytest.mark.parametrize("bad", ["x", None, True, "1e-7", np.array([1e-7])])
    def test_rel_tol_must_be_a_real_number(self, bad):
        # a string or None raised a bare TypeError, and True passed as 1
        with pytest.raises(ValueError, match="rel_tol must be a positive and finite number"):
            SolverConfig(rel_tol=bad).validate("lasso")

    @pytest.mark.parametrize("good", [1e-7, np.float64(1e-7), np.float32(1e-3), 1, np.int64(1)])
    def test_real_rel_tol_accepted(self, good):
        SolverConfig(rel_tol=good).validate("lasso")


class TestRun:
    @pytest.mark.parametrize("algo", sl.ALGORITHMS)
    def test_no_product_with_an_all_zero_vector(self, algo, monkeypatch):
        products, zero = [], []
        apply = sl.Dictionary.apply

        def counting(self, x):
            products.append(1)
            if not np.any(x):
                zero.append(1)
            return apply(self, x)

        monkeypatch.setattr(sl.Dictionary, "apply", counting)
        res = sl.run(make_lasso(8, ratio=0.9), SolverConfig(algorithm=algo, max_iters=50))
        assert res.iterations > 1 and products
        assert not zero

    def test_fista_repeats_no_product(self, monkeypatch):
        # the first momentum factor is 0, so the second extrapolated point is
        # the first iterate, whose residual is already known
        args = []
        apply = sl.Dictionary.apply

        def recording(self, x):
            args.append(np.asarray(x).tobytes())
            return apply(self, x)

        monkeypatch.setattr(sl.Dictionary, "apply", recording)
        res = sl.run(make_lasso(8, ratio=0.5), SolverConfig(algorithm="fista", max_iters=50))
        assert res.iterations > 2
        assert all(a != b for a, b in zip(args, args[1:]))

    @staticmethod
    def _check_trivial(p, test):
        # every column is screened before the first iteration, whatever the
        # algorithm and strategy, and no static screen is run
        for algo in sl.ALGORITHMS:
            for strategy, t in (("none", None), ("static", test), ("dynamic", test)):
                res = sl.run(p, SolverConfig(algorithm=algo, strategy=strategy, test=t))
                assert res.iterations == 0 and not res.trace.objective
                assert res.trace.init_flops == 0
                assert np.array_equal(res.x_star, np.zeros(p.n_cols))
                assert np.array_equal(res.screen_state.eliminated, np.arange(p.n_cols))
                assert res.screen_state.kept.size == 0
                assert res.final_objective == pytest.approx(0.5, abs=1e-12)

    def test_trivial_regime(self):
        base = make_lasso(0)
        lam = 1.5 * sl.lambda_max(base).value
        self._check_trivial(sl.Problem(base.dictionary, base.y, lam), "dst3")

    def test_trivial_regime_group(self):
        base = make_group(1, k=30)
        lam = 1.2 * sl.lambda_max(base).value
        self._check_trivial(sl.Problem(base.dictionary, base.y, lam, base.partition), "gst3")

    @pytest.mark.parametrize("kind,test", [("lasso", "dst3"), ("group", "gst3")])
    def test_near_threshold_ratio(self, kind, test):
        # just below the trivial threshold almost everything screens in the
        # first iterations and the solution is at most barely supported
        p = (make_lasso(19, ratio=0.999) if kind == "lasso"
             else make_group(19, k=30, ratio=0.999))
        res = sl.run(p, sl.SolverConfig(algorithm="fista", strategy="dynamic", test=test,
                                        max_iters=500, rel_tol=1e-10))
        assert res.screened_fraction > 0.8
        ref = sl.solve_reference(p, 1e-12)
        assert res.final_objective == pytest.approx(ref.objective, rel=1e-6)

    def test_identity_instance_converges(self):
        p = identity_problem(0.8)
        for strategy, test in (("none", None), ("static", "safe"), ("dynamic", "dst3")):
            res = sl.run(p, SolverConfig(algorithm="ista", strategy=strategy, test=test,
                                         max_iters=200, rel_tol=1e-12))
            assert np.allclose(res.x_star, [0.2, 0.0], atol=1e-9)
            assert res.final_objective == pytest.approx(0.48, abs=1e-9)

    @pytest.mark.parametrize("algo", sl.ALGORITHMS)
    def test_all_algorithms_reach_reference(self, algo):
        p = make_lasso(11, n=16, k=40, ratio=0.6)
        ref = sl.solve_reference(p, 1e-12)
        res = sl.run(p, SolverConfig(algorithm=algo, strategy="none", max_iters=4000, rel_tol=1e-12))
        assert res.final_objective == pytest.approx(ref.objective, rel=1e-6)

    def test_strategies_share_the_optimum(self):
        p = make_group(12, k=30, ratio=0.5)
        objs = []
        for strategy, test in (("none", None), ("static", "gst3"), ("dynamic", "gst3")):
            res = sl.run(p, SolverConfig(algorithm="fista", strategy=strategy, test=test,
                                         max_iters=4000, rel_tol=1e-12))
            objs.append(res.final_objective)
        assert max(objs) - min(objs) <= 1e-6 * min(objs)

    def test_first_iteration_matches_static_set(self):
        p = make_lasso(13, ratio=0.6)
        captured = {}

        def hook(t, state, mask):
            if t == 1:
                captured["set"] = state.screen_state.kept[mask].copy()

        sl.run(p, SolverConfig(algorithm="ista", strategy="dynamic", test="safe", max_iters=1),
               iteration_hook=hook)
        static = sl.run(p, SolverConfig(algorithm="ista", strategy="static", test="safe", max_iters=1))
        assert np.array_equal(np.sort(captured["set"]), static.screen_state.eliminated)

    def test_kept_counts_monotone(self):
        p = make_lasso(14, ratio=0.8)
        res = sl.run(p, SolverConfig(algorithm="fista", strategy="dynamic", test="dst3",
                                     max_iters=200, rel_tol=1e-9))
        kept = res.trace.kept
        assert all(b <= a for a, b in zip(kept, kept[1:]))
        assert res.screen_state.eliminated.size > 0

    def test_reduced_objective_equals_full(self):
        p = make_group(15, k=30, ratio=0.7)
        records = []

        def hook(t, state, mask):
            records.append((state.x.copy(), state.screen_state.kept.copy()))

        res = sl.run(p, SolverConfig(algorithm="fista", strategy="dynamic", test="gsafe",
                                     max_iters=300, rel_tol=1e-10), iteration_hook=hook)
        # objective recorded on the reduced iterate equals the full objective
        # of its zero-expanded version
        for (x_red, kept), f_rec in zip(records, res.trace.objective):
            full = sl.objective(p, sl.expand(x_red, kept, p.n_cols))
            assert f_rec == pytest.approx(full, abs=1e-10 * max(1.0, full))

    def test_momentum_buffers_track_reduction(self):
        p = make_lasso(16, ratio=0.8)
        lens = []

        def hook(t, state, mask):
            lens.append((t, len(state.x), state.screen_state.kept.size))

        sl.run(p, SolverConfig(algorithm="fista", strategy="dynamic", test="safe",
                               max_iters=100, rel_tol=1e-9), iteration_hook=hook)
        for _, nx, nkept in lens:
            assert nx == nkept

    def test_eliminated_coordinates_are_exact_zeros(self):
        p = make_lasso(17, ratio=0.7)
        res = sl.run(p, SolverConfig(algorithm="sparsa", strategy="dynamic", test="dst3",
                                     max_iters=500, rel_tol=1e-10))
        assert np.all(res.x_star[res.screen_state.eliminated] == 0.0)

    def test_concurrent_runs_share_inputs(self):
        # Problem and Dictionary are immutable; concurrent solves on the same
        # instance must reproduce the serial results exactly
        from concurrent.futures import ThreadPoolExecutor

        p = make_lasso(20, ratio=0.7)
        cfgs = [
            sl.SolverConfig(algorithm=a, strategy="dynamic", test="dst3",
                            max_iters=300, rel_tol=1e-10)
            for a in ("ista", "fista", "sparsa")
        ]
        serial = [sl.run(p, cfg) for cfg in cfgs]
        with ThreadPoolExecutor(max_workers=3) as pool:
            threaded = list(pool.map(lambda cfg: sl.run(p, cfg), cfgs))
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.x_star, b.x_star)
            assert np.array_equal(a.screen_state.eliminated, b.screen_state.eliminated)

    def test_static_flops_include_init(self):
        p = make_lasso(18)
        res = sl.run(p, SolverConfig(algorithm="ista", strategy="static", test="safe",
                                     max_iters=5, rel_tol=1e-12))
        assert res.trace.init_flops == p.n_cols * p.n_rows
        assert res.trace.flops_cum[0] > res.trace.init_flops
        assert res.trace.recompute_flops() == res.trace.flops_cum


# the acceptance suite's budget
COHERENT_BUDGET = dict(max_iters=4000, rel_tol=1e-12)


@functools.lru_cache(maxsize=None)
def coherent_problem(kind, seed, ratio):
    """A 60x200 problem over `pnoise` atoms and its certified reference."""
    if kind == "lasso":
        p = make_lasso(seed, n=60, k=200, ratio=ratio, family="pnoise")
    else:
        p = make_group(seed, n=60, k=200, ratio=ratio, group_size=4, family="pnoise")
    return p, sl.solve_reference(p, 1e-10)


class TestCoherentAtoms:
    # pnoise atoms share a spike, so their Gram matrix is far from the
    # identity and a step sized by curvature along the last displacement
    # alone can overshoot by orders of magnitude

    @pytest.mark.parametrize(
        "kind,seed,ratio", [("lasso", 2, 0.1), ("lasso", 3, 0.3), ("group", 5, 0.2), ("group", 6, 0.2)]
    )
    def test_sparsa_reaches_reference(self, kind, seed, ratio):
        p, ref = coherent_problem(kind, seed, ratio)
        f_zero = 0.5 * float(p.y @ p.y)
        tests = sl.LASSO_TESTS if kind == "lasso" else sl.GROUP_TESTS
        runs = [("none", None)] + [(s, t) for s in ("static", "dynamic") for t in tests]
        for strategy, test in runs:
            cfg = SolverConfig(algorithm="sparsa", strategy=strategy, test=test, **COHERENT_BUDGET)
            res = sl.run(p, cfg)
            label = f"{strategy}/{test}: {res.final_objective!r} after {res.iterations}"
            assert res.final_objective <= f_zero, label
            assert abs(res.final_objective - ref.objective) <= 1e-6 * ref.objective, label
            assert sl.verify_screen_safety(p, res.screen_state, ref), label
            if strategy == "none":
                # each accepted step lowers F by L/2 ||dx||^2, up to the
                # majorization slack
                prev = f_zero
                for f in res.trace.objective:
                    assert f <= prev + solvers._MAJORIZATION_SLACK * max(1.0, prev), label
                    prev = f

    def test_every_algorithm_ends_at_or_below_zero_objective(self):
        # ISTA, TwIST and CP converge slowly here, so only SpaRSA is held to
        # the reference, above
        p, _ = coherent_problem("lasso", 3, 0.3)
        f_zero = 0.5 * float(p.y @ p.y)
        for algo in sl.ALGORITHMS:
            res = sl.run(p, SolverConfig(algorithm=algo, **COHERENT_BUDGET))
            assert res.final_objective <= f_zero, algo


class TestResidualReuse:
    # The extrapolated point u of FISTA and Chambolle-Pock combines iterates
    # whose residuals the steps already computed, so D @ u - y is the same
    # combination of those residuals and costs no product.

    @staticmethod
    def _record_callers(monkeypatch, events):
        apply = sl.Dictionary.apply

        def recording(self, x):
            events.append(sys._getframe(1).f_code.co_name)
            return apply(self, x)

        monkeypatch.setattr(sl.Dictionary, "apply", recording)

    def test_fista_multiplies_only_in_backtracking(self, monkeypatch):
        events = []
        self._record_callers(monkeypatch, events)
        res = sl.run(make_lasso(8, ratio=0.5), SolverConfig(algorithm="fista", max_iters=50),
                     iteration_hook=lambda t, state, mask: events.append(t))
        assert res.iterations > 2
        after_first = events[events.index(1):]
        assert {e for e in after_first if isinstance(e, str)} == {"_backtrack"}

    def test_cp_one_product_per_iteration(self, monkeypatch):
        events = []
        self._record_callers(monkeypatch, events)
        res = sl.run(make_lasso(8, ratio=0.5), SolverConfig(algorithm="cp", max_iters=50))
        assert res.iterations > 2
        assert 0 < len(events) <= res.iterations

    @pytest.mark.parametrize("algo", ["fista", "cp"])
    @pytest.mark.parametrize("kind", ["lasso", "group"])
    def test_extrapolated_residual_matches_product(self, algo, kind, monkeypatch):
        p = make_lasso(14, ratio=0.8) if kind == "lasso" else make_group(15, ratio=0.7)
        widths = []
        update = solvers._UPDATES[algo]

        def checking(state, dic, problem):
            if state.u_resid is not None:
                want = dic.apply(state.u) - problem.y
                assert np.allclose(state.u_resid, want, rtol=0.0, atol=1e-12)
                widths.append(dic.n_cols)
            return update(state, dic, problem)

        monkeypatch.setitem(solvers._UPDATES, algo, checking)
        test = "dst3" if kind == "lasso" else "gst3"
        res = sl.run(p, SolverConfig(algorithm=algo, strategy="dynamic", test=test,
                                     max_iters=300, rel_tol=1e-10))
        assert len(widths) > res.iterations // 2
        # checked on reduced dictionaries too
        assert min(widths) < p.n_cols

    @pytest.mark.parametrize("algo", ["fista", "cp"])
    @pytest.mark.parametrize("drop", ["x", "x_prev", "zeros"])
    def test_residuals_track_direct_reduction(self, algo, drop):
        # a reduction that drops a nonzero of x or u clears that residual, so
        # the next step multiplies instead of using a stale one
        p = make_lasso(1, n=16, k=40, ratio=0.3)
        update = update_fista if algo == "fista" else update_cp
        st = init_state(p, SolverConfig(algorithm=algo))
        # after 6 steps both algorithms have coordinates of each kind
        for _ in range(6):
            update(st, p.dictionary, p)
        zero_x = st.x == 0.0
        candidates = {
            "x": ~zero_x,
            "x_prev": zero_x & (st.x_prev != 0.0),
            "zeros": zero_x & (st.x_prev == 0.0) & (st.u == 0.0),
        }[drop]
        mask = np.zeros(p.n_cols, dtype=bool)
        mask[np.flatnonzero(candidates)[0]] = True
        assert (st.u[mask] != 0.0).all() or drop == "zeros"
        _reduce_state(st, mask)
        dic = _reduce_dic(p.dictionary, np.flatnonzero(~mask))
        if drop == "zeros":
            assert st.resid is not None and st.u_resid is not None
        if st.resid is not None:
            assert np.allclose(st.resid, dic.apply(st.x) - p.y, rtol=0.0, atol=1e-12)
        else:
            # the run loop recomputes a cleared residual before the next step
            st.resid = dic.apply(st.x) - p.y
        used = _extrapolated_resid(st, dic, p.y)
        assert np.allclose(used, dic.apply(st.u) - p.y, rtol=0.0, atol=1e-12)
        update(st, dic, p)
        assert np.allclose(st.u_resid, dic.apply(st.u) - p.y, rtol=0.0, atol=1e-12)


class TestSupportProduct:
    # of 12 coefficients, the product gathers the nonzero columns while
    # fewer than CUT are nonzero
    CUT = -(-12 // _GATHER_COST)

    @pytest.mark.parametrize("nonzeros", [0, 1, CUT - 1, CUT, 12])
    @pytest.mark.parametrize("through", ["Dictionary", "_LiveColumns"])
    def test_matches_direct_selection(self, nonzeros, through):
        rng = np.random.default_rng(nonzeros)
        dic = make_lasso(2, n=10, k=30).dictionary
        if through == "Dictionary":
            cols, view = np.arange(12, 24), dic.reduce(np.arange(12, 24))
        else:
            cols = np.sort(rng.choice(30, 12, replace=False))
            view = _reduce_dic(dic, cols)
        x = np.zeros(12)
        x[rng.choice(12, nonzeros, replace=False)] = rng.standard_normal(nonzeros)
        got = view.apply(x)
        assert got.shape == (10,)
        assert np.allclose(got, dic.data[:, cols] @ x, rtol=0, atol=1e-12)
        if nonzeros == 0:
            assert np.array_equal(got, np.zeros(10))


class TestColumnReduction:
    def test_repeated_drops_match_direct_selection(self):
        # random drops, each followed by a few correlations: each correlation
        # charges the view with its dead columns, the view copies its
        # survivors exactly when they fill at most half the packed width and
        # the charge since the last copy has reached _COPY_COST times their
        # count, and every product multiplies exactly the surviving columns
        dic = make_lasso(5, n=12, k=60).dictionary
        for seed in range(5):
            self.drop_at_random(dic, np.random.default_rng(seed))

    @staticmethod
    def drop_at_random(dic, rng):
        kept = np.arange(60)
        cur = dic
        copies = 0
        while kept.size > 1:
            keep_pos = np.flatnonzero(rng.random(kept.size) < 0.8)
            kept = kept[keep_pos]
            cur = _reduce_dic(cur, keep_pos)
            assert cur.n_cols == kept.size
            direct = dic.data[:, kept]
            for _ in range(rng.integers(1, 6)):
                packed, charge = cur.packed, cur.charge + cur.packed.n_cols - kept.size
                due = 2 * kept.size <= packed.n_cols and charge >= solvers._COPY_COST * kept.size
                v = rng.standard_normal(12)
                assert np.allclose(cur.correlate(v), direct.T @ v, rtol=0, atol=1e-12)
                copied = cur.packed is not packed
                assert copied == due
                copies += copied
                assert cur.charge == (0 if copied else charge)
                assert np.array_equal(cur.packed.data[:, cur.live], direct)
                assert cur.n_cols == kept.size
                x = rng.standard_normal(kept.size) * (rng.random(kept.size) < 0.3)
                assert np.allclose(cur.apply(x), direct @ x, rtol=0, atol=1e-12)
        assert copies > 0
