import numpy as np
import pytest

import screenlab as sl
from screenlab.solvers import (
    CP,
    SolverConfig,
    SolverState,
    _LiveColumns,
    _reduce_dic,
    init_state,
    update_cp,
    update_fista,
    update_ista,
    update_sparsa,
    update_twist,
)
from conftest import identity_problem, make_group, make_lasso

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def fresh_state(problem, cfg):
    return init_state(problem, cfg)


class TestInitState:
    @pytest.mark.parametrize("algo", sl.ALGORITHMS)
    def test_residual_starts_at_minus_y(self, algo):
        p = make_lasso(3)
        st = init_state(p, SolverConfig(algorithm=algo))
        assert not st.x.any()
        assert np.array_equal(st.resid, -p.y)

    def test_cp_rejects_zero_operator_norm(self):
        dic = sl.Dictionary(np.zeros((4, 6)), check_unit_norms=False)
        p = sl.Problem(dic, np.eye(4)[0], 0.5)
        with pytest.raises(ValueError, match="zero operator norm"):
            init_state(p, SolverConfig(algorithm=CP))


class TestUpdateIsta:
    def test_one_step_solves_orthonormal(self):
        p = identity_problem(0.8)
        cfg = SolverConfig()
        st = fresh_state(p, cfg)
        update_ista(st, p.dictionary, p, cfg)
        assert np.allclose(st.x, sl.prox_l1(p.y, p.lam), atol=1e-15)

    def test_fixed_point(self):
        p = identity_problem(0.8)
        cfg = SolverConfig()
        x_star = sl.prox_l1(p.y, p.lam)
        st = SolverState(x=x_star.copy(), L=1.0)
        update_ista(st, p.dictionary, p, cfg)
        assert np.allclose(st.x, x_star, atol=1e-14)

    def test_backtracking_certificate(self):
        # after an accepted step, the quadratic model at the previous iterate
        # still upper-bounds the new smooth value
        for seed in range(10):
            p = make_lasso(seed, n=10, k=25)
            cfg = SolverConfig()
            st = fresh_state(p, cfg)
            for _ in range(15):
                x_prev = st.x.copy()
                update_ista(st, p.dictionary, p, cfg)
                f_new = 0.5 * float(st.resid @ st.resid)
                f_old = 0.5 * float(st.theta @ st.theta)
                step = st.x - x_prev
                bound = f_old + float(st.corr @ step) + 0.5 * st.L * float(step @ step)
                assert f_new <= bound + 1e-12 * max(1.0, f_old)

    def test_objective_decreases(self):
        p = make_lasso(3)
        cfg = SolverConfig()
        st = fresh_state(p, cfg)
        vals = []
        for _ in range(30):
            update_ista(st, p.dictionary, p, cfg)
            vals.append(sl.objective(p, st.x))
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestUpdateFista:
    def test_momentum_scalar_recurrence(self):
        p = identity_problem(0.8)
        cfg = SolverConfig(algorithm="fista")
        st = fresh_state(p, cfg)
        update_fista(st, p.dictionary, p, cfg)
        assert st.l_acc == pytest.approx(GOLDEN, abs=1e-12)
        update_fista(st, p.dictionary, p, cfg)
        assert st.l_acc == pytest.approx(0.5 * (1 + np.sqrt(1 + 4 * GOLDEN**2)), abs=1e-12)

    def test_first_step_matches_ista(self):
        p = identity_problem(0.8)
        cfg = SolverConfig(algorithm="fista")
        st = fresh_state(p, cfg)
        update_fista(st, p.dictionary, p, cfg)
        assert np.allclose(st.x, sl.prox_l1(p.y, p.lam), atol=1e-15)


class TestUpdateTwist:
    def test_unit_weights_degenerate_to_ista_step(self):
        # alpha = beta = 1 collapses the two-step mixing onto the plain
        # prox step at the same fixed step size
        p = identity_problem(0.8)
        cfg = SolverConfig(algorithm="twist", twist_alpha=1.0, twist_beta=1.0, twist_step=1.0)
        st = init_state(p, cfg)
        update_twist(st, p.dictionary, p, cfg)
        update_twist(st, p.dictionary, p, cfg)
        ista_cfg = SolverConfig()
        ista = SolverState(x=np.zeros(2), L=1.0)
        update_ista(ista, p.dictionary, p, ista_cfg)
        update_ista(ista, p.dictionary, p, ista_cfg)
        assert np.allclose(st.x, ista.x, atol=1e-14)

    def test_fixed_point(self):
        p = identity_problem(0.8)
        cfg = SolverConfig(algorithm="twist", twist_step=1.0)
        x_star = sl.prox_l1(p.y, p.lam)
        st = SolverState(x=x_star.copy(), x_prev=x_star.copy(), fixed_step=1.0)
        update_twist(st, p.dictionary, p, cfg)
        assert np.allclose(st.x, x_star, atol=1e-14)

    def test_requires_fixed_step(self):
        p = identity_problem(0.8)
        st = SolverState(x=np.zeros(2))
        with pytest.raises(ValueError, match="fixed_step"):
            update_twist(st, p.dictionary, p, SolverConfig(algorithm="twist"))

    def test_non_finite_iterate_raises(self):
        p = identity_problem(0.8)
        st = SolverState(x=np.array([np.inf, 0.0]), fixed_step=1.0)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            update_twist(st, p.dictionary, p, SolverConfig(algorithm="twist"))


class TestUpdateSparsa:
    def test_orthonormal_curvature_is_one(self):
        p = identity_problem(0.8)
        cfg = SolverConfig(algorithm="sparsa", L0=4.0)
        st = fresh_state(p, cfg)
        st.L = 4.0
        update_sparsa(st, p.dictionary, p, cfg)  # first step keeps L0
        assert st.L == 4.0
        update_sparsa(st, p.dictionary, p, cfg)
        assert st.L == pytest.approx(1.0, abs=1e-12)

    def test_zero_displacement_keeps_previous(self):
        p = identity_problem(0.8)
        cfg = SolverConfig(algorithm="sparsa")
        st = SolverState(x=np.zeros(2), x_prev=np.zeros(2), L=3.0)
        update_sparsa(st, p.dictionary, p, cfg)
        assert st.L == 3.0

    def test_clamps(self):
        p = identity_problem(0.8)
        cfg = SolverConfig(algorithm="sparsa", bb_L_min=2.0, bb_L_max=5.0)
        st = SolverState(x=np.array([1.0, 0.0]), x_prev=np.zeros(2), L=1.0)
        update_sparsa(st, p.dictionary, p, cfg)
        assert st.L == 2.0  # orthonormal curvature 1 clamped up to bb_L_min


class TestUpdateCp:
    def test_zero_gamma_keeps_steps_constant(self):
        p = make_lasso(5)
        cfg = SolverConfig(algorithm=CP, cp_gamma=0.0)
        st = init_state(p, cfg)
        tau, sigma = st.tau, st.sigma
        for _ in range(3):
            update_cp(st, p.dictionary, p, cfg)
        assert st.tau == tau and st.sigma == sigma

    def test_positive_gamma_shrinks_tau(self):
        p = make_lasso(5)
        cfg = SolverConfig(algorithm=CP, cp_gamma=1.0)
        st = init_state(p, cfg)
        tau = st.tau
        update_cp(st, p.dictionary, p, cfg)
        assert st.tau < tau and st.sigma > tau

    def test_zero_sigma_freezes_dual(self):
        p = identity_problem(0.8)
        theta0 = np.array([0.3, -0.2])
        st = SolverState(x=np.zeros(2), u=np.zeros(2), theta=theta0.copy(), tau=0.5, sigma=0.0)
        update_cp(st, p.dictionary, p, SolverConfig(algorithm=CP))
        assert np.array_equal(st.theta, theta0)

    def test_step_product_validated(self):
        p = identity_problem(0.8)
        with pytest.raises(ValueError, match="cp_step_safety"):
            SolverConfig(algorithm=CP, cp_step_safety=1.0).validate(p.kind)


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

    def test_trivial_regime(self):
        base = make_lasso(0)
        lam = 1.5 * sl.lambda_max(base).value
        p = sl.Problem(base.dictionary, base.y, lam)
        res = sl.run(p, SolverConfig(algorithm="ista", strategy="none"))
        assert res.iterations == 0
        assert np.all(res.x_star == 0.0)
        assert res.screen_state.eliminated.size == p.n_cols
        assert res.final_objective == pytest.approx(0.5, abs=1e-12)

    def test_trivial_regime_group(self):
        base = make_group(1, k=30)
        lam = 1.2 * sl.lambda_max(base).value
        p = sl.Problem(base.dictionary, base.y, lam, base.partition)
        res = sl.run(p, sl.SolverConfig(algorithm="fista", strategy="dynamic", test="gst3"))
        assert res.iterations == 0
        assert np.all(res.x_star == 0.0)
        assert res.screen_state.kept.size == 0

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

        def hook(info):
            if info.t == 1:
                captured["set"] = info.kept[info.mask].copy()

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

        def hook(info):
            records.append((info.x.copy(), info.kept.copy()))

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

        def hook(info):
            lens.append((info.t, len(info.x), info.kept.size))

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


class TestColumnReduction:
    def test_repeated_drops_match_direct_selection(self):
        # screened columns either stay behind a live-position view or are
        # repacked; both must multiply exactly the surviving columns, and a
        # view never spans more than twice its live columns
        rng = np.random.default_rng(5)
        dic = make_lasso(5, n=12, k=60).dictionary
        kept = np.arange(60)
        cur = dic
        kinds = set()
        while kept.size > 1:
            keep_pos = np.flatnonzero(rng.random(kept.size) < 0.8)
            kept = kept[keep_pos]
            cur = _reduce_dic(cur, keep_pos)
            kinds.add(type(cur))
            if isinstance(cur, _LiveColumns):
                assert cur.packed.n_cols < 2 * cur.n_cols
            direct = dic.data[:, kept]
            x = rng.standard_normal(kept.size)
            v = rng.standard_normal(12)
            assert cur.n_cols == kept.size
            assert np.allclose(cur.apply(x), direct @ x, rtol=0, atol=1e-12)
            assert np.allclose(cur.correlate(v), direct.T @ v, rtol=0, atol=1e-12)
        assert kinds == {sl.Dictionary, _LiveColumns}
