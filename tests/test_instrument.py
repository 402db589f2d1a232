import io

import pytest

import screenlab as sl
from screenlab.instrument import SolveTrace, problem_digest
from conftest import make_group, make_lasso


class TestFlopsIteration:
    def test_lasso_worked_values(self):
        assert sl.flops_iteration("lasso", "none", 10, 5, 10, 2) == 105
        assert sl.flops_iteration("lasso", "dynamic", 10, 5, 6, 2) == 101

    def test_group_worked_value(self):
        assert sl.flops_iteration("group", "dynamic", 10, 5, 6, 2, 3) == 122

    def test_static_counts_reduced_size(self):
        # per-iteration static differs from none only through the kept count
        assert sl.flops_iteration("lasso", "static", 10, 5, 6, 2) == (6 + 2) * 5 + 4 * 6 + 5
        assert sl.flops_iteration("group", "none", 10, 5, 10, 2, 3) == 105 + 9
        assert sl.flops_iteration("group", "static", 10, 5, 6, 2, 3) == (6 + 2) * 5 + 4 * 6 + 5 + 9

    def test_none_ignores_kept(self):
        assert sl.flops_iteration("lasso", "none", 10, 5, 3, 2) == sl.flops_iteration(
            "lasso", "none", 10, 5, 10, 2
        )

    def test_sequences_give_per_iteration_counts(self):
        kept, sparsity = [10, 8, 8, 3], [0, 2, 5, 3]
        for kind, strategy, groups in (("lasso", "none", 0), ("lasso", "dynamic", 0),
                                       ("group", "static", 3), ("group", "dynamic", 3)):
            got = sl.flops_iteration(kind, strategy, 10, 5, kept, sparsity, groups)
            want = [sl.flops_iteration(kind, strategy, 10, 5, a, b, groups)
                    for a, b in zip(kept, sparsity)]
            assert got.tolist() == want
        with pytest.raises(ValueError):
            sl.flops_iteration("lasso", "dynamic", 10, 5, [3, -1], [0, 0])

    def test_rejects_unknown_and_negative(self):
        with pytest.raises(ValueError):
            sl.flops_iteration("ridge", "none", 10, 5, 10, 2)
        with pytest.raises(ValueError):
            sl.flops_iteration("lasso", "lazy", 10, 5, 10, 2)
        with pytest.raises(ValueError):
            sl.flops_iteration("lasso", "none", 10, 5, -1, 2)


class TestFlopsStaticInit:
    def test_values(self):
        assert sl.flops_static_init(10, 5) == 50
        assert sl.flops_static_init(0, 7) == 0
        assert sl.flops_static_init(10000, 2000) == 2 * 10**7


class TestFlopParity:
    @pytest.mark.parametrize("strategy,test", [("none", None), ("static", "dst3"), ("dynamic", "dst3")])
    def test_lasso_recompute_matches(self, strategy, test):
        p = make_lasso(21, n=14, k=35, ratio=0.7)
        res = sl.run(p, sl.SolverConfig(algorithm="fista", strategy=strategy, test=test,
                                        max_iters=150, rel_tol=1e-9))
        assert res.trace.recompute_flops() == res.trace.flops_cum

    @pytest.mark.parametrize("strategy,test", [("none", None), ("static", "gsafe"), ("dynamic", "gst3")])
    def test_group_recompute_matches(self, strategy, test):
        p = make_group(22, k=30, ratio=0.6)
        res = sl.run(p, sl.SolverConfig(algorithm="ista", strategy=strategy, test=test,
                                        max_iters=150, rel_tol=1e-9))
        assert res.trace.recompute_flops() == res.trace.flops_cum

    def test_flop_column_accumulates_each_iteration(self):
        p = make_group(25, k=30, ratio=0.6)
        for strategy, test in (("none", None), ("static", "gst3"), ("dynamic", "gsafe")):
            tr = sl.run(p, sl.SolverConfig(algorithm="fista", strategy=strategy, test=test,
                                           max_iters=80, rel_tol=1e-9)).trace
            cum, want = tr.init_flops, []
            for kept, sparsity in zip(tr.kept, tr.sparsity):
                cum += sl.flops_iteration("group", strategy, p.n_cols, p.n_rows, kept, sparsity,
                                          p.partition.n_groups)
                want.append(cum)
            assert tr.flops_cum == want and all(type(v) is int for v in tr.flops_cum)

    def test_none_strategy_kept_is_k(self):
        p = make_lasso(23)
        res = sl.run(p, sl.SolverConfig(algorithm="ista", strategy="none", max_iters=40))
        assert all(kept == p.n_cols for kept in res.trace.kept)

    def test_cumulative_strictly_increasing(self):
        p = make_lasso(24, ratio=0.9)
        res = sl.run(p, sl.SolverConfig(algorithm="fista", strategy="dynamic", test="dome",
                                        max_iters=100, rel_tol=1e-9))
        fc = res.trace.flops_cum
        assert all(b > a for a, b in zip(fc, fc[1:]))


def hand_trace(strategy, flops, seconds, digest="d", lam=0.5):
    tr = SolveTrace(kind="lasso", strategy=strategy, n_rows=5, n_cols=10,
                    group_count=0, lam=lam, digest=digest)
    tr.append(1, 10, 2, 0.4, flops, seconds)
    return tr


class TestNormalizedMetrics:
    def test_identical_runs_give_unit_ratios(self):
        m = sl.normalized_metrics(
            hand_trace("none", 1000, 2.0),
            hand_trace("static", 1000, 2.0),
            hand_trace("dynamic", 1000, 2.0),
        )
        assert m.flops_static_ratio == 1.0
        assert m.flops_dynamic_ratio == 1.0
        assert m.time_static_ratio == 1.0
        assert m.time_dynamic_ratio == 1.0

    def test_ratio_values(self):
        m = sl.normalized_metrics(
            hand_trace("none", 1000, 2.0),
            hand_trace("static", 500, 1.0),
            hand_trace("dynamic", 250, 0.5),
        )
        assert m.flops_static_ratio == 0.5
        assert m.flops_dynamic_ratio == 0.25
        assert m.time_dynamic_ratio == 0.25

    def test_rejects_mismatched_instances(self):
        with pytest.raises(ValueError, match="different instances"):
            sl.normalized_metrics(
                hand_trace("none", 1000, 2.0, digest="a"),
                hand_trace("static", 500, 1.0, digest="b"),
                hand_trace("dynamic", 250, 0.5, digest="a"),
            )
        with pytest.raises(ValueError, match="different instances"):
            sl.normalized_metrics(
                hand_trace("none", 1000, 2.0, lam=0.5),
                hand_trace("static", 500, 1.0, lam=0.6),
                hand_trace("dynamic", 250, 0.5, lam=0.5),
            )

    def test_rejects_wrong_strategy_order(self):
        with pytest.raises(ValueError, match="order"):
            sl.normalized_metrics(
                hand_trace("static", 1000, 2.0),
                hand_trace("none", 500, 1.0),
                hand_trace("dynamic", 250, 0.5),
            )

    def test_overhead_can_exceed_one(self):
        # a dynamic run that never screens pays the test overhead on top of
        # the plain update, so its normalized flops legitimately exceed 1
        k, n = 10, 5
        none_cost = sl.flops_iteration("lasso", "none", k, n, k, 2)
        dyn_cost = sl.flops_iteration("lasso", "dynamic", k, n, k, 2)
        assert dyn_cost == none_cost + 2 * k + 4 * n
        m = sl.normalized_metrics(
            hand_trace("none", none_cost, 2.0),
            hand_trace("static", none_cost, 2.0),
            hand_trace("dynamic", dyn_cost, 2.0),
        )
        assert m.flops_dynamic_ratio > 1.0


class TestTraceCsv:
    def test_header_and_roundtrip(self):
        tr = hand_trace("none", 123, 0.25)
        buf = io.StringIO()
        tr.to_csv(buf, comment="unit test")
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "# unit test"
        assert lines[2] == "t,kept,sparsity,objective,flops_cum,seconds"
        t, kept, sparsity, obj, flops, secs = lines[3].split(",")
        assert (int(t), int(kept), int(sparsity)) == (1, 10, 2)
        assert float(obj) == 0.4
        assert int(flops) == 123
        assert float(secs) == 0.25

    def test_digest_distinguishes_instances(self):
        a = make_lasso(1)
        b = make_lasso(2)
        assert problem_digest(a) != problem_digest(b)
        assert problem_digest(a) == problem_digest(make_lasso(1))
