import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import screenlab as sl
from conftest import identity_problem, make_group, make_lasso

floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestProblemValidation:
    def test_rejects_non_unit_observation(self):
        dic = sl.Dictionary(np.eye(2))
        with pytest.raises(ValueError, match="unit l2 norm"):
            sl.Problem(dic, np.array([1.0, 1.0]), 0.5)

    def test_rejects_nonpositive_lam(self):
        dic = sl.Dictionary(np.eye(2))
        with pytest.raises(ValueError, match="positive"):
            sl.Problem(dic, np.array([1.0, 0.0]), 0.0)

    def test_rejects_nan_lam_by_value(self):
        dic = sl.Dictionary(np.eye(2))
        for lam, shown in ((float("nan"), "nan"), (-0.5, "-0.5")):
            with pytest.raises(ValueError, match=rf"lam must be strictly positive \(got {shown}\)"):
                sl.Problem(dic, np.array([1.0, 0.0]), lam)

    def test_rejects_nan_observation(self):
        dic = sl.Dictionary(np.eye(2))
        with pytest.raises(ValueError, match="observation"):
            sl.Problem(dic, np.array([1.0, np.nan]), 0.5)

    @pytest.mark.parametrize("bad", ["0.5", None, True, np.array([0.5])])
    def test_rejects_lam_that_is_not_a_real_number(self, bad):
        # a string or None raised a bare TypeError, and True passed as 1
        dic = sl.Dictionary(np.eye(2))
        with pytest.raises(ValueError, match=r"lam must be a real number \(got "):
            sl.Problem(dic, np.array([1.0, 0.0]), bad)

    @pytest.mark.parametrize("good", [0.5, np.float64(0.5), np.float32(0.5), 1, np.int64(1)])
    def test_real_lam_accepted(self, good):
        p = sl.Problem(sl.Dictionary(np.eye(2)), np.array([1.0, 0.0]), good)
        assert type(p.lam) is float and p.lam == float(good)

    def test_rejects_infinite_lam(self):
        dic = sl.Dictionary(np.eye(2))
        with pytest.raises(ValueError, match="lam must be finite"):
            sl.Problem(dic, np.array([1.0, 0.0]), np.inf)

    def test_rejects_partition_size_mismatch(self):
        dic = sl.Dictionary(np.eye(3))
        small = sl.Dictionary(np.eye(2))
        part = sl.GroupPartition.build(small, [np.array([0, 1])])
        with pytest.raises(ValueError, match="partition"):
            sl.Problem(dic, np.array([1.0, 0.0, 0.0]), 0.5, part)


class TestObjective:
    def test_zero_iterate_is_half(self):
        p = identity_problem(0.8)
        assert sl.objective(p, np.zeros(2)) == pytest.approx(0.5, abs=1e-15)

    def test_orthonormal_hand_value(self):
        p = identity_problem(0.8)
        assert sl.objective(p, np.array([0.2, 0.0])) == pytest.approx(0.48, abs=1e-12)

    def test_group_hand_value(self):
        dic = sl.Dictionary(np.eye(2))
        part = sl.GroupPartition.build(dic, [np.array([0, 1])])  # weight sqrt(2)
        p = sl.Problem(dic, np.array([1.0, 0.0]), 0.6, part)
        x = np.array([0.3, 0.4])
        resid = x - p.y
        want = 0.5 * resid @ resid + 0.6 * np.sqrt(2.0) * 0.5
        assert sl.objective(p, x) == pytest.approx(want, abs=1e-12)

    def test_dimension_mismatch(self):
        p = identity_problem()
        with pytest.raises(ValueError):
            sl.objective(p, np.zeros(3))


class TestProxL1:
    def test_forced_values(self):
        out = sl.prox_l1(np.array([2.0, -0.5, 0.0]), 1.0)
        assert np.allclose(out, [1.0, 0.0, 0.0], atol=0)

    def test_zero_threshold_is_identity(self):
        x = np.array([0.4, -1.2, 3.0])
        assert np.array_equal(sl.prox_l1(x, 0.0), x)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            sl.prox_l1(np.zeros(2), -1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(x=floats, t=st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
    def test_matches_grid_minimizer(self, x, t):
        # brute-force the scalar prox objective |z| + (x - z)^2 / (2t)
        out = float(sl.prox_l1(np.array([x]), t)[0])
        grid = np.linspace(x - 2 * t - 1, x + 2 * t + 1, 20001)
        if t == 0:
            assert out == x
            return
        vals = t * np.abs(grid) + 0.5 * (grid - x) ** 2
        best = grid[np.argmin(vals)]
        assert abs(out - best) <= (grid[1] - grid[0]) + 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.lists(st.tuples(floats, floats), min_size=1, max_size=6),
           t=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    def test_nonexpansive(self, data, t):
        a = np.array([u for u, _ in data])
        b = np.array([v for _, v in data])
        lhs = np.linalg.norm(sl.prox_l1(a, t) - sl.prox_l1(b, t))
        assert lhs <= np.linalg.norm(a - b) + 1e-12


class TestProxGroup:
    def make_partition(self):
        dic = sl.Dictionary(np.eye(4))
        return sl.GroupPartition.build(
            dic, [np.array([0, 1]), np.array([2, 3])], weights=np.array([2.0, 1.0])
        )

    def test_hand_value(self):
        part = self.make_partition()
        out = part.full.prox(np.array([3.0, 4.0, 0.0, 0.0]), 1.0)
        assert np.allclose(out[:2], [1.8, 2.4], atol=1e-12)

    def test_zero_vector_and_zero_threshold(self):
        part = self.make_partition()
        assert np.array_equal(part.full.prox(np.zeros(4), 1.0), np.zeros(4))
        x = np.array([1.0, -2.0, 0.5, 0.0])
        assert np.array_equal(part.full.prox(x, 0.0), x)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            self.make_partition().full.prox(np.zeros(4), -0.1)

    def test_rejects_vectors_of_another_length(self):
        layout = make_group(1).partition.full
        for vec in (np.ones(5), np.ones(31)):
            with pytest.raises(ValueError, match="expected a vector of length 30"):
                layout.prox(vec, 0.1)
            with pytest.raises(ValueError, match="expected a vector of length 30"):
                layout.norms(vec)
        reduced = layout.without(make_group(1).partition.group_of < 2)
        with pytest.raises(ValueError, match="expected a vector of length 24, not 30"):
            reduced.prox(np.ones(30), 0.1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(vals=st.lists(floats, min_size=8, max_size=8),
           t=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    def test_nonexpansive(self, vals, t):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((6, 8))
        dic = sl.Dictionary(mat / np.linalg.norm(mat, axis=0))
        part = sl.GroupPartition.build(dic, [np.arange(0, 3), np.arange(3, 5), np.arange(5, 8)])
        a = np.array(vals)
        b = a[::-1].copy()
        lhs = np.linalg.norm(part.full.prox(a, t) - part.full.prox(b, t))
        assert lhs <= np.linalg.norm(a - b) + 1e-12


class TestLambdaMax:
    def test_identity_example(self):
        dic = sl.Dictionary(np.eye(2))
        p = sl.Problem(dic, np.array([0.6, 0.8]), 0.5)
        lm = sl.lambda_max(p)
        assert lm.value == pytest.approx(0.8)
        assert lm.atom_index == 1
        assert np.allclose(lm.atom, [0.0, 1.0])

    def test_sign_adjusted_atom(self):
        dic = sl.Dictionary(np.array([[1.0, 0.0], [0.0, -1.0]]))
        p = sl.Problem(dic, np.array([0.6, 0.8]), 0.5)
        lm = sl.lambda_max(p)
        assert lm.value == pytest.approx(0.8)
        assert float(lm.atom @ p.y) == pytest.approx(lm.value)

    def test_group_identity_example(self):
        dic = sl.Dictionary(np.eye(2))
        part = sl.GroupPartition.build(dic, [np.array([0, 1])])
        p = sl.Problem(dic, np.array([1.0, 0.0]), 0.5, part)
        lm = sl.lambda_max(p)
        assert lm.value == pytest.approx(1.0 / np.sqrt(2.0))
        assert lm.group == 0

    def test_lowest_index_tie_break(self):
        dic = sl.Dictionary(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        p = sl.Problem(dic, np.array([1.0, 0.0]), 0.5)
        assert sl.lambda_max(p).atom_index == 0

    @pytest.mark.parametrize("make", [make_lasso, make_group])
    def test_rejects_correlations_of_another_length(self, make):
        p = make(1)
        corr = p.dictionary.correlate(p.y)
        assert sl.lambda_max(p, corr).value == sl.lambda_max(p).value
        for bad in (corr[:-3], np.append(corr, 0.0), corr[None, :]):
            with pytest.raises(ValueError, match="expected 30 correlations"):
                sl.lambda_max(p, bad)


class TestDuality:
    def test_zero_theta_feasible(self):
        p = make_lasso(0)
        assert sl.dual_feasible(p, np.zeros(p.n_rows), tol=0.0)

    def test_boundary_point_feasible(self):
        p = make_lasso(1)
        lm = sl.lambda_max(p)
        assert sl.dual_feasible(p, p.y / lm.value, tol=1e-12)
        assert not sl.dual_feasible(p, 2.0 * p.y / lm.value, tol=1e-12)

    def test_group_feasibility(self):
        p = make_group(2)
        lm = sl.lambda_max(p)
        assert sl.dual_feasible(p, p.y / lm.value, tol=1e-12)
        assert not sl.dual_feasible(p, 3.0 * p.y / lm.value, tol=1e-12)

    def test_gap_at_closed_form_optimum(self):
        p = identity_problem(0.8)
        x_star = np.array([0.2, 0.0])
        theta_star = (p.y - p.dictionary.apply(x_star)) / p.lam
        assert sl.duality_gap(p, x_star, theta_star) <= 1e-12

    def test_gap_at_zeros(self):
        p = identity_problem(0.8)
        assert sl.duality_gap(p, np.zeros(2), np.zeros(2)) == pytest.approx(0.5, abs=1e-12)

    def test_gap_nonnegative_on_random_points(self):
        rng = np.random.default_rng(7)
        for seed in range(25):
            p = make_lasso(seed) if seed % 2 == 0 else make_group(seed)
            x = rng.standard_normal(p.n_cols)
            theta = rng.standard_normal(p.n_rows)
            if p.kind == sl.LASSO:
                _, v = sl.dual_scale_lasso(p, theta)
            else:
                _, v = sl.dual_scale_group(p, theta)
            assert sl.duality_gap(p, x, v) >= 0.0

    def test_gap_rejects_infeasible(self):
        p = make_lasso(3)
        with pytest.raises(ValueError, match="feasible"):
            sl.duality_gap(p, np.zeros(p.n_cols), 10.0 * p.y)

    def test_trivial_regime_zero_is_optimal(self):
        for seed in range(5):
            base = make_lasso(seed, ratio=0.9)
            lm = sl.lambda_max(base)
            lam = 1.25 * lm.value
            p = sl.Problem(base.dictionary, base.y, lam)
            gap = sl.duality_gap(p, np.zeros(p.n_cols), p.y / lam)
            assert gap <= 1e-10


class TestExpand:
    def test_identity_and_empty(self):
        assert np.array_equal(sl.expand(np.array([1.0, 2.0]), np.array([0, 1]), 2), [1.0, 2.0])
        assert np.array_equal(sl.expand(np.array([]), np.array([], dtype=np.int64), 3), np.zeros(3))

    def test_scatter(self):
        out = sl.expand(np.array([5.0, 7.0]), np.array([1, 3]), 4)
        assert np.array_equal(out, [0.0, 5.0, 0.0, 7.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sl.expand(np.array([1.0]), np.array([1, 3]), 4)
