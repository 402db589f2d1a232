import numpy as np
import pytest

import screenlab as sl
from screenlab.oracle import OracleResult
from conftest import identity_problem, make_group, make_lasso


class TestSolveReference:
    def test_identity_closed_form(self):
        p = identity_problem(0.8)
        ref = sl.solve_reference(p, 1e-12)
        assert np.allclose(ref.x_ref, [0.2, 0.0], atol=1e-9)
        assert ref.gap <= 1e-12
        assert ref.support.tolist() == [0]

    def test_trivial_regime(self):
        base = make_lasso(0)
        p = sl.Problem(base.dictionary, base.y, 2.0 * sl.lambda_max(base).value)
        ref = sl.solve_reference(p, 1e-12)
        assert np.all(ref.x_ref == 0.0)
        assert ref.support.size == 0

    def test_kkt_conditions(self):
        p = make_lasso(30, n=20, k=60, ratio=0.5)
        ref = sl.solve_reference(p, 1e-13)
        theta = (p.y - p.dictionary.apply(ref.x_ref)) / p.lam
        corr = np.abs(p.dictionary.correlate(theta))
        assert np.all(corr <= 1.0 + 1e-8)
        assert np.allclose(corr[ref.support], 1.0, atol=1e-6)

    def test_group_kkt_conditions(self):
        p = make_group(31, k=30, ratio=0.5)
        ref = sl.solve_reference(p, 1e-13)
        theta = (p.y - p.dictionary.apply(ref.x_ref)) / p.lam
        norms = p.partition.full.norms(p.dictionary.correlate(theta))
        assert np.all(norms <= p.partition.weights * (1.0 + 1e-8))
        active = p.partition.full.norms(ref.x_ref) > 1e-9
        assert np.allclose(norms[active], p.partition.weights[active], atol=1e-6)

    def test_matches_first_order_solver(self):
        p = make_group(32, k=30, ratio=0.7)
        ref = sl.solve_reference(p, 1e-12)
        res = sl.run(p, sl.SolverConfig(algorithm="fista", strategy="none",
                                        max_iters=5000, rel_tol=1e-13))
        assert res.final_objective >= ref.objective - 1e-12
        assert res.final_objective == pytest.approx(ref.objective, rel=1e-7)

    def test_sweep_cap_raises(self):
        p = make_lasso(33, n=20, k=60, ratio=0.3)
        with pytest.raises(RuntimeError, match="sweeps"):
            sl.solve_reference(p, 1e-14, max_sweeps=1)

    def test_gap_tol_validated(self):
        with pytest.raises(ValueError):
            sl.solve_reference(identity_problem(), 0.0)


class TestVerifyScreenSafety:
    def ref_for(self, p):
        return sl.solve_reference(p, 1e-12)

    def test_empty_eliminated_is_safe(self):
        p = identity_problem(0.8)
        state = sl.ScreenState.initial(2)
        assert sl.verify_screen_safety(p, state, self.ref_for(p))

    def test_complement_of_support_is_safe(self):
        p = make_lasso(34, ratio=0.6)
        ref = self.ref_for(p)
        eliminated = np.setdiff1d(np.arange(p.n_cols), ref.support)
        state = sl.ScreenState(eliminated=eliminated, kept=ref.support)
        assert sl.verify_screen_safety(p, state, ref)

    def test_adversarial_violation_detected(self):
        p = make_lasso(35, ratio=0.6)
        ref = self.ref_for(p)
        assert ref.support.size > 0
        bad = np.sort(ref.support[:1])
        state = sl.ScreenState(eliminated=bad, kept=np.setdiff1d(np.arange(p.n_cols), bad))
        assert not sl.verify_screen_safety(p, state, ref)

    def test_loose_reference_rejected(self):
        p = identity_problem(0.8)
        loose = OracleResult(x_ref=np.zeros(2), gap=1e-6, support=np.array([], dtype=np.int64),
                             objective=0.5)
        with pytest.raises(ValueError, match="certified"):
            sl.verify_screen_safety(p, sl.ScreenState.initial(2), loose)
