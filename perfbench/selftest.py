#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at toy size, and every check made to fail.

    python3 perfbench/selftest.py

Runs in a few seconds. The planted-result tests take a correct solve, alter
one thing about it, and require the matching check to flag it; the
untouched result must pass every check.
"""

import copy
import dataclasses
import json
import unittest

import run  # pins BLAS to one thread before numpy loads
import checks
import workloads
from screenlab import screening, solvers

import numpy as np


def _toy_lasso():
    """A toy desk problem, its reference and a correct dynamic solve with some atoms screened."""
    inst = workloads.build(workloads.DESK.toy(), 0, 0)[-1]
    ref, _ = checks.reference(inst.problem)
    cfg = workloads.DESK.configs()[-1]
    res = solvers.run(inst.problem, cfg)
    return inst.problem, ref, res


class TestToyWorkloads(unittest.TestCase):
    def test_every_workload_runs_clean(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                tally = run.Tally()
                m = run.measure(workload.toy(), 0, 0.0, tally)
                self.assertEqual(tally.failed, 0)
                self.assertEqual(tally.attempted, len(m.passes) * len(m.passes[0]))
                for field in ("scaled", "seconds"):
                    metrics = run.e2e_metrics(m, field)
                    self.assertEqual(set(metrics), set(run.E2E_UNITS))
                    self.assertTrue(all(v > 0 for v in metrics.values()), metrics)

    def test_traced_counts_repeat(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                a, b = (
                    run.measure_traced(workload.toy(), 0, 0.0, run.Tally(), None)
                    for _ in range(2)
                )
                self.assertEqual(set(a), set(run.LAYER_UNITS))
                counts = [n for n, unit in run.LAYER_UNITS.items() if unit != "s"]
                self.assertEqual({n: a[n] for n in counts}, {n: b[n] for n in counts})
                self.assertGreater(a["dictionary.apply_calls"], 0)

    def test_benchmark_json_names_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.LAYER_UNITS)


class TestReference(unittest.TestCase):
    def test_homotopy_matches_oracle(self):
        for inst in workloads.build(workloads.WIDE.toy(), 3, 0):
            ref, source = checks.reference(inst.problem)
            self.assertEqual(source, "oracle")
            path = checks.homotopy_reference(inst.problem)
            np.testing.assert_array_equal(path.support, ref.support)
            self.assertAlmostEqual(path.objective, ref.objective, delta=1e-10)


class TestChecksFail(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.problem, cls.ref, cls.res = _toy_lasso()

    def planted(self, **changes):
        res = copy.deepcopy(self.res)
        return dataclasses.replace(res, **changes) if changes else res

    def failures(self, res, objective_rtol=1e-6, max_iters=None, closed_share=None):
        return checks.check_solve(
            self.problem, self.ref, res, objective_rtol, max_iters, closed_share
        )

    def test_correct_result_passes(self):
        self.assertGreater(self.res.screen_state.eliminated.size, 0)
        self.assertEqual(self.failures(self.res, objective_rtol=None), [])
        share = workloads.DESK.closed_share
        self.assertEqual(self.failures(self.res, objective_rtol=None, closed_share=share), [])

    def test_eliminated_support_index(self):
        res = self.planted()
        support_atom = int(self.ref.support[0])
        kept = res.screen_state.kept[res.screen_state.kept != support_atom]
        eliminated = np.union1d(res.screen_state.eliminated, [support_atom])
        res.screen_state = screening.ScreenState(eliminated=eliminated, kept=kept)
        res.x_star[support_atom] = 0.0
        self.assertIn("safety", self.failures(res, objective_rtol=None))

    def test_objective_below_dual_bound(self):
        res = self.planted(final_objective=self.ref.objective - self.ref.gap - 1e-6)
        self.assertIn("dual_bound", self.failures(res, objective_rtol=None))

    def test_objective_off_reference(self):
        res = self.planted(final_objective=self.ref.objective * (1 + 1e-5))
        self.assertEqual(self.failures(res), ["objective"])

    def test_fixed_budget_short_of_optimum(self):
        # the zero vector, and an iterate that closed only half the distance
        # from it to the reference objective
        start = 0.5 * float(self.problem.y @ self.problem.y)
        zero = self.planted(x_star=np.zeros(self.problem.n_cols), final_objective=start)
        half = self.planted(final_objective=0.5 * (start + self.ref.objective))
        for res in (zero, half):
            self.assertEqual(
                self.failures(res, objective_rtol=None, closed_share=workloads.DESK.closed_share),
                ["progress"],
            )

    def test_budget_exhausted(self):
        res = self.planted()
        self.assertEqual(self.failures(res, objective_rtol=None, max_iters=res.iterations), ["converged"])

    def test_altered_flop_column(self):
        res = self.planted()
        res.trace.flops_cum[-1] += 1
        self.assertEqual(self.failures(res, objective_rtol=None), ["flops"])

    def test_kept_count_increases(self):
        res = self.planted()
        res.trace.kept[-1] = res.trace.kept[0] + 1
        self.assertIn("kept_monotone", self.failures(res, objective_rtol=None))

    def test_nonzero_outside_kept(self):
        res = self.planted()
        res.x_star[res.screen_state.eliminated[0]] = 1.0
        self.assertIn("zero_outside_kept", self.failures(res, objective_rtol=None))


if __name__ == "__main__":
    unittest.main()
