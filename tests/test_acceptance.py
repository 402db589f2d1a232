"""Acceptance gate: every criterion as a dedicated test with its stated tolerance.

The instance suite (criteria 1, 2, 4, 5) runs once per session: 200 dynamic
solves at n=30, k=80 across both penalties, all five tests, all five
algorithms, with matching plain and screen-once runs plus certified reference
solutions. Each test prints one pass/fail line.
"""

import csv
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import screenlab as sl
from conftest import as_mask, screened_copy
from screenlab import cli, screening

SUITE_N, SUITE_K, SUITE_GROUP_SIZE = 30, 80, 4
SUITE_SEEDS = (1, 2)
SUITE_RATIOS = (0.3, 0.5, 0.7, 0.9)
SUITE_MAX_ITERS = 4000
SUITE_REL_TOL = 1e-12


def _announce(num, name, detail=""):
    print(f"[ACCEPTANCE] criterion {num} ({name}): PASS {detail}".rstrip())


def make_problem(kind, seed, ratio):
    spec = sl.GenSpec(kind="gaussian", n=SUITE_N, k=SUITE_K, seed=seed)
    dic = sl.gen_dictionary(spec)
    if kind == "lasso":
        y = sl.gen_observation(spec, dic).y
        part = None
    else:
        part = sl.random_partition(dic, SUITE_GROUP_SIZE, seed)
        obs_spec = sl.GenSpec(
            kind="bernoulli-gaussian-obs", n=SUITE_N, k=SUITE_K, seed=seed
        )
        y = sl.gen_observation(obs_spec, dic, part).y
    lam = ratio * sl.lambda_max(sl.Problem(dic, y, 1.0, part)).value
    return sl.Problem(dic, y, lam, part)


@dataclass
class SuiteRecord:
    kind: str
    seed: int
    ratio: float
    algo: str
    test: str
    obj_none: float
    obj_static: float
    obj_dynamic: float
    obj_ref: float
    safety_ok: bool
    traces: tuple


@dataclass
class Suite:
    records: list = field(default_factory=list)
    nesting_violations: list = field(default_factory=list)
    nesting_checks: int = 0
    elapsed: float = 0.0


def _nesting_hook(problem, ctx, sink):
    """Evaluate every applicable test at the shared per-iteration dual point."""

    if problem.kind == sl.LASSO:
        tests = screening.LASSO_TESTS
        pairs = ((screening.SAFE, screening.DST3), (screening.DST3, screening.DOME))
    else:
        tests = screening.GROUP_TESTS
        pairs = ((screening.GSAFE, screening.GST3),)

    def hook(t, state, mask):
        sink["checks"] += 1
        screened = screened_copy(state.screen_state)
        size = screened.kept.size
        masks = {tk: as_mask(ctx.screen(tk, state.theta, state.corr, screened, state.layout), size)
                 for tk in tests}
        for weaker, stronger in pairs:
            extra = int(np.sum(masks[weaker] & ~masks[stronger]))
            if extra:
                sink["violations"].append(
                    (problem.kind, t, f"{weaker} !<= {stronger}", extra)
                )

    return hook


@pytest.fixture(scope="session")
def suite():
    out = Suite()
    t0 = time.perf_counter()
    for kind in ("lasso", "group"):
        tests = screening.LASSO_TESTS if kind == "lasso" else screening.GROUP_TESTS
        for seed in SUITE_SEEDS:
            for ratio in SUITE_RATIOS:
                problem = make_problem(kind, seed, ratio)
                ref = sl.solve_reference(problem, 1e-12)
                ctx = screening.ScreeningContext(problem)
                for algo in sl.ALGORITHMS:
                    res_none = sl.run(
                        problem,
                        sl.SolverConfig(algorithm=algo, strategy="none",
                                        max_iters=SUITE_MAX_ITERS, rel_tol=SUITE_REL_TOL),
                    )
                    for test in tests:
                        res_static = sl.run(
                            problem,
                            sl.SolverConfig(algorithm=algo, strategy="static", test=test,
                                            max_iters=SUITE_MAX_ITERS, rel_tol=SUITE_REL_TOL),
                        )
                        sink = {"checks": 0, "violations": []}
                        res_dyn = sl.run(
                            problem,
                            sl.SolverConfig(algorithm=algo, strategy="dynamic", test=test,
                                            max_iters=SUITE_MAX_ITERS, rel_tol=SUITE_REL_TOL),
                            iteration_hook=_nesting_hook(problem, ctx, sink),
                        )
                        out.nesting_checks += sink["checks"]
                        for v in sink["violations"]:
                            out.nesting_violations.append((seed, ratio, algo, test) + v)
                        out.records.append(
                            SuiteRecord(
                                kind=kind,
                                seed=seed,
                                ratio=ratio,
                                algo=algo,
                                test=test,
                                obj_none=res_none.final_objective,
                                obj_static=res_static.final_objective,
                                obj_dynamic=res_dyn.final_objective,
                                obj_ref=ref.objective,
                                safety_ok=sl.verify_screen_safety(problem, res_dyn.screen_state, ref),
                                traces=(res_none.trace, res_static.trace, res_dyn.trace),
                            )
                        )
    out.elapsed = time.perf_counter() - t0
    return out


class TestCriterion1Safety:
    def test_safety(self, suite):
        assert len(suite.records) >= 200
        bad = [r for r in suite.records if not r.safety_ok]
        assert not bad, f"unsafe screening on {len(bad)} instances: {bad[:5]}"
        assert suite.elapsed <= 120.0, f"suite took {suite.elapsed:.1f}s (budget 120s)"
        _announce(1, "safety", f"{len(suite.records)} instances, {suite.elapsed:.1f}s")


class TestCriterion2SameOptimum:
    def test_same_optimum(self, suite):
        worst = 0.0
        for r in suite.records:
            objs = np.array([r.obj_none, r.obj_static, r.obj_dynamic])
            base = max(min(objs.min(), r.obj_ref), 1e-300)
            spread = (objs.max() - objs.min()) / base
            vs_ref = float(np.max(np.abs(objs - r.obj_ref))) / base
            worst = max(worst, spread, vs_ref)
            assert spread <= 1e-6, f"{r.kind}/{r.algo}/{r.test} strategies diverge: {spread:.2e}"
            assert vs_ref <= 1e-6, f"{r.kind}/{r.algo}/{r.test} off the reference: {vs_ref:.2e}"
        _announce(2, "same optimum", f"worst relative spread {worst:.2e}")


class TestCriterion3FirstIterationEquivalence:
    def test_first_iteration_matches_static(self):
        ratios = (0.3, 0.45, 0.6, 0.75, 0.9)
        for i in range(50):
            problem = make_problem("lasso", 100 + i, ratios[i % len(ratios)])
            captured = {}

            def hook(t, state, mask):
                if t == 1:
                    kept = state.screen_state.kept
                    captured["set"] = np.sort(kept[as_mask(mask, kept.size)])

            sl.run(problem, sl.SolverConfig(algorithm="ista", strategy="dynamic",
                                            test="safe", max_iters=1), iteration_hook=hook)
            static = sl.run(problem, sl.SolverConfig(algorithm="ista", strategy="static",
                                                     test="safe", max_iters=1))
            assert np.array_equal(captured["set"], static.screen_state.eliminated), (
                f"instance {i}: first dynamic elimination differs from the static set"
            )
        _announce(3, "first-iteration equivalence", "50 instances, exact set equality")


class TestCriterion4Nesting:
    def test_nesting(self, suite):
        assert suite.nesting_checks > 0
        assert not suite.nesting_violations, (
            f"{len(suite.nesting_violations)} nesting violations out of "
            f"{suite.nesting_checks} per-iteration checks; first few: "
            f"{suite.nesting_violations[:5]}"
        )
        _announce(4, "nesting", f"{suite.nesting_checks} checks")


class TestCriterion5FlopParity:
    def test_worked_values(self):
        assert sl.flops_iteration("lasso", "none", 10, 5, 10, 2) == 105
        assert sl.flops_iteration("lasso", "dynamic", 10, 5, 6, 2) == 101
        assert sl.flops_iteration("group", "dynamic", 10, 5, 6, 2, 3) == 122

    def test_trace_parity_on_every_run(self, suite):
        checked = 0
        for r in suite.records:
            for trace in r.traces:
                assert trace.recompute_flops() == trace.flops_cum
                checked += 1
        _announce(5, "flop parity", f"{checked} traces, integer equality")


class TestCriterion6Figure2Trend:
    RATIOS = (0.5, 0.6, 0.7, 0.75, 0.8, 0.9)
    SEEDS = tuple(range(10))

    def test_desk_scale_flop_savings(self, tmp_path):
        # the paper's figures come from a bench sweep and its report, which
        # divides each screened run by the plain run on the same instance
        t0 = time.perf_counter()
        bench, report = tmp_path / "bench.csv", tmp_path / "report.csv"
        assert cli.main([
            "bench", "--problem", "lasso", "--dict-kind", "pnoise", "--n", "200", "--k", "1000",
            "--algos", "fista", "--strategies", "none,static,dynamic", "--tests", "dst3",
            "--ratios", ",".join(map(str, self.RATIOS)), "--seeds", ",".join(map(str, self.SEEDS)),
            "--max-iters", "200", "--rel-tol", "1e-7", "--out", str(bench),
        ]) == 0
        assert cli.main(["report", "--input", str(bench), "--out", str(report)]) == 0
        elapsed = time.perf_counter() - t0
        med = {r: {} for r in self.RATIOS}
        with open(report, encoding="utf-8") as fh:
            for row in csv.DictReader(line for line in fh if not line.startswith("#")):
                assert int(row["n"]) == len(self.SEEDS)
                cell = med[float(row["lambda_ratio"])]
                if row["strategy"] == "static":
                    cell["fs"] = float(row["flops_ratio_med"])
                else:
                    cell["fd"] = float(row["flops_ratio_med"])
                    cell["td"] = float(row["time_ratio_med"])
        assert med[0.75]["fd"] <= 0.6, f"flops_D/flops_N at 0.75 is {med[0.75]['fd']:.3f}"
        for ratio in self.RATIOS:
            assert med[ratio]["fd"] < med[ratio]["fs"], (
                f"dynamic not below static at ratio {ratio}: "
                f"{med[ratio]['fd']:.3f} vs {med[ratio]['fs']:.3f}"
            )
        assert med[0.75]["td"] < 1.0, f"t_D/t_N at 0.75 is {med[0.75]['td']:.3f}"
        assert elapsed <= 300.0, f"criterion 6 took {elapsed:.1f}s (budget 300s)"
        _announce(
            6,
            "desk flop savings",
            f"flops_D/N@0.75={med[0.75]['fd']:.3f} t_D/N@0.75={med[0.75]['td']:.3f} "
            f"({elapsed:.1f}s)",
        )


class TestCriterion7Figure1Shape:
    # interleaved timing pairs after one untimed warm-up pair
    PAIRS = 9

    def test_scaled_instance_shrinks_and_speeds_up(self):
        spec = sl.GenSpec(kind="gaussian", n=500, k=5000, seed=3)
        dic = sl.gen_dictionary(spec)
        y = sl.gen_observation(spec, dic).y
        lam = 0.75 * sl.lambda_max(sl.Problem(dic, y, 1.0)).value
        problem = sl.Problem(dic, y, lam)
        cfgs = {
            "none": sl.SolverConfig(algorithm="ista", strategy="none",
                                    max_iters=200, rel_tol=1e-12),
            "dynamic": sl.SolverConfig(algorithm="ista", strategy="dynamic", test="safe",
                                       max_iters=200, rel_tol=1e-12),
        }
        sl.run(problem, cfgs["none"])
        res_dyn = sl.run(problem, cfgs["dynamic"])
        speedups = []
        for i in range(self.PAIRS):
            seconds = {}
            for name in ("none", "dynamic") if i % 2 == 0 else ("dynamic", "none"):
                t0 = time.perf_counter()
                sl.run(problem, cfgs[name])
                seconds[name] = time.perf_counter() - t0
            speedups.append(seconds["none"] / seconds["dynamic"])
        speedup = float(np.median(speedups))

        # The SAFE floor. The SAFE sphere is centered at y/lam with radius
        # ||y/lam - v|| at the scaled dual point v. The dual optimum theta* is
        # the projection of y/lam onto the dual feasible set, so no feasible v
        # is closer to the center, and no iteration can keep fewer atoms than
        # the SAFE test at theta*. The dual objective is lam^2-strongly
        # concave, so the oracle's dual point v_ref has
        # ||v_ref - theta*|| <= sqrt(2 * gap) / lam, which brackets the radius
        # at theta* and with it the kept set there.
        ref = sl.solve_reference(problem, 1e-12)
        _, v_ref = sl.dual_scale_lasso(problem, (y - dic.apply(ref.x_ref)) / lam)
        slack = np.sqrt(2.0 * sl.duality_gap(problem, ref.x_ref, v_ref)) / lam
        r_ref = float(np.linalg.norm(y / lam - v_ref))
        ctx = screening.ScreeningContext(problem)
        atoms = np.arange(problem.n_cols)

        def safe_kept(radius):
            region = screening.SphereRegion(ctx.safe_center, radius, ctx.safe_slack)
            return atoms[~screening.test_sphere_lasso(region)]

        floor_low = safe_kept(max(r_ref - slack, 0.0))  # kept at theta* for certain
        floor_high = safe_kept(r_ref + slack)  # contains the kept set at theta*
        kept = res_dyn.screen_state.kept
        static = sl.run(problem, sl.SolverConfig(algorithm="ista", strategy="static",
                                                 test="safe", max_iters=1))
        n_static = static.screen_state.kept.size
        detail = (
            f"kept {kept.size} of {problem.n_cols}, SAFE floor {floor_low.size}..{floor_high.size} "
            f"at the certified dual point, static SAFE keeps {n_static}; "
            f"median speedup {speedup:.2f}x over {self.PAIRS} pairs (need > 1.3x)"
        )
        assert np.all(np.isin(floor_low, kept)), f"kept set beats the SAFE floor: {detail}"
        assert np.all(np.isin(kept, floor_high)), f"kept set stops above the SAFE floor: {detail}"
        assert kept.size < n_static, f"dynamic keeps no fewer atoms than static: {detail}"
        assert speedup > 1.3, detail
        _announce(7, "scaled shrink and speedup",
                  f"kept={kept.size / problem.n_cols:.3f} "
                  f"floor={floor_high.size / problem.n_cols:.3f} speedup={speedup:.2f}x")


class TestCriterion8Figure3Trend:
    SIZES = (5, 10, 50)
    SEEDS = tuple(range(10))

    def test_screened_fraction_non_increasing_in_group_size(self):
        medians = []
        for gsize in self.SIZES:
            fracs = []
            for seed in self.SEEDS:
                spec = sl.GenSpec(kind="pnoise", n=200, k=1000, seed=seed)
                dic = sl.gen_dictionary(spec)
                part = sl.random_partition(dic, gsize, seed)
                obs_spec = sl.GenSpec(kind="bernoulli-gaussian-obs", n=200, k=1000, seed=seed)
                y = sl.gen_observation(obs_spec, dic, part).y
                lam = 0.5 * sl.lambda_max(sl.Problem(dic, y, 1.0, part)).value
                problem = sl.Problem(dic, y, lam, part)
                res = sl.run(problem, sl.SolverConfig(algorithm="fista", strategy="dynamic",
                                                      test="gst3", max_iters=200, rel_tol=1e-7))
                fracs.append(res.screened_fraction)
            medians.append(float(np.median(fracs)))
        for bigger, smaller in zip(medians, medians[1:]):
            assert smaller <= bigger + 1e-12, f"medians not non-increasing: {medians}"
        _announce(8, "group-size trend", f"median screened fractions {medians}")


class TestCriterion9NumericalKernels:
    def test_kernel_properties(self):
        rng = np.random.default_rng(2024)
        cases = 0

        # adjoint consistency
        for _ in range(300):
            n = int(rng.integers(2, 20))
            k = int(rng.integers(2, 30))
            mat = rng.standard_normal((n, k))
            dic = sl.Dictionary(mat / np.linalg.norm(mat, axis=0))
            x = rng.standard_normal(k)
            v = rng.standard_normal(n)
            lhs = float(dic.apply(x) @ v)
            rhs = float(x @ dic.correlate(v))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
            cases += 1

        # prox maps never expand distances
        for _ in range(150):
            a = rng.standard_normal(12) * 3
            b = rng.standard_normal(12) * 3
            t = float(rng.random() * 2)
            d = np.linalg.norm(sl.prox_l1(a, t) - sl.prox_l1(b, t))
            assert d <= np.linalg.norm(a - b) + 1e-12
            cases += 1
        mat = rng.standard_normal((10, 12))
        dic = sl.Dictionary(mat / np.linalg.norm(mat, axis=0))
        part = sl.GroupPartition.build(dic, [np.arange(0, 4), np.arange(4, 7), np.arange(7, 12)])
        for _ in range(150):
            a = rng.standard_normal(12) * 3
            b = rng.standard_normal(12) * 3
            t = float(rng.random() * 2)
            d = np.linalg.norm(part.full.prox(a, t) - part.full.prox(b, t))
            assert d <= np.linalg.norm(a - b) + 1e-12
            cases += 1

        # scalar soft threshold against a grid minimizer
        for _ in range(100):
            x = float(rng.standard_normal() * 3)
            t = float(rng.random() * 2 + 1e-6)
            out = float(sl.prox_l1(np.array([x]), t)[0])
            grid = np.linspace(x - 2 * t - 1, x + 2 * t + 1, 8001)
            best = grid[np.argmin(t * np.abs(grid) + 0.5 * (grid - x) ** 2)]
            assert abs(out - best) <= (grid[1] - grid[0]) + 1e-12
            cases += 1

        # backtracking certificates along real solver paths
        from conftest import make_lasso
        from screenlab.solvers import SolverConfig, init_state, update_fista, update_ista

        for seed in range(10):
            problem = make_lasso(seed, n=12, k=30)
            cfg = SolverConfig()
            st = init_state(problem, cfg)
            for _ in range(15):
                x_prev = st.x.copy()
                update_ista(st, problem.dictionary, problem)
                f_new = 0.5 * float(st.resid @ st.resid)
                f_old = 0.5 * float(st.theta @ st.theta)
                step = st.x - x_prev
                bound = f_old + float(st.corr @ step) + 0.5 * st.L * float(step @ step)
                assert f_new <= bound + 1e-12 * max(1.0, f_old)
                cases += 1
            cfg = SolverConfig(algorithm="fista")
            st = init_state(problem, cfg)
            for _ in range(15):
                u_prev = (st.u if st.u is not None else st.x).copy()
                update_fista(st, problem.dictionary, problem)
                f_new = 0.5 * float(st.resid @ st.resid)
                f_old = 0.5 * float(st.theta @ st.theta)
                step = st.x - u_prev
                bound = f_old + float(st.corr @ step) + 0.5 * st.L * float(step @ step)
                assert f_new <= bound + 1e-12 * max(1.0, f_old)
                cases += 1

        # spectral norms against full svd
        for _ in range(100):
            n = int(rng.integers(2, 14))
            k = int(rng.integers(1, 10))
            mat = rng.standard_normal((n, k))
            dic = sl.Dictionary(mat / np.linalg.norm(mat, axis=0))
            got = sl.spectral_norm(dic, np.arange(k))
            want = float(np.linalg.svd(dic.data, compute_uv=False)[0])
            assert abs(got - want) <= 1e-8 * want
            cases += 1

        assert cases >= 1000
        _announce(9, "numerical kernels", f"{cases} random cases")
