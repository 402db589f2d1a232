#!/usr/bin/env python3
"""Check that two source trees of screenlab give bit-identical solver results.

    python tools/same_results.py OLD_SRC NEW_SRC

Each tree is imported in its own subprocess and solves the same grid: every
algorithm, with no screening and with static and dynamic screening under every
applicable test, on Lasso and Group-Lasso problems from the gaussian and the
pnoise dictionary families over three seeds and four penalty ratios, the last
above the trivial-solution threshold; 1440 runs in all. The pnoise atoms are
coherent, so the extremal atom or group of a dynamic run changes often. The
two sets of results are compared exactly: iteration count, final objective,
eliminated set, `x_star`, and the kept count and cumulative flop count of
every iteration. Where runs differ, prints one line per penalty and algorithm: how
many runs differ and in which fields, whether the eliminated sets and the
iteration counts still match, and the largest relative gap between final
objectives. The last line names the (penalty, algorithm) pairs whose runs are
all bit-identical. Exits nonzero on any difference.
"""

import os
import pickle
import subprocess
import sys
import tempfile

FAMILIES = ("gaussian", "pnoise")
SEEDS = (1, 2, 3)
RATIOS = (0.3, 0.6, 0.9, 1.1)
N, K, GROUP_SIZE = 40, 160, 4


def _problems(sl):
    for kind in ("lasso", "group"):
        for family, seed in ((f, s) for f in FAMILIES for s in SEEDS):
            spec = sl.GenSpec(kind=family, n=N, k=K, seed=seed)
            dic = sl.gen_dictionary(spec)
            part = None
            if kind == "lasso":
                y = sl.gen_observation(spec, dic).y
            else:
                part = sl.random_partition(dic, GROUP_SIZE, seed)
                obs = sl.GenSpec(kind="bernoulli-gaussian-obs", n=N, k=K, seed=seed)
                y = sl.gen_observation(obs, dic, part).y
            lmax = sl.lambda_max(sl.Problem(dic, y, 1.0, part)).value
            for ratio in RATIOS:
                yield (kind, family, seed, ratio), sl.Problem(dic, y, ratio * lmax, part)


def dump(out_path):
    import screenlab as sl

    results = {}
    for key, problem in _problems(sl):
        tests = sl.LASSO_TESTS if problem.kind == sl.LASSO else sl.GROUP_TESTS
        runs = [("none", None)] + [(s, t) for s in ("static", "dynamic") for t in tests]
        for algo in sl.ALGORITHMS:
            for strategy, test in runs:
                cfg = sl.SolverConfig(algorithm=algo, strategy=strategy, test=test,
                                      max_iters=300, rel_tol=1e-9)
                res = sl.run(problem, cfg)
                results[key + (algo, strategy, test)] = (
                    res.iterations,
                    float(res.final_objective).hex(),
                    res.screen_state.eliminated.tobytes(),
                    res.x_star.tobytes(),
                    list(res.trace.kept),
                    list(res.trace.flops_cum),
                )
    with open(out_path, "wb") as fh:
        pickle.dump(results, fh)


def main(old_src, new_src):
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for i, src in enumerate((old_src, new_src)):
            out = os.path.join(tmp, f"{i}.pkl")
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            subprocess.run([sys.executable, __file__, "--dump", out], env=env, check=True)
            with open(out, "rb") as fh:
                results.append(pickle.load(fh))
    old, new = results
    if old.keys() != new.keys():
        print("the two trees ran different grids")
        return 1
    fields = ("iterations", "final_objective", "eliminated", "x_star", "kept trace", "flops trace")
    summary = {}  # (penalty, algorithm) -> (runs that differ, fields that differ, max gap)
    for key in old:
        diff = {f for f, a, b in zip(fields, old[key], new[key]) if a != b}
        if diff:
            a, b = (float.fromhex(side[key][1]) for side in (old, new))
            runs, seen, gap = summary.get((key[0], key[4]), (0, set(), 0.0))
            gap = max(gap, abs(a - b) / max(abs(a), 1e-300))
            summary[key[0], key[4]] = (runs + 1, seen | diff, gap)
    for (penalty, algo), (runs, seen, gap) in sorted(summary.items()):
        print(
            f"{penalty} {algo}: {runs} differ in {', '.join(f for f in fields if f in seen)};"
            f" eliminated sets {'differ' if 'eliminated' in seen else 'same'},"
            f" iterations {'differ' if 'iterations' in seen else 'same'},"
            f" max relative objective gap {gap:.2e}"
        )
    print(f"{len(old)} runs compared, {sum(runs for runs, _, _ in summary.values())} differ")
    same = sorted({(key[0], key[4]) for key in old} - summary.keys())
    print("bit-identical:", ", ".join(f"{penalty} {algo}" for penalty, algo in same) or "none")
    return 1 if summary else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 3:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
