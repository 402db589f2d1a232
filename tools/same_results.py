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
eliminated set, `x_star`, and the kept count, objective and cumulative flop
count of every iteration, so the whole trace is covered. Objectives are
compared as float hex strings, arrays as raw bytes. Where runs differ, prints
one line per penalty and algorithm: how many runs differ, under which
strategies and in which fields, whether the eliminated sets and the
iteration counts still match, the largest relative gap between final
objectives twice, and the largest `x_star` gap relative to the larger
``max|x|`` of the two runs. The first objective gap is
over the runs whose iteration counts match, so it shows rounding; the second
over the runs whose counts differ, so it shows where the stopping rule landed.
The line ends with how many final objectives fell and how many rose, and the
largest relative rise, so a deliberate change to one solver shows whether its
differences are improvements. The last line names the (penalty, algorithm)
pairs whose runs are all bit-identical.

Each tree also builds the set-up of those problems, of the first two
passes of the benchmark's `desk`, `group` and `algos` workloads (built by
this checkout's `perfbench/workloads.py` with the tree's screenlab), and of
problems at the edges of set-up's blocks: gaussian, pnoise and DCT
dictionaries of 301 rows, which the generators make in several blocks of
rows ending on a partial one, and a 200x20,000 pnoise partition in groups
of 5, whose spectral norms take several chunks. The dictionary bytes, `y`,
`lam`, and the partition's `group_of`, `weights` and `spectral_norms` of
every problem are compared exactly. Problems whose set-up differs are named
with their fields. Exits nonzero on any difference.
"""

import hashlib
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
SETUP_WORKLOADS, SETUP_SEED, SETUP_PASSES = ("desk", "group", "algos"), 1, 2
SETUP_FIELDS = ("dictionary", "y", "lam", "group_of", "weights", "spectral_norms")
FAMILIES = ("gaussian", "pnoise")
SEEDS = (1, 2, 3)
RATIOS = (0.3, 0.6, 0.9, 1.1)
STRATEGIES = ("none", "static", "dynamic")
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


def _boundary_problems(sl):
    for family, obs_family in (("gaussian", "gaussian"), ("pnoise", "pnoise"),
                               ("dct", "unit-sphere-obs")):
        dic = sl.gen_dictionary(sl.GenSpec(kind=family, n=301, k=2000, seed=SETUP_SEED))
        y = sl.gen_observation(sl.GenSpec(kind=obs_family, n=301, k=2000, seed=SETUP_SEED), dic).y
        lam = 0.5 * sl.lambda_max(sl.Problem(dic, y, 1.0)).value
        yield ("blocks", family, 301, 2000), sl.Problem(dic, y, lam)
    dic = sl.gen_dictionary(sl.GenSpec(kind="pnoise", n=200, k=20000, seed=SETUP_SEED))
    part = sl.random_partition(dic, 5, SETUP_SEED)
    obs = sl.GenSpec(kind="bernoulli-gaussian-obs", n=200, k=20000, seed=SETUP_SEED)
    y = sl.gen_observation(obs, dic, part).y
    lam = 0.5 * sl.lambda_max(sl.Problem(dic, y, 1.0, part)).value
    yield ("chunks", "pnoise", 200, 20000), sl.Problem(dic, y, lam, part)


def _setup(problem):
    """Digests of what set-up made of `problem`, one per `SETUP_FIELDS` entry."""
    part = problem.partition
    arrays = (problem.dictionary.data, problem.y, np.float64(problem.lam))
    if part is not None:
        arrays += (part.group_of, part.weights, part.spectral_norms)
    return tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays)


def _benchmark_problems():
    sys.path.insert(0, PERFBENCH)
    import workloads

    for name in SETUP_WORKLOADS:
        for pass_index in range(SETUP_PASSES):
            for inst in workloads.build(workloads.WORKLOADS[name], SETUP_SEED, pass_index):
                yield (name, pass_index, inst.ratio), inst.problem


def dump(out_path):
    import screenlab as sl

    setup = {key: _setup(problem) for key, problem in _benchmark_problems()}
    setup.update((key, _setup(problem)) for key, problem in _boundary_problems(sl))
    results = {}
    for key, problem in _problems(sl):
        setup[key] = _setup(problem)
        tests = sl.LASSO_TESTS if problem.kind == sl.LASSO else sl.GROUP_TESTS
        runs = [("none", None)] + [(s, t) for s in STRATEGIES[1:] for t in tests]
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
                    [float(f).hex() for f in res.trace.objective],
                )
    with open(out_path, "wb") as fh:
        pickle.dump((setup, results), fh)


def compare_setup(old, new):
    """Print the problems whose set-up differs, then the count; return that count."""
    if old.keys() != new.keys():
        print("the two trees built different problems")
        return len(old.keys() ^ new.keys())
    differ = 0
    for key in old:
        fields = [f for f, a, b in zip(SETUP_FIELDS, old[key], new[key]) if a != b]
        if fields:
            differ += 1
            print(f"set-up of {key} differs in {', '.join(fields)}")
    print(f"{len(old)} problems compared, {differ} differ")
    return differ


def main(old_src, new_src):
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for i, src in enumerate((old_src, new_src)):
            out = os.path.join(tmp, f"{i}.pkl")
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            subprocess.run([sys.executable, __file__, "--dump", out], env=env, check=True)
            with open(out, "rb") as fh:
                results.append(pickle.load(fh))
    (old_setup, old), (new_setup, new) = results
    setup_differ = compare_setup(old_setup, new_setup)
    if old.keys() != new.keys():
        print("the two trees ran different grids")
        return 1
    fields = ("iterations", "final_objective", "eliminated", "x_star", "kept trace", "flops trace",
              "objective trace")
    # (penalty, algorithm) -> counts and largest gaps of the runs that differ
    summary = {}
    for key in old:
        diff = {f for f, a, b in zip(fields, old[key], new[key]) if a != b}
        if diff:
            entry = summary.setdefault(
                (key[0], key[4]),
                dict(runs=0, strategies=set(), seen=set(), matched=None, moved=None, x_gap=0.0,
                     fell=0, rose=0, rise=0.0),
            )
            entry["runs"] += 1
            entry["strategies"].add(key[5])
            entry["seen"] |= diff
            a, b = (float.fromhex(side[key][1]) for side in (old, new))
            gap = abs(a - b) / max(abs(a), 1e-300)
            slot = "moved" if "iterations" in diff else "matched"
            entry[slot] = max(entry[slot] or 0.0, gap)
            if b < a:
                entry["fell"] += 1
            elif b > a:
                entry["rose"] += 1
                entry["rise"] = max(entry["rise"], gap)
            xa, xb = (np.frombuffer(side[key][3]) for side in (old, new))
            scale = max(np.abs(xa).max(), np.abs(xb).max(), 1e-300)
            entry["x_gap"] = max(entry["x_gap"], np.abs(xa - xb).max() / scale)
    for (penalty, algo), e in sorted(summary.items()):
        gaps = ["-" if gap is None else f"{gap:.2e}" for gap in (e["matched"], e["moved"])]
        print(
            f"{penalty} {algo}: {e['runs']} differ, under"
            f" {', '.join(s for s in STRATEGIES if s in e['strategies'])},"
            f" in {', '.join(f for f in fields if f in e['seen'])};"
            f" eliminated sets {'differ' if 'eliminated' in e['seen'] else 'same'},"
            f" iterations {'differ' if 'iterations' in e['seen'] else 'same'},"
            f" max relative objective gap {gaps[0]} where iterations match,"
            f" {gaps[1]} where they differ, max x_star gap {e['x_gap']:.2e} of max|x|;"
            f" final objective fell in {e['fell']}, rose in {e['rose']},"
            f" largest relative rise {e['rise']:.2e}"
        )
    print(f"{len(old)} runs compared, {sum(e['runs'] for e in summary.values())} differ")
    same = sorted({(key[0], key[4]) for key in old} - summary.keys())
    print("bit-identical:", ", ".join(f"{penalty} {algo}" for penalty, algo in same) or "none")
    return 1 if summary or setup_differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 3:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
