#!/usr/bin/env python3
"""Reference figures for perfbench/README.md.

    python3 perfbench/report.py spread --workload desk --seeds 1-10 --seconds 15
    python3 perfbench/report.py ratios --workload desk --seed 1 --seconds 15

`spread` runs the benchmark command once per seed, one run at a time, and
prints each end-to-end metric's median and the distance between its first
and third quartile as a share of the median, the figure the benchmark's
bounds are set against; for the time metrics also the wall seconds before
scaling. `ratios` runs one untraced measurement in this process and prints,
per penalty ratio and configuration, the median over passes of the solve
seconds and of the time and flop ratios to the plain solve of the same
problem.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
UNSCALED = "unscaled wall seconds"  # as run.UNSCALED, which this process does not import


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args):
    values = defaultdict(list)
    shares = set()
    for seed in _seeds(args.seeds):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        shares.add((result["failed"], result["attempted"], result["correct"]))
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        for line in lines:
            if UNSCALED in line:
                for name, value in json.loads(line.split(UNSCALED, 1)[1]).items():
                    values[f"{name} (unscaled)"].append(value)
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
              flush=True)
    print(f"(failed, attempted, correct) per run: {sorted(shares)}")
    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.2%}")


def ratios(args):
    import run  # pins BLAS to one thread before numpy loads
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tally = run.Tally()
    passes = run.measure(workload, args.seed, args.seconds, tally).passes
    configs = workload.configs()
    plain = {c.algorithm: j for j, c in enumerate(configs) if c.strategy == workloads.NONE}
    rows = defaultdict(lambda: defaultdict(list))  # ratio -> config -> per-problem values
    for records in passes:
        by_solve = {(r.instance, r.config): r for r in records}
        for (i, j), r in by_solve.items():
            base = by_solve[i, plain[configs[j].algorithm]]
            ratio = workload.ratios[i]
            rows[ratio][j].append((r.seconds, r.seconds / base.seconds, r.flops / base.flops))
    print(f"{workload.name} seed={args.seed}: {len(passes)} passes, {tally.attempted} solves, "
          f"{tally.failed} failed; per ratio and configuration, medians over passes")
    print(f"{'ratio':>5s} {'algorithm/strategy/test':28s} {'ms':>9s} {'time ratio':>11s} {'flop ratio':>11s}")
    for ratio in sorted(rows):
        for j, vals in sorted(rows[ratio].items()):
            c = configs[j]
            label = f"{c.algorithm}/{c.strategy}/{c.test or '-'}"
            ms = statistics.median(v[0] for v in vals) * 1e3
            tr = statistics.median(v[1] for v in vals)
            fr = statistics.median(v[2] for v in vals)
            print(f"{ratio:5.2f} {label:28s} {ms:9.2f} {tr:11.3f} {fr:11.3f}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread", help="quartile spread of every metric over seeds")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    s.add_argument("--seconds", type=float, default=15)
    s.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s.set_defaults(func=spread)
    r = sub.add_parser("ratios", help="per-ratio median times, time ratios and flop ratios")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--seconds", type=float, default=15)
    r.set_defaults(func=ratios)
    args = p.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
