#!/usr/bin/env python3
"""Compare the end-to-end benchmark metrics of two source trees in alternating pairs.

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload desk --pairs 10 \\
        --seconds 30 --seed-start 901

Each tree is a checkout of the whole repository. Pair i runs
``perfbench/run.py --trace 0`` with seed ``seed_start + i`` once in each
tree, one run at a time, the parent first in even pairs and the change
first in odd ones, so that a drift of the machine weighs on both alike. For
each end-to-end metric it prints the parent's median and quartiles, the
change's median, the relative change of the medians, and in how many pairs
the change was lower (each pair's values go to standard error as it ends):

    solve_s.dynamic  0.1830 [0.1745, 0.1869] -> 0.1550 (-15.3%, lower in 10 of 10)

The table ends with the line totals of both trees' ``src/``, all lines and
code lines as `tools/src_lines.py` counts them:

    src/ lines       2980 -> 2961 (-19)
    src/ code lines  1946 -> 1930 (-16)

Every metric of the benchmark is better lower. The exit status is nonzero
if any run exited nonzero, printed no result line, failed a solve or gave an
incorrect result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from src_lines import count


def run_once(tree, workload, seed, seconds):
    """The result object of one untraced benchmark run in `tree`: its last output line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit 0 without a result line: {proc.stdout.strip()[-500:]!r}"}


def quartiles(values):
    """(first quartile, median, third quartile), as `statistics.quantiles` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(pairs):
    """One line per end-to-end metric of `pairs`, a list of (parent, change) results."""
    names = list(pairs[0][0]["metrics"])
    width = max(len(name) for name in names)
    lines = []
    for name in names:
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        q1, med, q3 = quartiles(parent)
        new = statistics.median(change)
        lower = sum(c < p for p, c in zip(parent, change))
        rel = (new - med) / med if med else float("nan")
        lines.append(
            f"{name:{width}s}  {med:.4g} [{q1:.4g}, {q3:.4g}] -> {new:.4g} "
            f"({rel:+.1%}, lower in {lower} of {len(pairs)})"
        )
    return lines


def src_totals(tree):
    """(all lines, code lines) of the Python files under ``src/`` of `tree`."""
    total = [0, 0]
    for path in sorted(Path(tree, "src").rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
    return total


def src_rows(parent, change):
    """The table's last rows: the ``src/`` totals of both trees and their change."""
    rows = zip(("lines", "code lines"), src_totals(parent), src_totals(change))
    return [f"src/ {name:10s}  {old} -> {new} ({new - old:+d})" for name, old, new in rows]


def faults(results):
    """A message for each run that did not finish, failed a solve or gave an incorrect result."""
    out = []
    for label, result in results:
        if "error" in result:
            out.append(f"{label}: {result['error']}")
        elif result["failed"] or not result["correct"]:
            out.append(
                f"{label}: {result['failed']} of {result['attempted']} solves failed, "
                f"correct={result['correct']}"
            )
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed-start", type=int, required=True)
    args = p.parse_args(argv)

    pairs, labelled = [], []
    for i in range(args.pairs):
        seed = args.seed_start + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            tree = args.parent if side == "parent" else args.change
            got[side] = run_once(tree, args.workload, seed, args.seconds)
            labelled.append((f"{side} seed {seed}", got[side]))
        line = f"pair {i + 1} (seed {seed}, {order[0]} first)"
        if all("error" not in r for r in got.values()):
            pairs.append((got["parent"], got["change"]))
            line += ": " + ", ".join(
                f"{name} {m['value']:.4g} -> {got['change']['metrics'][name]['value']:.4g}"
                for name, m in got["parent"]["metrics"].items()
            )
        print(line, file=sys.stderr, flush=True)
    if pairs:
        print(f"{args.workload}: {len(pairs)} pairs at {args.seconds:g} s, seeds "
              f"{args.seed_start}-{args.seed_start + args.pairs - 1}")
        print("\n".join(summarize(pairs) + src_rows(args.parent, args.change)))
    bad = faults(labelled)
    for line in bad:
        print(f"FAULT {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
