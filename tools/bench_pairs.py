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

With ``--json PATH`` the tool also runs ``perfbench/run.py --trace 1`` and
``perfbench/report.py ratios`` once in each tree (seed ``seed_start``, the
same seconds), and writes the workload's record into the BENCH file at
PATH, keeping the other workloads already there. The record holds each
end-to-end metric's parent median and quartiles, change median and wins,
each per-layer metric of both traced runs, and each tree's time and flop
ratios to the plain solve; the file also holds both trees' ``src/`` totals
and git HEADs and the machine: CPU model, core count, Python, numpy and BLAS
versions and the BLAS thread settings. Keys are written in a fixed order,
and each metric or ratio row on one line, so that two BENCH files diff line
by line.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from src_lines import totals


def run_once(tree, workload, seed, seconds, trace=0):
    """The result object of one benchmark run in `tree`, traced if `trace`: its last output line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
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


def aggregate(pairs):
    """{metric: (unit, parent q1, median, q3, change median, pairs the change was lower)}."""
    out = {}
    for name, metric in pairs[0][0]["metrics"].items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        lower = sum(c < p for p, c in zip(parent, change))
        out[name] = (metric["unit"], *quartiles(parent), statistics.median(change), lower)
    return out


def summarize(pairs):
    """One line per end-to-end metric of `pairs`, a list of (parent, change) results."""
    stats = aggregate(pairs)
    width = max(len(name) for name in stats)
    lines = []
    for name, (_, q1, med, q3, new, lower) in stats.items():
        rel = (new - med) / med if med else float("nan")
        lines.append(
            f"{name:{width}s}  {med:.4g} [{q1:.4g}, {q3:.4g}] -> {new:.4g} "
            f"({rel:+.1%}, lower in {lower} of {len(pairs)})"
        )
    return lines


def src_totals(tree):
    """[all lines, code lines] of the Python files under ``src/`` of `tree`."""
    return totals(Path(tree, "src"))


def src_rows(parent, change):
    """The table's last rows: the ``src/`` totals of both trees and their change."""
    rows = zip(("lines", "code lines"), src_totals(parent), src_totals(change))
    return [f"src/ {name:10s}  {old} -> {new} ({new - old:+d})" for name, old, new in rows]


def run_ratios(tree, workload, seed, seconds):
    """The rows ``perfbench/report.py ratios`` prints in `tree`, as ratio-table dicts."""
    cmd = [
        sys.executable, "perfbench/report.py", "ratios", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    rows = []
    # a row is: ratio, algorithm/strategy/test, ms, time ratio, flop ratio
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[1].count("/") == 2:
            try:
                values = [float(f) for f in fields[:1] + fields[2:]]
            except ValueError:
                continue
            rows.append({"ratio": values[0], "config": fields[1], "ms": values[1],
                         "time_ratio": values[2], "flop_ratio": values[3]})
    if not rows:
        return {"error": f"no ratio rows in: {proc.stdout.strip()[-500:]!r}"}
    return rows


def git_head(tree):
    """`tree`'s git HEAD, with ``+dirty`` when its working files differ from it; None outside git."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def machine():
    """The CPU, core count, Python, numpy and BLAS versions and BLAS thread settings."""
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {var: os.environ.get(var) for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # perfbench/run.py sets each of these to 1 before numpy loads
        "blas_threads_in_runs": 1,
        "blas_threads_env": threads,
    }


def layer_record(traced):
    """Each per-layer metric of the two trees' traced runs, in the order the runs print them.

    `traced` maps "parent" and "change" to a traced run's result object; a
    metric a run did not report, or a run that failed, gives None.
    """
    parent, change = (traced[side].get("metrics", {}) for side in ("parent", "change"))
    return {
        name: {"unit": m["unit"], "parent": parent.get(name, {}).get("value"),
               "change": change.get(name, {}).get("value")}
        for name, m in {**parent, **change}.items()
    }


def bench_record(old, args, pairs, traced, ratios, env):
    """The BENCH file `old` (a dict, maybe empty) with this run's workload record put in."""
    metrics = {
        name: {"unit": unit, "parent_median": med, "parent_q1": q1, "parent_q3": q3,
               "change_median": new, "change_lower_in": lower}
        for name, (unit, q1, med, q3, new, lower) in aggregate(pairs).items()
    }
    workloads = dict(old.get("workloads", {}))
    workloads[args.workload] = {
        "pairs": len(pairs),
        "seconds": args.seconds,
        "seeds": [args.seed_start, args.seed_start + args.pairs - 1],
        "metrics": metrics,
        "layers": layer_record(traced),
        "ratios": ratios,
    }
    (p_lines, p_code), (c_lines, c_code) = src_totals(args.parent), src_totals(args.change)
    return {
        "schema": 1,
        "heads": {"parent": git_head(args.parent), "change": git_head(args.change)},
        "src": {"parent": {"lines": p_lines, "code_lines": p_code},
                "change": {"lines": c_lines, "code_lines": c_code}},
        "machine": env,
        "workloads": {name: workloads[name] for name in sorted(workloads)},
    }


def dump(obj, indent=0):
    """`obj` as JSON, with each dict or list that holds no dict or list on one line."""
    if isinstance(obj, dict):
        nested = obj.values()
    else:
        nested = obj if isinstance(obj, list) else ()
    if not any(isinstance(v, (dict, list)) for v in nested):
        return json.dumps(obj)
    pad, inner = " " * indent, " " * (indent + 2)
    if isinstance(obj, dict):
        body = [f"{inner}{json.dumps(k)}: {dump(v, indent + 2)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(body) + f"\n{pad}}}"
    body = [f"{inner}{dump(v, indent + 2)}" for v in obj]
    return "[\n" + ",\n".join(body) + f"\n{pad}]"


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
    p.add_argument("--json", type=Path, help="BENCH file to write this workload's record into")
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
    if args.json and pairs:
        traced, ratios = {}, {}
        for side, tree in (("parent", args.parent), ("change", args.change)):
            traced[side] = run_once(tree, args.workload, args.seed_start, args.seconds, trace=1)
            labelled.append((f"{side} traced", traced[side]))
            ratios[side] = run_ratios(tree, args.workload, args.seed_start, args.seconds)
            if "error" in ratios[side]:
                labelled.append((f"{side} ratios", ratios[side]))
        old = json.loads(args.json.read_text()) if args.json.exists() else {}
        record = bench_record(old, args, pairs, traced, ratios, machine())
        args.json.write_text(dump(record) + "\n")
    bad = faults(labelled)
    for line in bad:
        print(f"FAULT {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
