"""Command-line harness: data generation, single solves, benchmark sweeps, reports."""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from . import datagen, instrument, screening, solvers
from .dictionary import (Dictionary, GroupError, GroupPartition, read_group_file, read_matrix,
                         write_dsmx, write_group_file)
from .problems import Problem, lambda_max

BENCH_HEADER = "seed,algo,strategy,test,lambda_ratio,iters,flops,time_s,final_obj,screened_frac"
REPORT_HEADER = (
    "algo,strategy,test,lambda_ratio,n,"
    "flops_ratio_p25,flops_ratio_med,flops_ratio_p75,"
    "time_ratio_p25,time_ratio_med,time_ratio_p75"
)

_GEN_KINDS = list(datagen.DICT_KINDS) + [datagen.UNIT_SPHERE_OBS, datagen.BERNOULLI_GAUSSIAN_OBS, "groups"]


def _default_seed(value):
    if value is not None:
        return int(value)
    text = os.environ.get("SCREENLAB_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"SCREENLAB_SEED must be an integer, not {text!r}") from None


@dataclass
class BenchPlan:
    """One benchmark sweep: data family, problem kind, and the run grid."""

    problem: str
    dict_kind: str
    n: int
    k: int
    group_size: int
    lambda_ratios: list
    algorithms: list
    strategies: list
    tests: list
    seeds: list
    max_iters: int = 200
    rel_tol: float = 1e-7

    def validate(self):
        if self.problem not in ("lasso", "group"):
            raise ValueError(f"unknown problem kind {self.problem!r}")
        if self.dict_kind not in datagen.DICT_KINDS:
            raise ValueError(f"unknown dictionary kind {self.dict_kind!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        seeds = list(self.seeds)
        repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
        if repeated is not None:
            raise ValueError(f"seed {repeated} is repeated")
        ratios = list(self.lambda_ratios)
        if not ratios:
            raise ValueError("lambda ratios must be given in ascending order")
        for a, b in zip(ratios, ratios[1:]):
            if b <= a:
                what = f"{b} is repeated" if b == a else f"{b} follows {a}"
                raise ValueError(
                    f"lambda ratios must be given in ascending order, once each: {what}"
                )
        if ratios[0] <= 0 or ratios[-1] > 1:
            raise ValueError("lambda ratios must lie in (0, 1]")
        if self.problem == "group" and (self.group_size < 1 or self.k % self.group_size):
            raise ValueError("group benchmarks need a group size dividing k")
        self.configs()

    def configs(self):
        """The validated solver configuration of each run at one seed and ratio."""
        out = []
        for algo in self.algorithms:
            for strategy in self.strategies:
                # a screening strategy without tests runs once with none, which
                # `SolverConfig.validate` rejects
                tests = [None] if strategy == instrument.NONE else self.tests or [None]
                for test in tests:
                    cfg = solvers.SolverConfig(
                        algorithm=algo,
                        strategy=strategy,
                        test=test,
                        max_iters=self.max_iters,
                        rel_tol=self.rel_tol,
                    )
                    cfg.validate(self.problem)
                    out.append(cfg)
        return out

    def to_json(self):
        return json.dumps(self.__dict__, sort_keys=True)


def _csv_list(text):
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _float_list(text):
    return [float(tok) for tok in _csv_list(text)]


def _int_list(text):
    return [int(tok) for tok in _csv_list(text)]


# -- gen ------------------------------------------------------------------


def cmd_gen(args):
    seed = _default_seed(args.seed)
    kind = args.kind
    manifest = {
        "tool": "screenlab gen",
        "kind": kind,
        "seed": seed,
        "rng": "philox4x64 keyed by (seed, stream)",
    }
    if kind == "groups":
        if not args.k or not args.group_size:
            raise SystemExit("gen --kind groups needs --k and --group-size")
        # partition metadata only; spectral norms are recomputed at load time
        write_group_file(args.out, datagen.random_groups(args.k, args.group_size, seed))
        manifest.update(k=args.k, group_size=args.group_size)
    elif kind in datagen.DICT_KINDS and not args.dict:
        # gaussian/pnoise double as observation families; --dict switches to
        # drawing an observation against an existing dictionary
        if not args.n or not args.k:
            raise SystemExit(f"gen --kind {kind} needs --n and --k")
        spec = datagen.GenSpec(kind=kind, n=args.n, k=args.k, seed=seed)
        dic = datagen.gen_dictionary(spec)
        write_dsmx(args.out, dic.data)
        manifest.update(n=args.n, k=args.k)
    else:
        if not args.dict:
            raise SystemExit(f"gen --kind {kind} needs --dict")
        dic = Dictionary(read_matrix(args.dict))
        spec = datagen.GenSpec(
            kind=kind,
            n=dic.n_rows,
            k=dic.n_cols,
            seed=seed,
            bernoulli_p=args.bernoulli_p,
            snr_db=args.snr_db,
        )
        partition = None
        if kind == datagen.BERNOULLI_GAUSSIAN_OBS:
            if not args.groups:
                raise SystemExit("bernoulli-gaussian observations need --groups")
            partition = _read_partition(dic, args.groups)
        obs = datagen.gen_observation(spec, dic, partition)
        write_dsmx(args.out, obs.y[:, None])
        if obs.ground_truth is not None:
            write_dsmx(args.out + ".truth.dsmx", obs.ground_truth[:, None])
            manifest["truth"] = args.out + ".truth.dsmx"
        manifest.update(n=dic.n_rows, k=dic.n_cols, dict=args.dict,
                        bernoulli_p=args.bernoulli_p, snr_db=args.snr_db)
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


# -- solve ----------------------------------------------------------------


def _read_partition(dic, path):
    """Partition of `dic` from the group file `path`; an error names the file and group's line."""
    groups, weights, lines = read_group_file(path)
    try:
        return GroupPartition.build(dic, groups, weights)
    except ValueError as exc:
        where = f"{path}:{lines[exc.group]}" if isinstance(exc, GroupError) else path
        raise ValueError(f"{where}: {exc}") from None


def _load_problem(args):
    mat = read_matrix(args.dict)
    y = read_matrix(args.obs)
    if min(y.shape) != 1:
        raise ValueError(f"{args.obs}: observation must be one row or column, not {y.shape}")
    y = y.ravel()
    if args.normalize:
        col_norms, y_norm = np.linalg.norm(mat, axis=0), np.linalg.norm(y)
        zero = np.flatnonzero(col_norms == 0.0)
        if zero.size:
            raise ValueError(f"{args.dict}: column {zero[0] + 1} is zero and cannot be normalized")
        if y_norm == 0.0:
            raise ValueError(f"{args.obs}: observation is zero and cannot be normalized")
        mat, y = mat / col_norms, y / y_norm
    dic = Dictionary(mat)
    partition = _read_partition(dic, args.groups) if args.groups else None
    lam = args.lam
    if args.lambda_ratio is not None:
        lam = args.lambda_ratio * lambda_max(Problem(dic, y, 1.0, partition)).value
    return Problem(dic, y, lam, partition)


def cmd_solve(args):
    problem = _load_problem(args)
    cfg = solvers.SolverConfig(
        algorithm=args.algo,
        strategy=args.strategy,
        test=args.test,
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
    )
    try:
        cfg.validate(problem.kind)
    except ValueError as exc:
        raise SystemExit(f"invalid configuration: {exc}")
    t0 = time.perf_counter()
    res = solvers.run(problem, cfg)
    elapsed = time.perf_counter() - t0
    print(f"objective   {res.final_objective!r}")
    print(f"iterations  {res.iterations}")
    print(f"flops       {res.trace.total_flops}")
    print(f"time_s      {elapsed:.6f}")
    print(f"screened    {res.screened_fraction:.4f}")
    print(f"nonzeros    {int(np.count_nonzero(res.x_star))}")
    if args.trace:
        opts = {k: v for k, v in vars(args).items() if k not in ("func", "command") and v is not None}
        res.trace.to_csv(args.trace, comment=f"screenlab solve {json.dumps(opts, sort_keys=True)}")
        print(f"trace -> {args.trace}")
    return 0


# -- bench ----------------------------------------------------------------


def _bench_data(plan, seed):
    spec = datagen.GenSpec(kind=plan.dict_kind, n=plan.n, k=plan.k, seed=seed)
    dic = datagen.gen_dictionary(spec)
    if plan.problem == "lasso":
        obs_kind = plan.dict_kind if plan.dict_kind != datagen.DCT else datagen.UNIT_SPHERE_OBS
        obs_spec = datagen.GenSpec(kind=obs_kind, n=plan.n, k=plan.k, seed=seed)
        y = datagen.gen_observation(obs_spec, dic).y
        partition = None
    else:
        partition = datagen.random_partition(dic, plan.group_size, seed)
        obs_spec = datagen.GenSpec(kind=datagen.BERNOULLI_GAUSSIAN_OBS, n=plan.n, k=plan.k, seed=seed)
        y = datagen.gen_observation(obs_spec, dic, partition).y
    return dic, y, partition


def _bench_seed(plan, seed):
    dic, y, partition = _bench_data(plan, seed)
    lmax = lambda_max(Problem(dic, y, 1.0, partition)).value
    configs = plan.configs()
    rows = []
    for ratio in plan.lambda_ratios:
        problem = Problem(dic, y, ratio * lmax, partition)
        for cfg in configs:
            t0 = time.perf_counter()
            res = solvers.run(problem, cfg)
            elapsed = time.perf_counter() - t0
            rows.append(
                (
                    seed,
                    cfg.algorithm,
                    cfg.strategy,
                    cfg.test or "-",
                    ratio,
                    res.iterations,
                    res.trace.total_flops,
                    elapsed,
                    res.final_objective,
                    res.screened_fraction,
                )
            )
    return rows


def run_bench(plan, out_path, parallel=False):
    plan.validate()
    rows = []
    if parallel:
        with ProcessPoolExecutor() as pool:
            for chunk in pool.map(_bench_seed, itertools.repeat(plan), plan.seeds):
                rows.extend(chunk)
    else:
        for seed in plan.seeds:
            rows.extend(_bench_seed(plan, seed))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4]))
    instrument.write_csv(out_path, [f"screenlab bench config={plan.to_json()}"], BENCH_HEADER, rows)
    return len(rows)


def cmd_bench(args):
    repeats = args.repeats
    if args.preset == "paper-desk":
        # the preset is the bench defaults over 30 seeds; it takes no other grid
        defaults = build_parser().parse_args(["bench", "--preset", args.preset, "--out", args.out])
        fixed = [f"--{name.replace('_', '-')}" for name, value in vars(args).items()
                 if name != "parallel" and value != getattr(defaults, name)]
        if fixed:
            raise SystemExit(f"invalid plan: --preset {args.preset} fixes the grid, "
                             f"so {', '.join(fixed)} cannot be given")
        repeats = 30
    plan = BenchPlan(
        problem=args.problem,
        dict_kind=args.dict_kind,
        n=args.n,
        k=args.k,
        group_size=args.group_size,
        lambda_ratios=_float_list(args.ratios),
        algorithms=_csv_list(args.algos),
        strategies=_csv_list(args.strategies),
        tests=_csv_list(args.tests) if args.tests else [],
        seeds=_int_list(args.seeds) if args.seeds else list(range(repeats)),
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
    )
    try:
        n_rows = run_bench(plan, args.out, parallel=args.parallel)
    except ValueError as exc:
        raise SystemExit(f"invalid plan: {exc}")
    print(f"wrote {n_rows} rows -> {args.out}")
    return 0


# -- report ---------------------------------------------------------------


def _read_bench(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        if reader.fieldnames is None or "seed" not in reader.fieldnames:
            raise ValueError(f"{path}: not a bench CSV")
        for rec in reader:
            try:
                rows.append(
                    {
                        "seed": int(rec["seed"]),
                        "algo": rec["algo"],
                        "strategy": rec["strategy"],
                        "test": rec["test"],
                        "lambda_ratio": float(rec["lambda_ratio"]),
                        "flops": int(rec["flops"]),
                        "time_s": float(rec["time_s"]),
                    }
                )
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}: malformed row {rec!r}") from exc
    return rows


def aggregate_report(rows):
    """Normalize each screened run by its plain baseline, then aggregate.

    Each (seed, algo, strategy, test, ratio) must occur once, so that every
    screened run has one plain baseline on its own instance. Returns report
    rows keyed by (algo, strategy, test, ratio), each holding the 25/50/75
    percentiles of the flop and time ratios. This is the one place the
    normalized ratios are computed.
    """
    baselines, seen = {}, set()
    for r in rows:
        run = (r["seed"], r["algo"], r["strategy"], r["test"], r["lambda_ratio"])
        if run in seen:
            raise ValueError(
                "repeated run for seed={} algo={} strategy={} test={} ratio={}".format(*run)
            )
        seen.add(run)
        if r["strategy"] == instrument.NONE:
            if not (r["flops"] > 0 and r["time_s"] > 0):
                raise ValueError(
                    f"baseline run for seed={r['seed']} algo={r['algo']} ratio={r['lambda_ratio']}"
                    f" needs positive flops and time_s, not {r['flops']} and {r['time_s']}"
                )
            baselines[(r["seed"], r["algo"], r["lambda_ratio"])] = r
    out = {}
    for r in rows:
        if r["strategy"] == instrument.NONE:
            continue
        base = baselines.get((r["seed"], r["algo"], r["lambda_ratio"]))
        if base is None:
            raise ValueError(
                f"no baseline run for seed={r['seed']} algo={r['algo']} ratio={r['lambda_ratio']}"
            )
        key = (r["algo"], r["strategy"], r["test"], r["lambda_ratio"])
        entry = out.setdefault(key, {"flops": [], "time": []})
        entry["flops"].append(r["flops"] / base["flops"])
        entry["time"].append(r["time_s"] / base["time_s"])
    report = []
    for key in sorted(out):
        samples = out[key]
        fl = np.percentile(samples["flops"], [25, 50, 75])
        tm = np.percentile(samples["time"], [25, 50, 75])
        report.append(
            {
                "algo": key[0],
                "strategy": key[1],
                "test": key[2],
                "lambda_ratio": key[3],
                "n": len(samples["flops"]),
                "flops_ratio_p25": float(fl[0]),
                "flops_ratio_med": float(fl[1]),
                "flops_ratio_p75": float(fl[2]),
                "time_ratio_p25": float(tm[0]),
                "time_ratio_med": float(tm[1]),
                "time_ratio_p75": float(tm[2]),
            }
        )
    return report


def render_svg(series, title="", xlabel="", ylabel="", width=640, height=420):
    """Render line series as a small standalone SVG chart.

    `series` maps labels to (xs, ys) pairs; axes are scaled to the data with a
    horizontal reference line at 1.0 when it falls inside the range.
    """
    margin = 56
    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [y for _, ys in series.values() for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all + [0.0]), max(ys_all + [1.0])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    palette = ["#1f6fb2", "#d1495b", "#3f7d20", "#8338ec", "#f18f01", "#444444"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="20" text-anchor="middle" font-size="14">{escape(title)}</text>',
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height-margin}" stroke="black"/>',
        f'<text x="{width/2:.1f}" y="{height-12}" text-anchor="middle">{escape(xlabel)}</text>',
        f'<text x="16" y="{height/2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {height/2:.1f})">{escape(ylabel)}</text>',
    ]
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        yv = y_lo + i * (y_hi - y_lo) / 4
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height-margin+16}" text-anchor="middle">{xv:.2f}</text>'
        )
        parts.append(
            f'<text x="{margin-6}" y="{sy(yv)+4:.1f}" text-anchor="end">{yv:.2f}</text>'
        )
    if y_lo <= 1.0 <= y_hi:
        parts.append(
            f'<line x1="{margin}" y1="{sy(1.0):.1f}" x2="{width-margin}" y2="{sy(1.0):.1f}" '
            'stroke="#999999" stroke-dasharray="4,4"/>'
        )
    for i, (label, (xs, ys)) in enumerate(sorted(series.items())):
        color = palette[i % len(palette)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        ly = margin + 16 * i
        parts.append(f'<line x1="{width-margin-150}" y1="{ly}" x2="{width-margin-126}" y2="{ly}" stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{width-margin-120}" y="{ly+4}">{escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_report(args):
    try:
        rows = _read_bench(args.input)
        report = aggregate_report(rows)
    except ValueError as exc:
        raise SystemExit(f"report failed: {exc}")
    columns = REPORT_HEADER.split(",")
    instrument.write_csv(args.out, [f"screenlab report source={args.input}"], REPORT_HEADER,
                         ([r[c] for c in columns] for r in report))
    if args.svg:
        metric = "flops_ratio_med" if args.metric == "flops" else "time_ratio_med"
        series = {}
        for r in report:
            label = f"{r['algo']}/{r['strategy']}/{r['test']}"
            xs, ys = series.setdefault(label, ([], []))
            xs.append(r["lambda_ratio"])
            ys.append(r[metric])
        svg = render_svg(
            series,
            title=f"normalized {args.metric} (median)",
            xlabel="lambda / lambda_max",
            ylabel=f"{args.metric} ratio vs plain run",
        )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    print(f"wrote {len(report)} report rows -> {args.out}")
    return 0


# -- parser ---------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="screenlab",
        description="Sparse regression solvers with safe dynamic screening.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate dictionaries, observations, or group files")
    g.add_argument("--kind", required=True, choices=_GEN_KINDS)
    g.add_argument("--n", type=int, default=0)
    g.add_argument("--k", type=int, default=0)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True)
    g.add_argument("--dict", default=None, help="dictionary file for observation kinds")
    g.add_argument("--groups", default=None, help="group file for planted observations")
    g.add_argument("--group-size", type=int, default=0)
    g.add_argument("--bernoulli-p", type=float, default=0.05)
    g.add_argument("--snr-db", type=float, default=20.0)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve one problem instance from files")
    s.add_argument("--dict", required=True)
    s.add_argument("--obs", required=True)
    s.add_argument("--groups", default=None)
    penalty = s.add_mutually_exclusive_group(required=True)
    penalty.add_argument("--lam", type=float, default=None)
    penalty.add_argument("--lambda-ratio", type=float, default=None)
    s.add_argument("--algo", default="fista", choices=list(solvers.ALGORITHMS))
    s.add_argument("--strategy", default="none", choices=list(instrument.STRATEGIES))
    s.add_argument("--test", default=None, choices=list(screening.ALL_TESTS))
    s.add_argument("--max-iters", type=int, default=200)
    s.add_argument("--rel-tol", type=float, default=1e-7)
    s.add_argument("--trace", default=None)
    s.add_argument("--normalize", action="store_true", help="rescale columns and observation to unit norm")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="run a benchmark sweep to CSV")
    b.add_argument("--preset", default=None, choices=["paper-desk"])
    b.add_argument("--problem", default="lasso", choices=["lasso", "group"])
    b.add_argument("--dict-kind", default="pnoise", choices=list(datagen.DICT_KINDS))
    b.add_argument("--n", type=int, default=200)
    b.add_argument("--k", type=int, default=1000)
    b.add_argument("--group-size", type=int, default=0)
    b.add_argument("--algos", default="fista")
    b.add_argument("--strategies", default="none,static,dynamic")
    b.add_argument("--tests", default="dst3")
    b.add_argument("--ratios", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    b.add_argument("--seeds", default=None, help="comma-separated seed list")
    b.add_argument("--repeats", type=int, default=1, help="seeds 0..repeats-1 when --seeds absent")
    b.add_argument("--max-iters", type=int, default=200)
    b.add_argument("--rel-tol", type=float, default=1e-7)
    b.add_argument("--parallel", action="store_true", help="run seeds concurrently (timings contend)")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)

    r = sub.add_parser("report", help="aggregate a bench CSV into medians and percentiles")
    r.add_argument("--input", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--svg", default=None)
    r.add_argument("--metric", default="flops", choices=["flops", "time"])
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
