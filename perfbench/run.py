#!/usr/bin/env python3
"""screenlab benchmark: solve seconds per screening strategy, set-up time and memory.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

The run works in passes until `--seconds` have gone by. Each pass builds
fresh problems from the seed and the pass number, computes a certified
reference solution for each, and solves every problem under every
configuration of the workload. Each solve is checked against its reference
outside the timed region. Times are scaled to a nominal machine speed by a
calibration kernel timed around every solve (calibrate.py), and each metric
is a median over passes. The last line of standard output is one JSON
object: with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.
perfbench/README.md describes the workloads and the metrics.
"""

import os

# One BLAS thread, set before numpy loads: the load comes from this process
# alone, and with one thread iteration and flop counts repeat exactly.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import screenlab  # noqa: E402
from screenlab import solvers  # noqa: E402

if not Path(screenlab.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"screenlab was imported from {screenlab.__file__}, not from {ROOT / 'src'}")

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import DYNAMIC, NONE, STATIC, STRATEGIES  # noqa: E402

MIN_PASSES = 3
# marks the line of an untraced run's output that holds the medians of the
# wall seconds before scaling, as JSON
UNSCALED = "unscaled wall seconds"
SPANS_DIR = ROOT / "perfbench" / "out"

E2E_UNITS = {
    "solve_s.none": "s",
    "solve_s.static": "s",
    "solve_s.dynamic": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit. A traced run reports the metrics in seconds as
# medians over its traced rounds; the others repeat exactly, and come from
# the first round.
LAYER_UNITS = {
    "datagen.gen_s": "s",
    "dictionary.apply_s": "s",
    "dictionary.apply_calls": "count",
    "dictionary.correlate_s": "s",
    "dictionary.correlate_calls": "count",
    "dictionary.repack_s": "s",
    "dictionary.repack_count": "count",
    "dictionary.repack_mb": "MB",
    "dictionary.opnorm_s": "s",
    "dictionary.opnorm_calls": "count",
    "dictionary.partition_build_s": "s",
    "dictionary.layout_s": "s",
    "dictionary.layout_calls": "count",
    "problems.prox_s": "s",
    "problems.lambda_max_s": "s",
    "screening.context_s": "s",
    "screening.region_s": "s",
    "screening.test_s": "s",
    "screening.update_s": "s",
    "screening.kept_col_iters.static": "count",
    "screening.kept_col_iters.dynamic": "count",
    "solvers.run_self_s": "s",
    "solvers.update_self_s": "s",
    "solvers.iters.none": "count",
    "solvers.iters.static": "count",
    "solvers.iters.dynamic": "count",
    "solvers.products_per_iter": "1/iter",
    "instrument.mflops.none": "Mflop",
    "instrument.mflops.static": "Mflop",
    "instrument.mflops.dynamic": "Mflop",
    "instrument.trace_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclass(frozen=True)
class SolveRecord:
    """What the benchmark keeps of one checked solve."""

    instance: int
    config: int
    strategy: str
    seconds: float  # wall seconds
    scaled: float  # wall seconds scaled to the nominal machine speed
    iterations: int
    flops: int
    kept_col_iters: int


class Tally:
    """Solves attempted, failed (raised or failed a check), and failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0

    def fail(self, what, detail, incorrect):
        self.failed += 1
        self.incorrect += int(incorrect)
        print(f"FAILED {what}: {detail}", file=sys.stderr)


def warm_up(workload):
    """One untimed solve per configuration on the toy-size workload: loads BLAS and warms the interpreter."""
    toy = workloads.build(workload.toy(), 0, 0)[0].problem
    for cfg in workload.configs():
        solvers.run(toy, cfg)


def references(instances):
    """Certified reference of every instance, and how many came from each source."""
    refs, sources = [], Counter()
    for inst in instances:
        ref, source = checks.reference(inst.problem)
        refs.append(ref)
        sources[source] += 1
    return refs, sources


def calibrator(workload):
    return calibrate.Calibrator(workload.n, workload.k, workload.calibration_s)


def run_pass(workload, instances, refs, tally, cal):
    """Solve every instance under every configuration once; check each solve untimed.

    The calibrator `cal` is timed before every solve and after the last one.
    """
    records = []
    cal_before = cal.probe()
    # only runs to a tolerance must stop before their iteration budget
    budget = workload.max_iters if workload.objective_rtol is not None else None
    configs = workload.configs()
    for i, (inst, ref) in enumerate(zip(instances, refs)):
        for j, cfg in enumerate(configs):
            what = (
                f"{workload.name} data_seed={inst.data_seed} ratio={inst.ratio} "
                f"{cfg.algorithm}/{cfg.strategy}/{cfg.test}"
            )
            tally.attempted += 1
            try:
                t0 = time.perf_counter()
                res = solvers.run(inst.problem, cfg)
                seconds = time.perf_counter() - t0
            except Exception:  # a solve that raises is a failed operation; the run goes on
                tally.fail(what, traceback.format_exc(), incorrect=False)
                cal_before = cal.probe()
                continue
            cal_after = cal.probe()
            scaled = cal.scale(seconds, cal_before, cal_after)
            cal_before = cal_after
            bad = checks.check_solve(
                inst.problem, ref, res, workload.objective_rtol, budget, workload.closed_share
            )
            if bad:
                tally.fail(what, ",".join(bad), incorrect=True)
            records.append(
                SolveRecord(
                    i, j, cfg.strategy, seconds, scaled, res.iterations, res.trace.total_flops,
                    sum(res.trace.kept),
                )
            )
    return records


def strategy_totals(records, field):
    out = dict.fromkeys(STRATEGIES, 0)
    for r in records:
        out[r.strategy] += getattr(r, field)
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@dataclass
class Measurement:
    """What an untraced run measured.

    `setup` and `setup_scaled` hold each pass's set-up seconds, wall and
    scaled; `passes` one list of `SolveRecord` per pass; `sources` how many
    references came from each source; `base_rss_mb` the process's peak
    resident memory once the imports, the warm-up and the calibrator were in
    place, and `peak_rss_mb` its peak at the end.
    """

    setup: list
    setup_scaled: list
    passes: list
    sources: Counter
    base_rss_mb: float
    peak_rss_mb: float = 0.0


def measure(workload, seed, seconds, tally):
    """Untraced run: checked passes over fresh problems for at least `seconds`."""
    warm_up(workload)
    cal = calibrator(workload)
    m = Measurement([], [], [], Counter(), peak_rss_mb())
    t_end = time.perf_counter() + seconds
    while len(m.passes) < MIN_PASSES or time.perf_counter() < t_end:
        cal_before = cal.probe()
        t0 = time.perf_counter()
        instances = workloads.build(workload, seed, len(m.passes))
        setup = time.perf_counter() - t0
        m.setup.append(setup)
        m.setup_scaled.append(cal.scale(setup, cal_before, cal.probe()))
        refs, pass_sources = references(instances)
        m.sources.update(pass_sources)
        m.passes.append(run_pass(workload, instances, refs, tally, cal))
        instances = refs = None  # freed before the next pass builds its problems
    m.peak_rss_mb = peak_rss_mb()
    return m


def e2e_metrics(m, field="scaled"):
    """End-to-end metrics of a measurement; field="seconds" gives wall instead of scaled times."""
    totals = [strategy_totals(p, field) for p in m.passes]
    out = {f"solve_s.{s}": statistics.median(t[s] for t in totals) for s in STRATEGIES}
    out["setup_s"] = statistics.median(m.setup_scaled if field == "scaled" else m.setup)
    out["peak_rss_mb"] = m.peak_rss_mb
    return out


def layer_metrics(tracer, records, solve_calls):
    """Per-layer figures of one traced round: a traced build plus a traced pass."""
    s, c = tracer.self_s, tracer.calls
    iters = strategy_totals(records, "iterations")
    flops = strategy_totals(records, "flops")
    kept = strategy_totals(records, "kept_col_iters")
    products = solve_calls[tracing.APPLY] + solve_calls[tracing.CORRELATE]
    return {
        "datagen.gen_s": s[tracing.GEN],
        "dictionary.apply_s": s[tracing.APPLY],
        "dictionary.apply_calls": c[tracing.APPLY],
        "dictionary.correlate_s": s[tracing.CORRELATE],
        "dictionary.correlate_calls": c[tracing.CORRELATE],
        "dictionary.repack_s": s[tracing.REPACK],
        "dictionary.repack_count": tracer.repack_count,
        "dictionary.repack_mb": tracer.repack_bytes / 1e6,
        "dictionary.opnorm_s": s[tracing.OPNORM],
        "dictionary.opnorm_calls": c[tracing.OPNORM],
        "dictionary.partition_build_s": s[tracing.PARTITION_BUILD],
        "dictionary.layout_s": s[tracing.LAYOUT],
        "dictionary.layout_calls": c[tracing.LAYOUT],
        "problems.prox_s": s[tracing.PROX],
        "problems.lambda_max_s": s[tracing.LAMBDA_MAX],
        "screening.context_s": s[tracing.CONTEXT],
        "screening.region_s": s[tracing.REGION],
        "screening.test_s": s[tracing.TEST],
        "screening.update_s": s[tracing.UPDATE_SCREEN],
        "screening.kept_col_iters.static": kept[STATIC],
        "screening.kept_col_iters.dynamic": kept[DYNAMIC],
        "solvers.run_self_s": s[tracing.RUN],
        "solvers.update_self_s": s[tracing.UPDATE],
        "solvers.iters.none": iters[NONE],
        "solvers.iters.static": iters[STATIC],
        "solvers.iters.dynamic": iters[DYNAMIC],
        "solvers.products_per_iter": products / max(sum(iters.values()), 1),
        "instrument.mflops.none": flops[NONE] / 1e6,
        "instrument.mflops.static": flops[STATIC] / 1e6,
        "instrument.mflops.dynamic": flops[DYNAMIC] / 1e6,
        "instrument.trace_s": s[tracing.TRACE],
        "trace.spans": len(tracer.spans),
    }


def measure_traced(workload, seed, seconds, tally, spans_path):
    """Traced run: untraced passes alternate with traced rounds for at least `seconds`.

    Every pass and round works on the problems of the run's first pass. A
    traced round builds them and runs one pass with every function of
    `tracing.TRACED` wrapped; the untraced passes run with the originals in
    place, so `trace.overhead_s` holds the whole cost of the wrappers. Time
    metrics are medians over the rounds;
    count metrics come from the first round, and a round whose counts differ
    from it is reported on standard error. The spans of the last round are
    written to `spans_path`, unless it is None.
    """
    warm_up(workload)
    instances = workloads.build(workload, seed, 0)
    refs, _ = references(instances)
    cal = calibrator(workload)
    tracer = tracing.Tracer()
    rounds, untraced, traced = [], [], []
    t_end = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < t_end:
        untraced.append(sum(r.seconds for r in run_pass(workload, instances, refs, tally, cal)))
        tracer.reset()
        tracer.install()
        tracer.enabled = True
        try:
            traced_instances = workloads.build(workload, seed, 0)
            before = Counter(tracer.calls)
            records = run_pass(workload, traced_instances, refs, tally, cal)
            solve_calls = tracer.calls - before
        finally:
            tracer.enabled = False
            tracer.uninstall()
        traced.append(sum(r.seconds for r in records))
        rounds.append(layer_metrics(tracer, records, solve_calls))
    if spans_path is not None:
        tracer.write_spans(spans_path)

    out = {}
    for name, value in rounds[0].items():
        if LAYER_UNITS[name] == "s":
            out[name] = statistics.median(r[name] for r in rounds)
        else:
            out[name] = value
            if any(r[name] != value for r in rounds[1:]):
                print(f"NOTE: {name} differs between traced rounds", file=sys.stderr)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload.name}-seed{args.seed}.csv"
        metrics = measure_traced(workload, args.seed, args.seconds, tally, spans_path)
        units = LAYER_UNITS
        print(f"{workload.name}: spans of the last traced round in {spans_path}")
    else:
        m = measure(workload, args.seed, args.seconds, tally)
        metrics = e2e_metrics(m)
        units = E2E_UNITS
        print(
            f"{workload.name} seed={args.seed}: {len(m.passes)} passes, references "
            + ", ".join(f"{n} by {src}" for src, n in sorted(m.sources.items()))
        )
        wall = e2e_metrics(m, "seconds")
        print(f"{workload.name}: {UNSCALED} " + json.dumps({n: wall[n] for n in units if units[n] == "s"}))
        print(
            f"{workload.name}: peak resident memory {m.peak_rss_mb:.2f} MB, "
            f"{m.base_rss_mb:.2f} MB before the first pass"
        )
    print(f"{workload.name}: {tally.attempted} solves attempted, {tally.failed} failed")
    result = {
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
