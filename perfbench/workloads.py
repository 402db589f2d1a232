"""The benchmark's workloads: which problems each one builds from its seed, and which solves it runs.

One pass of a workload generates a dictionary and an observation, and poses
one problem per penalty ratio on them. Every problem is solved once per entry
of `solves`, in order, so the strategies of one problem run back to back and
a slow spell on the machine hits all of them alike. Each pass of a run draws
fresh data from the benchmark seed and the pass number: the time to converge
varies between problems by tens of percent, so a run reports medians over
many problems rather than repeated solves of a few.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from screenlab import datagen, problems, solvers

NONE, STATIC, DYNAMIC = "none", "static", "dynamic"
STRATEGIES = (NONE, STATIC, DYNAMIC)

# Below any relative objective variation a fixed-budget run reaches, so such a
# run stops only at max_iters or on an exactly repeated objective.
FIXED_BUDGET_TOL = 1e-300


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: data family and shape, ratios, solves and stopping rule."""

    name: str
    dict_kind: str
    n: int
    k: int
    ratios: tuple
    solves: tuple  # (algorithm, strategy, test) triples, run in this order
    max_iters: int
    rel_tol: float
    obs_kind: str | None = None  # None: the observation comes from the dictionary's family
    group_size: int = 0
    # relative distance to the reference objective that every solve must reach;
    # None where a fixed iteration budget, not convergence, ends the run
    objective_rtol: float | None = None
    # share of the distance from the objective at x = 0 down to the reference
    # objective that every solve must close; for fixed-budget runs, which stop
    # short of the optimum by up to 1% relative at 200 FISTA iterations. The
    # most any 200-iteration solve left open over 300 problems per ratio was
    # 4.6% on desk and 2.1% on group.
    closed_share: float | None = None
    # generator seed of a dictionary shared by every pass and every benchmark
    # seed; None draws a fresh dictionary per pass like the observation
    fixed_dict_seed: int | None = None
    # seconds the calibration kernel (calibrate.py) took on the workload's
    # shape on the reference machine; solve and set-up seconds are reported
    # scaled to this speed
    calibration_s: float = 1.0

    def configs(self):
        """The solver configurations of `solves`, one per entry, in order."""
        return [
            solvers.SolverConfig(
                algorithm=algo,
                strategy=strategy,
                test=test,
                max_iters=self.max_iters,
                rel_tol=self.rel_tol,
            )
            for algo, strategy, test in self.solves
        ]

    def toy(self):
        """The same workload at a size that runs in a fraction of a second."""
        return replace(self, n=20, k=60, ratios=(self.ratios[0], self.ratios[-1]))


@dataclass(frozen=True)
class Instance:
    """One posed problem, tagged with the generator seed and the penalty ratio it came from."""

    data_seed: int
    ratio: float
    problem: problems.Problem


def data_seed(seed, pass_index):
    """Generator seed of pass `pass_index` of a run with benchmark seed `seed`."""
    return int(np.random.SeedSequence((int(seed), int(pass_index))).generate_state(1)[0])


def build(workload, seed, pass_index):
    """Generate the problems of one pass: the set-up the benchmark times.

    That is data generation, the dictionary, the group partition, the
    problems and their trivial-solution threshold. Every call goes through
    the module attribute, so the traced run sees it.
    """
    s = data_seed(seed, pass_index)
    dict_seed = s if workload.fixed_dict_seed is None else workload.fixed_dict_seed
    spec = datagen.GenSpec(kind=workload.dict_kind, n=workload.n, k=workload.k, seed=dict_seed)
    dic = datagen.gen_dictionary(spec)
    partition = datagen.random_partition(dic, workload.group_size, s) if workload.group_size else None
    obs_kind = workload.dict_kind if workload.obs_kind is None else workload.obs_kind
    y = datagen.gen_observation(replace(spec, kind=obs_kind, seed=s), dic, partition).y
    lmax = problems.lambda_max(problems.Problem(dic, y, 1.0, partition)).value
    return [
        Instance(s, ratio, problems.Problem(dic, y, ratio * lmax, partition))
        for ratio in workload.ratios
    ]


def _triples(algos, strategies_tests):
    return tuple((a, s, t) for a in algos for s, t in strategies_tests)


DESK = Workload(
    name="desk",
    dict_kind=datagen.PNOISE,
    n=200,
    k=1000,
    ratios=(0.1, 0.3, 0.5, 0.7, 0.9),
    solves=_triples(("fista",), ((NONE, None), (STATIC, "dst3"), (DYNAMIC, "dst3"))),
    max_iters=200,
    rel_tol=FIXED_BUDGET_TOL,
    closed_share=0.9,
    calibration_s=0.0078,
)

WIDE = Workload(
    name="wide",
    dict_kind=datagen.GAUSSIAN,
    n=500,
    k=5000,
    ratios=(0.5, 0.75, 0.9),
    solves=_triples(
        ("ista",),
        (
            (NONE, None),
            (STATIC, "safe"),
            (DYNAMIC, "safe"),
            (STATIC, "dst3"),
            (DYNAMIC, "dst3"),
            (STATIC, "dome"),
            (DYNAMIC, "dome"),
        ),
    ),
    max_iters=5000,
    rel_tol=1e-12,
    objective_rtol=1e-6,
    calibration_s=0.153,
)

GROUP = Workload(
    name="group",
    dict_kind=datagen.PNOISE,
    n=200,
    k=1000,
    ratios=(0.3, 0.5, 0.7, 0.9),
    solves=_triples(
        ("fista",),
        (
            (NONE, None),
            (STATIC, "gsafe"),
            (DYNAMIC, "gsafe"),
            (STATIC, "gst3"),
            (DYNAMIC, "gst3"),
        ),
    ),
    max_iters=200,
    rel_tol=FIXED_BUDGET_TOL,
    obs_kind=datagen.BERNOULLI_GAUSSIAN_OBS,
    group_size=5,
    closed_share=0.9,
    calibration_s=0.0078,
)

ALGOS = Workload(
    name="algos",
    dict_kind=datagen.GAUSSIAN,
    n=300,
    k=2000,
    ratios=(0.75, 0.9),
    solves=_triples(
        ("twist", "sparsa", "cp"), ((NONE, None), (STATIC, "dst3"), (DYNAMIC, "dst3"))
    ),
    max_iters=5000,
    rel_tol=1e-12,
    objective_rtol=1e-6,
    # The power iteration in operator_norm, which TwIST and CP run inside
    # every solve and which takes most of their time, needs from 0.3 s to
    # 1.3 s depending on the dictionary's spectrum. One dictionary for all
    # passes keeps that spread out of the totals; the observations, and so
    # the problems and iteration counts, still change with every pass.
    fixed_dict_seed=0,
    calibration_s=0.035,
)

WORKLOADS = {w.name: w for w in (DESK, WIDE, GROUP, ALGOS)}
