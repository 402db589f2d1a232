"""Analytic flop accounting and per-iteration run traces."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .problems import GROUP, LASSO

NONE = "none"
STATIC = "static"
DYNAMIC = "dynamic"
STRATEGIES = (NONE, STATIC, DYNAMIC)

TRACE_HEADER = "t,kept,sparsity,objective,flops_cum,seconds"


def flops_iteration(kind, strategy, k, n, kept_count, sparsity, group_count=0):
    """Estimated flop count of one solver iteration.

    The estimate covers the gradient computation (exploiting iterate
    sparsity) and the proximal step; for the dynamic strategy it adds the
    dual scaling, radius, and per-atom test evaluations. `kept_count` and
    `sparsity` may also be sequences, one entry per iteration, and the
    result is then the array of per-iteration counts.
    """
    if kind not in (LASSO, GROUP):
        raise ValueError(f"unknown problem kind {kind!r}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    k, n, group_count = int(k), int(n), int(group_count)
    kept_count = np.asarray(kept_count, dtype=np.int64)
    sparsity = np.asarray(sparsity, dtype=np.int64)
    if min(k, n, group_count) < 0 or np.any(kept_count < 0) or np.any(sparsity < 0):
        raise ValueError("counts must be nonnegative")
    if strategy == NONE:
        kept_count = k
    base = (kept_count + sparsity) * n
    if strategy in (NONE, STATIC):
        total = base + 4 * kept_count + n
        if kind == GROUP:
            total += 3 * group_count
    else:
        if kind == LASSO:
            total = base + 6 * kept_count + 5 * n
        else:
            total = base + 7 * kept_count + 5 * n + 5 * group_count
    return int(total) if np.ndim(total) == 0 else total


def flops_static_init(k, n):
    """One-off cost of the screen-once initialization (a full correlation pass)."""
    k, n = int(k), int(n)
    if k < 0 or n < 0:
        raise ValueError("counts must be nonnegative")
    return k * n


def problem_digest(problem):
    """Cheap fingerprint used to confirm traces came from identical instances."""
    h = hashlib.blake2b(digest_size=12)
    d = problem.dictionary.data
    h.update(struct.pack("<QQd", d.shape[0], d.shape[1], problem.lam))
    h.update(np.ascontiguousarray(problem.y).tobytes())
    h.update(np.ascontiguousarray(d[:, 0]).tobytes())
    h.update(np.ascontiguousarray(d[:, -1]).tobytes())
    if problem.partition is not None:
        h.update(problem.partition.group_of.tobytes())
        h.update(problem.partition.weights.tobytes())
    return h.hexdigest()


@dataclass
class SolveTrace:
    """Per-iteration record of one solver run.

    Columns: iteration, surviving column count, iterate sparsity, objective,
    cumulative estimated flops (including any static initialization), and
    elapsed wall seconds since the run started.
    """

    kind: str
    strategy: str
    n_rows: int
    n_cols: int
    group_count: int
    lam: float
    digest: str = ""
    init_flops: int = 0
    t: list = field(default_factory=list)
    kept: list = field(default_factory=list)
    sparsity: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    flops_cum: list = field(default_factory=list)
    seconds: list = field(default_factory=list)

    def append(self, t, kept, sparsity, objective, flops_cum, seconds):
        self.t.append(int(t))
        self.kept.append(int(kept))
        self.sparsity.append(int(sparsity))
        self.objective.append(float(objective))
        self.flops_cum.append(int(flops_cum))
        self.seconds.append(float(seconds))

    @property
    def iterations(self):
        return len(self.t)

    @property
    def total_flops(self):
        return self.flops_cum[-1] if self.flops_cum else self.init_flops

    @property
    def total_seconds(self):
        return self.seconds[-1] if self.seconds else 0.0

    def recompute_flops(self):
        """Re-derive the cumulative flop column from the kept/sparsity columns."""
        per = flops_iteration(
            self.kind, self.strategy, self.n_cols, self.n_rows, self.kept, self.sparsity,
            self.group_count,
        )
        return (self.init_flops + np.cumsum(per, dtype=np.int64)).tolist()

    def config_line(self):
        return (
            f"kind={self.kind} strategy={self.strategy} n={self.n_rows} k={self.n_cols} "
            f"groups={self.group_count} lam={self.lam!r} digest={self.digest}"
        )

    def to_csv(self, path_or_file, comment=None):
        close = False
        if hasattr(path_or_file, "write"):
            fh = path_or_file
        else:
            fh = open(path_or_file, "w", encoding="utf-8")
            close = True
        try:
            if comment:
                fh.write(f"# {comment}\n")
            fh.write(f"# {self.config_line()}\n")
            fh.write(TRACE_HEADER + "\n")
            for row in zip(self.t, self.kept, self.sparsity, self.objective, self.flops_cum, self.seconds):
                fh.write("{},{},{},{!r},{},{!r}\n".format(*row))
        finally:
            if close:
                fh.close()


@dataclass(frozen=True)
class NormalizedMetrics:
    """Flop and wall-time ratios of the screened strategies over the plain run."""

    flops_static_ratio: float
    flops_dynamic_ratio: float
    time_static_ratio: float
    time_dynamic_ratio: float


def _check_same_instance(a, b):
    keys = ("kind", "n_rows", "n_cols", "group_count", "lam", "digest")
    for key in keys:
        if getattr(a, key) != getattr(b, key):
            raise ValueError(f"traces come from different instances ({key} differs)")


def normalized_metrics(trace_none, trace_static, trace_dynamic):
    """Normalized flops and times for a (plain, static, dynamic) trace triple.

    All three traces must come from the same problem instance; the plain run
    provides the denominators.
    """
    if trace_none.strategy != NONE or trace_static.strategy != STATIC or trace_dynamic.strategy != DYNAMIC:
        raise ValueError("expected traces for the none, static, and dynamic strategies in order")
    _check_same_instance(trace_none, trace_static)
    _check_same_instance(trace_none, trace_dynamic)
    base_flops = trace_none.total_flops
    base_time = trace_none.total_seconds
    if base_flops <= 0 or base_time <= 0:
        raise ValueError("baseline run is degenerate (zero flops or time)")
    return NormalizedMetrics(
        flops_static_ratio=trace_static.total_flops / base_flops,
        flops_dynamic_ratio=trace_dynamic.total_flops / base_flops,
        time_static_ratio=trace_static.total_seconds / base_time,
        time_dynamic_ratio=trace_dynamic.total_seconds / base_time,
    )
