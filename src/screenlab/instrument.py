"""Analytic flop accounting, per-iteration run traces, and the CSV writer.

The paper's normalized flop and time ratios are not computed here: they come
from `screenlab bench` rows, aggregated by `cli.aggregate_report`.
"""

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
    dual scaling, radius, and per-atom test evaluations. The code multiplies
    at the support this model charges: `Dictionary.apply` gathers only the
    columns of the nonzero coefficients while they are few. `kept_count`
    and `sparsity` may also be sequences, one entry per iteration, and the
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
    """Cheap fingerprint of a problem instance, written into each trace's config line."""
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

    def to_csv(self, path, comment=None):
        """Write the trace to the CSV file at `path` under `TRACE_HEADER`.

        The file opens with a `#` line holding `comment`, when given, and a
        `#` line with `config_line()`.
        """
        rows = zip(self.t, self.kept, self.sparsity, self.objective, self.flops_cum, self.seconds)
        write_csv(path, [comment, self.config_line()] if comment else [self.config_line()],
                  TRACE_HEADER, rows)


def write_csv(path, comments, header, rows):
    """Write a CSV file: one `# ` line per comment, then `header`, then `rows`.

    This is the one writer of the trace, bench and report files. Fields are
    quoted as the `csv` module's default dialect quotes them, floats are
    written with `repr`, and lines end in `\\n`.
    """
    import csv  # here, not at the top: a solve never writes a CSV file

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {comment}\n" for comment in comments)
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)
