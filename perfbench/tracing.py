"""Spans around the library's module functions, recorded from outside the library.

`Tracer.install` replaces the functions named in `TRACED` with wrappers, in
the namespaces their callers look them up in, and `uninstall` puts the
originals back. While the tracer is enabled each wrapped call records a span
(id, parent id, name, start, end) in memory and adds its self time (its
duration minus the time its child spans cover) and one call to its name's
totals. A call made directly inside a span of the same name is part of that
span, not a child: a live-column product calls the packed dictionary's
product, and a composite sphere test calls itself on its base sphere.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from screenlab import datagen, dictionary, instrument, problems, screening, solvers

APPLY = "dictionary.apply"
CORRELATE = "dictionary.correlate"
REPACK = "dictionary.repack"
OPNORM = "dictionary.opnorm"
PARTITION_BUILD = "dictionary.partition_build"
LAYOUT = "dictionary.layout"
GEN = "datagen.gen"
PROX = "problems.prox"
LAMBDA_MAX = "problems.lambda_max"
CONTEXT = "screening.context"
REGION = "screening.region"
TEST = "screening.test"
UPDATE_SCREEN = "screening.update"
RUN = "solvers.run"
UPDATE = "solvers.update"
TRACE = "instrument.trace"

# (owner, attribute, span name): every function the traced run wraps. The
# owner is the module or class the callers look the name up in.
TRACED = (
    (dictionary.Dictionary, "apply", APPLY),
    (dictionary.Dictionary, "correlate", CORRELATE),
    (solvers._LiveColumns, "apply", APPLY),
    (solvers._LiveColumns, "correlate", CORRELATE),
    (dictionary.Dictionary, "reduce", REPACK),
    (solvers, "_reduce_dic", REPACK),
    (solvers, "operator_norm", OPNORM),
    (dictionary.GroupPartition, "build", PARTITION_BUILD),
    (dictionary.GroupPartition, "layout", LAYOUT),
    (datagen, "gen_dictionary", GEN),
    (datagen, "gen_observation", GEN),
    (datagen, "random_partition", GEN),
    (solvers, "prox_l1", PROX),
    (dictionary.GroupLayout, "prox", PROX),
    (problems, "lambda_max", LAMBDA_MAX),
    (solvers, "lambda_max", LAMBDA_MAX),
    (screening, "lambda_max", LAMBDA_MAX),
    (screening.ScreeningContext, "__init__", CONTEXT),
    (screening.ScreeningContext, "region", REGION),
    (screening.ScreeningContext, "static_region", REGION),
    (screening, "test_sphere_lasso", TEST),
    (screening, "test_dome", TEST),
    (screening, "test_sphere_group", TEST),
    (screening, "group_mask_to_index_mask", TEST),
    (screening, "screen_update", UPDATE_SCREEN),
    (solvers, "run", RUN),
    (solvers, "flops_iteration", TRACE),
    (solvers, "flops_static_init", TRACE),
    (solvers, "problem_digest", TRACE),
    (instrument.SolveTrace, "append", TRACE),
)


class Tracer:
    """In-memory span recorder with per-name self time and call counts."""

    def __init__(self):
        self.enabled = False
        self._stack = []  # open spans: [id, name, start, seconds covered by children]
        self._saved = []
        self._saved_updates = {}
        self.reset()

    def reset(self):
        """Drop the recorded spans and totals."""
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.repack_count = 0
        self.repack_bytes = 0
        self._next_id = 0

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not tracer.enabled or (stack and stack[-1][1] == name):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [tracer._next_id, name, time.perf_counter(), 0.0]
            tracer._next_id += 1
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[2]
                tracer.self_s[name] += duration - frame[3]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][3] += duration
                tracer.spans.append((frame[0], parent, name, frame[2], end))
            if name == REPACK:
                tracer._count_copy(args[0], out)
            return out

        return traced

    def _count_copy(self, source, out):
        # a repack that copied columns returns a new packed Dictionary; one that
        # only dropped positions returns a live-column view or its input
        if isinstance(out, dictionary.Dictionary) and out is not source:
            self.repack_count += 1
            self.repack_bytes += out.data.nbytes

    def install(self):
        """Replace every function in `TRACED` with its traced wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TRACED:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        self._saved_updates = dict(solvers._UPDATES)
        for algo, fn in self._saved_updates.items():
            solvers._UPDATES[algo] = self._wrap(UPDATE, fn)

    def uninstall(self):
        """Put back every function `install` replaced."""
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        solvers._UPDATES.update(self._saved_updates)

    def write_spans(self, path):
        """Write the recorded spans as CSV: id, parent id, name, start and end seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(f"{sid},{parent},{name},{start!r},{end!r}\n")
