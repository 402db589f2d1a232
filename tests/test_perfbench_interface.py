"""The benchmark in `perfbench/` wraps library functions by name; keep those names alive.

`perfbench/tracing.py` looks up every entry of its `TRACED` table with
``vars(owner)[attr]`` and swaps in a timing wrapper. A refactor that removes
or renames one of those functions breaks the traced benchmark run, so this
check installs and uninstalls the tracer, and runs one traced dynamic solve
of each penalty in between.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import screenlab as sl
from screenlab import solvers
from conftest import make_group, make_lasso

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # leave no compiled files behind in the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracing

    return tracing


def test_tracer_installs_and_restores(tracing):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracing.TRACED]
    updates = dict(solvers._UPDATES)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, raw in originals:
            assert vars(owner)[attr] is not raw, f"{owner.__name__}.{attr} was not wrapped"
        tracer.enabled = True
        for problem, test in ((make_lasso(1), "dst3"), (make_group(1), "gst3")):
            cfg = sl.SolverConfig(algorithm="fista", strategy="dynamic", test=test, max_iters=20)
            res = solvers.run(problem, cfg)
            assert np.isfinite(res.final_objective)
    finally:
        tracer.uninstall()
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw, f"{owner.__name__}.{attr} was not restored"
    assert solvers._UPDATES == updates
    # the screening dispatch goes through the traced region and test functions
    for name in (tracing.RUN, tracing.UPDATE, tracing.REGION, tracing.TEST, tracing.APPLY):
        assert tracer.calls[name] > 0, name
