"""The benchmark in `perfbench/` uses the library by name; keep what it uses alive.

`perfbench/tracing.py` looks up every entry of its `TRACED` table with
``vars(owner)[attr]`` and swaps in a timing wrapper. A refactor that removes
or renames one of those functions breaks the traced benchmark run, so one
check installs and uninstalls the tracer, and runs one traced dynamic solve
of each penalty in between. `perfbench/workloads.py` builds its problems and
`SolverConfig`s through the library's API, so another check builds every
workload at toy size and runs each of its solves once. A third runs
`perfbench/selftest.py` in a subprocess, which builds `ScreenState`s by
keyword and reads a run's screened set.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import screenlab as sl
from screenlab import solvers
from conftest import make_group, make_lasso

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Puts `perfbench/` on the import path; returns `importlib.import_module`."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # leave no compiled files behind in the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module


def test_tracer_installs_and_restores(perfbench):
    tracing = perfbench("tracing")
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracing.TRACED]
    updates = dict(solvers._UPDATES)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, raw in originals:
            assert vars(owner)[attr] is not raw, f"{owner.__name__}.{attr} was not wrapped"
        tracer.enabled = True
        for problem, test in ((make_lasso(1), "dst3"), (make_group(1), "gst3")):
            before = dict(tracer.calls)
            cfg = sl.SolverConfig(algorithm="fista", strategy="dynamic", test=test, max_iters=20)
            res = solvers.run(problem, cfg)
            assert np.isfinite(res.final_objective)
            # each penalty's screening dispatch goes through the traced region
            # and test functions
            for name in (tracing.RUN, tracing.UPDATE, tracing.REGION, tracing.TEST, tracing.APPLY):
                assert tracer.calls[name] > before.get(name, 0), (problem.kind, name)
    finally:
        tracer.uninstall()
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw, f"{owner.__name__}.{attr} was not restored"
    assert solvers._UPDATES == updates


def test_every_workload_config_solves(perfbench):
    workloads = perfbench("workloads")
    for workload in workloads.WORKLOADS.values():
        problem = workloads.build(workload.toy(), 0, 0)[0].problem
        for cfg in workload.configs():
            cfg.validate(problem.kind)
            res = solvers.run(problem, cfg)
            assert np.isfinite(res.final_objective), (workload.name, cfg)


def test_selftest_passes():
    # the selftest builds `ScreenState(eliminated=, kept=)` and its checks
    # read `.kept`, `.eliminated` and `.size` of a run's screened set
    done = subprocess.run([sys.executable, "-B", "selftest.py"], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]
    assert "Ran 13 tests" in done.stderr and done.stderr.rstrip().endswith("OK"), done.stderr
