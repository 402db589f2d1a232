"""Correctness checks the benchmark applies to every solve, outside the timed region.

Each check compares a `solvers.run` result with the certified reference
solution of the same problem, or checks the result's trace against itself.
`check_solve` returns the names of the checks a result fails; an empty list
means the result is correct.
"""

from __future__ import annotations

import numpy as np

from screenlab import oracle, problems, screening

REFERENCE_GAP = 1e-10
# Coordinate descent certifies the gaussian instances within this many sweeps.
# On a support of nearly collinear atoms, as pnoise dictionaries give, it can
# need minutes or more than its default budget of 200,000 sweeps, so past this
# budget a Lasso reference comes from the homotopy path instead.
ORACLE_SWEEPS = 100
# Slack for the objective against the certified dual bound: roundoff in two
# sums of a few hundred terms of size at most 1, far below any real violation.
DUAL_BOUND_SLACK = 1e-12


def reference(problem):
    """Reference solution certified to a duality gap of at most `REFERENCE_GAP`.

    Returns ``(ref, source)``: the `oracle.OracleResult` and ``"oracle"``
    when coordinate descent certifies it (within `ORACLE_SWEEPS` sweeps for
    a Lasso problem), else ``"homotopy"`` for a Lasso problem solved by
    `homotopy_reference`.
    """
    if problem.kind != problems.LASSO:
        return oracle.solve_reference(problem, gap_tol=REFERENCE_GAP), "oracle"
    try:
        return oracle.solve_reference(problem, gap_tol=REFERENCE_GAP, max_sweeps=ORACLE_SWEEPS), "oracle"
    except RuntimeError:
        return homotopy_reference(problem), "homotopy"


def homotopy_reference(problem):
    """Exact Lasso solution by the homotopy path, certified like `oracle.solve_reference`.

    Follows the piecewise-linear solution path from ``lambda_max`` down to
    ``problem.lam``: on each piece the active coefficients solve
    ``D_A.T D_A x_A = D_A.T y - lam * signs``, and a piece ends where an
    inactive atom's correlation reaches the penalty or an active coefficient
    reaches zero. The end point is then certified with the duality gap at
    the scaled residual, the certificate the oracle uses; a gap above
    `REFERENCE_GAP` raises.
    """
    d, y, lam_end = problem.dictionary.data, problem.y, problem.lam
    k = d.shape[1]
    x = np.zeros(k)
    corr = d.T @ y
    active = [int(np.argmax(np.abs(corr)))]
    lam = float(abs(corr[active[0]]))
    tiny = 1e-12 * lam
    left = None
    for _ in range(8 * k):  # a path has at most a few breakpoints per atom
        if lam <= lam_end:
            break
        idx = np.array(active)
        signs = np.sign(corr[idx])
        sub = d[:, idx]
        direction = np.linalg.solve(sub.T @ sub, signs)
        rate = d.T @ (sub @ direction)
        step, event = lam - lam_end, None
        inactive = np.ones(k, dtype=bool)
        inactive[idx] = False
        with np.errstate(divide="ignore", invalid="ignore"):
            enter = np.fmin(
                np.where((lam - corr) / (1.0 - rate) > tiny, (lam - corr) / (1.0 - rate), np.inf),
                np.where((lam + corr) / (1.0 + rate) > tiny, (lam + corr) / (1.0 + rate), np.inf),
            )
            leave = -x[idx] / direction
        enter[~inactive] = np.inf
        if left is not None:
            # an atom that just left sits exactly on the penalty; roundoff must
            # not let it re-enter at once
            enter[left] = np.inf
        leave[~(leave > tiny)] = np.inf
        j = int(np.argmin(enter))
        if enter[j] < step:
            step, event = float(enter[j]), ("enter", j)
        m = int(np.argmin(leave))
        if leave[m] < step:
            step, event = float(leave[m]), ("leave", m)
        x[idx] += step * direction
        lam -= step
        if event is None:
            break
        left = None
        if event[0] == "enter":
            active.append(event[1])
        else:
            left = int(idx[event[1]])
            x[left] = 0.0
            del active[event[1]]
        corr = d.T @ (y - d @ x)
    # solve the final piece exactly at the target penalty
    idx = np.array(sorted(active))
    sub = d[:, idx]
    signs = np.sign(corr[idx])
    x = np.zeros(k)
    x[idx] = np.linalg.solve(sub.T @ sub, sub.T @ y - lam_end * signs)
    resid = y - d @ x
    _, v = screening.dual_scale_lasso(problem, resid / lam_end)
    gap = problems.duality_gap(problem, x, v)
    if gap > REFERENCE_GAP:
        raise RuntimeError(f"homotopy reference reached gap {gap!r}, above {REFERENCE_GAP!r}")
    support = np.flatnonzero(np.abs(x) > oracle.SUPPORT_EPS).astype(np.int64)
    return oracle.OracleResult(x, gap, support, problems.objective(problem, x))


def check_solve(problem, ref, res, objective_rtol=None, max_iters=None, closed_share=None):
    """Names of the checks that `res`, a run on `problem`, fails against the reference `ref`.

    `objective_rtol`, when given, bounds the final objective's relative
    distance to the reference objective, and `max_iters` asks that the run
    stopped on its tolerance before the iteration budget ran out.
    `closed_share`, when given, asks the final objective to close at least
    that share of the distance from the objective at ``x = 0``,
    ``0.5 * ||y||^2``, down to the reference objective.
    """
    failed = []
    k = problem.n_cols
    state = res.screen_state
    trace = res.trace

    # every eliminated index is zero in the certified reference
    if not oracle.verify_screen_safety(problem, state, ref):
        failed.append("safety")

    # no primal objective lies below a certified dual objective
    ref_dual = ref.objective - ref.gap
    if res.final_objective < ref_dual - DUAL_BOUND_SLACK * max(1.0, abs(ref.objective)):
        failed.append("dual_bound")

    if objective_rtol is not None:
        base = max(min(res.final_objective, ref.objective), 1e-300)
        if abs(res.final_objective - ref.objective) / base > objective_rtol:
            failed.append("objective")

    if closed_share is not None:
        start = 0.5 * float(problem.y @ problem.y)
        if res.final_objective - ref.objective > (1.0 - closed_share) * (start - ref.objective):
            failed.append("progress")

    if max_iters is not None and res.iterations >= max_iters:
        failed.append("converged")

    if trace.recompute_flops() != list(trace.flops_cum):
        failed.append("flops")

    if np.any(np.diff(np.asarray(trace.kept, dtype=np.int64)) > 0):
        failed.append("kept_monotone")

    kept_mask = np.zeros(k, dtype=bool)
    kept_mask[state.kept] = True
    partitioned = state.size == k and not np.any(kept_mask[state.eliminated])
    if not partitioned or np.any(res.x_star[~kept_mask] != 0.0):
        failed.append("zero_outside_kept")

    return failed
