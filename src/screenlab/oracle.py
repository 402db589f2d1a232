"""Slow, independent reference solver used to certify the fast path.

Coordinate descent (per-coordinate for the l1 penalty, per-block for groups)
with a duality-gap stopping certificate. This code path shares nothing with
the first-order solvers beyond the problem definition, so agreement between
the two is meaningful evidence of correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import LASSO, duality_gap, lambda_max, objective
from .screening import dual_scale_group, dual_scale_lasso

SUPPORT_EPS = 1e-9

_INNER_SWEEPS = 10
_STALL = 1e-16


@dataclass
class OracleResult:
    """Certified reference solution: iterate, achieved gap, and its support."""

    x_ref: np.ndarray
    gap: float
    support: np.ndarray
    objective: float


def _certified_gap(problem, x, resid):
    """Duality gap at x using the scaled residual as the dual certificate."""
    theta = resid / problem.lam
    if problem.kind == LASSO:
        _, v = dual_scale_lasso(problem, theta)
    else:
        _, v = dual_scale_group(problem, theta)
    return duality_gap(problem, x, v)


def solve_reference(problem, gap_tol=1e-10, max_sweeps=200_000):
    """Coordinate descent to a certified duality gap of at most `gap_tol`.

    Full sweeps alternate with sweeps restricted to the current support;
    raises if the sweep budget runs out before the certificate is met.
    """
    if not gap_tol > 0:
        raise ValueError("gap_tol must be positive")
    lmax = lambda_max(problem)
    k = problem.n_cols
    if problem.lam > lmax.value:
        x = np.zeros(k)
        gap = _certified_gap(problem, x, problem.y.copy())
        return OracleResult(x, gap, np.empty(0, dtype=np.int64), objective(problem, x))

    d = problem.dictionary.data
    y = problem.y
    lam = problem.lam
    x = np.zeros(k)
    resid = y.copy()  # y - D x, maintained incrementally

    if problem.kind == LASSO:
        col_sq = np.einsum("ij,ij->j", d, d)

        def sweep(indices):
            moved = 0.0
            for i in indices:
                xi = x[i]
                rho = float(d[:, i] @ resid) + col_sq[i] * xi
                xn = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_sq[i]
                if xn != xi:
                    resid[:] += d[:, i] * (xi - xn)
                    x[i] = xn
                    moved = max(moved, abs(xn - xi))
            return moved

        def support_ids():
            return np.flatnonzero(x != 0.0)

    else:
        part = problem.partition
        block_lip = np.maximum(part.spectral_norms**2, 1e-300)

        def sweep(indices):
            moved = 0.0
            for gid in indices:
                idx = part.groups[gid]
                sub = d[:, idx]
                xg = x[idx]
                z = xg + (sub.T @ resid) / block_lip[gid]
                nz = float(np.linalg.norm(z))
                thr = lam * part.weights[gid] / block_lip[gid]
                xn = z * max(1.0 - thr / nz, 0.0) if nz > 0.0 else np.zeros_like(z)
                delta = xn - xg
                if np.any(delta != 0.0):
                    resid[:] -= sub @ delta
                    x[idx] = xn
                    moved = max(moved, float(np.max(np.abs(delta))))
            return moved

        def support_ids():
            return np.flatnonzero(part.full.norms(x) != 0.0)

    n_units = k if problem.kind == LASSO else problem.partition.n_groups
    all_ids = np.arange(n_units)
    sweeps = 0
    while sweeps < max_sweeps:
        sweep(all_ids)
        sweeps += 1
        gap = _certified_gap(problem, x, resid)
        if gap <= gap_tol:
            support = np.flatnonzero(np.abs(x) > SUPPORT_EPS).astype(np.int64)
            return OracleResult(x.copy(), gap, support, objective(problem, x))
        ids = support_ids()
        for _ in range(_INNER_SWEEPS):
            if ids.size == 0 or sweeps >= max_sweeps:
                break
            moved = sweep(ids)
            sweeps += 1
            if moved < _STALL:
                break
    raise RuntimeError(f"reference solver hit {max_sweeps} sweeps before gap <= {gap_tol!r}")


def verify_screen_safety(problem, screen_state, ref):
    """True iff every eliminated index is genuinely inactive in the reference.

    `ref` must be certified to a gap of at most 1e-10 for the comparison to
    be meaningful; anything looser is rejected.
    """
    if ref.gap > 1e-10:
        raise ValueError("reference solution is not certified tightly enough")
    eliminated = np.asarray(screen_state.eliminated, dtype=np.int64)
    if eliminated.size == 0:
        return True
    return bool(np.all(np.abs(ref.x_ref[eliminated]) <= SUPPORT_EPS))
