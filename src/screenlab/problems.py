"""Lasso and Group-Lasso problem definitions: objective, prox maps, duality."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary, GroupPartition, index_set

OBS_NORM_TOL = 1e-9
DUAL_FEAS_TOL = 1e-12
_GAP_CLAMP = 1e-12

LASSO = "lasso"
GROUP = "group"


@dataclass(frozen=True)
class Problem:
    """A sparse regression instance ``min_x 0.5*||Dx - y||^2 + lam * penalty(x)``.

    The penalty is the l1 norm when `partition` is None, otherwise the
    weighted sum of group norms defined by the partition. The observation is
    required to have unit l2 norm.
    """

    dictionary: Dictionary
    y: np.ndarray
    lam: float
    partition: GroupPartition | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        if y.shape != (self.dictionary.n_rows,):
            raise ValueError("observation length must match the dictionary rows")
        nrm = float(np.linalg.norm(y))
        # written so that a NaN norm fails too
        if not abs(nrm - 1.0) <= OBS_NORM_TOL:
            raise ValueError(f"observation must have unit l2 norm (got {nrm!r})")
        if isinstance(self.lam, bool) or not isinstance(self.lam, numbers.Real):
            raise ValueError(f"lam must be a real number (got {self.lam!r})")
        if not self.lam > 0:
            # NaN fails this comparison too, and is named like any other value
            raise ValueError(f"lam must be strictly positive (got {self.lam!r})")
        if not np.isfinite(self.lam):
            raise ValueError(f"lam must be finite (got {self.lam!r})")
        if self.partition is not None and self.partition.size != self.dictionary.n_cols:
            raise ValueError("partition must cover exactly the dictionary columns")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "lam", float(self.lam))

    @property
    def kind(self):
        return LASSO if self.partition is None else GROUP

    @property
    def n_rows(self):
        return self.dictionary.n_rows

    @property
    def n_cols(self):
        return self.dictionary.n_cols


@dataclass(frozen=True)
class LambdaMax:
    """Smallest penalty level with an all-zero solution, plus its maximizer.

    For the l1 penalty, `atom` is the best-correlated atom with its sign
    flipped if needed so that ``atom @ y == value >= 0``. For the group
    penalty, `group` identifies the maximizing group instead.
    """

    value: float
    atom: np.ndarray | None = None
    atom_index: int | None = None
    group: int | None = None


def lambda_max(problem, corr=None):
    """Compute the trivial-solution threshold and its extremal atom or group.

    `corr`, when given, must be the observation correlations ``D.T @ y``,
    one per column.
    """
    if corr is None:
        corr = problem.dictionary.correlate(problem.y)
    elif np.shape(corr) != (problem.n_cols,):
        raise ValueError(f"expected {problem.n_cols} correlations, not shape {np.shape(corr)}")
    if problem.kind == LASSO:
        i = int(np.argmax(np.abs(corr)))
        value = float(abs(corr[i]))
        sign = 1.0 if corr[i] >= 0 else -1.0
        atom = sign * problem.dictionary.data[:, i]
        return LambdaMax(value=value, atom=atom, atom_index=i)
    ratios = problem.partition.full.norms(corr) / problem.partition.weights
    g = int(np.argmax(ratios))
    return LambdaMax(value=float(ratios[g]), group=g)


def penalty_value(x, layout=None):
    """Regularizer value: l1 norm, or weighted group norms when a group layout is given."""
    if layout is not None:
        return layout.penalty(x)
    return float(np.abs(np.asarray(x, dtype=np.float64)).sum())


def objective(problem, x):
    """Full objective ``0.5*||Dx - y||^2 + lam * penalty(x)`` at a full-length x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.n_cols,):
        raise ValueError(f"expected coefficient vector of length {problem.n_cols}")
    resid = problem.dictionary.apply(x) - problem.y
    layout = problem.partition.full if problem.kind == GROUP else None
    return 0.5 * float(resid @ resid) + problem.lam * penalty_value(x, layout)


def prox_l1(x, t):
    """Soft-thresholding: componentwise ``sign(x) * max(|x| - t, 0)``."""
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def dual_feasible(problem, theta, tol=DUAL_FEAS_TOL):
    """Whether theta satisfies every dual constraint within `tol`.

    Lasso: ``|a_i . theta| <= 1`` for all atoms. Group-Lasso:
    ``||D_g.T theta|| <= w_g`` for all groups.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    corr = problem.dictionary.correlate(theta)
    if problem.kind == LASSO:
        return bool(np.max(np.abs(corr), initial=0.0) <= 1.0 + tol)
    norms = problem.partition.full.norms(corr)
    return bool(np.all(norms <= problem.partition.weights * (1.0 + tol)))


def dual_objective(problem, theta):
    """Dual objective ``0.5*||y||^2 - (lam^2 / 2) * ||theta - y/lam||^2``."""
    theta = np.asarray(theta, dtype=np.float64)
    y = problem.y
    lam = problem.lam
    diff = theta - y / lam
    return 0.5 * float(y @ y) - 0.5 * lam * lam * float(diff @ diff)


def duality_gap(problem, x, theta):
    """Primal-dual gap at (x, theta); theta must be dual feasible.

    The gap is clamped to zero when roundoff makes it barely negative; a
    larger negative value means theta was not actually feasible and raises.
    """
    if not dual_feasible(problem, theta):
        raise ValueError("theta is not dual feasible")
    primal = objective(problem, x)
    gap = primal - dual_objective(problem, theta)
    if gap < 0.0:
        if gap < -_GAP_CLAMP * max(1.0, abs(primal)):
            raise ValueError(f"negative duality gap {gap!r}: dual point inconsistent")
        gap = 0.0
    return gap


def expand(x_reduced, kept, k):
    """Scatter a reduced coefficient vector back to the original K positions."""
    x_reduced = np.asarray(x_reduced, dtype=np.float64)
    kept = index_set(kept, k)
    if x_reduced.shape != (kept.size,):
        raise ValueError("reduced vector length must equal the kept index count")
    out = np.zeros(int(k), dtype=np.float64)
    out[kept] = x_reduced
    return out
