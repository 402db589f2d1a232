"""First-order solvers with optional screen-once or per-iteration screening.

Each update function advances one iteration of its algorithm on the current
(possibly column-reduced) dictionary and records the dual point it produced,
together with the dictionary-transpose product it already had to compute.
Those two byproducts are exactly what the screening tests consume, which is
why per-iteration screening costs only a few vector operations on top of the
plain update. Most per-iteration tests certify nothing, and the screening
context recognizes most of those from a lower bound on the region's radius,
two dot products and the correlations of one atom or group, without building
the region.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import screening
from .dictionary import _COPY_COST, GroupLayout, operator_norm, support_product
from .instrument import (
    DYNAMIC,
    NONE,
    STATIC,
    STRATEGIES,
    SolveTrace,
    flops_iteration,  # noqa: F401  (perfbench/tracing.py looks the name up here)
    flops_static_init,
    problem_digest,
)
from .problems import GROUP, LASSO, expand, penalty_value, prox_l1
from .problems import lambda_max  # noqa: F401  (perfbench/tracing.py looks the name up here)

ISTA = "ista"
FISTA = "fista"
TWIST = "twist"
SPARSA = "sparsa"
CP = "cp"
ALGORITHMS = (ISTA, FISTA, TWIST, SPARSA, CP)

_MAJORIZATION_SLACK = 1e-12
_L_CEILING = 1e300
_BACKTRACK_FACTOR = 2.0
# weights of the two-step mix (1 - a) * x_prev + (a - b) * x + b * z
_TWIST_ALPHA = _TWIST_BETA = 1.78
# Chambolle-Pock steps tau = sigma = _CP_STEP_SAFETY / ||D||, so that
# tau * sigma * ||D||^2 < 1
_CP_STEP_SAFETY = 0.99
# floor of SpaRSA's Barzilai-Borwein curvature estimate
_BB_L_MIN = 1e-10


@dataclass
class SolverConfig:
    """Algorithm, screening strategy and test, and stopping rule of one solver run."""

    algorithm: str = ISTA
    strategy: str = NONE
    test: str | None = None
    max_iters: int = 200
    rel_tol: float = 1e-7

    def validate(self, kind):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 1:
            raise ValueError(f"max_iters must be an int of at least 1, not {iters!r}")
        tol = self.rel_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
            raise ValueError(f"rel_tol must be a positive and finite number, not {tol!r}")
        if self.strategy != NONE and self.test is None:
            raise ValueError("screening strategies require a test kind")
        allowed = screening.LASSO_TESTS if kind == LASSO else screening.GROUP_TESTS
        if self.test is not None and self.test not in allowed:
            raise ValueError(f"test {self.test!r} does not apply to {kind} problems")


@dataclass
class SolverState:
    """Mutable per-run state: primal block, screened positions, dual point, step scalars.

    `u` is the extrapolated point of FISTA and Chambolle-Pock. `resid` and
    `u_resid` are ``D @ x - y`` and ``D @ u - y`` when known, else None;
    `resid_sq` and `theta_sq` are ``resid @ resid`` and ``theta @ theta``
    when known, else None, so that the objective and the screen reuse the
    step's own sums.
    `L` is the backtracked curvature of ISTA, FISTA and SpaRSA, which SpaRSA
    restarts at the Barzilai-Borwein curvature of each step it takes; `step`
    is the fixed step of TwIST and Chambolle-Pock.
    `layout` places the positions of x in their groups (None for the l1
    penalty), and `screen_state.kept[p]` is the original column of ``x[p]``;
    `_reduce_state` drops screened positions from both and from the iterates.
    """

    x: np.ndarray
    layout: GroupLayout | None = None
    screen_state: screening.ScreenState | None = None
    x_prev: np.ndarray | None = None
    u: np.ndarray | None = None
    theta: np.ndarray | None = None
    corr: np.ndarray | None = None
    resid: np.ndarray | None = None
    u_resid: np.ndarray | None = None
    resid_sq: float | None = None
    theta_sq: float | None = None
    L: float = 1.0
    l_acc: float = 1.0
    step: float | None = None


@dataclass
class SolveResult:
    """Outcome of a run; `x_star` is expanded back to the original indexing."""

    x_star: np.ndarray
    iterations: int
    trace: SolveTrace
    final_objective: float
    screen_state: screening.ScreenState

    @property
    def screened_fraction(self):
        return self.screen_state.eliminated.size / self.screen_state.size


def _prox(state, problem):
    """The prox ``(v, t) -> prox of t * penalty at v`` over the positions of ``state.x``."""
    if state.layout is not None:
        return state.layout.prox
    if problem.kind == GROUP:
        raise ValueError("a group problem's solver state needs state.layout; see init_state")
    return prox_l1


def _resid_at(dic, v, y):
    """``D @ v - y``, skipping the product while `v` is all zero."""
    if not v.any():
        return -y
    return dic.apply(v) - y


def _residual(state, dic, y):
    """x's residual ``D @ x - y`` and its squared norm, filled in where the state lacks them."""
    if state.resid is None:
        state.resid = _resid_at(dic, state.x, y)
    if state.resid_sq is None:
        state.resid_sq = float(state.resid.dot(state.resid))
    return state.resid, state.resid_sq


def _accept(state, theta, corr, cand, resid_cand, weight=None, theta_sq=None, resid_sq=None):
    """Move to `cand`, recording the step's dual point `theta` and its `corr`.

    `resid_cand` is ``D @ cand - y``, or None when the step did not compute
    it, and `theta_sq` and `resid_sq` are the squared norms of `theta` and
    `resid_cand` where the step summed them. With a `weight`, also sets
    ``u = cand + weight * (cand - x)``; its
    residual is the same combination of the residuals of `cand` and of the
    current x, so it costs no product while x's residual is known. FISTA's
    first weight is 0 and its x is +0 there, so u is `cand` to the bit.
    """
    if not np.isfinite(cand).all():
        raise FloatingPointError("solver produced a non-finite iterate")
    if weight is not None:
        state.u = cand + weight * (cand - state.x)
        if state.resid is None:
            state.u_resid = None
        else:
            state.u_resid = resid_cand + weight * (resid_cand - state.resid)
    state.x_prev, state.x, state.resid, state.resid_sq = state.x, cand, resid_cand, resid_sq
    state.theta, state.corr, state.theta_sq = theta, corr, theta_sq


def _extrapolated_resid(state, dic, y):
    """``D @ u - y``; u starts at x."""
    if state.u is None:
        state.u, state.u_resid = state.x, state.resid
    if state.u_resid is None:
        state.u_resid = _resid_at(dic, state.u, y)
    return state.u_resid


def _backtrack(state, point, theta, theta_sq, dic, problem, prox, weight=None):
    """Backtracking prox step from `point`, accepted into `state` by `_accept`.

    `theta` is the residual at `point` and `theta_sq` its squared norm, and
    `prox` is the penalty's, from `_prox`. L grows from ``state.L`` by the
    backtrack factor until the quadratic majorization
    ``f(x_new) <= f(point) + <grad, dx> + L/2 ||dx||^2`` holds, and the
    state keeps it. The accepted trial's residual and its squared norm go
    to `_accept` with it, and so does `weight`. Vector products use
    ``.dot``, the same BLAS call as ``@`` without the ufunc dispatch.
    """
    y, lam, L = problem.y, problem.lam, state.L
    corr = dic.correlate(theta)
    f0 = 0.5 * theta_sq
    while True:
        cand = prox(point - corr / L, lam / L)
        resid_cand = dic.apply(cand) - y
        resid_sq = float(resid_cand.dot(resid_cand))
        step = cand - point
        bound = f0 + float(corr.dot(step)) + 0.5 * L * float(step.dot(step))
        if 0.5 * resid_sq <= bound + _MAJORIZATION_SLACK * max(1.0, f0):
            break
        L *= _BACKTRACK_FACTOR
        if not L <= _L_CEILING:
            raise FloatingPointError("backtracking failed to find a valid step")
    state.L = L
    _accept(state, theta, corr, cand, resid_cand, weight, theta_sq, resid_sq)


def update_ista(state, dic, problem):
    """One proximal gradient step with backtracked step size."""
    theta, theta_sq = _residual(state, dic, problem.y)
    _backtrack(state, state.x, theta, theta_sq, dic, problem, _prox(state, problem))
    return state


def update_fista(state, dic, problem):
    """One accelerated proximal gradient step (momentum on an auxiliary point)."""
    prox = _prox(state, problem)
    theta = _extrapolated_resid(state, dic, problem.y)
    l_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * state.l_acc**2))
    weight = (state.l_acc - 1.0) / l_new
    _backtrack(state, state.u, theta, float(theta.dot(theta)), dic, problem, prox, weight)
    state.l_acc = l_new
    return state


def update_twist(state, dic, problem):
    """One two-step iterative shrinkage update with fixed mixing weights.

    The prox step uses the fixed step size ``state.step`` (set to
    ``1 / ||D||^2`` by the driver), which is the canonical operator scaling
    this scheme assumes; unit-norm columns alone do not bound the operator.
    """
    prox = _prox(state, problem)
    y, lam = problem.y, problem.lam
    if state.step is None:
        raise ValueError("update_twist requires state.step")
    s = state.step
    theta, theta_sq = _residual(state, dic, y)
    corr = dic.correlate(theta)
    z = prox(state.x - s * corr, lam * s)
    if state.x_prev is None:
        cand = z
    else:
        a, b = _TWIST_ALPHA, _TWIST_BETA
        cand = (1.0 - a) * state.x_prev + (a - b) * state.x + b * z
    _accept(state, theta, corr, cand, None, theta_sq=theta_sq)
    return state


def update_sparsa(state, dic, problem):
    """ISTA's backtracked step, then L restarts at the step's spectral curvature.

    The Barzilai-Borwein curvature ``||D s||^2 / ||s||^2`` of the step s,
    floored at ``_BB_L_MIN``, only seeds the next backtracking. ``D s`` is the
    difference of the two residuals the step holds, so it costs no product.
    A zero step keeps L.
    """
    update_ista(state, dic, problem)
    s = state.x - state.x_prev
    ss = float(s.dot(s))
    if ss > 0.0:
        ds = state.resid - state.theta
        state.L = max(float(ds.dot(ds)) / ss, _BB_L_MIN)
    return state


def update_cp(state, dic, problem):
    """One primal-dual step with constant primal and dual steps ``state.step``.

    The dual variable is averaged toward the residual at the extrapolated
    point, the primal takes a prox step against it, and the next
    extrapolated point is ``2 * x_new - x``. The step's one product is the
    new iterate's residual, which also gives the next extrapolated point's.
    """
    prox = _prox(state, problem)
    y, lam = problem.y, problem.lam
    if state.step is None:
        raise ValueError("update_cp requires state.step")
    theta_prev = state.theta if state.theta is not None else np.zeros_like(y)
    s = state.step
    theta = (theta_prev + s * _extrapolated_resid(state, dic, y)) / (1.0 + s)
    corr = dic.correlate(theta)
    cand = prox(state.x - s * corr, lam * s)
    _accept(state, theta, corr, cand, _resid_at(dic, cand, y), 1.0)
    return state


_UPDATES = {
    ISTA: update_ista,
    FISTA: update_fista,
    TWIST: update_twist,
    SPARSA: update_sparsa,
    CP: update_cp,
}


def init_state(problem, cfg):
    """Fresh zero-initialized solver state over every column of `problem`.

    Its layout is the partition's `full` one for a group problem, and its
    screened set the initial one, with nothing eliminated. The extrapolated
    point and Chambolle-Pock's dual point are set by the first step, to x
    and to 0.
    """
    k, layout = problem.n_cols, problem.partition.full if problem.kind == GROUP else None
    # x starts at zero, so the residual D @ x - y is known without a product
    state = SolverState(x=np.zeros(k), layout=layout, resid=-problem.y,
                        screen_state=screening.ScreenState.initial(k))
    if cfg.algorithm == CP:
        state.step = _CP_STEP_SAFETY / operator_norm(problem.dictionary)
    if cfg.algorithm == TWIST:
        state.step = 1.0 / operator_norm(problem.dictionary) ** 2
    return state


def _reduce_state(state, dic, mask):
    """Drop the screened positions `mask` from everything indexed by the positions of x.

    That is the primal vectors, the group layout and the screened set, and
    the columns of the `_LiveColumns` view `dic`, narrowed by `_reduce_dic`
    and returned. A residual stays valid only while every coefficient its
    vector loses is zero; otherwise it is cleared, and recomputed where it is
    next needed.
    """
    keep = ~mask
    if np.count_nonzero(state.x[mask]):
        state.resid = state.resid_sq = None
    state.x = state.x[keep]
    if state.x_prev is not None:
        state.x_prev = state.x_prev[keep]
    if state.u is not None:
        if np.count_nonzero(state.u[mask]):
            state.u_resid = None
        state.u = state.u[keep]
    if state.layout is not None:
        state.layout = state.layout.without(mask)
    state.screen_state = screening.screen_update(state.screen_state, mask)
    state.corr = None
    return _reduce_dic(dic, keep.nonzero()[0])


def run(problem, cfg, iteration_hook=None):
    """Solve `problem` with the configured algorithm and screening strategy.

    Iterates until the relative objective variation drops below
    ``cfg.rel_tol`` or ``cfg.max_iters`` is reached. With the static strategy
    the dictionary is screened once, from the observation itself, before the
    first iteration; with the dynamic strategy the test is re-evaluated every
    iteration at the dual point the update just produced, and the eliminated
    set grows monotonically. Above the trivial-solution threshold every atom
    is screened before the first iteration, and the zero solution is
    returned without one. Every strategy multiplies through one
    `_LiveColumns` view of the dictionary, and each of the three
    eliminations drops its mask from the state and the view with
    `_reduce_state`; the view alone decides when to copy its survivors.
    The screening context serves every strategy: a plain run takes
    ``D.T y`` and `lambda_max` from it too. Every iteration, the first
    included, correlates its own dual point, and its objective takes the
    squared residual norm the step summed where it did.

    `iteration_hook(t, state, mask)` is called after each update and its
    screen, before the mask is dropped: `mask` is the dynamic elimination, a
    boolean array aligned with the positions of ``state.x`` that flags at
    least one of them, or None when the iteration eliminates nothing or the
    strategy is not dynamic. The hook reads the live `SolverState` and must
    not modify it. The loop replaces the arrays it holds and never writes
    into them, so an array a hook keeps still holds the values it had at the
    call.
    """
    cfg.validate(problem.kind)
    t_start = time.perf_counter()
    k, n = problem.n_cols, problem.n_rows
    group_count = problem.partition.n_groups if problem.kind == GROUP else 0
    ctx = screening.ScreeningContext(problem)
    trace = SolveTrace(
        kind=problem.kind,
        strategy=cfg.strategy,
        n_rows=n,
        n_cols=k,
        group_count=group_count,
        lam=problem.lam,
        digest=problem_digest(problem),
    )

    state = init_state(problem, cfg)
    dic = _LiveColumns(problem.dictionary, np.arange(k))
    y, lam = problem.y, problem.lam
    if lam > ctx.lmax.value:
        # the zero solution: every column goes, and the loop below stops at once
        dic = _reduce_state(state, dic, np.ones(k, dtype=bool))
    elif cfg.strategy == STATIC:
        mask = ctx.screen(cfg.test, y, ctx.y_corr, state.screen_state.kept, state.layout)
        if mask is not None:
            dic = _reduce_state(state, dic, mask)
        trace.init_flops = flops_static_init(k, n)

    update = _UPDATES[cfg.algorithm]
    test = cfg.test if cfg.strategy == DYNAMIC else None

    f_prev = None
    iterations = 0
    moved = False
    mask = None
    for t in range(1, cfg.max_iters + 1):
        if state.screen_state.kept.size == 0:
            break
        update(state, dic, problem)
        iterations = t

        if test is not None:
            mask = ctx.screen(test, state.theta, state.corr, state.screen_state.kept,
                              state.layout, state.theta_sq)

        if iteration_hook is not None:
            iteration_hook(t, state, mask)

        if mask is not None:
            dic = _reduce_state(state, dic, mask)

        f_t = 0.5 * _residual(state, dic, y)[1] + lam * penalty_value(state.x, state.layout)
        nnz = int(np.count_nonzero(state.x))
        # the flop column is filled in once, from the kept and sparsity columns
        trace.append(t, state.screen_state.kept.size, nnz, f_t, 0, time.perf_counter() - t_start)

        # The variation test only means something once the iterate has left the
        # all-zero start; a dual-driven method can sit at zero for a few warmup
        # iterations with an exactly constant objective.
        moved = moved or nnz > 0
        if moved and f_prev is not None and abs(f_prev - f_t) / max(f_t, 1e-300) < cfg.rel_tol:
            break
        f_prev = f_t

    trace.flops_cum = trace.recompute_flops()
    x_star = expand(state.x, state.screen_state.kept, k)
    final_objective = trace.objective[-1] if trace.objective else 0.5 * float(y @ y)
    return SolveResult(
        x_star=x_star,
        iterations=iterations,
        trace=trace,
        final_objective=final_objective,
        screen_state=state.screen_state,
    )


class _LiveColumns:
    """The surviving columns of a packed dictionary that may still hold screened ones.

    Every run multiplies through one such view, a plain one too, whose
    packed data holds no screened column. It offers the `Dictionary`
    products over the live columns only: coefficient vectors and
    correlations are indexed by live position. `apply` is the support
    product, which spans no screened column while few coefficients are
    nonzero; `correlate` spans the packed width. The products are made on
    the packed data directly, without the argument checks, which the
    solver's own vectors do not need.

    Each correlation charges the view with the screened columns the packed
    data still holds. Once the survivors fill at most half the packed width
    and the charge since the last copy has reached `_COPY_COST` times their
    count, the view copies them with `Dictionary.reduce` and correlates over
    the copy. So a copy is made only once the waste it removes has been
    paid (ski-rental), each copy at least halves the packed width, and a
    run copies fewer than K columns in all. The half-width condition also
    bounds memory, since a copy made from a copy holds both while it is
    made: without it, `peak_rss_mb` of the benchmark rose by 2.4% on desk,
    2.0% on group and 4.9% on algos (lower in 0 of 8 alternating pairs each)
    for no gain in solve time.
    """

    __slots__ = ("packed", "live", "charge")

    def __init__(self, packed, live, charge=0):
        self.packed = packed
        self.live = live
        self.charge = charge

    @property
    def n_cols(self):
        return self.live.size

    def apply(self, x):
        return support_product(self.packed.data, x, self.live)

    def correlate(self, v):
        live = self.live.size
        dead = self.packed.n_cols - live
        self.charge += dead
        if 2 * live <= self.packed.n_cols and self.charge >= _COPY_COST * live:
            self.packed = self.packed.reduce(self.live)
            self.live = np.arange(live)
            self.charge = dead = 0
        corr = self.packed.data.T.dot(v)
        if not dead:
            return corr
        return corr[self.live]


def _reduce_dic(dic, keep_pos):
    """The `_LiveColumns` view `dic` narrowed to its live positions `keep_pos`.

    Only narrows the view, which carries its charge over; the view itself
    decides when to copy its survivors.
    """
    return _LiveColumns(dic.packed, dic.live[keep_pos], dic.charge)
