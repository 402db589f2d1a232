"""Safe elimination of inactive atoms from dual-space regions.

Every test here is *safe*: it only flags coefficients that are provably zero
in the optimal solution, so removing the flagged columns leaves the optimum
unchanged. A test is built from a region of observation space guaranteed to
contain the dual optimum; with spheres (and one dome-shaped refinement) the
worst-case correlation over the region has a closed form, giving a cheap
per-atom certificate. Feeding the region a fresh dual point every iteration
shrinks its radius, which is what makes per-iteration screening profitable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .problems import GROUP, LASSO, lambda_max

SAFE = "safe"
DST3 = "dst3"
DOME = "dome"
GSAFE = "gsafe"
GST3 = "gst3"

LASSO_TESTS = (SAFE, DST3, DOME)
GROUP_TESTS = (GSAFE, GST3)
ALL_TESTS = LASSO_TESTS + GROUP_TESTS

# Pre-clamp values of a squared radius below this are treated as a logic error
# rather than roundoff.
RADIUS_GUARD = 1e-8

# An atom is eliminated only if it clears its bound by this margin (in units of
# dual correlation). The extremal atom sits exactly on the shifted tests'
# bounds, so with exact arithmetic it can never be screened; without a floor,
# one ulp of roundoff decides its fate. Requiring a margin can only shrink the
# screened set, so safety is never at risk.
SCREEN_MARGIN = 1e-12

_CORR_BOUND_TOL = 1e-9

_EPS = float(np.finfo(np.float64).eps)


class Slack:
    """Per-atom (per-group) slack of a sphere center that stays fixed for a solve.

    `values[i]` is the largest radius at which a sphere around the center
    still certifies atom (group) i, and `top` the largest of them. A run's
    `ScreenState` holds each sphere's slack gathered at its packed
    positions, and `drop` keeps that copy's `top` the largest slack still in
    play.
    """

    __slots__ = ("values", "top", "_at")

    def __init__(self, values):
        self.values = values
        self._find_top()

    def _find_top(self):
        # argmax skips the reduction machinery of max, several times slower on short arrays
        self._at = int(self.values.argmax()) if self.values.size else 0
        self.top = float(self.values[self._at]) if self.values.size else -np.inf

    def drop(self, pos):
        """Take the entries `pos` out of play: they become -inf, and `top` the largest left."""
        self.values[pos] = -np.inf
        if self.values[self._at] != self.top:
            self._find_top()


@dataclass(slots=True)
class SphereRegion:
    """Sphere known to contain the dual optimum, optionally cut by a second one.

    `slack` is the `Slack` of the center: for every original atom (group) the
    largest radius at which a sphere around this center still certifies it,
    ``1 - |a_i . center|`` (``(w_g - ||D_g.T center||) / ||D_g||``). The
    center never moves during a solve, so the screening context computes it
    once and each test is then one comparison per kept atom or group, or none
    when the largest kept slack is already within the radius.

    `base`, when set, is a second sphere that also contains the dual optimum,
    and the region is the intersection of the two. The shifted tests (DST3,
    GST3) carry the SAFE/GSAFE sphere they were cut from here: the shifted
    sphere bounds the intersection of that sphere with the extremal half-space,
    but it protrudes from the plain sphere on the side facing away from the
    extremal atom, so on its own it can miss an atom or group that the plain
    sphere eliminates. Since both spheres contain the dual optimum, eliminating
    whatever either one certifies is safe, and the shifted test then
    eliminates at least everything the plain test does at the same dual point.
    The primary `center`, `radius` and `slack` stay those of the shifted
    sphere. A region is built for one dual point and not changed after.
    """

    center: np.ndarray
    radius: float
    slack: Slack
    base: SphereRegion | None = None


@dataclass(slots=True)
class DomeParams:
    """Inputs of the dome test: both correlation profiles plus the radius.

    `star_correlations` are correlations with the extremal atom,
    `y_correlations` with the observation; the tested quantity per atom is its
    observation correlation, bracketed by two bounds built from the other two
    fields. `radius` is the shifted (bounding-sphere) radius; the enclosing
    sphere radius and the cut fraction of the dome are recovered from it and
    ``lambda_star / lam - 1``.
    """

    lam: float
    lambda_star: float
    star_correlations: np.ndarray
    y_correlations: np.ndarray
    radius: float


@dataclass(frozen=True)
class ScreenState:
    """Monotone screened set of a run, over the packed positions of its iterates.

    `kept[p]` is the original column of position p, and `alive[p]` whether
    it is still in play; `eliminated` holds the original columns folded out,
    sorted. An elimination event (`drop`) only clears bits of `alive`. A fold
    (`screen_update`) moves positions from `kept` to `eliminated` and starts
    a state in which every kept column is alive, as it is in every state a
    run returns. A run's `kept` and `eliminated` are read-only, so
    screening can key work on `kept`; `alive` is updated in place. `screen`
    takes only a state: to screen a set of columns, build
    ``ScreenState(eliminated, kept)`` over them.

    `slacks` maps each sphere's `Slack` that a screen over this state used
    to its copy at the packed positions (the layout's groups), -inf where
    out of play, whose `top` `drop` keeps up to date.
    """

    eliminated: np.ndarray
    kept: np.ndarray
    alive: np.ndarray | None = None
    slacks: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.alive is None:
            object.__setattr__(self, "alive", np.ones(self.kept.size, dtype=bool))

    @classmethod
    def initial(cls, k):
        return cls(
            eliminated=np.empty(0, dtype=np.int64), kept=_frozen(np.arange(k, dtype=np.int64))
        )

    @property
    def size(self):
        return self.eliminated.size + self.kept.size

    def slack(self, full, layout=None):
        """The `Slack` `full` of every original atom (group) at this state's packed positions.

        For group problems `layout` places the positions in their groups.
        Gathered on first use and kept, with -inf where out of play.
        """
        packed = self.slacks.get(full)
        if packed is None:
            idx = self.kept if layout is None else layout.group_ids
            values = full.values[idx]
            out = ~self.alive
            values[out if layout is None else layout.member[out]] = -np.inf
            packed = self.slacks[full] = Slack(values)
        return packed

    def drop(self, pos, layout=None):
        """An elimination event: the packed positions `pos` leave play.

        `pos` are positions still alive; for group problems they cover whole
        groups of `layout`. Nothing is copied or merged.
        """
        self.alive[pos] = False
        at = pos if layout is None else layout.member[pos]
        for packed in self.slacks.values():
            packed.drop(at)


def screen_update(state, mask):
    """Fold the positions `mask` (aligned with ``state.kept``) out of the state.

    Both index sets stay sorted. The newly eliminated indices form a sorted
    run disjoint from ``state.eliminated``, so a stable sort of the two runs
    back to back (timsort for int64) is a single O(K) merge. A run folds
    every position out of play at once; the new state's kept columns are
    all alive. `mask` must be boolean.
    """
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise ValueError(f"mask must be boolean, not of dtype {mask.dtype}")
    if mask.shape != (state.kept.size,):
        raise ValueError("mask must align with the kept index set")
    dropped = state.kept[mask]
    if not dropped.size:
        return state
    eliminated = np.sort(np.concatenate((state.eliminated, dropped)), kind="stable")
    return ScreenState(eliminated=eliminated, kept=_frozen(state.kept[~mask]))


def _frozen(arr):
    # a read-only kept set cannot change behind the extremal atom kept for it
    arr.setflags(write=False)
    return arr


def _clip_ratio(ty, sq, lam, bound):
    """Scaling of theta closest to ``y / lam`` within [-bound, bound]; 0 for theta = 0.

    `ty` is ``theta . y`` and `sq` is ``theta . theta``.
    """
    if sq == 0.0:
        return 0.0
    return min(max(ty / (lam * sq), -bound), bound)


def dual_scale_lasso(problem, theta, corr=None):
    """Best feasible scaling of a dual candidate for the l1 constraints.

    Returns ``(mu, mu * theta)`` where mu is the scaling of theta closest to
    ``y / lam`` among those with all atom correlations in [-1, 1]. `corr`
    holds the correlations of theta with the atoms still in play; by default
    it is computed on the full dictionary.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if corr is None:
        corr = problem.dictionary.correlate(theta)
    corr_inf = float(np.abs(corr).max(initial=0.0))
    bound = np.inf if corr_inf == 0.0 else 1.0 / corr_inf
    mu = _clip_ratio(float(theta.dot(problem.y)), float(theta.dot(theta)), problem.lam, bound)
    return mu, mu * theta


def dual_scale_group(problem, theta, corr=None, layout=None):
    """Best feasible scaling of a dual candidate for the group constraints.

    `corr` holds the correlations of theta with the columns that `layout`
    places in the groups still in play; by default they are computed on the
    full dictionary, and `layout` is the problem's full partition. The
    feasible segment is ``[-s, s]`` with ``s = min_g w_g / ||D_g.T theta||``.
    """
    if problem.kind != GROUP:
        raise ValueError("dual_scale_group needs a group problem")
    theta = np.asarray(theta, dtype=np.float64)
    if corr is None:
        corr = problem.dictionary.correlate(theta)
    if layout is None:
        layout = problem.partition.full
    norms = layout.norms(corr)
    active = norms > 0.0
    bound = float((layout.weights[active] / norms[active]).min(initial=np.inf))
    mu = _clip_ratio(float(theta.dot(problem.y)), float(theta.dot(theta)), problem.lam, bound)
    return mu, mu * theta


class ScreeningContext:
    """Per-solve precomputation shared by every region construction.

    Construction computes only ``D.T y`` (`y_corr`) and `lambda_max` (`lmax`),
    which every solve needs, so `solvers.run` builds one context for each
    strategy, plain runs included. The other full-dictionary correlations
    used by the tests (with the extremal atom and the shifted sphere
    centers) are computed once, on first use, and so are the slacks of the
    sphere centers. Per-iteration work is then a few O(N) vector operations
    and the largest correlation in play; the slacks in play are compared
    with the radius only when their maximum clears it. A run's
    `ScreenState` holds each sphere's slack at its packed positions and
    keeps their maximum up to date at each elimination, so a screen over it
    gathers nothing.

    Most dynamic screens certify nothing, and `screen` recognizes many of
    them before it builds a region. Any one kept atom (group) j bounds the
    dual scaling: the scaling the kept columns allow lies within the
    segment ``[-s_j, s_j]`` that j allows alone, so the squared radius
    ``||y / lam - mu theta||^2``, a parabola in mu, is at least its value
    at the point of that segment closest to the parabola's minimum. That
    lower bound costs one dot product of the observation's length (two
    when the caller does not pass ``theta @ theta``) and j's correlations,
    one scalar for an atom; when no sphere's largest slack in play clears
    the radius it bounds, the exact test would flag nothing either, and the
    screen returns None.

    `_extremal` holds the extremal atom (group) j of the last exact screen
    that flagged nothing, keyed on a read-only kept set, which cannot change
    behind it: j's position among the kept atoms (its group's positions),
    its weight and its original index (group id). A fold that keeps j moves
    the memo to the new kept set at its first screen, which finds j there by
    that index. A context reused across runs or kept sets can only make that
    j a looser choice, never an unsafe one.
    """

    def __init__(self, problem):
        self.problem = problem
        self.y_corr = problem.dictionary.correlate(problem.y)
        self.lmax = lambda_max(problem, self.y_corr)
        self._tests = LASSO_TESTS if problem.kind == LASSO else GROUP_TESTS
        self._extremal = (None, None, 1.0, -1)

    # -- shared scalar machinery -------------------------------------------

    def _check_test(self, kind):
        if kind not in self._tests:
            raise ValueError(f"test {kind!r} does not apply to {self.problem.kind} problems")

    def _shifted_radius(self, radius_sq, shift_sq):
        arg = radius_sq - shift_sq
        if arg < -RADIUS_GUARD:
            raise RuntimeError(
                f"squared screening radius fell to {arg!r}; region construction is inconsistent"
            )
        return math.sqrt(max(arg, 0.0))

    # -- cached geometry ----------------------------------------------------

    @cached_property
    def safe_center(self):
        return self.problem.y / self.problem.lam

    @cached_property
    def _y_sq(self):
        return float(self.problem.y @ self.problem.y)

    @cached_property
    def safe_center_corr(self):
        return self.y_corr / self.problem.lam

    @cached_property
    def star_corr(self):
        return self.problem.dictionary.correlate(self.lmax.atom)

    @cached_property
    def dst3_shift(self):
        return self.lmax.value / self.problem.lam - 1.0

    def _slack(self, center_corr):
        """`Slack` of a sphere center, from its correlations with every column."""
        if self.problem.kind == LASSO:
            return Slack(1.0 - np.abs(center_corr))
        part = self.problem.partition
        return Slack((part.weights - part.full.norms(center_corr)) / part.spectral_norms)

    @cached_property
    def safe_slack(self):
        return self._slack(self.safe_center_corr)

    @cached_property
    def _shifted(self):
        """Center, slack and squared shift of the DST3 (GST3) sphere.

        The sphere moves from ``y / lam`` along a normal of the extremal
        constraint: by `dst3_shift` along the extremal atom, or by
        ``coef / ||normal||^2`` along the extremal group's tangent normal
        ``D_g D_g.T y / lambda_max``.
        """
        problem = self.problem
        if problem.kind == LASSO:
            normal, normal_corr, step = self.lmax.atom, self.star_corr, self.dst3_shift
            shift_sq = step**2
        else:
            g = self.lmax.group
            sub = problem.dictionary.data[:, problem.partition.groups[g]]
            normal = sub @ (sub.T @ problem.y) / self.lmax.value
            normal_sq = float(normal @ normal)
            if normal_sq == 0.0:
                raise RuntimeError("degenerate extremal group: zero tangent normal")
            weight = float(problem.partition.weights[g])
            coef = float(normal @ problem.y) / problem.lam - weight**2
            normal_corr = problem.dictionary.correlate(normal)
            step, shift_sq = coef / normal_sq, coef * coef / normal_sq
        center_corr = self.safe_center_corr - step * normal_corr
        return self.safe_center - step * normal, self._slack(center_corr), shift_sq

    @cached_property
    def _dome_correlations(self):
        """The dome's star and observation correlations, checked to lie in [-1, 1]."""
        for name, arr in (("star_correlations", self.star_corr), ("y_correlations", self.y_corr)):
            if float(np.max(np.abs(arr))) > 1.0 + _CORR_BOUND_TOL:
                raise ValueError(f"{name} must lie in [-1, 1] up to roundoff")
        return self.star_corr, self.y_corr

    # -- regions and the screening dispatch --------------------------------

    def region(self, kind, theta, corr, layout=None, screened=None):
        """Region of test `kind` around the dual candidate `theta`.

        `corr` holds the correlations of `theta` with the columns still in
        play; for group problems `layout` places those columns in their
        groups, and is the whole partition's when omitted. With a run's
        `ScreenState` `screened`, `corr` and `layout` cover its packed
        positions instead, the correlations of those out of play zero, and
        the spheres' slacks are the state's packed ones. `theta` is first
        scaled onto the dual feasible segment the columns in play allow.
        SAFE and GSAFE give the plain sphere around ``y / lam``. DST3 and
        GST3 give the shifted sphere intersected with the plain sphere it was
        cut from: the shifted sphere bounds the plain sphere's intersection
        with the extremal atom's half-space ``a* . theta <= 1`` (the extremal
        group's tangent half-space), and `base` keeps the plain sphere
        itself, so the test also eliminates what only the plain sphere
        certifies. DOME gives the `DomeParams` of that intersection. A test
        of the other penalty (a group test on a Lasso problem, or the
        reverse) is rejected.
        """
        problem = self.problem
        self._check_test(kind)
        if kind not in (SAFE, GSAFE) and problem.lam > self.lmax.value:
            raise ValueError(
                "penalty exceeds the trivial-solution threshold; screen everything instead"
            )
        if problem.kind == LASSO:
            _, v = dual_scale_lasso(problem, theta, corr)
        else:
            _, v = dual_scale_group(problem, theta, corr, layout)
        diff = self.safe_center - v
        rsq = float(diff.dot(diff))
        safe_slack = self.safe_slack
        if screened is not None:
            safe_slack = screened.slack(safe_slack, layout)
        safe = SphereRegion(self.safe_center, math.sqrt(rsq), safe_slack)
        if kind in (SAFE, GSAFE):
            return safe
        center, slack, shift_sq = self._shifted
        radius = self._shifted_radius(rsq, shift_sq)
        if kind == DOME:
            star_corr, y_corr = self._dome_correlations
            return DomeParams(problem.lam, self.lmax.value, star_corr, y_corr, radius)
        if screened is not None:
            slack = screened.slack(slack, layout)
        return SphereRegion(center, radius, slack, base=safe)

    def static_region(self, kind):
        """Region for the screen-once strategy, built from the observation itself."""
        return self.region(kind, self.problem.y, self.y_corr)

    def screen(self, kind, theta, corr, state, layout=None, theta_sq=None):
        """Elimination mask over the positions of `state` from test `kind` at `theta`, or None.

        `theta` is a float64 array and `state` a `ScreenState`: `corr` holds
        the correlations of theta at its packed positions, zero where out of
        play, and for group problems `layout` places those positions in their
        groups (built from ``state.kept`` when omitted). `theta_sq` is
        ``theta @ theta`` when the caller already has it, and is computed
        otherwise. The screen-once strategy is this call at ``theta = y`` on
        the whole dictionary, the dynamic strategy the same call at each
        iteration's dual point. Group tests flag whole groups, and the mask
        flags each of their columns. A sphere test whose radius lower bound
        already certifies nothing returns None without building the region,
        as the region's test would. A mask is a fresh boolean array aligned
        with ``state.kept`` that flags at least one position in play and
        none out of it; None means the test flags nothing.
        """
        problem = self.problem
        self._check_test(kind)
        kept = state.kept
        if problem.kind == GROUP and layout is None:
            layout = problem.partition.layout(kept)
        idx = kept if layout is None else layout.group_ids
        if self._certifies_nothing(kind, theta, theta_sq, corr, state, idx, layout):
            return None
        region = self.region(kind, theta, corr, layout, state)
        if kind == DOME:
            mask = test_dome(region, kept) & state.alive
        else:
            mask = test_sphere_lasso(region)
        if mask.any():
            return mask if layout is None else group_mask_to_index_mask(layout, mask)
        if kind != DOME and kept.size and not kept.flags.writeable:
            # remember the extremal atom (group) for the bound on this kept set
            ratios = np.abs(corr) if layout is None else layout.norms(corr) / layout.weights
            self._extremal = self._memo(kept, layout, int(np.argmax(ratios)))
        return None

    def _memo(self, kept, layout, i):
        """`_extremal` for the i-th atom (group) in play: its positions, weight and index.

        An atom's position is the integer i itself; a group's are found by
        its original columns, which a layout over `kept` holds whole.
        """
        if layout is None:
            return kept, i, 1.0, int(kept[i])
        g = int(layout.group_ids[i])
        cols = np.searchsorted(kept, self.problem.partition.groups[g])
        return kept, cols, float(layout.weights[i]), g

    def _certifies_nothing(self, kind, theta, theta_sq, corr, state, idx, layout):
        """Whether a lower bound on the radius shows that sphere test `kind` flags nothing.

        The bound scales theta onto the feasible segment of the remembered
        atom (group) j alone, which contains the kept columns' segment, and
        sums ``||y / lam - mu theta||^2`` term by term. Both that sum and the
        region's ``diff @ diff`` round a few sums of N products of terms no
        larger than the three terms here, and the norm of j's correlations
        may round apart from the layout's; the allowance subtracted covers
        all of it, so the bound stays below the radius the region computes.
        Sqrt and subtraction round monotonically, so a slack that does not
        clear the bounded radius does not clear the region's either. The
        dome and a kept set without j take the exact path, and so does a
        shifted test the region would reject. A j out of play has zero
        correlations, so its segment is the whole line and the bound, though
        loose, still holds. The largest slack in play is the `ScreenState`'s
        packed slack's `top`.
        """
        key, cols, weight, j = self._extremal
        kept = state.kept
        if kind == DOME or (key is not kept and kept.flags.writeable):
            return False
        if key is not kept:
            # j stays in a read-only kept set, sorted, unless it was folded out
            i = int(np.searchsorted(idx, j))
            if i == idx.size or idx[i] != j:
                return False
            _, cols, weight, _ = self._extremal = self._memo(kept, layout, i)
        problem = self.problem
        lam = problem.lam
        shifted = kind in (DST3, GST3)
        if shifted and lam > self.lmax.value:
            return False
        ty = float(theta.dot(problem.y))
        sq = float(theta.dot(theta)) if theta_sq is None else theta_sq
        if layout is None:
            corr_j = abs(float(corr[cols]))
        else:
            cj = corr[cols]
            corr_j = math.sqrt(float(cj.dot(cj))) / weight
        mu = _clip_ratio(ty, sq, lam, math.inf if corr_j == 0.0 else 1.0 / corr_j)
        a, b, c = self._y_sq / (lam * lam), 2.0 * mu * ty / lam, mu * mu * sq
        n_cols = 1 if layout is None else cols.size
        allowance = 4.0 * (theta.size + n_cols + 8) * _EPS * (a + abs(b) + c)
        rsq = a - b + c - allowance
        if state.slack(self.safe_slack, layout).top - math.sqrt(max(rsq, 0.0)) > SCREEN_MARGIN:
            return False
        if shifted:
            _, slack, shift_sq = self._shifted
            if rsq - shift_sq < -RADIUS_GUARD:
                return False
            top = state.slack(slack, layout).top
            if top - math.sqrt(max(rsq - shift_sq, 0.0)) > SCREEN_MARGIN:
                return False
        return True


# -- tests --------------------------------------------------------------------


def _certified(region):
    """Mask over the region's slack of what it or its base certifies, or None if nothing.

    Entry i is flagged iff ``slack_i - radius`` exceeds `SCREEN_MARGIN`.
    Rounding is monotone, so no entry can pass when the largest slack does
    not, and the comparison is then skipped without changing the mask.
    """
    slack, radius = region.slack, region.radius
    mask = slack.values - radius > SCREEN_MARGIN if slack.top - radius > SCREEN_MARGIN else None
    if region.base is not None:
        base = _certified(region.base)
        if mask is None:
            mask = base
        elif base is not None:
            mask |= base
    return mask


def test_sphere_lasso(region):
    """Elimination mask over the atoms (or groups) of a sphere region's slack.

    That slack covers every atom (group) of the dictionary, or, for a region
    built over a run's `ScreenState`, its packed positions (groups); a
    caller that wants a subset indexes the mask.

    Entry i is flagged iff the region's slack for it exceeds the radius with
    at least `SCREEN_MARGIN` to spare: ``1 - |a_i . center| > radius`` for an
    atom, ``(w_g - ||D_g.T center||) / ||D_g|| > radius`` for a group, i.e.
    its worst-case correlation over the sphere stays clearly below the dual
    bound. For a composite region the entry is flagged when either sphere
    certifies it; both contain the dual optimum, so each certificate alone is
    safe. A sphere whose radius is at least its largest slack certifies
    nothing and costs one comparison of scalars. Since
    ``1 - |a_i . center| <= 1``, that covers every radius of at least 1; the
    SAFE radius never drops below ``lambda_max / lam - 1``, so below half the
    trivial threshold the SAFE sphere of a DST3 region costs nothing more.
    """
    mask = _certified(region)
    if mask is None:
        return np.zeros(region.slack.values.size, dtype=bool)
    return mask


# groups take the same test over group ids, under their own name
test_sphere_group = test_sphere_lasso


def test_dome(dp, kept):
    """Per-atom elimination mask for the dome refinement.

    Flags atom i iff its observation correlation lies strictly between two
    bounds built from its extremal-atom correlation. The bounds maximize the
    correlation over the dome exactly: the flat branches ``+-lam * (1 - r)``
    (r the enclosing-sphere radius) apply beyond the dome's cut fraction
    ``d = shift / r``, the curved branches elsewhere. At the screen-once dual
    point this reproduces the classic static dome test, where d equals the
    trivial-solution threshold itself. Degenerate radii (``radius >= 1``)
    flag nothing.
    """
    if dp.radius >= 1.0:
        return np.zeros(len(kept), dtype=bool)
    t = dp.star_correlations[kept]
    u = dp.y_correlations[kept]
    lam = dp.lam
    shift = dp.lambda_star / lam - 1.0
    r_sphere = float(np.hypot(dp.radius, shift))
    cut = shift / r_sphere if r_sphere > 0.0 else 0.0
    arc = lam * dp.radius * np.sqrt(np.maximum(1.0 - t * t, 0.0))
    slope = dp.lambda_star - lam
    flat = lam * (1.0 - r_sphere)
    lower = np.where(t < cut, slope * t - lam + arc, -flat)
    upper = np.where(t <= -cut, flat, slope * t + lam - arc)
    margin = lam * SCREEN_MARGIN
    return (u - lower > margin) & (upper - u > margin)


def group_mask_to_index_mask(layout, group_mask):
    """Expand a mask over ``layout.group_ids`` to the columns the layout places."""
    return group_mask[layout.member]
