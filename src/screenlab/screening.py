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
from dataclasses import dataclass
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
    still certifies atom (group) i. `over(idx)` gathers the slack of the
    atoms (groups) in play and its maximum. The gather of the last read-only
    index array is kept, so a solve that tests at every iteration gathers once
    per kept set; a writable array could change behind that memo, so it is
    gathered afresh on every call.
    """

    __slots__ = ("values", "_memo")

    def __init__(self, values):
        self.values = values
        self._memo = (None, None, 0.0)

    def over(self, idx):
        memo = self._memo
        if memo[0] is idx and not idx.flags.writeable:
            return memo[1], memo[2]
        slack = self.values[idx]
        top = float(slack.max(initial=-np.inf))
        if not idx.flags.writeable:
            # one tuple, so a concurrent reader sees the old memo or the new one
            self._memo = (idx, slack, top)
        return slack, top


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
    """Monotone record of eliminated column indices and their complement.

    The `kept` array of a state made by `initial` or `screen_update` is
    read-only, so screening can key per-kept-set work on it.
    """

    eliminated: np.ndarray
    kept: np.ndarray

    @classmethod
    def initial(cls, k):
        return cls(
            eliminated=np.empty(0, dtype=np.int64), kept=_frozen(np.arange(k, dtype=np.int64))
        )

    @property
    def size(self):
        return self.eliminated.size + self.kept.size


def screen_update(state, mask):
    """Fold a new elimination mask (aligned with ``state.kept``) into the state.

    Both index sets stay sorted. The newly eliminated indices form a sorted
    run disjoint from ``state.eliminated``, so a stable sort of the two runs
    back to back (timsort for int64) is a single O(K) merge.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (state.kept.size,):
        raise ValueError("mask must align with the kept index set")
    if not mask.any():
        return state
    eliminated = np.sort(np.concatenate((state.eliminated, state.kept[mask])), kind="stable")
    return ScreenState(eliminated=eliminated, kept=_frozen(state.kept[~mask]))


def _frozen(arr):
    # a read-only kept set cannot change behind the slack gathers kept for it
    arr.setflags(write=False)
    return arr


def _clip_ratio(problem, theta, bound):
    """Scaling of theta closest to ``y / lam`` within [-bound, bound]; 0 for theta = 0."""
    sq = float(theta @ theta)
    if sq == 0.0:
        return 0.0
    return min(max(float(theta @ problem.y) / (problem.lam * sq), -bound), bound)


def dual_scale_lasso(problem, theta, corr_inf=None):
    """Best feasible scaling of a dual candidate for the l1 constraints.

    Returns ``(mu, mu * theta)`` where mu is the scaling of theta closest to
    ``y / lam`` among those with all atom correlations in [-1, 1]. `corr_inf`
    is ``max_i |a_i . theta|`` over the atoms still in play; by default it is
    computed on the full dictionary.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if corr_inf is None:
        corr_inf = float(np.max(np.abs(problem.dictionary.correlate(theta)), initial=0.0))
    if corr_inf < 0:
        raise ValueError("corr_inf must be nonnegative")
    bound = np.inf if corr_inf == 0.0 else 1.0 / corr_inf
    mu = _clip_ratio(problem, theta, bound)
    return mu, mu * theta


def dual_scale_group(problem, theta, group_corr_norms=None, group_weights=None):
    """Best feasible scaling of a dual candidate for the group constraints.

    `group_corr_norms` holds ``||D_g.T theta||`` for the groups still in play
    (matched by `group_weights`); by default both come from the problem's full
    partition. The feasible segment is ``[-s, s]`` with
    ``s = min_g w_g / ||D_g.T theta||``.
    """
    if problem.kind != GROUP:
        raise ValueError("dual_scale_group needs a group problem")
    theta = np.asarray(theta, dtype=np.float64)
    if group_corr_norms is None:
        group_corr_norms = problem.partition.group_norms(problem.dictionary.correlate(theta))
    if group_weights is None:
        group_weights = problem.partition.weights
    norms = np.asarray(group_corr_norms, dtype=np.float64)
    weights = np.asarray(group_weights, dtype=np.float64)
    if norms.shape != weights.shape:
        raise ValueError("group_corr_norms and group_weights must align")
    active = norms > 0.0
    bound = float((weights[active] / norms[active]).min(initial=np.inf))
    mu = _clip_ratio(problem, theta, bound)
    return mu, mu * theta


class ScreeningContext:
    """Per-solve precomputation shared by every region construction.

    Construction computes only ``D.T y`` (`y_corr`) and `lambda_max` (`lmax`),
    which every solve needs, so `solvers.run` builds one context for each
    strategy, plain runs included. The other full-dictionary correlations
    used by the tests (with the extremal atom and the shifted sphere
    centers) are computed once, on first use, and so are the slacks of the
    sphere centers. Per-iteration work is then a few O(N) vector operations
    and the largest kept correlation; the kept slacks are compared with the
    radius only when their maximum clears it.

    Most dynamic screens certify nothing, and `screen` recognizes many of
    them before it builds a region. Any one kept atom (group) j bounds the
    dual scaling: the scaling the kept columns allow lies within the
    segment ``[-s_j, s_j]`` that j allows alone, so the squared radius
    ``||y / lam - mu theta||^2``, a parabola in mu, is at least its value
    at the point of that segment closest to the parabola's minimum. That
    lower bound costs two dot products of the observation's length and a
    gather of j's correlations; when no sphere's largest kept slack clears
    the radius it bounds, the exact test would flag nothing either.
    `_extremal` holds the extremal atom (group) of the last exact screen
    that flagged nothing, keyed on its read-only kept set: the columns of j
    among the kept ones, j's weight and its original index (group id). An
    elimination that leaves j kept moves the memo to the new kept set at
    its first screen, which finds j there by that index. A context reused
    across runs or kept sets can only make that j a looser choice, never an
    unsafe one.
    """

    def __init__(self, problem):
        self.problem = problem
        self.y_corr = problem.dictionary.correlate(problem.y)
        self.lmax = lambda_max(problem, self.y_corr)
        self._extremal = (None, None, 1.0, -1)

    # -- shared scalar machinery -------------------------------------------

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
        return Slack((part.weights - part.group_norms(center_corr)) / part.spectral_norms)

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

    def region(self, kind, theta, corr, layout=None):
        """Region of test `kind` around the dual candidate `theta`.

        `corr` holds the correlations of `theta` with the columns still in
        play; for group problems `layout` places those columns in their
        groups, and is the whole partition's when omitted. `theta` is first
        scaled onto the dual feasible segment those columns allow. SAFE and
        GSAFE give the plain sphere around ``y / lam``. DST3 and GST3 give
        the shifted sphere intersected with the plain sphere it was cut from:
        the shifted sphere bounds the plain sphere's intersection with the
        extremal atom's half-space ``a* . theta <= 1`` (the extremal group's
        tangent half-space), and `base` keeps the plain sphere itself, so the
        test also eliminates what only the plain sphere certifies. DOME gives
        the `DomeParams` of that intersection.
        """
        problem = self.problem
        if kind not in ALL_TESTS:
            raise ValueError(f"unknown screening test {kind!r}")
        if kind not in (SAFE, GSAFE) and problem.lam > self.lmax.value:
            raise ValueError(
                "penalty exceeds the trivial-solution threshold; screen everything instead"
            )
        if problem.kind == LASSO:
            _, v = dual_scale_lasso(problem, theta, float(np.abs(corr).max(initial=0.0)))
        else:
            if layout is None:
                layout = problem.partition.layout()
            _, v = dual_scale_group(problem, theta, layout.norms(corr), layout.weights)
        diff = self.safe_center - v
        rsq = float(diff @ diff)
        safe = SphereRegion(self.safe_center, math.sqrt(rsq), self.safe_slack)
        if kind in (SAFE, GSAFE):
            return safe
        center, slack, shift_sq = self._shifted
        radius = self._shifted_radius(rsq, shift_sq)
        if kind == DOME:
            star_corr, y_corr = self._dome_correlations
            return DomeParams(problem.lam, self.lmax.value, star_corr, y_corr, radius)
        return SphereRegion(center, radius, slack, base=safe)

    def static_region(self, kind):
        """Region for the screen-once strategy, built from the observation itself."""
        return self.region(kind, self.problem.y, self.y_corr)

    def screen(self, kind, theta, corr, kept, layout=None):
        """Elimination mask over `kept` from test `kind` at the dual candidate `theta`.

        `kept` holds the original indices of the columns still in play and
        `corr` their correlations with theta, in the same order; for group
        problems `layout` is the group layout over `kept` (built from it when
        omitted). The screen-once strategy is this call at ``theta = y`` on
        the whole dictionary, the dynamic strategy the same call at each
        iteration's dual point. Group tests flag whole groups, and the mask
        flags each of their columns. A sphere test whose radius lower bound
        already certifies nothing returns the all-False mask without
        building the region; the mask is the one the region would give.
        """
        problem = self.problem
        kept = np.asarray(kept, dtype=np.int64)
        if problem.kind == GROUP and layout is None:
            layout = problem.partition.layout(kept)
        idx = kept if layout is None else layout.group_ids
        if self._certifies_nothing(kind, theta, corr, kept, idx, layout):
            return np.zeros(kept.size, dtype=bool)
        region = self.region(kind, theta, corr, layout)
        if kind == DOME:
            return test_dome(region, kept)
        mask = test_sphere_lasso(region, idx)
        if mask.any():
            return mask if layout is None else group_mask_to_index_mask(layout, mask)
        if kept.size and not kept.flags.writeable:
            # remember the extremal atom (group) for the bound on this kept set
            ratios = np.abs(corr) if layout is None else layout.norms(corr) / layout.weights
            self._extremal = _memo(kept, layout, int(np.argmax(ratios)))
        return np.zeros(kept.size, dtype=bool)

    def _certifies_nothing(self, kind, theta, corr, kept, idx, layout):
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
        dome, an unknown kind and a kept set without j take the exact path,
        and so does a shifted test the region would reject.
        """
        key, cols, weight, j = self._extremal
        if kind not in (SAFE, GSAFE, DST3, GST3) or (key is not kept and kept.flags.writeable):
            return False
        if key is not kept:
            # j stays in a read-only kept set, sorted, unless it was eliminated
            i = int(np.searchsorted(idx, j))
            if i == idx.size or idx[i] != j:
                return False
            _, cols, weight, _ = self._extremal = _memo(kept, layout, i)
        problem = self.problem
        lam = problem.lam
        shifted = kind in (DST3, GST3)
        if shifted and lam > self.lmax.value:
            return False
        theta = np.asarray(theta, dtype=np.float64)
        sq = float(theta @ theta)
        ty = float(theta @ problem.y)
        mu = 0.0
        if sq != 0.0:
            cj = np.asarray(corr, dtype=np.float64)[cols]
            corr_j = math.sqrt(float(cj @ cj)) / weight
            bound = np.inf if corr_j == 0.0 else 1.0 / corr_j
            mu = min(max(ty / (lam * sq), -bound), bound)
        a, b, c = self._y_sq / (lam * lam), 2.0 * mu * ty / lam, mu * mu * sq
        allowance = 4.0 * (theta.size + cols.size + 8) * _EPS * (a + abs(b) + c)
        rsq = a - b + c - allowance
        spheres = [(self.safe_slack, rsq)]
        if shifted:
            _, slack, shift_sq = self._shifted
            if rsq - shift_sq < -RADIUS_GUARD:
                return False
            spheres.append((slack, rsq - shift_sq))
        for slack, radius_sq in spheres:
            _, top = slack.over(idx)
            if top - math.sqrt(max(radius_sq, 0.0)) > SCREEN_MARGIN:
                return False
        return True


def _memo(kept, layout, i):
    """`_extremal` for the i-th atom (group) in play: its positions, weight and index."""
    if layout is None:
        return kept, np.array([i]), 1.0, int(kept[i])
    cols = np.flatnonzero(layout.member == i)
    return kept, cols, float(layout.weights[i]), int(layout.group_ids[i])


# -- tests --------------------------------------------------------------------


def _certified(region, idx):
    """Mask over `idx` of what `region` or its base certifies, or None if nothing.

    Entry i is flagged iff ``slack_i - radius`` exceeds `SCREEN_MARGIN`.
    Rounding is monotone, so no entry can pass when the largest slack does
    not, and the comparison over `idx` is then skipped without changing the
    mask.
    """
    slack, top = region.slack.over(idx)
    mask = slack - region.radius > SCREEN_MARGIN if top - region.radius > SCREEN_MARGIN else None
    if region.base is not None:
        base = _certified(region.base, idx)
        if mask is None:
            mask = base
        elif base is not None:
            mask |= base
    return mask


def test_sphere_lasso(region, idx):
    """Elimination mask over the atoms (or groups) `idx` for a sphere region.

    Entry i is flagged iff the region's slack for it exceeds the radius with
    at least `SCREEN_MARGIN` to spare: ``1 - |a_i . center| > radius`` for an
    atom, ``(w_g - ||D_g.T center||) / ||D_g|| > radius`` for a group, i.e.
    its worst-case correlation over the sphere stays clearly below the dual
    bound. For a composite region the entry is flagged when either sphere
    certifies it; both contain the dual optimum, so each certificate alone is
    safe. A sphere whose radius is at least the largest slack over `idx`
    certifies nothing and costs one comparison of scalars. Since
    ``1 - |a_i . center| <= 1``, that covers every radius of at least 1; the
    SAFE radius never drops below ``lambda_max / lam - 1``, so below half the
    trivial threshold the SAFE sphere of a DST3 region costs nothing more.
    """
    idx = np.asarray(idx, dtype=np.int64)
    mask = _certified(region, idx)
    return np.zeros(idx.size, dtype=bool) if mask is None else mask


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
