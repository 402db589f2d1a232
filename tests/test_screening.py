import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import screenlab as sl
from screenlab import screening
from conftest import as_mask, identity_problem, make_group, make_lasso, over, screened_copy


def kept_all(p):
    return np.arange(p.n_cols, dtype=np.int64)


def same(got, want):
    """Whether `screen` returned `want` as its contract says: None when it flags nothing."""
    if not want.any():
        return got is None
    return got is not None and got.dtype == bool and np.array_equal(got, want)


class TestDualScaleLasso:
    def test_identity_theta_y(self):
        p = identity_problem(0.8)
        mu, v = sl.dual_scale_lasso(p, p.y, corr=np.array([1.0, 0.0]))
        assert mu == pytest.approx(1.0)
        assert np.allclose(v, p.y)

    def test_negative_residual_start(self):
        p = identity_problem(0.8)
        mu, v = sl.dual_scale_lasso(p, -p.y, corr=np.array([-1.0, 0.0]))
        assert mu == pytest.approx(-1.0)
        assert np.allclose(v, p.y)

    def test_zero_corr_inf_means_no_clip(self):
        p = identity_problem(0.8)
        mu, _ = sl.dual_scale_lasso(p, p.y, corr=np.zeros(2))
        assert mu == pytest.approx(1.0 / 0.8)

    def test_zero_theta(self):
        p = identity_problem(0.8)
        mu, v = sl.dual_scale_lasso(p, np.zeros(2))
        assert mu == 0.0 and np.all(v == 0.0)

    def test_scaled_point_always_feasible(self):
        rng = np.random.default_rng(0)
        for seed in range(40):
            p = make_lasso(seed)
            theta = rng.standard_normal(p.n_rows)
            _, v = sl.dual_scale_lasso(p, theta)
            assert sl.dual_feasible(p, v, tol=1e-9)


class TestDualScaleGroup:
    def test_singleton_groups_reduce_to_lasso(self):
        p = identity_problem(0.8)
        pg = identity_problem(0.8, kind="group")
        rng = np.random.default_rng(1)
        for _ in range(10):
            theta = rng.standard_normal(2)
            mu_l, v_l = sl.dual_scale_lasso(p, theta)
            mu_g, v_g = sl.dual_scale_group(pg, theta)
            assert mu_g == pytest.approx(mu_l, abs=1e-14)
            assert np.allclose(v_g, v_l, atol=1e-14)

    def test_theta_y_hits_threshold_point(self):
        pg = make_group(5, ratio=0.6)
        lm = sl.lambda_max(pg)
        mu, v = sl.dual_scale_group(pg, pg.y)
        assert mu == pytest.approx(1.0 / lm.value, rel=1e-12)
        assert np.allclose(v, pg.y / lm.value, atol=1e-12)

    def test_zero_norms_unclipped(self):
        pg = identity_problem(0.8, kind="group")
        mu, _ = sl.dual_scale_group(pg, pg.y, corr=np.zeros(2))
        assert mu == pytest.approx(1.0 / 0.8)

    def test_scaled_point_always_feasible(self):
        rng = np.random.default_rng(2)
        for seed in range(30):
            p = make_group(seed)
            theta = rng.standard_normal(p.n_rows)
            _, v = sl.dual_scale_group(p, theta)
            assert sl.dual_feasible(p, v, tol=1e-9)

    def test_requires_group_problem(self):
        p = identity_problem(0.8)
        with pytest.raises(ValueError):
            sl.dual_scale_group(p, p.y)


class TestOtherPenaltyRejected:
    def test_region_and_screen_name_the_test_and_problem_kind(self):
        # each penalty's tests, run on the other penalty, used to act as their
        # counterparts or fail on a vector length
        for problem, valid, wrong in ((make_lasso(1), "dst3", ("gst3", "gsafe", "bogus")),
                                      (make_group(1), "gst3", ("dst3", "safe", "dome"))):
            ctx = sl.ScreeningContext(problem)
            state = sl.ScreenState.initial(problem.n_cols)
            # at a dual point orthogonal to y the radius exceeds every slack, so
            # the screen flags nothing and primes the radius bound on this kept set
            theta = np.roll(problem.y, 1) - (np.roll(problem.y, 1) @ problem.y) * problem.y
            corr = problem.dictionary.correlate(theta)
            assert ctx.screen(valid, theta, corr, state) is None
            for kind in wrong:
                want = f"test '{kind}' does not apply to {problem.kind} problems"
                with pytest.raises(ValueError, match=want):
                    ctx.screen(kind, theta, corr, state)
                with pytest.raises(ValueError, match=want):
                    ctx.region(kind, theta, corr)
                with pytest.raises(ValueError, match=want):
                    ctx.static_region(kind)


class TestRegionSafe:
    def test_zero_radius_at_threshold(self):
        p = identity_problem(1.0)  # lam == lambda_max
        reg = sl.ScreeningContext(p).region(sl.SAFE, p.y, p.dictionary.correlate(p.y))
        assert reg.radius == pytest.approx(0.0, abs=1e-15)
        mask = sl.test_sphere_lasso(reg)
        assert mask.tolist() == [False, True]

    def test_zero_theta_radius(self):
        p = identity_problem(0.8)
        reg = sl.ScreeningContext(p).region(sl.SAFE, np.zeros(2), np.zeros(2))
        assert reg.radius == pytest.approx(1.0 / 0.8)

    def test_identity_worked_example(self):
        p = identity_problem(0.8)
        reg = sl.ScreeningContext(p).region(sl.SAFE, p.y, p.dictionary.correlate(p.y))
        assert np.allclose(reg.center, [1.25, 0.0])
        assert reg.radius == pytest.approx(0.25)

    def test_slack_invariant(self):
        # every sphere, the base sphere of a shifted region too, carries the
        # penalty's slack at its own center
        for seed in range(10):
            for p in (make_lasso(seed), make_group(seed)):
                theta = np.random.default_rng(seed).standard_normal(p.n_rows)
                ctx = sl.ScreeningContext(p)
                for kind in sl.LASSO_TESTS if p.kind == sl.LASSO else sl.GROUP_TESTS:
                    if kind == sl.DOME:
                        continue
                    reg = ctx.region(kind, theta, p.dictionary.correlate(theta))
                    spheres = [reg] if reg.base is None else [reg, reg.base]
                    for sphere in spheres:
                        corr = p.dictionary.correlate(sphere.center)
                        if p.kind == sl.LASSO:
                            want = 1.0 - np.abs(corr)
                        else:
                            part = p.partition
                            want = (part.weights - part.full.norms(corr)) / part.spectral_norms
                        assert np.allclose(sphere.slack.values, want, atol=1e-10)

    def test_threshold_radius_screens_by_correlation(self):
        # at lam == lambda_max with theta = y the radius collapses to zero and
        # the mask keeps exactly the atoms at the maximal correlation
        for seed in range(5):
            base = make_lasso(seed, n=15, k=35)
            lm = sl.lambda_max(base)
            p = sl.Problem(base.dictionary, base.y, lm.value)
            reg = sl.ScreeningContext(p).region(sl.SAFE, p.y, p.dictionary.correlate(p.y))
            assert reg.radius <= 1e-12
            mask = sl.test_sphere_lasso(reg)
            corr = np.abs(p.dictionary.correlate(p.y))
            generic = np.abs(corr - lm.value) > 1e-9
            assert np.array_equal(mask[generic], (corr < lm.value)[generic])
            assert not mask[lm.atom_index]


class TestRegionDst3:
    def test_identity_worked_example(self):
        p = identity_problem(0.8)
        reg = sl.ScreeningContext(p).region(sl.DST3, p.y, p.dictionary.correlate(p.y))
        assert np.allclose(reg.center, [1.0, 0.0], atol=1e-15)
        assert reg.radius == pytest.approx(0.0, abs=1e-12)
        assert sl.test_sphere_lasso(reg).tolist() == [False, True]

    def test_at_threshold_center_matches_safe(self):
        p = identity_problem(1.0)
        reg = sl.ScreeningContext(p).region(sl.DST3, p.y, p.dictionary.correlate(p.y))
        assert np.allclose(reg.center, p.y / p.lam)

    def test_static_point_sign_symmetry(self):
        # theta = y and theta = -y scale to the same feasible point, so the
        # regions and masks must agree exactly
        for seed in range(10):
            p = make_lasso(seed, ratio=0.6)
            ctx = sl.ScreeningContext(p)
            r_pos = ctx.region(sl.DST3, p.y, p.dictionary.correlate(p.y))
            r_neg = ctx.region(sl.DST3, -p.y, p.dictionary.correlate(-p.y))
            assert r_pos.radius == r_neg.radius
            m_pos = sl.test_sphere_lasso(r_pos)
            m_neg = sl.test_sphere_lasso(r_neg)
            assert np.array_equal(m_pos, m_neg)

    def test_rejects_lam_above_threshold(self):
        base = make_lasso(3)
        lam = 2.0 * sl.lambda_max(base).value
        p = sl.Problem(base.dictionary, base.y, lam)
        corr = p.dictionary.correlate(p.y)
        with pytest.raises(ValueError, match="trivial"):
            sl.ScreeningContext(p).region(sl.DST3, p.y, corr)
        with pytest.raises(ValueError, match="trivial"):
            sl.ScreeningContext(p).region(sl.DOME, p.y, corr)

    def test_radius_clamp_guard(self):
        p = identity_problem(0.8)
        ctx = screening.ScreeningContext(p)
        assert ctx._shifted_radius(1.0, 1.0 + 5e-9) == 0.0
        with pytest.raises(RuntimeError, match="radius"):
            ctx._shifted_radius(1.0, 1.0 + 5e-8)


class TestSphereLassoMask:
    def test_large_radius_screens_nothing(self):
        p = make_lasso(4)
        ctx = screening.ScreeningContext(p)
        reg = screening.SphereRegion(ctx.safe_center, 1.0, ctx.safe_slack)
        assert not sl.test_sphere_lasso(reg).any()

    def test_static_safe_matches_closed_form(self):
        # the screen-once mask equals the correlation threshold form
        # |a.y| < lam - 1 + lam/lambda_max, away from knife-edge ties
        for seed in range(15):
            p = make_lasso(seed, n=16, k=40, ratio=0.85)
            lm = sl.lambda_max(p)
            ctx = screening.ScreeningContext(p)
            reg = ctx.static_region(screening.SAFE)
            mask = sl.test_sphere_lasso(reg)
            thresh = p.lam - 1.0 + p.lam / lm.value
            corr = np.abs(p.dictionary.correlate(p.y))
            margin = np.abs(corr - thresh)
            generic = margin > 1e-9
            assert np.array_equal(mask[generic], (corr < thresh)[generic])


class TestDome:
    def test_identity_worked_example(self):
        p = identity_problem(0.8)
        dp = sl.ScreeningContext(p).region(sl.DOME, p.y, p.dictionary.correlate(p.y))
        assert dp.radius == pytest.approx(0.0, abs=1e-12)
        assert sl.test_dome(dp, kept_all(p)).tolist() == [False, True]

    def test_vacuous_radius_screens_nothing(self):
        p = make_lasso(6, ratio=0.9)
        lm = sl.lambda_max(p)
        dp = screening.DomeParams(
            lam=p.lam,
            lambda_star=lm.value,
            star_correlations=p.dictionary.correlate(lm.atom),
            y_correlations=p.dictionary.correlate(p.y),
            radius=1.0,
        )
        assert not sl.test_dome(dp, kept_all(p)).any()

    def test_dome_dominates_both_spheres(self):
        # the dome region is contained in both the plain and the shifted
        # sphere, so its screened set contains both of theirs
        rng = np.random.default_rng(8)
        for seed in range(30):
            p = make_lasso(seed, n=14, k=36, ratio=0.55 + 0.4 * (seed % 5) / 5)
            ctx = screening.ScreeningContext(p)
            theta = rng.standard_normal(p.n_rows)
            corr = p.dictionary.correlate(theta)
            m_safe = sl.test_sphere_lasso(ctx.region(sl.SAFE, theta, corr))
            m_dst3 = sl.test_sphere_lasso(ctx.region(sl.DST3, theta, corr))
            m_dome = sl.test_dome(ctx.region(sl.DOME, theta, corr), kept_all(p))
            assert not np.any(m_safe & ~m_dome)
            assert not np.any(m_dst3 & ~m_dome)

    def test_static_dome_matches_printed_constants(self):
        # at the screen-once dual point the flat levels reduce to
        # lam - 1 + lam/lambda_max and the cut to lambda_max itself
        p = make_lasso(9, ratio=0.8)
        lm = sl.lambda_max(p)
        dp = screening.ScreeningContext(p).static_region(screening.DOME)
        r_sphere = float(np.hypot(dp.radius, lm.value / p.lam - 1.0))
        assert r_sphere == pytest.approx(1.0 / p.lam - 1.0 / lm.value, rel=1e-12)
        assert p.lam * (1.0 - r_sphere) == pytest.approx(p.lam - 1.0 + p.lam / lm.value, rel=1e-12)
        cut = (lm.value / p.lam - 1.0) / r_sphere
        assert cut == pytest.approx(lm.value, rel=1e-12)

    def test_correlation_bounds_validated(self):
        # columns and y within the unit-norm tolerances, 1 + 0.99e-9 long,
        # correlate at 1 + 1.98e-9, past the dome's bound of 1 + 1e-9
        scale = 1.0 + 0.99e-9
        dic = sl.Dictionary(scale * np.eye(3))
        p = sl.Problem(dic, np.array([scale, 0.0, 0.0]), 0.5)
        ctx = screening.ScreeningContext(p)
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(ValueError, match=r"star_correlations must lie in \[-1, 1\]"):
                ctx.region(sl.DOME, np.zeros(3), np.zeros(3))


class TestGroupRegions:
    def test_gsafe_singleton_matches_safe(self):
        p = identity_problem(0.8)
        pg = identity_problem(0.8, kind="group")
        reg_l = sl.ScreeningContext(p).region(sl.SAFE, p.y, p.dictionary.correlate(p.y))
        reg_g = sl.ScreeningContext(pg).region(sl.GSAFE, pg.y, pg.dictionary.correlate(pg.y))
        assert np.allclose(reg_l.center, reg_g.center)
        assert reg_l.radius == pytest.approx(reg_g.radius, abs=1e-14)

    def test_gsafe_identity_group_mask(self):
        pg = identity_problem(0.8, kind="group")
        reg = sl.ScreeningContext(pg).region(sl.GSAFE, pg.y, pg.dictionary.correlate(pg.y))
        mask = sl.test_sphere_group(reg)
        assert mask.tolist() == [False, True]

    def test_gsafe_zero_theta_radius(self):
        pg = identity_problem(0.8, kind="group")
        reg = sl.ScreeningContext(pg).region(sl.GSAFE, np.zeros(2), np.zeros(2))
        assert reg.radius == pytest.approx(1.0 / 0.8)

    def test_gst3_identity_worked_example(self):
        pg = identity_problem(0.8, kind="group")
        reg = sl.ScreeningContext(pg).region(sl.GST3, pg.y, pg.dictionary.correlate(pg.y))
        assert np.allclose(reg.center, [1.0, 0.0], atol=1e-14)
        assert reg.radius == pytest.approx(0.0, abs=1e-12)
        mask = sl.test_sphere_group(reg)
        assert mask.tolist() == [False, True]

    def test_gst3_singleton_matches_dst3(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            p = make_lasso(seed, n=10, k=18, ratio=0.7)
            part = sl.GroupPartition.build(
                p.dictionary, [np.array([i]) for i in range(18)], weights=np.ones(18)
            )
            pg = sl.Problem(p.dictionary, p.y, p.lam, part)
            theta = rng.standard_normal(10)
            corr = p.dictionary.correlate(theta)
            reg_l = sl.ScreeningContext(p).region(sl.DST3, theta, corr)
            reg_g = sl.ScreeningContext(pg).region(sl.GST3, theta, corr)
            assert np.allclose(reg_l.center, reg_g.center, atol=1e-10)
            assert reg_l.radius == pytest.approx(reg_g.radius, abs=1e-10)

    def test_gst3_contains_dual_optimum(self):
        for seed in range(6):
            pg = make_group(seed, ratio=0.6)
            ref = sl.solve_reference(pg, 1e-12)
            theta_star = (pg.y - pg.dictionary.apply(ref.x_ref)) / pg.lam
            reg = sl.ScreeningContext(pg).region(sl.GST3, pg.y, pg.dictionary.correlate(pg.y))
            assert np.linalg.norm(theta_star - reg.center) <= reg.radius + 1e-9

    def test_omitted_layout_is_the_whole_partition(self):
        rng = np.random.default_rng(17)
        for seed in range(6):
            pg = make_group(seed, ratio=0.6)
            ctx = sl.ScreeningContext(pg)
            for theta in (pg.y, rng.standard_normal(pg.n_rows)):
                corr = pg.dictionary.correlate(theta)
                for kind in sl.GROUP_TESTS:
                    got = ctx.region(kind, theta, corr)
                    want = ctx.region(kind, theta, corr, pg.partition.full)
                    for a, b in ((got, want), (got.base, want.base)):
                        if a is None:
                            assert b is None
                            continue
                        assert a.radius == b.radius
                        assert np.array_equal(a.center, b.center)
                        assert np.array_equal(a.slack.values, b.slack.values)

    def test_gst3_rejects_trivial_regime(self):
        base = make_group(7)
        lam = 1.5 * sl.lambda_max(base).value
        pg = sl.Problem(base.dictionary, base.y, lam, base.partition)
        with pytest.raises(ValueError, match="trivial"):
            sl.ScreeningContext(pg).region(sl.GST3, pg.y, pg.dictionary.correlate(pg.y))


class TestCompositeShiftedRegions:
    # The shifted sphere protrudes from the plain sphere it was cut from, on
    # the side facing away from the extremal atom or group. The composite
    # region keeps the plain sphere too, so the shifted test's screened set
    # contains the plain test's at every dual point. The draws mix random
    # points with points around the screen-once point, where the plain sphere
    # is small enough to screen and the protrusion shows.

    @staticmethod
    def _shifted_only(region):
        return screening.SphereRegion(region.center, region.radius, region.slack)

    @staticmethod
    def _dual_points(p, rng):
        near_static = -p.y + 0.3 * rng.standard_normal(p.n_rows) / np.sqrt(p.n_rows)
        return rng.standard_normal(p.n_rows), near_static

    def test_dst3_dominates_safe(self):
        rng = np.random.default_rng(8)
        protruding = 0
        for seed in range(60):
            p = make_lasso(seed, n=14, k=36, ratio=0.55 + 0.4 * (seed % 5) / 5)
            ctx = screening.ScreeningContext(p)
            for theta in self._dual_points(p, rng):
                corr = p.dictionary.correlate(theta)
                m_safe = sl.test_sphere_lasso(ctx.region(sl.SAFE, theta, corr))
                reg = ctx.region(sl.DST3, theta, corr)
                m_dst3 = sl.test_sphere_lasso(reg)
                assert not np.any(m_safe & ~m_dst3)
                m_shifted = sl.test_sphere_lasso(self._shifted_only(reg))
                assert np.array_equal(m_dst3, m_safe | m_shifted)
                protruding += int(np.any(m_safe & ~m_shifted))
        assert protruding > 0

    def test_gst3_dominates_gsafe(self):
        rng = np.random.default_rng(9)
        problems = [make_group(seed, ratio=0.5 + 0.4 * (seed % 5) / 5) for seed in range(30)]
        for seed in range(30):
            p = make_lasso(seed, n=14, k=36, ratio=0.55 + 0.4 * (seed % 5) / 5)
            part = sl.GroupPartition.build(
                p.dictionary, [np.array([i]) for i in range(36)], weights=np.ones(36)
            )
            problems.append(sl.Problem(p.dictionary, p.y, p.lam, part))
        protruding = 0
        for p in problems:
            ctx = screening.ScreeningContext(p)
            for theta in self._dual_points(p, rng):
                corr = p.dictionary.correlate(theta)
                reg = ctx.region(sl.GSAFE, theta, corr)
                m_gsafe = sl.test_sphere_group(reg)
                reg = ctx.region(sl.GST3, theta, corr)
                m_gst3 = sl.test_sphere_group(reg)
                assert not np.any(m_gsafe & ~m_gst3)
                m_shifted = sl.test_sphere_group(self._shifted_only(reg))
                assert np.array_equal(m_gst3, m_gsafe | m_shifted)
                protruding += int(np.any(m_gsafe & ~m_shifted))
        assert protruding > 0


class TestSphereGroupMask:
    def test_large_radius_screens_nothing(self):
        pg = make_group(8)
        part = pg.partition
        ctx = screening.ScreeningContext(pg)
        radius = float(np.max(part.weights / part.spectral_norms))
        reg = screening.SphereRegion(ctx.safe_center, radius, ctx.safe_slack)
        mask = sl.test_sphere_group(reg)
        assert not mask.any()

    def test_singleton_matches_lasso_decisions(self):
        p = identity_problem(0.8)
        pg = identity_problem(0.8, kind="group")
        reg_l = sl.ScreeningContext(p).region(sl.SAFE, p.y, p.dictionary.correlate(p.y))
        reg_g = sl.ScreeningContext(pg).region(sl.GSAFE, pg.y, pg.dictionary.correlate(pg.y))
        m_l = sl.test_sphere_lasso(reg_l)
        m_g = sl.test_sphere_group(reg_g)
        assert np.array_equal(m_l, m_g)

    def test_index_mask_expansion(self):
        pg = make_group(9, k=30, group_size=3)
        part = pg.partition
        kept_groups = np.arange(part.n_groups)
        gmask = np.zeros(part.n_groups, dtype=bool)
        gmask[[1, 4]] = True
        kept = np.arange(30)
        mask = sl.group_mask_to_index_mask(part.full, gmask)
        screened = set(kept[mask].tolist())
        want = set(part.groups[1].tolist()) | set(part.groups[4].tolist())
        assert screened == want

    def test_layout_expansion_matches_searchsorted(self):
        # the expansion through the layout equals a lookup of each kept
        # column's group among the kept groups
        rng = np.random.default_rng(16)
        for trial in range(40):
            k = int(rng.integers(2, 60))
            cuts = np.sort(rng.choice(np.arange(1, k), size=int(rng.integers(0, k - 1)), replace=False))
            perm = rng.permutation(k)
            groups = [np.sort(g) for g in np.split(perm, cuts)]
            dic = sl.Dictionary(np.eye(k))
            part = sl.GroupPartition.build(dic, groups)
            chosen = np.flatnonzero(rng.random(part.n_groups) < 0.6)
            if chosen.size == 0:
                chosen = np.array([trial % part.n_groups])
            kept = np.sort(np.concatenate([part.groups[g] for g in chosen]))
            layout = part.layout(kept)
            group_mask = rng.random(layout.n_groups) < 0.5
            pos = np.searchsorted(layout.group_ids, part.group_of[kept])
            want = group_mask[pos]
            got = sl.group_mask_to_index_mask(layout, group_mask)
            assert np.array_equal(got, want)
            # the scatter of per-group decisions over each group's positions
            order = np.concatenate([np.searchsorted(kept, part.groups[g]) for g in layout.group_ids])
            scatter = np.empty(kept.size, dtype=bool)
            sizes = np.bincount(layout.member, minlength=layout.n_groups)
            scatter[order] = np.repeat(group_mask, sizes)
            assert np.array_equal(got, scatter)


class TestScreen:
    # `ScreeningContext.screen` is the one dispatch behind the static and the
    # dynamic strategy: region from the kept correlations, the test, and for
    # groups the expansion of group decisions to columns.

    def test_lasso_matches_region_and_test(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            p = make_lasso(seed, n=14, k=36, ratio=0.55 + 0.4 * (seed % 5) / 5)
            ctx = screening.ScreeningContext(p)
            kept = kept_all(p)
            for theta in (p.y, rng.standard_normal(p.n_rows)):
                corr = p.dictionary.correlate(theta)
                for kind in sl.LASSO_TESTS:
                    reg = ctx.region(kind, theta, corr)
                    want = sl.test_dome(reg, kept) if kind == sl.DOME else sl.test_sphere_lasso(reg)
                    assert same(ctx.screen(kind, theta, corr, over(p, kept)), want)

    def test_static_call_matches_static_region(self):
        for seed in range(10):
            for p in (make_lasso(seed, ratio=0.8), make_group(seed, ratio=0.8)):
                ctx = screening.ScreeningContext(p)
                kept = kept_all(p)
                for kind in sl.LASSO_TESTS if p.kind == sl.LASSO else sl.GROUP_TESTS:
                    reg = ctx.static_region(kind)
                    if kind == sl.DOME:
                        want = sl.test_dome(reg, kept)
                    elif p.kind == sl.LASSO:
                        want = sl.test_sphere_lasso(reg)
                    else:
                        want = sl.test_sphere_group(reg)[p.partition.group_of]
                    assert same(ctx.screen(kind, p.y, ctx.y_corr, over(p, kept)), want)

    def test_group_mask_covers_whole_kept_groups(self):
        rng = np.random.default_rng(13)
        flagged = unflagged = 0
        for seed in range(10):
            p = make_group(seed, ratio=0.5 + 0.4 * (seed % 5) / 5)
            part = p.partition
            ctx = screening.ScreeningContext(p)
            # the static survivors keep the extremal group, so every scaled
            # point below satisfies its constraint
            kept = kept_all(p)
            kept = kept[~as_mask(ctx.screen(sl.GSAFE, p.y, ctx.y_corr, over(p, kept)), kept.size)]
            layout = part.layout(kept)
            for theta in (-p.y, rng.standard_normal(p.n_rows), np.zeros(p.n_rows)):
                corr = p.dictionary.data[:, kept].T @ theta
                for kind in sl.GROUP_TESTS:
                    state = over(p, kept)
                    mask = as_mask(ctx.screen(kind, theta, corr, state, layout), kept.size)
                    assert mask.dtype == bool and mask.shape == kept.shape
                    assert same(ctx.screen(kind, theta, corr, over(p, kept)), mask)
                    reg = ctx.region(kind, theta, corr, layout)
                    groups = sl.test_sphere_group(reg)[layout.group_ids]
                    assert set(kept[mask]) == set(np.concatenate(
                        [part.groups[g] for g in layout.group_ids[groups]] + [np.empty(0, int)]
                    ))
                    flagged += int(mask.any())
                    unflagged += int(not mask.any())
        assert flagged and unflagged


def reference_screen(ctx, kind, theta, corr, kept, layout=None):
    """The screen's mask over `kept`, and the shifted sphere's alone (None for SAFE/GSAFE).

    Built from the dual scaling, the context's slacks, `SCREEN_MARGIN` and the
    base-sphere rule: the plain sphere a shifted region was cut from flags
    what it certifies too, and for atoms, whose slack is at most 1, only a
    plain radius below 1 can certify any.
    """
    p = ctx.problem
    if p.kind == sl.LASSO:
        _, v = sl.dual_scale_lasso(p, theta, corr=corr)
        idx = kept
    else:
        _, v = sl.dual_scale_group(p, theta, corr=corr, layout=layout)
        idx = layout.group_ids
    diff = ctx.safe_center - v
    rsq = float(diff @ diff)
    r_safe = np.sqrt(rsq)
    plain = ctx.safe_slack.values[idx] - r_safe > screening.SCREEN_MARGIN
    shifted = None
    if kind in (sl.SAFE, sl.GSAFE):
        flags = plain
    else:
        _, slack, shift_sq = ctx._shifted
        radius = np.sqrt(max(rsq - shift_sq, 0.0))
        if kind == sl.DOME:
            dome = sl.DomeParams(p.lam, ctx.lmax.value, ctx.star_corr, ctx.y_corr, radius)
            return sl.test_dome(dome, kept), None
        shifted = slack.values[idx] - radius > screening.SCREEN_MARGIN
        base_applies = p.kind == sl.GROUP or r_safe < 1.0
        flags = shifted | plain if base_applies else shifted
    if p.kind == sl.GROUP:
        flags = np.isin(p.partition.group_of[kept], idx[flags])
    return flags, shifted


class TestLeanScreen:
    # `screen` keeps the slack of every kept set gathered, skips the
    # per-atom comparison when the largest slack cannot clear the radius, and
    # takes the dual scaling from scalars; its masks must equal the plain
    # computation on every call.

    @staticmethod
    def _kept_sets(p, rng):
        # random kept sets that keep the extremal atom (group), so every
        # scaled point satisfies its constraint and the shifted radius exists
        lmax = sl.lambda_max(p)
        for size in (p.n_cols, 25, 12, 25):
            if p.kind == sl.LASSO:
                picked = rng.choice(p.n_cols, size=size, replace=False)
                kept = np.union1d(picked, [lmax.atom_index]).astype(np.int64)
            else:
                part = p.partition
                gids = rng.choice(part.n_groups, size=size * part.n_groups // p.n_cols)
                gids = np.union1d(gids, [lmax.group]).astype(np.int64)
                kept = np.sort(np.concatenate([part.groups[g] for g in gids]))
            # read-only kept sets are gathered once; writable ones every call
            if size != 12:
                kept.setflags(write=False)
            yield kept

    def test_masks_match_reference(self):
        rng = np.random.default_rng(31)
        exits = base_only = flagged = 0
        for seed in range(12):
            ratio = 0.5 + 0.45 * (seed % 4) / 3
            for p in (make_lasso(seed, n=14, k=36, ratio=ratio), make_group(seed, ratio=ratio)):
                ctx = screening.ScreeningContext(p)
                kinds = sl.LASSO_TESTS if p.kind == sl.LASSO else sl.GROUP_TESTS
                for kept in self._kept_sets(p, rng):
                    layout = p.partition.layout(kept) if p.kind == sl.GROUP else None
                    state = over(p, kept)
                    near_static = -p.y + 0.3 * rng.standard_normal(p.n_rows) / np.sqrt(p.n_rows)
                    for theta in (rng.standard_normal(p.n_rows), near_static, np.zeros(p.n_rows)):
                        corr = p.dictionary.data[:, kept].T @ theta
                        for kind in kinds:
                            want, shifted = reference_screen(ctx, kind, theta, corr, kept, layout)
                            for _ in range(2):
                                got = ctx.screen(kind, theta, corr, state, layout)
                                assert same(got, want)
                            exits += int(not want.any())
                            flagged += int(want.any())
                            if shifted is not None and not shifted.any():
                                base_only += int(want.any())
        assert exits and flagged and base_only

    def test_early_exit_is_exact_at_the_margin(self):
        # radii around the largest slack minus the margin: the comparison is
        # skipped only where it would flag nothing
        rng = np.random.default_rng(32)
        values = rng.random(50)
        top = float(values.max())
        edge = top - screening.SCREEN_MARGIN
        counts = []
        below, above = np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)
        for radius in (top - 1e-9, below, edge, above, top):
            region = screening.SphereRegion(None, float(radius), screening.Slack(values))
            want = values - radius > screening.SCREEN_MARGIN
            assert np.array_equal(sl.test_sphere_lasso(region), want)
            assert np.array_equal(sl.test_sphere_group(region), want)
            counts.append(int(want.sum()))
        assert counts[0] > 0 and counts[1] > 0 and counts[-1] == 0

    @pytest.mark.parametrize("kind", sl.ALL_TESTS)
    def test_dynamic_run_gets_reference_mask(self, kind):
        if kind in sl.LASSO_TESTS:
            p = make_lasso(14, ratio=0.8)
        else:
            p = make_group(15, ratio=0.7)
        ctx = screening.ScreeningContext(p)
        kept_sizes = []

        def hook(t, state, mask):
            # the reference over the columns in play, placed at the run's packed positions
            alive = state.screen_state.alive
            kept = state.screen_state.kept[alive]
            layout = p.partition.layout(kept) if p.kind == sl.GROUP else None
            want = np.zeros(alive.size, dtype=bool)
            want[alive] = reference_screen(ctx, kind, state.theta, state.corr[alive], kept,
                                           layout)[0]
            assert same(mask, want), t
            kept_sizes.append(kept.size)

        cfg = sl.SolverConfig(algorithm="fista", strategy="dynamic", test=kind,
                              max_iters=300, rel_tol=1e-10)
        sl.run(p, cfg, iteration_hook=hook)
        # the masks were checked on a shrinking kept set
        assert kept_sizes[-1] < kept_sizes[0] == p.n_cols


_REGION = screening.ScreeningContext.region


def exact_screen(ctx, kind, theta, corr, kept):
    """`screen`'s mask the long way: region, its test and the group expansion."""
    p = ctx.problem
    if p.kind == sl.LASSO:
        region = _REGION(ctx, kind, theta, corr)
        return sl.test_dome(region, kept) if kind == sl.DOME else sl.test_sphere_lasso(region)[kept]
    layout = p.partition.layout(kept)
    groups = sl.test_sphere_group(_REGION(ctx, kind, theta, corr, layout))[layout.group_ids]
    return sl.group_mask_to_index_mask(layout, groups)


def exact_in_play(ctx, kind, theta, corr, ss):
    """`exact_screen` over the columns of a run's state `ss` in play, at its packed positions."""
    mask = np.zeros(ss.kept.size, dtype=bool)
    mask[ss.alive] = exact_screen(ctx, kind, theta, corr[ss.alive], ss.kept[ss.alive])
    return mask


@pytest.fixture
def region_calls(monkeypatch):
    """Records the context of every `ScreeningContext.region` call."""
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(self)
        return _REGION(self, *args, **kwargs)

    monkeypatch.setattr(screening.ScreeningContext, "region", counting)
    return calls


def _bound_problems(kind):
    make = make_lasso if kind in sl.LASSO_TESTS else make_group
    return [make(seed, ratio=ratio) for seed in (3, 4) for ratio in (0.5, 0.85)]


class TestRadiusBound:
    # `screen` returns the all-False mask without building the region when a
    # lower bound on the radius, from the extremal atom (group) of the last
    # exact screen over the kept set, already certifies nothing. Each mask
    # must equal the exact one, and the skip must fire for that to mean
    # anything.

    @pytest.mark.parametrize("kind", [sl.SAFE, sl.DST3, sl.GSAFE, sl.GST3])
    @pytest.mark.parametrize("algo", ["ista", "fista", "cp"])
    def test_dynamic_masks_equal_exact(self, kind, algo, region_calls):
        screens = flagged = 0
        for p in _bound_problems(kind):
            ref = screening.ScreeningContext(p)

            def hook(t, state, mask):
                nonlocal screens, flagged
                want = exact_in_play(ref, kind, state.theta, state.corr, state.screen_state)
                assert same(mask, want), t
                screens += 1
                flagged += int(want.any())

            cfg = sl.SolverConfig(algorithm=algo, strategy="dynamic", test=kind,
                                  max_iters=150, rel_tol=1e-10)
            sl.run(p, cfg, iteration_hook=hook)
        assert flagged and len(region_calls) < screens

    @pytest.mark.parametrize("family", ["lasso", "group"])
    def test_context_shared_across_runs(self, family, region_calls):
        kinds = [sl.SAFE, sl.DST3] if family == "lasso" else [sl.GSAFE, sl.GST3]
        screens = built = 0
        for p in _bound_problems(kinds[0]):
            ctx, ref = screening.ScreeningContext(p), screening.ScreeningContext(p)

            def hook(t, state, mask):
                nonlocal screens
                ss = state.screen_state
                screened = screened_copy(ss)
                for kind in kinds:
                    got = ctx.screen(kind, state.theta, state.corr, screened, state.layout)
                    assert same(got, exact_in_play(ref, kind, state.theta, state.corr, ss))
                    screens += 1

            for algo in ("ista", "fista", "cp"):
                for kind in kinds:
                    cfg = sl.SolverConfig(algorithm=algo, strategy="dynamic", test=kind,
                                          max_iters=80, rel_tol=1e-10)
                    sl.run(p, cfg, iteration_hook=hook)
            built += sum(c is ctx for c in region_calls)
        assert built < screens

    @staticmethod
    def _near_optimal_thetas(p, rng):
        # residuals around the solution's, where the tests certify most
        res = sl.run(p, sl.SolverConfig(algorithm="fista", max_iters=400, rel_tol=1e-12))
        theta = p.dictionary.apply(res.x_star) - p.y
        for scale in (0.0, 1e-3, 1e-2, 0.1, 1.0):
            yield theta + scale * rng.standard_normal(p.n_rows) / np.sqrt(p.n_rows)

    def test_any_kept_atom_or_group_is_safe(self):
        # a remembered j that is not extremal, as a stale or shared context
        # holds, loosens the bound but never skips a screen that certifies
        rng = np.random.default_rng(33)
        flagged = 0
        for kinds, make in (([sl.SAFE, sl.DST3], make_lasso), ([sl.GSAFE, sl.GST3], make_group)):
            for seed in range(4):
                p = make(seed, ratio=0.6 + 0.1 * seed)
                ctx = screening.ScreeningContext(p)
                state = screening.ScreenState.initial(p.n_cols)
                kept = state.kept
                layout = p.partition.layout(kept) if p.kind == sl.GROUP else None
                for theta in self._near_optimal_thetas(p, rng):
                    corr = p.dictionary.correlate(theta)
                    for j in range(p.n_cols if layout is None else layout.n_groups):
                        if layout is None:
                            # an atom is remembered by its position in play
                            ctx._extremal = (kept, j, 1.0, j)
                        else:
                            cols = np.flatnonzero(layout.member == j)
                            ctx._extremal = (kept, cols, float(layout.weights[j]), j)
                        for kind in kinds:
                            want = exact_screen(ctx, kind, theta, corr, kept)
                            got = ctx.screen(kind, theta, corr, state, layout)
                            assert same(got, want), (kind, seed, j)
                            flagged += int(want.any())
        assert flagged

    @pytest.mark.parametrize("family", ["lasso", "group"])
    def test_skip_is_exact_at_the_flip(self, family):
        # bisect between a dual point the test certifies nothing at and one it
        # certifies something at, down to adjacent steps; remembered from the
        # side that flags nothing, the bound is as tight as it gets on the
        # other, and must still take the exact path there
        rng = np.random.default_rng(36)
        kinds = [sl.SAFE, sl.DST3] if family == "lasso" else [sl.GSAFE, sl.GST3]
        flips = 0
        for p in _bound_problems(kinds[0]):
            near = next(self._near_optimal_thetas(p, rng))
            far = rng.standard_normal(p.n_rows)
            for kind in kinds:
                ctx = screening.ScreeningContext(p)
                state = screening.ScreenState.initial(p.n_cols)
                kept = state.kept

                def flags(s):
                    theta = near + s * (far - near)
                    return exact_screen(ctx, kind, theta, p.dictionary.correlate(theta), kept)

                lo, hi = 0.0, 1.0
                if not flags(lo).any() or flags(hi).any():
                    continue
                flips += 1
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if flags(mid).any() else (lo, mid)
                for s in (hi, lo, hi, lo):
                    theta = near + s * (far - near)
                    corr = p.dictionary.correlate(theta)
                    assert same(ctx.screen(kind, theta, corr, state), flags(s))
                assert ctx._extremal[0] is kept
        assert flips >= 4

    @pytest.mark.parametrize("family", ["lasso", "group"])
    def test_plain_sphere_certificate_is_not_skipped(self, family):
        # with a shifted sphere that certifies nothing, DST3 (GST3) flags
        # exactly what its plain sphere does, so the bound must check that
        # sphere too; dual points sweep from one far from the optimum, where
        # nothing is certified and the extremal atom (group) is remembered,
        # to one near it
        rng = np.random.default_rng(37)
        kinds = [sl.SAFE, sl.DST3] if family == "lasso" else [sl.GSAFE, sl.GST3]
        flagged = 0
        for p in _bound_problems(kinds[0]):
            ctx, plain = screening.ScreeningContext(p), screening.ScreeningContext(p)
            center, _, shift_sq = ctx._shifted
            size = p.n_cols if family == "lasso" else p.partition.n_groups
            ctx.__dict__["_shifted"] = (center, screening.Slack(np.full(size, -np.inf)), shift_sq)
            state = screening.ScreenState.initial(p.n_cols)
            kept = state.kept
            near = next(self._near_optimal_thetas(p, rng))
            far = rng.standard_normal(p.n_rows)
            for s in np.linspace(1.0, 0.0, 41):
                theta = near + s * (far - near)
                corr = p.dictionary.correlate(theta)
                want = exact_screen(plain, kinds[0], theta, corr, kept)
                assert same(ctx.screen(kinds[1], theta, corr, state), want), s
                flagged += int(want.any())
        assert flagged

    def test_remembered_extremal_eliminated(self, region_calls):
        # once the remembered atom (group) is gone, the new kept set takes the
        # exact path until a screen over it remembers its own
        rng = np.random.default_rng(34)
        for kinds, p in (([sl.SAFE, sl.DST3], make_lasso(5, ratio=0.7)),
                         ([sl.GSAFE, sl.GST3], make_group(5, ratio=0.7))):
            ctx = screening.ScreeningContext(p)
            initial = screening.ScreenState.initial(p.n_cols)
            kept = initial.kept
            theta = rng.standard_normal(p.n_rows)
            corr = p.dictionary.correlate(theta)
            assert ctx.screen(kinds[0], theta, corr, initial) is None
            key, cols, _, _ = ctx._extremal
            assert key is kept
            # the remembered columns are one atom, or all of one group
            drop = np.zeros(kept.size, dtype=bool)
            drop[cols] = True
            state = sl.screen_update(initial, drop)
            built = len(region_calls)
            thetas = list(self._near_optimal_thetas(p, rng)) + [rng.standard_normal(p.n_rows)]
            for theta in thetas:
                corr = p.dictionary.data[:, state.kept].T @ theta
                for kind in kinds:
                    want = exact_screen(ctx, kind, theta, corr, state.kept)
                    assert same(ctx.screen(kind, theta, corr, state), want)
            assert len(region_calls) > built
            assert ctx._extremal[0] is state.kept


    def test_remembered_extremal_kept(self, region_calls):
        # an elimination that leaves the remembered atom (group) kept carries
        # it to the new kept set: the next screen that certifies nothing
        # builds no region and still gets the exact mask
        rng = np.random.default_rng(38)
        for kinds, p in (([sl.SAFE, sl.DST3], make_lasso(5, ratio=0.7)),
                         ([sl.GSAFE, sl.GST3], make_group(5, ratio=0.7))):
            ctx = screening.ScreeningContext(p)
            initial = screening.ScreenState.initial(p.n_cols)
            kept = initial.kept
            theta = rng.standard_normal(p.n_rows)
            corr = p.dictionary.correlate(theta)
            assert ctx.screen(kinds[0], theta, corr, initial) is None
            _, cols, weight, j = ctx._extremal
            # drop the first atom (group) that is not j
            drop = np.zeros(kept.size, dtype=bool)
            first = 1 if np.min(cols) == 0 else 0
            drop[first if p.kind == sl.LASSO else p.partition.groups[first]] = True
            state = sl.screen_update(initial, drop)
            corr = p.dictionary.data[:, state.kept].T @ theta
            for kind in kinds:
                built = len(region_calls)
                want = exact_screen(ctx, kind, theta, corr, state.kept)
                got = ctx.screen(kind, theta, corr, state)
                assert not want.any() and same(got, want), kind
                assert len(region_calls) == built, kind
            key, moved, _, _ = ctx._extremal
            assert key is state.kept and ctx._extremal[2:] == (weight, j)
            assert np.array_equal(state.kept[moved], kept[cols])


class TestScreenResult:
    # `screen` returns None exactly when the region and its test flag
    # nothing, and otherwise a fresh mask equal to theirs, which flags at
    # least one column; a run's hook gets None on every iteration that
    # eliminates nothing.

    @pytest.mark.parametrize("kind", sl.ALL_TESTS)
    def test_none_exactly_when_the_test_flags_nothing(self, kind):
        rng = np.random.default_rng(39)
        make = make_lasso if kind in sl.LASSO_TESTS else make_group
        nothing = flagged = 0
        for seed in range(4):
            p = make(seed, ratio=0.5 + 0.15 * seed)
            ctx, ref = screening.ScreeningContext(p), screening.ScreeningContext(p)
            frozen = screening.ScreenState.initial(p.n_cols)
            near = next(TestRadiusBound._near_optimal_thetas(p, rng))
            thetas = [p.y, near, rng.standard_normal(p.n_rows), np.zeros(p.n_rows)]
            thetas += [near + s * rng.standard_normal(p.n_rows) for s in (1e-3, 1e-2, 0.1)]
            for theta in thetas:
                corr = p.dictionary.correlate(theta)
                want = exact_screen(ref, kind, theta, corr, frozen.kept)
                # a run's read-only kept set, whose screens the radius bound
                # may skip, and a writable one, whose screens it never skips
                for state in (frozen, over(p, frozen.kept.copy())):
                    got = ctx.screen(kind, theta, corr, state)
                    if not want.any():
                        assert got is None, (seed, kind)
                        nothing += 1
                        continue
                    assert got.dtype == bool and np.array_equal(got, want), (seed, kind)
                    again = ctx.screen(kind, theta, corr, state)
                    assert got.flags.writeable and not np.shares_memory(got, again)
                    flagged += 1
        assert nothing and flagged

    @pytest.mark.parametrize("kind", sl.ALL_TESTS)
    def test_hook_gets_none_when_nothing_is_eliminated(self, kind):
        p = make_lasso(14, ratio=0.8) if kind in sl.LASSO_TESTS else make_group(15, ratio=0.7)
        seen = []

        def hook(t, state, mask):
            seen.append((int(np.count_nonzero(state.screen_state.alive)), mask))

        sl.run(p, sl.SolverConfig(algorithm="fista", strategy="dynamic", test=kind,
                                  max_iters=300, rel_tol=1e-10), iteration_hook=hook)
        for (size, mask), (next_size, _) in zip(seen, seen[1:]):
            dropped = 0 if mask is None else int(mask.sum())
            assert (mask is None or dropped > 0) and next_size == size - dropped
        masks = [mask for _, mask in seen]
        assert any(m is None for m in masks) and any(m is not None for m in masks)

    @pytest.mark.parametrize("kind", sl.ALL_TESTS)
    def test_static_screen_that_flags_nothing_runs_as_plain(self, kind):
        # far below the trivial threshold the screen-once region certifies
        # nothing, and the static run is the plain one to the bit
        p = make_lasso(6, ratio=0.05) if kind in sl.LASSO_TESTS else make_group(6, ratio=0.05)
        ctx = screening.ScreeningContext(p)
        assert ctx.screen(kind, p.y, ctx.y_corr, sl.ScreenState.initial(p.n_cols)) is None
        runs = [sl.run(p, sl.SolverConfig(algorithm="fista", strategy=strategy, test=kind,
                                          max_iters=50, rel_tol=1e-10))
                for strategy in ("none", "static")]
        assert runs[1].screen_state.eliminated.size == 0
        assert runs[0].x_star.tobytes() == runs[1].x_star.tobytes()
        assert runs[0].trace.objective == runs[1].trace.objective


@functools.lru_cache(maxsize=None)
def _drawn_problem(penalty, family, seed, ratio):
    """A small problem and the residual of a plain solve of it, near the dual optimum."""
    make = make_lasso if penalty == sl.LASSO else make_group
    p = make(seed, n=14, k=36, ratio=ratio, family=family)
    res = sl.run(p, sl.SolverConfig(algorithm="fista", max_iters=200, rel_tol=1e-12))
    return p, p.dictionary.apply(res.x_star) - p.y


class TestScreenEqualsExactPath:
    # Whatever the radius bound skips, `screen` must return exactly the mask
    # of the region and the sphere test (expanded to columns for groups), on
    # read-only kept sets as a run holds them: the first, and each one right
    # after an elimination, where the remembered extremal atom (group) moves
    # to the new set or is found gone. Dual points run from the near-optimal
    # residual, where the tests certify most, out to far ones, where the
    # bound skips.

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(penalty=st.sampled_from([sl.LASSO, sl.GROUP]),
           family=st.sampled_from(["gaussian", "pnoise"]),
           seed=st.integers(0, 40),
           ratio=st.sampled_from([0.35, 0.6, 0.8, 0.95]),
           scales=st.lists(st.sampled_from([0.0, 1e-3, 1e-2, 0.1, 0.5, 2.0]),
                           min_size=2, max_size=12),
           noise_seed=st.integers(0, 2**16),
           zero_theta=st.booleans())
    def test_screen_equals_region_then_sphere_test(self, penalty, family, seed, ratio, scales,
                                                   noise_seed, zero_theta):
        p, near = _drawn_problem(penalty, family, seed, ratio)
        rng = np.random.default_rng(noise_seed)
        kinds = [sl.SAFE, sl.DST3] if penalty == sl.LASSO else [sl.GSAFE, sl.GST3]
        ctx, ref = screening.ScreeningContext(p), screening.ScreeningContext(p)
        state = screening.ScreenState.initial(p.n_cols)
        layout = p.partition.full if penalty == sl.GROUP else None
        thetas = [near + s * rng.standard_normal(p.n_rows) / np.sqrt(p.n_rows) for s in scales]
        if zero_theta:
            thetas.insert(len(thetas) // 2, np.zeros(p.n_rows))
        for theta in thetas:
            kept = state.kept
            corr = p.dictionary.data[:, kept].T @ theta
            masks = []
            for kind in kinds:
                region = ref.region(kind, theta, corr, layout)
                if layout is None:
                    want = sl.test_sphere_lasso(region)[kept]
                else:
                    want = sl.group_mask_to_index_mask(
                        layout, sl.test_sphere_group(region)[layout.group_ids])
                got = ctx.screen(kind, theta, corr, state, layout)
                assert same(got, want), kind
                masks.append(want)
            drop = masks[0] | masks[1]
            if drop.any():
                state = sl.screen_update(state, drop)
                if layout is not None:
                    layout = layout.without(drop)
            if state.kept.size == 0:
                break


class TestReducedDualFeasibility:
    def test_scaled_points_feasible_for_reduced_problem(self):
        # during a dynamic run the clip bound comes from the surviving
        # columns only; the scaled point must satisfy exactly those
        # constraints
        checked = []

        def make_hook(problem):
            def hook(t, state, mask):
                if problem.kind == sl.LASSO:
                    mu, v = sl.dual_scale_lasso(problem, state.theta, corr=state.corr)
                    corr_v = problem.dictionary.data[:, state.screen_state.kept].T @ v
                    assert np.max(np.abs(corr_v), initial=0.0) <= 1.0 + 1e-9
                else:
                    layout = problem.partition.layout(state.screen_state.kept)
                    mu, v = sl.dual_scale_group(problem, state.theta, corr=state.corr,
                                                layout=layout)
                    corr_v = problem.dictionary.correlate(v)
                    vnorms = problem.partition.full.norms(corr_v)[state.layout.group_ids]
                    w = problem.partition.weights[state.layout.group_ids]
                    assert np.all(vnorms <= w * (1.0 + 1e-9))
                checked.append(t)

            return hook

        p = make_lasso(40, ratio=0.8)
        sl.run(p, sl.SolverConfig(algorithm="fista", strategy="dynamic", test="dst3",
                                  max_iters=60, rel_tol=1e-10), iteration_hook=make_hook(p))
        g = make_group(41, k=30, ratio=0.6)
        sl.run(g, sl.SolverConfig(algorithm="ista", strategy="dynamic", test="gst3",
                                  max_iters=60, rel_tol=1e-10), iteration_hook=make_hook(g))
        assert len(checked) > 10


class TestScreenState:
    def test_initial(self):
        st = screening.ScreenState.initial(5)
        assert st.eliminated.size == 0 and st.kept.size == 5 and st.size == 5

    def test_all_false_mask_is_noop(self):
        st = screening.ScreenState.initial(4)
        out = sl.screen_update(st, np.zeros(4, dtype=bool))
        assert out is st

    def test_all_true_mask_empties(self):
        st = screening.ScreenState.initial(4)
        out = sl.screen_update(st, np.ones(4, dtype=bool))
        assert out.kept.size == 0
        assert np.array_equal(out.eliminated, np.arange(4))

    def test_sequential_equals_union(self):
        st = screening.ScreenState.initial(6)
        m1 = np.array([True, False, False, True, False, False])
        m2_on_reduced = np.array([False, True, False, True])  # kept = [1,2,4,5]
        two_step = sl.screen_update(sl.screen_update(st, m1), m2_on_reduced)
        union = np.array([True, False, True, True, False, True])
        one_step = sl.screen_update(st, union)
        assert np.array_equal(two_step.eliminated, one_step.eliminated)
        assert np.array_equal(two_step.kept, one_step.kept)

    def test_misaligned_mask_rejected(self):
        st = screening.ScreenState.initial(4)
        with pytest.raises(ValueError, match="align"):
            sl.screen_update(st, np.zeros(3, dtype=bool))

    def test_non_boolean_mask_rejected(self):
        # a float mask used to be cast to bool, so 0.5 eliminated column 0
        st = screening.ScreenState.initial(3)
        for mask in (np.array([0.5, 0.0, 0.0]), np.array([1, 0, 0])):
            with pytest.raises(ValueError, match=f"mask must be boolean, not of dtype {mask.dtype}"):
                sl.screen_update(st, mask)

    def test_repeated_updates_stay_sorted_and_disjoint(self):
        rng = np.random.default_rng(4)
        st = screening.ScreenState.initial(500)
        while st.kept.size:
            st = sl.screen_update(st, rng.random(st.kept.size) < 0.15)
            assert np.all(np.diff(st.eliminated) > 0)
            assert np.all(np.diff(st.kept) > 0)
            assert np.intersect1d(st.eliminated, st.kept).size == 0
            assert np.array_equal(np.union1d(st.eliminated, st.kept), np.arange(500))

    def test_monotone_growth(self):
        rng = np.random.default_rng(3)
        st = screening.ScreenState.initial(40)
        seen = set()
        for _ in range(6):
            mask = rng.random(st.kept.size) < 0.2
            st = sl.screen_update(st, mask)
            now = set(st.eliminated.tolist())
            assert seen <= now
            seen = now
            assert st.eliminated.size + st.kept.size == 40


class TestPackedScreen:
    # A run screens over its packed positions: the ScreenState's alive mask
    # marks those in play, their correlations are zero out of play, and an
    # elimination event only clears alive bits. The mask must equal the
    # screen over the columns in play alone, placed back at their
    # positions, and each packed slack's top the largest slack in play.

    @pytest.mark.parametrize("kind", sl.ALL_TESTS)
    def test_matches_the_screen_over_the_columns_in_play(self, kind):
        rng = np.random.default_rng(41)
        flagged = 0
        for seed in range(6):
            if kind in sl.LASSO_TESTS:
                p, layout = make_lasso(seed, n=14, k=36, ratio=0.75), None
            else:
                p = make_group(seed, ratio=0.75)
                layout = p.partition.full
            ctx, ref = screening.ScreeningContext(p), screening.ScreeningContext(p)
            state = screening.ScreenState.initial(p.n_cols)
            for _ in range(8):
                alive = state.alive.copy()
                near = -p.y + 0.3 * rng.standard_normal(p.n_rows) / np.sqrt(p.n_rows)
                for theta in (near, rng.standard_normal(p.n_rows)):
                    corr = p.dictionary.correlate(theta) * alive
                    got = ctx.screen(kind, theta, corr, state, layout)
                    kept = state.kept[alive]
                    want = np.zeros(p.n_cols, dtype=bool)
                    got_in_play = ref.screen(kind, theta, corr[alive], over(p, kept))
                    want[alive] = as_mask(got_in_play, kept.size)
                    assert same(got, want)
                    flagged += int(want.any())
                for full, packed in state.slacks.items():
                    values = full.values[state.kept if layout is None else layout.group_ids]
                    play = alive if layout is None else np.isin(np.arange(layout.n_groups),
                                                                layout.member[alive])
                    assert np.array_equal(packed.values[play], values[play])
                    assert (packed.values[~play] == -np.inf).all()
                    assert packed.top == values[play].max(initial=-np.inf)
                # an event: a few positions (whole groups) in play leave it,
                # never the extremal atom (group), so the shifted radius exists
                lmax = sl.lambda_max(p)
                if layout is None:
                    leave = alive & (rng.random(p.n_cols) < 0.15)
                    leave[lmax.atom_index] = False
                    pos = np.flatnonzero(leave)
                else:
                    groups = np.setdiff1d(layout.member[alive], [lmax.group])
                    gone = groups[rng.random(groups.size) < 0.15]
                    pos = np.flatnonzero(np.isin(layout.member, gone))
                state.drop(pos, layout)
                assert np.array_equal(state.alive, alive & ~np.isin(np.arange(p.n_cols), pos))
        assert flagged
