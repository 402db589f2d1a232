import tracemalloc

import numpy as np

import screenlab as sl


def as_mask(got, size):
    """A screen's result as a boolean array over `size` columns: None flags nothing."""
    return np.zeros(size, dtype=bool) if got is None else got


def over(p, kept):
    """The `ScreenState` of `p` that keeps the columns `kept` (the array itself), all in play."""
    return sl.ScreenState(np.setdiff1d(np.arange(p.n_cols), kept), kept)


def screened_copy(ss):
    """A fresh `ScreenState` over a run's state `ss`: screening it leaves the run's state alone."""
    return sl.ScreenState(ss.eliminated, ss.kept, ss.alive.copy())


def make_dictionary(seed, n=12, k=30, family="gaussian"):
    spec = sl.GenSpec(kind=family, n=n, k=k, seed=seed)
    return sl.gen_dictionary(spec)


def make_lasso(seed, n=12, k=30, ratio=0.7, family="gaussian"):
    """Random lasso instance at a fraction of the trivial threshold.

    The atoms and the observation come from `family`: the unit sphere for
    `gaussian`, a shared spike plus a small cloud (coherent atoms) for `pnoise`.
    """
    dic = make_dictionary(seed, n, k, family)
    spec = sl.GenSpec(kind=family, n=n, k=k, seed=seed)
    y = sl.gen_observation(spec, dic).y
    lam = ratio * sl.lambda_max(sl.Problem(dic, y, 1.0)).value
    return sl.Problem(dic, y, lam)


def make_group(seed, n=12, k=30, ratio=0.7, group_size=3, family="gaussian"):
    """Random group instance over `family` atoms with a planted group-sparse observation."""
    dic = make_dictionary(seed, n, k, family)
    part = sl.random_partition(dic, group_size, seed)
    spec = sl.GenSpec(kind="bernoulli-gaussian-obs", n=n, k=k, seed=seed, bernoulli_p=0.2)
    y = sl.gen_observation(spec, dic, part).y
    lam = ratio * sl.lambda_max(sl.Problem(dic, y, 1.0, part)).value
    return sl.Problem(dic, y, lam, part)


def identity_problem(lam=0.8, kind="lasso", weights=None):
    """The two-atom orthonormal instance used by the worked examples."""
    dic = sl.Dictionary(np.eye(2))
    y = np.array([1.0, 0.0])
    if kind == "lasso":
        return sl.Problem(dic, y, lam)
    part = sl.GroupPartition.build(
        dic, [np.array([0]), np.array([1])], weights=weights if weights is not None else np.ones(2)
    )
    return sl.Problem(dic, y, lam, part)


def traced_peak(fn):
    """Peak bytes that numpy and Python allocate while `fn` runs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
