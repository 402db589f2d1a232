"""Deterministic synthetic data generators.

All randomness flows through the Philox 4x64 counter-based generator, keyed by
a user seed plus a fixed per-purpose stream id, so identical specs reproduce
identical bytes on every platform and run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary, GroupPartition

DICT_STREAM = 0
OBS_STREAM = 1
GROUP_STREAM = 2

GAUSSIAN = "gaussian"
PNOISE = "pnoise"
DCT = "dct"
UNIT_SPHERE_OBS = "unit-sphere-obs"
BERNOULLI_GAUSSIAN_OBS = "bernoulli-gaussian-obs"

DICT_KINDS = (GAUSSIAN, PNOISE, DCT)

_PNOISE_SCALE = 0.1
_BG_MAX_RETRIES = 100


def make_rng(seed, stream=0):
    """Philox generator keyed by (seed, stream); stable across platforms."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class GenSpec:
    """What to generate: data family, shape, seed, and family parameters."""

    kind: str
    n: int
    k: int
    seed: int
    bernoulli_p: float = 0.05
    snr_db: float = 20.0

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be at least 1")
        if not 0.0 < self.bernoulli_p < 1.0:
            raise ValueError("bernoulli_p must lie strictly between 0 and 1")


def _normalize_columns(mat):
    """Divide the float64 array `mat`, which the caller owns, by its column norms in place."""
    norms = np.linalg.norm(mat, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero column")
    mat /= norms
    return mat


def _gaussian_atoms(rng, n, count):
    return _normalize_columns(rng.standard_normal((n, count)))


def _pnoise_atoms(rng, n, count):
    # spike at the first coordinate plus a per-atom scaled Gaussian cloud
    kappa = rng.random(count)
    g = rng.standard_normal((n, count))
    g *= _PNOISE_SCALE * kappa
    g[0, :] += 1.0
    return _normalize_columns(g)


def gen_dct_dictionary(n, k):
    """Oversampled cosine dictionary: atom j samples frequency j / k.

    With ``k == n`` this is an orthonormal cosine basis; larger k oversamples
    the frequency grid. Requires ``k >= n``.
    """
    if k < n:
        raise ValueError("the cosine dictionary requires k >= n")
    grid = np.pi * (np.arange(n)[:, None] + 0.5) * (np.arange(k)[None, :] / k)
    return Dictionary(_normalize_columns(np.cos(grid)))


def gen_dictionary(spec):
    """Generate the dictionary described by `spec` (unit-norm columns)."""
    rng = make_rng(spec.seed, DICT_STREAM)
    if spec.kind == GAUSSIAN:
        return Dictionary(_gaussian_atoms(rng, spec.n, spec.k))
    if spec.kind == PNOISE:
        return Dictionary(_pnoise_atoms(rng, spec.n, spec.k))
    if spec.kind == DCT:
        return gen_dct_dictionary(spec.n, spec.k)
    raise ValueError(f"{spec.kind!r} does not generate dictionaries")


@dataclass(frozen=True)
class Observation:
    """Generated observation plus, when planted, its ground truth components."""

    y: np.ndarray
    ground_truth: np.ndarray | None = None
    clean: np.ndarray | None = None
    noise: np.ndarray | None = None


def gen_observation(spec, dictionary, partition=None):
    """Generate a unit-norm observation matching `spec.kind`.

    The `gaussian` and `pnoise` kinds draw the observation from the same
    distribution as the corresponding atoms; `unit-sphere-obs` draws uniformly
    on the sphere; `bernoulli-gaussian-obs` plants group coefficients (active
    with probability `bernoulli_p`, standard normal values), adds Gaussian
    noise scaled to `snr_db`, and normalizes the sum.
    """
    rng = make_rng(spec.seed, OBS_STREAM)
    n = dictionary.n_rows
    if spec.kind in (GAUSSIAN, UNIT_SPHERE_OBS):
        return Observation(y=_gaussian_atoms(rng, n, 1)[:, 0])
    if spec.kind == PNOISE:
        return Observation(y=_pnoise_atoms(rng, n, 1)[:, 0])
    if spec.kind == BERNOULLI_GAUSSIAN_OBS:
        if partition is None:
            raise ValueError("bernoulli-gaussian observations need a group partition")
        return _bernoulli_gaussian(rng, spec, dictionary, partition)
    raise ValueError(f"{spec.kind!r} does not generate observations")


def _bernoulli_gaussian(rng, spec, dictionary, partition):
    k = dictionary.n_cols
    for _ in range(_BG_MAX_RETRIES):
        active = rng.random(partition.n_groups) < spec.bernoulli_p
        if not active.any():
            continue
        x = np.zeros(k)
        for gid in np.flatnonzero(active):
            idx = partition.groups[gid]
            x[idx] = rng.standard_normal(idx.size)
        clean = dictionary.apply(x)
        nrm_clean = float(np.linalg.norm(clean))
        if nrm_clean == 0.0:
            continue
        g = rng.standard_normal(dictionary.n_rows)
        noise = g * (nrm_clean / (np.linalg.norm(g) * 10.0 ** (spec.snr_db / 20.0)))
        y = clean + noise
        y = y / np.linalg.norm(y)
        return Observation(y=y, ground_truth=x, clean=clean, noise=noise)
    raise RuntimeError(
        f"no active group drawn in {_BG_MAX_RETRIES} attempts (p={spec.bernoulli_p!r})"
    )


def random_groups(k, group_size, seed):
    """Random split of ``[0, k)`` into sorted groups of `group_size` indices each.

    The groups are the rows of one ``(k // group_size, group_size)`` array,
    returned as a list of row views.
    """
    if group_size < 1 or k % group_size != 0:
        raise ValueError("group_size must divide the number of columns")
    perm = make_rng(seed, GROUP_STREAM).permutation(k)
    return list(np.sort(perm.reshape(-1, group_size), axis=1))


def random_partition(dictionary, group_size, seed):
    """Random partition into equally sized groups (requires k % group_size == 0)."""
    groups = random_groups(dictionary.n_cols, group_size, seed)
    return GroupPartition.build(dictionary, groups)
