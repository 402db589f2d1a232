"""Deterministic synthetic data generators.

All randomness flows through the Philox 4x64 counter-based generator, keyed by
a user seed plus a fixed per-purpose stream id, so identical specs reproduce
identical bytes on every platform and run.

Every dictionary and every gaussian or pnoise observation is made by one
path, `_unit_columns`: it fills an aligned Fortran buffer a block of rows
at a time, at most `_BLOCK_BYTES` (256 KiB) beside it, and normalizes the
buffer in place; `Dictionary._adopt` then takes the buffer over uncopied.
Generating holds one full-size array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dictionary import _BLOCK_BYTES, Dictionary, GroupPartition, _aligned_empty

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
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, not {seed}")
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
        for field in ("n", "k", "seed"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{field} must be an integer, not {value!r}")
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be at least 1")
        if not 0.0 < self.bernoulli_p < 1.0:
            raise ValueError("bernoulli_p must lie strictly between 0 and 1")
        try:
            noise_scale = 10.0 ** (self.snr_db / 20.0)
        except OverflowError:
            noise_scale = math.inf
        # written so that a NaN scale fails too
        if not 0.0 < noise_scale < math.inf:
            raise ValueError(
                f"snr_db must give a finite, positive noise scale 10 ** (snr_db / 20), "
                f"not {self.snr_db!r}"
            )


def _unit_columns(rng, kind, n, count):
    """`count` unit-norm columns of length n of the family `kind`, in one aligned buffer.

    The only full-size array is the Fortran-ordered buffer from
    `_aligned_empty` that is returned. The values are made a block of rows
    at a time, at most `_BLOCK_BYTES` of them (one row when a row is
    larger; the whole column when `count` is 1), in a C-ordered scratch
    block, so the generator draws them in its own row order, and then
    copied in. Each column's squares are summed row by row, the order in
    which ``np.linalg.norm(axis=0)`` sums a C-ordered matrix with more than
    one column; a single column it sums pairwise, hence the one block.
    The buffer is then divided by the column norms in place, so every value
    is the one that drawing the whole matrix at once and normalizing it
    gives.

    `gaussian` (and the uniform-on-the-sphere observation) draws standard
    normal entries. `pnoise` draws one factor ``kappa`` per column, then
    adds a spike at the first coordinate to a standard normal cloud scaled
    by ``_PNOISE_SCALE * kappa``. `dct` samples atom j at frequency
    ``j / count``, drawing nothing.
    """
    if kind == PNOISE:
        scale = _PNOISE_SCALE * rng.random(count)
    elif kind == DCT:
        freq = np.arange(count) / count
    out = _aligned_empty(n, count)
    rows = n if count == 1 else max(1, _BLOCK_BYTES // (8 * count))
    # row 0 carries the running sums of squares: the first block's reduction
    # starts them, and each later one adds its rows to them in order
    work = np.empty((min(rows, n) + 1, count))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = work[1 : stop - start + 1]
        if kind == DCT:
            np.multiply(np.pi * (np.arange(start, stop)[:, None] + 0.5), freq, out=block)
            np.cos(block, out=block)
        else:
            rng.standard_normal(out=block)
        if kind == PNOISE:
            block *= scale
            if start == 0:
                block[0] += 1.0
        out[start:stop] = block
        np.square(block, out=block)
        work[0] = np.add.reduce(work[0 if start else 1 : stop - start + 1], axis=0)
    norms = np.sqrt(work[0])
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero column")
    out /= norms
    return out


def gen_dct_dictionary(n, k):
    """Oversampled cosine dictionary: atom j samples frequency j / k.

    With ``k == n`` this is an orthonormal cosine basis; larger k oversamples
    the frequency grid. Requires ``k >= n``.
    """
    if k < n:
        raise ValueError("the cosine dictionary requires k >= n")
    return Dictionary._adopt(_unit_columns(None, DCT, n, k))


def gen_dictionary(spec):
    """Generate the dictionary described by `spec` (unit-norm columns)."""
    if spec.kind == DCT:
        return gen_dct_dictionary(spec.n, spec.k)
    if spec.kind not in DICT_KINDS:
        raise ValueError(f"{spec.kind!r} does not generate dictionaries")
    rng = make_rng(spec.seed, DICT_STREAM)
    return Dictionary._adopt(_unit_columns(rng, spec.kind, spec.n, spec.k))


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
    if spec.kind in (GAUSSIAN, UNIT_SPHERE_OBS, PNOISE):
        return Observation(y=_unit_columns(rng, spec.kind, n, 1)[:, 0])
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
        # the full product, which the pinned set-up digests were taken with
        clean = dictionary.data @ x
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
