"""Dense dictionaries: column storage, screening reduction, spectral norms, file IO."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-9

_DSMX_MAGIC = b"DSMX"
_DSMX_VERSION = 1
_DSMX_HEADER = struct.Struct("<4sIQQ")

_ALIGN_BYTES = 64
# the most that set-up holds beside a full-size array: the generators draw
# this many bytes of rows at a time, and GroupPartition.build gathers this
# many bytes of group columns at a time
_BLOCK_BYTES = 1 << 18
# Moving a column costs about three times as much as multiplying it in place:
# copying a 500-row column of a 500x5000 dictionary into a new packed one takes
# 465-505 ns, correlating it 145-168 ns (OpenBLAS, 2-core Xeon VM). A product
# that gathers the columns of the nonzero coefficients moves each one and then
# multiplies it, so it breaks even with the full product at a quarter of them
# nonzero; measured, at 20-25%, 28% and 33% nonzero at 200x1000, 500x5000 and
# 300x2000 (one OpenBLAS thread). So a product gathers only while fewer than
# 1 / (1 + _COPY_COST) of the coefficients are nonzero, which also bounds the
# gather's temporary at a quarter of the dictionary.
_COPY_COST = 3


def index_set(values, size=None):
    """Validate and return a strictly increasing int64 index array.

    `size`, when given, bounds the indices to ``[0, size)``. Values of a
    non-integer dtype must be whole numbers, and every value must fit in
    int64; a boolean mask and an array of more than one dimension are
    rejected.
    """
    arr = np.asarray(values)
    if arr.ndim > 1:
        raise ValueError(f"indices must form a 1-D array, not one of shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind == "b":
            raise ValueError("indices must be integers, not a boolean mask")
        arr = np.asarray(arr, dtype=np.float64)
        bad = ~np.isfinite(arr) | (arr != np.trunc(arr))
        if bad.any():
            raise ValueError(f"indices must be integers, not {arr.flat[np.argmax(bad)]}")
    if arr.dtype.kind != "i":
        # whole floats and unsigned values past int64 would wrap on the cast
        wide = (arr < -(2**63)) | (arr >= 2**63)
        if wide.any():
            raise ValueError(f"indices must fit in int64, not {arr.flat[np.argmax(wide)]}")
    arr = arr.astype(np.int64, copy=False).ravel()
    # neighbours are compared, not differenced: a difference can overflow int64
    down = arr[1:] <= arr[:-1]
    if down.any():
        i = int(np.argmax(down))
        raise ValueError(f"index set must be strictly increasing; {arr[i + 1]} follows {arr[i]}")
    if size is not None and arr.size and (arr[0] < 0 or arr[-1] >= size):
        bad = arr[0] if arr[0] < 0 else arr[-1]
        raise ValueError(f"indices must lie in [0, {size}), not {bad}")
    return arr


def _aligned_empty(n, k):
    """Writable, uninitialized Fortran-ordered float64 ``(n, k)`` array on a 64-byte boundary.

    Where the buffer starts moves the time of the dictionary products: plain
    solves on the 200x1000 and 300x2000 benchmark shapes ran 3-21% slower at
    offsets 16, 32 and 48 mod 64 than at 0 (medians of 6 on a 2-core Xeon
    VM, OpenBLAS on one thread).
    """
    raw = np.empty(n * k + _ALIGN_BYTES // 8)
    start = -raw.ctypes.data % _ALIGN_BYTES // 8
    return raw[start : start + n * k].reshape((n, k), order="F")


def _aligned_copy(src, cols=None):
    """Aligned Fortran-ordered copy of the 2-D `src`, or of its columns `cols`.

    `cols`, when given, must be valid column positions of a Fortran-ordered
    `src`.
    """
    n = src.shape[0]
    out = _aligned_empty(n, src.shape[1] if cols is None else cols.size)
    if cols is None:
        out[...] = src
    else:
        # both transposed views are C-ordered, so take copies whole rows
        np.take(src.T, cols, axis=0, out=out.T, mode="clip")
    return out


def support_product(data, x, cols=None):
    """``data[:, cols] @ x``, multiplying only the columns of x's nonzero coefficients when few.

    `cols`, when given, are the strictly increasing column positions in
    `data` of the entries of `x`; the other columns take part with a zero
    coefficient. An all-zero `x` gives exact zeros.
    """
    if (1 + _COPY_COST) * np.count_nonzero(x) < x.size:
        nz = x.nonzero()[0]
        return x[nz].dot(data.T[nz if cols is None else cols[nz]])
    if cols is not None and cols.size < data.shape[1]:
        full = np.zeros(data.shape[1])
        full[cols] = x
        x = full
    return data.dot(x)


def _check_columns(arr):
    """Reject a float64 matrix that is not 2-D and nonempty with unit-norm columns."""
    if arr.ndim != 2:
        raise ValueError("dictionary data must be a 2-D matrix")
    n, k = arr.shape
    if n < 1 or k < 1:
        raise ValueError("dictionary must have at least one row and one column")
    # einsum sums each column's squares without a full-size temporary
    worst = float(np.max(np.abs(np.sqrt(np.einsum("ij,ij->j", arr, arr)) - 1.0)))
    # written so that a NaN deviation fails too
    if not worst <= UNIT_NORM_TOL:
        raise ValueError(f"columns must have unit l2 norm (worst deviation {worst:.3e})")


class Dictionary:
    """Dense N x K real matrix whose columns are the candidate atoms.

    Every column has unit l2 norm up to `UNIT_NORM_TOL`; the sphere tests'
    slack ``1 - |a_i . center|`` certifies an atom only when ``||a_i|| <= 1``.
    Columns are stored Fortran-ordered so that the column selections
    performed by screening stay contiguous, in a buffer aligned to 64 bytes.
    Instances are immutable (`data` is marked read-only).

    The constructor copies its input into such a buffer, and `reduce` copies
    the kept columns into a new one. The generators in `datagen` fill a
    buffer from `_aligned_empty` themselves, and `_adopt` takes it over
    without a copy, after the same unit-norm check.
    `_opnorm` caches the operator norm once `operator_norm` has computed it.
    """

    __slots__ = ("data", "_opnorm")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        _check_columns(arr)
        self._own(_aligned_copy(arr))

    def _own(self, buf):
        buf.setflags(write=False)
        self.data = buf
        self._opnorm = None

    @classmethod
    def _adopt(cls, buf):
        """Dictionary over the buffer `buf` from `_aligned_empty`, which it takes over uncopied."""
        _check_columns(buf)
        out = cls.__new__(cls)
        out._own(buf)
        return out

    @property
    def n_rows(self):
        return self.data.shape[0]

    @property
    def n_cols(self):
        return self.data.shape[1]

    def apply(self, x):
        """Return ``D @ x`` for a coefficient vector over the current columns.

        The product multiplies only the columns of x's nonzero coefficients
        while they are few (`support_product`), so it may differ from
        ``data @ x`` at rounding level.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValueError(f"expected coefficient vector of length {self.n_cols}")
        return support_product(self.data, x)

    def correlate(self, v):
        """Return ``D.T @ v``, the column correlations with an observation-space vector."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_rows,):
            raise ValueError(f"expected observation-space vector of length {self.n_rows}")
        return self.data.T @ v

    def reduce(self, cols):
        """Sub-dictionary of the columns at the strictly increasing positions `cols`.

        Returns this dictionary itself when every column is kept, and a copy
        of the kept columns otherwise.
        """
        cols = index_set(cols, self.n_cols)
        if cols.size == self.n_cols:
            return self
        out = Dictionary.__new__(Dictionary)
        out._own(_aligned_copy(self.data, cols))
        return out


def _top_singular_values(blocks):
    """Largest singular value of each matrix in a stacked ``(m, n, s)`` array.

    Takes the top eigenvalue of each Gram matrix on the smaller side with a
    dense symmetric solver, exact up to rounding. Screening divides by group
    norms and step sizes rest on the operator norm, so an estimate that fell
    short of the true value would err on the unsafe side.
    """
    if blocks.shape[1] <= blocks.shape[2]:
        gram = blocks @ blocks.transpose(0, 2, 1)
    else:
        gram = blocks.transpose(0, 2, 1) @ blocks
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def spectral_norm(dictionary, cols):
    """Largest singular value of the sub-matrix given by the columns `cols`."""
    cols = index_set(cols, dictionary.n_cols)
    if cols.size == 0:
        raise ValueError("spectral_norm requires a nonempty column set")
    return float(_top_singular_values(dictionary.data[None, :, cols])[0])


def operator_norm(dictionary):
    """Largest singular value of the whole dictionary, computed once per instance."""
    if dictionary._opnorm is None:
        dictionary._opnorm = float(_top_singular_values(dictionary.data[None])[0])
    return dictionary._opnorm


class GroupError(ValueError):
    """A `GroupPartition.build` error caused by the group at position `group`."""

    def __init__(self, group, message):
        super().__init__(message)
        self.group = group


@dataclass(frozen=True)
class GroupPartition:
    """Partition of the column indices into weighted groups.

    `groups` are sorted original-index arrays, pairwise disjoint and covering
    ``[0, K)``, held as read-only views of one concatenated array.
    `spectral_norms[g]` holds the largest singular value of the sub-dictionary
    of group g, computed once at construction; screening never splits a
    group, so these stay valid for every reduced problem. `full`, also built
    once, places every group in the whole coefficient vector.
    """

    groups: tuple
    weights: np.ndarray
    spectral_norms: np.ndarray
    group_of: np.ndarray
    full: GroupLayout

    @classmethod
    def build(cls, dictionary, groups, weights=None):
        """Check `groups` as a partition of the dictionary's columns and lay it out.

        Each group is an index set as `index_set` accepts it; the groups must
        be nonempty, disjoint and cover ``[0, K)``. `weights` defaults to the
        square roots of the group sizes and must be finite and positive.
        Every group is checked and placed by array operations over the
        concatenated indices, and the partition's `groups` are read-only
        views of that one array. An error names the first group at fault, in
        the words of `index_set` on that group alone.

        The spectral norms are computed for the groups of each size in
        chunks: each chunk gathers at most `_BLOCK_BYTES` of group columns
        (at least one group) and solves their Gram matrices together, so the
        build holds no full-size copy of the dictionary. Each group's norm
        does not depend on the chunk it falls in.
        """
        k = dictionary.n_cols
        arrays = [np.asarray(g) for g in groups]
        for gid, arr in enumerate(arrays):
            # anything but a 1-D integer array goes through index_set alone;
            # the checks below stop short of the first group that fails it
            if arr.ndim != 1 or arr.dtype.kind not in "iu":
                try:
                    arrays[gid] = index_set(arr)
                except ValueError:
                    del arrays[gid:]
                    break
        sizes = np.array([arr.size for arr in arrays], dtype=np.int64)
        owner = np.repeat(np.arange(sizes.size), sizes)
        # the empty head lets a partition of no groups through to the cover check
        flat = np.concatenate([np.empty(0, np.int64), *arrays], dtype=np.int64, casting="unsafe")
        bad = (flat < 0) | (flat >= k)
        bad[1:] |= (flat[1:] <= flat[:-1]) & (owner[1:] == owner[:-1])
        if bad.any() or len(arrays) < len(groups):
            gid = int(owner[np.argmax(bad)]) if bad.any() else len(arrays)
            try:
                index_set(groups[gid], k)
            except ValueError as exc:
                raise GroupError(gid, f"group {gid}: {exc}") from None
        if not sizes.all():
            gid = int(np.argmin(sizes))
            raise GroupError(gid, f"groups must be nonempty; group {gid} is empty")
        counts = np.bincount(flat, minlength=k)
        if counts.max() > 1:
            # the first repeat in group order, where a group-by-group scan stops
            repeat = np.ones(flat.size, dtype=bool)
            repeat[np.unique(flat, return_index=True)[1]] = False
            p = int(np.argmax(repeat))
            i, gid = flat[p], int(owner[p])
            first = owner[np.argmax(flat == i)]
            raise GroupError(gid, f"groups must be disjoint; {i} is in groups {first}, {gid}")
        if not counts.all():
            raise ValueError(f"groups must cover every column; {np.argmin(counts)} is in none")
        group_of = np.empty(k, dtype=np.int64)
        group_of[flat] = owner
        if weights is None:
            weights = np.sqrt(sizes)
        weights = np.array(weights, dtype=np.float64)
        if weights.shape != (sizes.size,):
            raise ValueError(f"need one weight per group, not {weights.size} for {sizes.size}")
        bad = ~((weights > 0) & (weights < np.inf))
        if bad.any():
            gid = int(np.argmax(bad))
            raise GroupError(
                gid, f"group {gid}: weight {weights[gid].item()!r} must be finite and positive"
            )
        # instances are shared across concurrent runs; freeze the buffers
        flat.setflags(write=False)
        ends = np.cumsum(sizes).tolist()
        groups = tuple(flat[end - size : end] for end, size in zip(ends, sizes.tolist()))
        norms = np.empty(sizes.size)
        for size in np.unique(sizes):
            gids = np.flatnonzero(sizes == size)
            cols = np.stack([groups[g] for g in gids])
            step = max(1, _BLOCK_BYTES // (8 * size * dictionary.n_rows))
            for lo in range(0, gids.size, step):
                blocks = dictionary.data[:, cols[lo : lo + step]].transpose(1, 0, 2)
                norms[gids[lo : lo + step]] = _top_singular_values(blocks)
        norms.setflags(write=False)
        full = GroupLayout(np.arange(sizes.size), weights, group_of)
        return cls(groups, weights, norms, group_of, full)

    @property
    def n_groups(self):
        return len(self.groups)

    @property
    def size(self):
        return self.group_of.size

    def layout(self, kept):
        """Group layout over a reduced coefficient vector indexed by `kept`.

        `kept` must be a union of whole groups (screening removes groups
        atomically). The result is `full` with the other groups dropped by
        `GroupLayout.without`; the whole vector's layout is `full` itself.
        """
        kept = index_set(kept, self.size)
        alive_sizes = np.bincount(self.group_of[kept], minlength=self.n_groups)
        if np.any((alive_sizes != np.bincount(self.group_of)) & (alive_sizes > 0)):
            raise ValueError("kept indices must cover whole groups")
        alive = np.zeros(self.size, dtype=bool)
        alive[kept] = True
        return self.full.without(~alive)


@dataclass(frozen=True)
class GroupLayout:
    """Positions of surviving groups inside a reduced coefficient vector.

    `member[p]` indexes, in `group_ids` and `weights`, the group of position
    p. The fields are read-only, so screening can key per-layout work on
    `group_ids`.
    """

    group_ids: np.ndarray
    weights: np.ndarray
    member: np.ndarray

    def __post_init__(self):
        for arr in (self.group_ids, self.weights, self.member):
            arr.setflags(write=False)

    @property
    def n_groups(self):
        return self.group_ids.size

    def without(self, mask):
        """Layout over the positions that `mask` leaves, where `mask` flags whole groups.

        `mask` is aligned with the reduced vector this layout places. The
        groups of the flagged positions go, so a dynamic elimination, which
        flags a few groups, reads only those positions' groups; the others
        keep their order and positions, renumbered past the flagged ones.
        Every reduced layout is made here, ``partition.layout(kept)``
        included.
        """
        alive = np.ones(self.n_groups, dtype=bool)
        alive[self.member[mask]] = False
        renumber = np.cumsum(alive) - 1
        return GroupLayout(self.group_ids[alive], self.weights[alive], renumber[self.member[~mask]])

    def norms(self, vec):
        """Per-group l2 norms of a vector over the layout's positions.

        Each group's squares are summed in position order.
        """
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.member.size:
            raise ValueError(f"expected a vector of length {self.member.size}, not {vec.size}")
        # sqrt also makes the float64 result of an empty layout, where bincount gives int64
        return np.sqrt(np.bincount(self.member, vec * vec, minlength=self.n_groups))

    def penalty(self, vec):
        """Weighted sum of group norms (the group-sparsity regularizer value)."""
        return float(self.weights.dot(self.norms(vec)))

    def prox(self, vec, t):
        """Group soft-thresholding with threshold ``t * weight`` per group."""
        if t < 0:
            raise ValueError("threshold must be nonnegative")
        vec = np.asarray(vec, dtype=np.float64)
        norms = self.norms(vec)
        # a zero-norm group's entries are +-0, which any finite factor keeps
        factors = np.maximum(1.0 - t * self.weights / np.where(norms > 0.0, norms, 1.0), 0.0)
        return vec * factors[self.member]


def write_dsmx(path, matrix):
    """Write a dense float64 matrix in the DSMX container format.

    Layout: magic ``DSMX``, u32 version, u64 rows, u64 cols, then row-major
    IEEE-754 little-endian float64 payload. The payload is written from the
    buffer of a C-ordered array, which is `matrix` itself when it is one.
    """
    arr = np.ascontiguousarray(matrix, dtype="<f8")
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("DSMX stores 2-D matrices")
    with open(path, "wb") as fh:
        fh.write(_DSMX_HEADER.pack(_DSMX_MAGIC, _DSMX_VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.data)


def read_dsmx(path):
    """Read a DSMX file back into an (rows, cols) float64 array.

    The payload is read straight into the returned array.
    """
    with open(path, "rb") as fh:
        header = fh.read(_DSMX_HEADER.size)
        if len(header) != _DSMX_HEADER.size:
            raise ValueError(f"{path}: truncated DSMX header")
        magic, version, rows, cols = _DSMX_HEADER.unpack(header)
        if magic != _DSMX_MAGIC:
            raise ValueError(f"{path}: not a DSMX file")
        if version != _DSMX_VERSION:
            raise ValueError(f"{path}: unsupported DSMX version {version}")
        expected = rows * cols * 8
        got = os.fstat(fh.fileno()).st_size - _DSMX_HEADER.size
        if got != expected:
            raise ValueError(f"{path}: expected {expected} payload bytes, got {got}")
        arr = np.fromfile(fh, dtype="<f8", count=rows * cols)
    return arr.astype(np.float64, copy=False).reshape(rows, cols)


def read_matrix(path):
    """Read a finite matrix from DSMX (detected by magic bytes) or CSV, one row per line."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    arr = read_dsmx(path) if magic == _DSMX_MAGIC else np.loadtxt(path, delimiter=",", ndmin=2)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        row, col = bad[0]
        raise ValueError(
            f"{path}: non-finite value {arr[row, col]} at row {row + 1}, column {col + 1}"
        )
    return arr


def write_group_file(path, groups, weights=None):
    """Write groups as ``weight;i1,i2,...`` lines (0-based indices)."""
    lines = []
    for gid, g in enumerate(groups):
        idx = ",".join(str(int(i)) for i in g)
        if weights is None:
            lines.append(f";{idx}")
        else:
            lines.append(f"{weights[gid]!r};{idx}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_group_file(path):
    """Parse a group file into (groups, weights, lines).

    Each line is ``weight;i1,i2,...``; a missing weight (no semicolon, or an
    empty weight field) defaults to ``sqrt(group size)``. Blank lines and
    lines starting with ``#`` are skipped, and `lines` holds the 1-based line
    number of each group.
    """
    groups = []
    weights = []
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ";" in line:
                head, tail = line.split(";", 1)
            else:
                head, tail = "", line
            try:
                idx = sorted(int(tok) for tok in tail.split(",") if tok.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad index list") from exc
            if not idx:
                raise ValueError(f"{path}:{lineno}: empty group")
            if len(set(idx)) < len(idx):
                raise ValueError(f"{path}:{lineno}: index {max(idx, key=idx.count)} repeated")
            # idx is sorted, so its ends are the values furthest outside int64
            wide = [i for i in (idx[0], idx[-1]) if not -(2**63) <= i < 2**63]
            if wide:
                raise ValueError(f"{path}:{lineno}: index {wide[0]} out of range")
            if head.strip():
                try:
                    w = float(head)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad weight") from exc
                if not np.isfinite(w):
                    raise ValueError(f"{path}:{lineno}: bad weight")
            else:
                w = float(np.sqrt(len(idx)))
            groups.append(np.asarray(idx, dtype=np.int64))
            weights.append(w)
            lines.append(lineno)
    return groups, np.asarray(weights, dtype=np.float64), lines
