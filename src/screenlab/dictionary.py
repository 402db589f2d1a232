"""Dense dictionaries: column storage, screening reduction, spectral norms, file IO."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-9

_DSMX_MAGIC = b"DSMX"
_DSMX_VERSION = 1
_DSMX_HEADER = struct.Struct("<4sIQQ")

_ALIGN_BYTES = 64


def index_set(values, size=None):
    """Validate and return a strictly increasing int64 index array.

    `size`, when given, bounds the indices to ``[0, size)``.
    """
    arr = np.asarray(values, dtype=np.int64).ravel()
    if arr.size and np.any(np.diff(arr) <= 0):
        i = int(np.argmax(np.diff(arr) <= 0))
        raise ValueError(f"index set must be strictly increasing; {arr[i + 1]} follows {arr[i]}")
    if size is not None and arr.size and (arr[0] < 0 or arr[-1] >= size):
        bad = arr[0] if arr[0] < 0 else arr[-1]
        raise ValueError(f"indices must lie in [0, {size}), not {bad}")
    return arr


def _aligned_copy(src, cols=None):
    """Read-only Fortran-ordered float64 copy of the 2-D `src`, or of its columns `cols`.

    The copy starts on a 64-byte boundary. Where the buffer starts moves the
    time of the dictionary products: plain solves on the 200x1000 and
    300x2000 benchmark shapes ran 3-21% slower at offsets 16, 32 and 48 mod
    64 than at 0 (medians of 6 on a 2-core Xeon VM, OpenBLAS on one
    thread). `cols`, when given, must be valid column positions of a
    Fortran-ordered `src`.
    """
    n = src.shape[0]
    k = src.shape[1] if cols is None else cols.size
    raw = np.empty(n * k + _ALIGN_BYTES // 8)
    start = -raw.ctypes.data % _ALIGN_BYTES // 8
    out = raw[start : start + n * k].reshape((n, k), order="F")
    if cols is None:
        out[...] = src
    else:
        # both transposed views are C-ordered, so take copies whole rows
        np.take(src.T, cols, axis=0, out=out.T, mode="clip")
    out.setflags(write=False)
    return out


class Dictionary:
    """Dense N x K real matrix whose columns are the candidate atoms.

    Every column has unit l2 norm up to `UNIT_NORM_TOL`; the sphere tests'
    slack ``1 - |a_i . center|`` certifies an atom only when ``||a_i|| <= 1``.
    Columns are stored Fortran-ordered so that the column selections
    performed by screening stay contiguous, in a buffer aligned to 64 bytes.
    Instances are immutable (`data` is marked read-only); `reduce` copies
    columns into a new Dictionary.
    `_opnorm` caches the operator norm once `operator_norm` has computed it.
    """

    __slots__ = ("data", "_opnorm")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("dictionary data must be a 2-D matrix")
        n, k = arr.shape
        if n < 1 or k < 1:
            raise ValueError("dictionary must have at least one row and one column")
        worst = float(np.max(np.abs(np.linalg.norm(arr, axis=0) - 1.0)))
        # written so that a NaN deviation fails too
        if not worst <= UNIT_NORM_TOL:
            raise ValueError(f"columns must have unit l2 norm (worst deviation {worst:.3e})")
        self.data = _aligned_copy(arr)
        self._opnorm = None

    @property
    def n_rows(self):
        return self.data.shape[0]

    @property
    def n_cols(self):
        return self.data.shape[1]

    def apply(self, x):
        """Return ``D @ x`` for a coefficient vector over the current columns."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValueError(f"expected coefficient vector of length {self.n_cols}")
        return self.data @ x

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
        out.data = _aligned_copy(self.data, cols)
        out._opnorm = None
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


@dataclass(frozen=True)
class GroupPartition:
    """Partition of the column indices into weighted groups.

    `groups` are sorted original-index arrays, pairwise disjoint and covering
    ``[0, K)``. `spectral_norms[g]` holds the largest singular value of the
    sub-dictionary of group g, computed once at construction; screening never
    splits a group, so these stay valid for every reduced problem. `full`,
    also built once, places every group in the whole coefficient vector.
    """

    groups: tuple
    weights: np.ndarray
    spectral_norms: np.ndarray
    group_of: np.ndarray
    full: GroupLayout

    @classmethod
    def build(cls, dictionary, groups, weights=None):
        k = dictionary.n_cols
        checked = []
        for gid, g in enumerate(groups):
            try:
                checked.append(index_set(g, k))
            except ValueError as exc:
                raise ValueError(f"group {gid}: {exc}") from None
        groups = tuple(checked)
        sizes = np.array([g.size for g in groups], dtype=np.int64)
        if not sizes.all():
            raise ValueError(f"groups must be nonempty; group {np.argmin(sizes)} is empty")
        group_of = np.full(k, -1, dtype=np.int64)
        for gid, g in enumerate(groups):
            if np.any(group_of[g] != -1):
                i = g[group_of[g] != -1][0]
                raise ValueError(f"groups must be disjoint; {i} is in groups {group_of[i]}, {gid}")
            group_of[g] = gid
        if np.any(group_of < 0):
            raise ValueError(f"groups must cover every column; {np.argmin(group_of)} is in none")
        if weights is None:
            weights = np.sqrt(sizes)
        weights = np.array(weights, dtype=np.float64)
        if weights.shape != (len(groups),):
            raise ValueError(f"need one weight per group, not {weights.size} for {len(groups)}")
        for gid, w in enumerate(weights.tolist()):
            if not 0 < w < np.inf:
                raise ValueError(f"group {gid}: weight {w!r} must be finite and positive")
        norms = np.empty(len(groups))
        for size in np.unique(sizes):
            gids = np.flatnonzero(sizes == size)
            cols = np.stack([groups[g] for g in gids])
            norms[gids] = _top_singular_values(dictionary.data[:, cols].transpose(1, 0, 2))
        # instances are shared across concurrent runs; freeze the buffers
        full = GroupLayout(np.arange(len(groups)), weights, group_of, sizes)
        for arr in (norms, *groups):
            arr.setflags(write=False)
        return cls(groups, weights, norms, group_of, full)

    @property
    def n_groups(self):
        return len(self.groups)

    @property
    def size(self):
        return self.group_of.size

    def group_norms(self, vec):
        """Per-group l2 norms of a full-length coefficient or correlation vector."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.size,):
            raise ValueError(f"expected vector of length {self.size}")
        return self.full.norms(vec)

    def layout(self, kept=None):
        """Group layout over a reduced coefficient vector indexed by `kept`.

        `kept` must be a union of whole groups (screening removes groups
        atomically). The result is `full` with the other groups dropped by
        `GroupLayout.without`, or `full` itself when `kept` is ``None``.
        """
        if kept is None:
            return self.full
        kept = index_set(kept, self.size)
        alive_sizes = np.bincount(self.group_of[kept], minlength=self.n_groups)
        if np.any((alive_sizes != self.full.sizes) & (alive_sizes > 0)):
            raise ValueError("kept indices must cover whole groups")
        alive = np.zeros(self.size, dtype=bool)
        alive[kept] = True
        return self.full.without(~alive)


@dataclass(frozen=True)
class GroupLayout:
    """Positions of surviving groups inside a reduced coefficient vector.

    `member[p]` indexes, in `group_ids`, `weights` and `sizes`, the group of
    position p. The fields are read-only, so screening can key per-layout
    work on `group_ids`.
    """

    group_ids: np.ndarray
    weights: np.ndarray
    member: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        for arr in (self.group_ids, self.weights, self.member, self.sizes):
            arr.setflags(write=False)

    @property
    def n_groups(self):
        return self.group_ids.size

    def without(self, mask):
        """Layout over the positions that `mask` leaves, where `mask` flags whole groups.

        `mask` is aligned with the reduced vector this layout places. The
        surviving groups keep their order and positions, renumbered past the
        flagged ones. Every reduced layout is made here,
        ``partition.layout(kept)`` included.
        """
        member = self.member[~mask]
        alive = np.zeros(self.n_groups, dtype=bool)
        alive[member] = True
        renumber = np.cumsum(alive) - 1
        return GroupLayout(
            self.group_ids[alive], self.weights[alive], renumber[member], self.sizes[alive]
        )

    def norms(self, vec):
        """Per-group l2 norms; each group's squares are summed in position order."""
        vec = np.asarray(vec, dtype=np.float64)
        # sqrt also makes the float64 result of an empty layout, where bincount gives int64
        return np.sqrt(np.bincount(self.member, vec * vec, minlength=self.n_groups))

    def penalty(self, vec):
        """Weighted sum of group norms (the group-sparsity regularizer value)."""
        return float(self.weights @ self.norms(vec))

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
    IEEE-754 little-endian float64 payload.
    """
    arr = np.ascontiguousarray(matrix, dtype="<f8")
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("DSMX stores 2-D matrices")
    with open(path, "wb") as fh:
        fh.write(_DSMX_HEADER.pack(_DSMX_MAGIC, _DSMX_VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes(order="C"))


def read_dsmx(path):
    """Read a DSMX file back into an (rows, cols) float64 array."""
    with open(path, "rb") as fh:
        header = fh.read(_DSMX_HEADER.size)
        if len(header) != _DSMX_HEADER.size:
            raise ValueError(f"{path}: truncated DSMX header")
        magic, version, rows, cols = _DSMX_HEADER.unpack(header)
        if magic != _DSMX_MAGIC:
            raise ValueError(f"{path}: not a DSMX file")
        if version != _DSMX_VERSION:
            raise ValueError(f"{path}: unsupported DSMX version {version}")
        payload = fh.read()
    expected = rows * cols * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(rows, cols)


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
    """Parse a group file into (groups, weights).

    Each line is ``weight;i1,i2,...``; a missing weight (no semicolon, or an
    empty weight field) defaults to ``sqrt(group size)``.
    """
    groups = []
    weights = []
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
    return groups, np.asarray(weights, dtype=np.float64)
