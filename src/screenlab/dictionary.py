"""Dense dictionaries: column storage, screening reduction, spectral norms, file IO."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-9

_DSMX_MAGIC = b"DSMX"
_DSMX_VERSION = 1
_DSMX_HEADER = struct.Struct("<4sIQQ")


def index_set(values, size=None):
    """Validate and return a strictly increasing int64 index array.

    `size`, when given, bounds the indices to ``[0, size)``.
    """
    arr = np.asarray(values, dtype=np.int64).ravel()
    if arr.size and np.any(np.diff(arr) <= 0):
        raise ValueError("index set must be strictly increasing")
    if size is not None and arr.size and (arr[0] < 0 or arr[-1] >= size):
        raise ValueError(f"indices must lie in [0, {size})")
    return arr


class Dictionary:
    """Dense N x K real matrix whose columns are the candidate atoms.

    Every column has unit l2 norm up to `UNIT_NORM_TOL`; the sphere tests'
    slack ``1 - |a_i . center|`` certifies an atom only when ``||a_i|| <= 1``.
    Columns are stored Fortran-ordered so that the column selections
    performed by screening stay contiguous. Instances are immutable (`data`
    is marked read-only); `reduce` copies columns into a new Dictionary.
    `_opnorm` caches the operator norm once `operator_norm` has computed it.
    """

    __slots__ = ("data", "_opnorm")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="F")
        if arr.ndim != 2:
            raise ValueError("dictionary data must be a 2-D matrix")
        n, k = arr.shape
        if n < 1 or k < 1:
            raise ValueError("dictionary must have at least one row and one column")
        worst = float(np.max(np.abs(np.linalg.norm(arr, axis=0) - 1.0)))
        # written so that a NaN deviation fails too
        if not worst <= UNIT_NORM_TOL:
            raise ValueError(f"columns must have unit l2 norm (worst deviation {worst:.3e})")
        arr.setflags(write=False)
        self.data = arr
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
        out.data = np.asfortranarray(self.data[:, cols])
        out.data.setflags(write=False)
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
    splits a group, so these stay valid for every reduced problem.
    """

    groups: tuple
    weights: np.ndarray
    spectral_norms: np.ndarray
    group_of: np.ndarray
    order: np.ndarray
    offsets: np.ndarray

    @classmethod
    def build(cls, dictionary, groups, weights=None):
        k = dictionary.n_cols
        groups = tuple(index_set(g, k) for g in groups)
        if any(g.size == 0 for g in groups):
            raise ValueError("groups must be nonempty")
        group_of = np.full(k, -1, dtype=np.int64)
        for gid, g in enumerate(groups):
            if np.any(group_of[g] != -1):
                raise ValueError("groups must be pairwise disjoint")
            group_of[g] = gid
        if np.any(group_of < 0):
            raise ValueError("groups must cover every column index")
        if weights is None:
            weights = np.sqrt([g.size for g in groups])
        weights = np.array(weights, dtype=np.float64)
        if weights.shape != (len(groups),) or not np.all(np.isfinite(weights) & (weights > 0)):
            raise ValueError("need one finite, strictly positive weight per group")
        sizes = np.array([g.size for g in groups], dtype=np.int64)
        norms = np.empty(len(groups))
        for size in np.unique(sizes):
            gids = np.flatnonzero(sizes == size)
            cols = np.stack([groups[g] for g in gids])
            norms[gids] = _top_singular_values(dictionary.data[:, cols].transpose(1, 0, 2))
        offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        order = np.concatenate(groups)
        # instances are shared across concurrent runs; freeze the buffers
        for arr in (weights, norms, group_of, order, offsets, *groups):
            arr.setflags(write=False)
        return cls(groups, weights, norms, group_of, order, offsets)

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
        sq = vec[self.order] ** 2
        return np.sqrt(np.add.reduceat(sq, self.offsets))

    def layout(self, kept=None):
        """Group layout over a reduced coefficient vector indexed by `kept`.

        `kept` must be a union of whole groups (screening removes groups
        atomically); ``None`` means all columns.
        """
        kept = index_set(np.arange(self.size) if kept is None else kept, self.size)
        alive = np.zeros(self.size, dtype=bool)
        alive[kept] = True
        alive_in_order = alive[self.order]
        sizes = np.diff(self.offsets, append=self.size)
        alive_sizes = np.add.reduceat(alive_in_order, self.offsets, dtype=np.int64)
        whole = alive_sizes == sizes
        if np.any(~whole & (alive_sizes > 0)):
            raise ValueError("kept indices must cover whole groups")
        kept_gids = np.flatnonzero(whole)
        kept_sizes = sizes[kept_gids]
        # position of each kept column inside the reduced vector
        position = np.cumsum(alive) - 1
        fields = dict(
            group_ids=kept_gids,
            weights=self.weights[kept_gids],
            order=position[self.order[alive_in_order]],
            offsets=np.cumsum(kept_sizes) - kept_sizes,
            sizes=kept_sizes,
        )
        # read-only, so screening can key per-layout work on `group_ids`
        for arr in fields.values():
            arr.setflags(write=False)
        return GroupLayout(**fields)


@dataclass(frozen=True)
class GroupLayout:
    """Positions of surviving groups inside a reduced coefficient vector."""

    group_ids: np.ndarray
    weights: np.ndarray
    order: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray

    @property
    def n_groups(self):
        return self.group_ids.size

    def norms(self, vec):
        return self._norms_in_order(np.asarray(vec)[self.order])

    def _norms_in_order(self, grouped):
        if grouped.size == 0:
            return np.zeros(0)
        return np.sqrt(np.add.reduceat(grouped**2, self.offsets))

    def penalty(self, vec):
        """Weighted sum of group norms (the group-sparsity regularizer value)."""
        return float(self.weights @ self.norms(vec))

    def prox(self, vec, t):
        """Group soft-thresholding with threshold ``t * weight`` per group."""
        if t < 0:
            raise ValueError("threshold must be nonnegative")
        vec = np.asarray(vec, dtype=np.float64)
        grouped = vec[self.order]
        norms = self._norms_in_order(grouped)
        safe = np.where(norms > 0.0, norms, 1.0)
        factors = np.where(norms > 0.0, np.maximum(1.0 - t * self.weights / safe, 0.0), 0.0)
        out = np.zeros_like(vec)
        out[self.order] = grouped * np.repeat(factors, self.sizes)
        return out


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
