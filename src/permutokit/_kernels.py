"""Integer lattice kernels: window enumeration and halfspace filtering, in
numpy. int64 arithmetic is exact only while every sum stays in range, so each
window is proved in range by `check_int64_window` before it is enumerated.

Cone and plate windows share one shape: the rows of the cached zero-sum box
whose coordinate sum over each of a list of subsets is at most zero. A plate
window is its centre plus such a cone window, since the centre meets every
proper initial-segment inequality with equality. `cone_window` answers it
from a cached table saying which of the box's subset sums are at most zero;
section windows, and boxes too large for a table, go through the row-chunked
`lattice_filter`.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

INT64_SAFE = 1 << 62

# Largest candidate grid ranged_sum_box will allocate, in rows; building the
# grid takes about 8 * (n + 1) bytes per row, plus a copy of the kept rows.
ROW_BUDGET = 1 << 24

# Most cells (candidate rows times constraint rows) of the int64 product
# lattice_filter forms at once, 32 MiB; larger products go in row chunks.
FILTER_CELLS = 1 << 22


def check_int64_window(n: int, coord_max: int, values=()) -> None:
    """Raise ValueError unless int64 arithmetic on the window is exact.

    n is the number of coordinates, coord_max bounds |x_i| over the window,
    and values are the right-hand sides and totals compared against sums of
    coordinates. Below 2^62, no sum of n coordinates and no difference of
    such a sum and a value can leave int64.
    """
    if n * coord_max >= INT64_SAFE or max(map(abs, values), default=0) >= INT64_SAFE:
        raise ValueError("window exceeds the exact int64 range (2^62)")


@lru_cache(maxsize=16)
def _subset_rows(n: int) -> np.ndarray:
    """Indicator rows of the nonempty proper subsets of n labels, row m-1
    for bitmask m, as a read-only int64 array."""
    masks = np.arange(1, (1 << n) - 1, dtype=np.int64)
    A = (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1
    A.setflags(write=False)
    return A


def lattice_filter(cands, A, b):
    """Boolean mask of candidate rows satisfying A @ x <= b.

    cands: (N, n) int64; A: (m, n) int64; b: (m,) int64. The product
    cands @ A.T is formed for at most FILTER_CELLS cells at a time.
    """
    cands = np.ascontiguousarray(cands, dtype=np.int64)
    A = np.ascontiguousarray(A, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    out = np.empty(cands.shape[0], dtype=np.bool_)
    step = max(1, FILTER_CELLS // max(A.shape[0], 1))
    for i in range(0, cands.shape[0], step):
        # with no constraint rows the product has no columns: all() is True
        (cands[i:i + step] @ A.T <= b).all(axis=1, out=out[i:i + step])
    return out


@lru_cache(maxsize=16)
def _nonpositive_sums(n: int, bound: int) -> np.ndarray:
    """Which subset sums of zero_sum_box(n, bound) are at most zero, stored
    constraint-major: row m-1 holds, for every box row, whether its
    coordinate sum over mask m is <= 0. A read-only (2^n - 2, N) bool array,
    built only when it has at most FILTER_CELLS cells, so one table holds at
    most FILTER_CELLS bytes (4 MiB) and the cache at most 16 * FILTER_CELLS
    (64 MiB). Building it forms the int64 sums once, at most 32 MiB."""
    out = _subset_rows(n) @ zero_sum_box(n, bound).T <= 0
    out.setflags(write=False)
    return out


def cone_window(n: int, bound: int, masks) -> np.ndarray:
    """The rows of zero_sum_box(n, bound) whose coordinate sum over every
    mask in masks (bitmasks of nonempty proper subsets) is at most zero, in
    the box's lexicographic order, as a new (K, n) int64 array.

    When the box's table of subset-sum signs has at most FILTER_CELLS cells,
    each mask costs one AND of a cached table row; larger boxes go through
    lattice_filter."""
    box = zero_sum_box(n, bound)
    idx = np.asarray(masks, dtype=np.intp) - 1
    if ((1 << n) - 2) * box.shape[0] > FILTER_CELLS:
        A = _subset_rows(n)[idx]
        return box[lattice_filter(box, A, np.zeros(len(idx), dtype=np.int64))]
    return box[_nonpositive_sums(n, bound)[idx].all(axis=0)]


@lru_cache(maxsize=64)
def zero_sum_box(n: int, bound: int) -> np.ndarray:
    """All integer vectors in [-bound, bound]^n with coordinate sum zero,
    lexicographically ordered, as a read-only (N, n) int64 array."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    out = ranged_sum_box([-bound] * n, [bound] * n, 0)
    out.setflags(write=False)
    return out


def ranged_sum_box(lo, hi, total: int) -> np.ndarray:
    """All integer vectors with lo <= x <= hi coordinatewise and sum == total,
    lexicographically ordered, as an (N, n) int64 array.

    Raises ValueError before allocating when the candidate grid (the product
    of the first n - 1 side lengths) has more than ROW_BUDGET rows."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    n = lo.shape[0]
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64) if total == 0 else np.zeros((0, 0), dtype=np.int64)
    if np.any(lo > hi):
        return np.zeros((0, n), dtype=np.int64)
    if n == 1:
        if lo[0] <= total <= hi[0]:
            return np.array([[total]], dtype=np.int64)
        return np.zeros((0, 1), dtype=np.int64)
    grid_rows = math.prod(int(hi[j]) - int(lo[j]) + 1 for j in range(n - 1))
    if grid_rows > ROW_BUDGET:
        raise ValueError(
            f"window has {grid_rows} candidate rows, above the budget of {ROW_BUDGET}"
        )
    sides = [np.arange(lo[j], hi[j] + 1, dtype=np.int64) for j in range(n - 1)]
    # one grid copy: the stack of broadcast views, then only the kept rows
    first = np.stack(np.meshgrid(*sides, indexing="ij", copy=False), axis=-1)
    first = first.reshape(grid_rows, n - 1)
    last = total - first.sum(axis=1)
    keep = (last >= lo[n - 1]) & (last <= hi[n - 1])
    first = first[keep]
    return np.concatenate([first, last[keep, None]], axis=1)
