"""Integer lattice kernels: window enumeration and halfspace filtering, in
numpy. Fixed-width arithmetic is exact only while every sum stays in range,
so each window is proved in range by `check_int64_window` before it is
enumerated. The same proof picks the type: a window whose sums reach at most
n * coord_max is enumerated and filtered in `exact_type(n * coord_max)`, the
narrowest of int8, int16, int32 and int64 that holds them, and returns int64
rows.

Every subset sum comes from one primitive, `subset_sums`: the mask-major
table of a row block's coordinate sums over all 2^n subsets, built by
doubling (the sum over m | 1 << k is the sum over m plus x_k, for m < 2^k).
Each entry is a sum of at most n coordinates, so the range proof covers it.

Cone and plate windows share one shape: the rows of the cached zero-sum box
whose coordinate sum over each of a list of subsets is at most zero. A plate
window is its centre plus such a cone window, since the centre meets every
proper initial-segment inequality with equality. `cone_window` answers it
from a cached table, indexed by mask, of which of the box's subset sums are
at most zero; section windows, and boxes too large for a table, go through
the row-chunked `lattice_filter`.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .setcomp import _charge

INT64_SAFE = 1 << 62

# Most cells (subsets times rows) of a subset-sum table formed at once,
# 32 MiB in int64 and 4 MiB in int8; larger row blocks go through
# lattice_filter in chunks.
FILTER_CELLS = 1 << 22

# each narrow signed type with the largest magnitude it holds on both sides
_NARROW = ((1 << 7) - 1, np.int8), ((1 << 15) - 1, np.int16), ((1 << 31) - 1, np.int32)


def check_int64_window(n: int, coord_max: int, values=()) -> None:
    """Raise ValueError unless int64 arithmetic on the window is exact.

    n is the number of coordinates, coord_max bounds |x_i| over the window,
    and values are the right-hand sides and totals compared against sums of
    coordinates. Below 2^62, no sum of n coordinates and no difference of
    such a sum and a value can leave int64.
    """
    if n * coord_max >= INT64_SAFE or max(map(abs, values), default=0) >= INT64_SAFE:
        raise ValueError("window exceeds the exact int64 range (2^62)")


def exact_type(reach: int) -> type:
    """The narrowest signed integer type holding every integer in
    [-reach - 1, reach]: int8, int16 or int32, and int64 otherwise.

    reach is a proved bound on every sum a window forms, such as the
    n * coord_max of check_int64_window, which keeps it below 2^62."""
    for top, t in _NARROW:
        if reach <= top:
            return t
    return np.int64


def clipped_bounds(values, reach: int) -> np.ndarray:
    """values clipped to [-reach - 1, reach], as an array of exact_type(reach).

    Against sums of magnitude at most reach, a value at or above reach never
    binds and one below -reach no sum meets; the clip keeps both so, and so
    keeps every comparison."""
    return np.minimum(np.maximum(values, -reach - 1), reach).astype(exact_type(reach))


def subset_sums(rows, reach: int) -> np.ndarray:
    """The coordinate sums of each row over every subset: a (2^n, N) array
    of type exact_type(reach) whose entry [m, i] sums rows[i, k] over the
    bits k of mask m.

    rows: (N, n) integers; reach bounds |every subset sum of every row|.
    Built by doubling, n broadcast adds in all: the block of masks with top
    bit k is the block below it plus column k."""
    t = exact_type(reach)
    cols = np.asarray(rows).T.astype(t, order="C")
    n, N = cols.shape
    out = np.empty((1 << n, N), dtype=t)
    out[0] = 0
    for k in range(n):
        half = 1 << k
        np.add(out[:half], cols[k], out=out[half:2 * half])
    return out


def lattice_filter(cands, bounds, reach: int) -> np.ndarray:
    """Boolean mask of the candidate rows whose coordinate sum over every
    subset m is at most bounds[m].

    cands: (N, n) integers; bounds: 2^n integers, one bound per subset
    bitmask; reach bounds |every subset sum of every candidate|, and the
    table and the clipped bounds are formed in exact_type(reach). The
    subset-sum table is formed for at most FILTER_CELLS cells at a time.
    """
    cands = np.asarray(cands)
    bounds = clipped_bounds(bounds, reach)[:, None]
    out = np.empty(cands.shape[0], dtype=np.bool_)
    step = max(1, FILTER_CELLS >> cands.shape[1])
    for i in range(0, cands.shape[0], step):
        (subset_sums(cands[i:i + step], reach) <= bounds).all(axis=0, out=out[i:i + step])
    return out


@lru_cache(maxsize=16)
def _cone_table(n: int, bound: int) -> tuple[np.ndarray, np.ndarray | None]:
    """zero_sum_box(n, bound) and its read-only (2^n, N) bool table: row m
    says, for every box row, whether its coordinate sum over mask m is at
    most zero. The table is None when it would have more than FILTER_CELLS
    cells, so one table holds at most FILTER_CELLS bytes (4 MiB) and the
    cache at most 16 * FILTER_CELLS (64 MiB)."""
    box = zero_sum_box(n, bound)
    if (1 << n) * box.shape[0] > FILTER_CELLS:
        return box, None
    signs = subset_sums(box, n * bound) <= 0
    signs.setflags(write=False)
    return box, signs


def cone_window(n: int, bound: int, masks) -> np.ndarray:
    """The rows of zero_sum_box(n, bound) whose coordinate sum over every
    mask in masks (bitmasks of nonempty proper subsets) is at most zero, in
    the box's lexicographic order, as a new (K, n) int64 array.

    When the box has a sign table, each mask costs one AND of a cached table
    row; larger boxes go through lattice_filter."""
    box, signs = _cone_table(n, bound)
    if signs is None:
        # no subset sum of the box exceeds n * bound, so only masks bind
        bounds = np.full(1 << n, n * bound, dtype=np.int64)
        bounds[list(masks)] = 0
        keep = lattice_filter(box, bounds, n * bound)
    else:
        keep = signs.take(masks, axis=0).all(axis=0)
    return box.compress(keep, axis=0)


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

    The candidate grid of the first n - 1 coordinates, and the last
    coordinate total minus their sum, are formed in the exact_type of
    |total| + (n - 1) * max(|lo_i|, |hi_i|), which bounds every partial sum.
    The grid (the product of the first n - 1 side lengths) is charged first,
    2^max(n, 8) array cells a row: the 2^n subset sums its callers read, and
    the row itself, in its exact_type and in int64."""
    lo = [int(v) for v in lo]
    hi = [int(v) for v in hi]
    n = len(lo)
    if n == 0:
        return np.zeros((1 if total == 0 else 0, 0), dtype=np.int64)
    if any(a > b for a, b in zip(lo, hi)):
        return np.zeros((0, n), dtype=np.int64)
    if n == 1:
        if lo[0] <= total <= hi[0]:
            return np.array([[total]], dtype=np.int64)
        return np.zeros((0, 1), dtype=np.int64)
    sides = [b - a + 1 for a, b in zip(lo[:-1], hi[:-1])]
    grid_rows = math.prod(sides)
    _charge(grid_rows << max(n, 8) >> 9, "a window of {} candidate rows on {} labels", grid_rows, n)
    t = exact_type(abs(total) + (n - 1) * max(map(abs, lo + hi)))
    # the grid of the first n - 1 coordinates in C order, which is
    # lexicographic, and the last coordinate, total minus their sum: one
    # broadcast write and one subtraction per side
    first = np.empty(sides + [n - 1], dtype=t)
    last = np.full(sides, total, dtype=t)
    for j, a in enumerate(lo[:-1]):
        side = np.arange(a, a + sides[j], dtype=t).reshape(
            [-1 if k == j else 1 for k in range(n - 1)]
        )
        first[..., j] = side
        last -= side
    first = first.reshape(grid_rows, n - 1)
    last = last.reshape(grid_rows)
    keep = (last >= lo[-1]) & (last <= hi[-1])
    out = np.empty((int(np.count_nonzero(keep)), n), dtype=np.int64)
    out[:, :-1] = first.compress(keep, axis=0)
    out[:, -1] = last.compress(keep)
    return out
