"""Integer lattice kernels in numpy. Every window here has one shape,
{x in Z^n : x(A) <= w(A) for each subset A, x(I) = t}, and `lattice_window`
lists it one label a level, with no candidate grid. Fixed-width arithmetic
is exact only while every sum stays in range, so each window is proved in
range by `check_int64_window` before it is enumerated. The same proof picks
the type, `exact_type(reach)`, and every window returns int64 rows.

`subset_sums` is the mask-major table of a row block's sums over all 2^n
subsets, built by doubling (the sum over m | 1 << k is the sum over m plus
x_k, for m < 2^k), so the range proof covers each entry.

A cone window is the rows of the zero-sum box whose sum over each of a list
of subsets is at most zero; a plate window is its centre plus one, since the
centre meets every proper initial-segment inequality with equality.
`cone_window` reads it from a cached table of the box's subset-sum signs,
indexed by mask, or walks it when the box is too large for a table.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .setcomp import _charge

INT64_SAFE = 1 << 62

# Most cells (subsets times rows) of a cone sign table, 4 MiB of bools, and
# of each row chunk of the SectionBasis guard's product.
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


def lattice_window(bounds, total: int) -> np.ndarray:
    """All integer x with x(A) <= bounds[A] for every subset bitmask A and
    x(I) = total, lexicographically ordered, as an (N, n) int64 array.

    x lies in the box total - bounds[I minus i] <= x_i <= bounds[{i}], whose
    range is proved first; then the grid of its first n - 1 sides is charged
    (the last label is forced), 2^max(n, 8) array cells a row. A level fixes
    label k for every surviving prefix, each with W, the bounds left on the
    labels not yet fixed, and T = W[all of them], the total left: k ranges
    over [T - W[rest], W[{k}]], and k = a leaves minimum(W over masks without
    k, W over masks with k, less a). No level holds more prefixes than the
    grid has rows; the rows are read back through each level's parents."""
    b = [int(v) for v in bounds]
    full = len(b) - 1
    n = full.bit_length()
    hi = [b[1 << i] for i in range(n)]
    lo = [total - b[full ^ 1 << i] for i in range(n)]
    side = max(map(abs, lo + hi), default=0)
    check_int64_window(n, side, b + [total])
    if b[0] < 0 or b[full] < total or any(a > c for a, c in zip(lo, hi)):
        return np.zeros((0, n), dtype=np.int64)
    grid_rows = math.prod(c - a + 1 for a, c in zip(lo[:-1], hi[:-1]))
    _charge(grid_rows << max(n, 8) >> 9, "a window of {} candidate rows on {} labels", grid_rows, n)
    if not sum(lo) <= total <= sum(hi):
        return np.zeros((0, n), dtype=np.int64)
    # Bounds cut to what the box allows (the sum of hi over A, total less the
    # sum of lo off A) make W[empty set] = 0 and W[I] = total, and keep each
    # prefix's T within the sides left; clipped to [-reach - 1, reach], they
    # keep every constraint on the box. Each fixed label lowers an entry by
    # at most reach / n: entries, and T less one, stay within 2 * reach + 1.
    reach = n * side
    t = exact_type(2 * reach + 1)
    sums = subset_sums([hi, lo], reach).astype(t)
    W = np.minimum(clipped_bounds(b, reach), sums[:, 0])
    np.minimum(W, total - sums[::-1, 1], out=W)
    W = np.maximum(W, -reach - 1, out=W)[None]
    levels = []
    for k in range(n - 1):
        start, counts = _next_values(W, lo[k], hi[k])
        parent = np.arange(len(W)).repeat(counts)
        # a child's value: its parent's start plus its rank among siblings
        a = (np.arange(len(parent)) - (counts.cumsum() - counts - start)[parent]).astype(t)
        levels.append((parent, a))
        W = _fix(W, parent, a)
    rows = np.empty((len(W), n), dtype=np.int64)
    rows[:, n - 1:] = W[:, -1:]  # the last label takes the total left
    at = slice(None)
    for k in reversed(range(n - 1)):
        parent, a = levels[k]
        rows[:, k] = a[at]
        at = parent[at]
    return rows


def _next_values(W, lo: int, hi: int):
    """Each prefix's first value of label k (bit 0) and their count: [T -
    W[rest], W[{k}]] within k's side [lo, hi], which bounds every count."""
    start = np.maximum(W[:, -1] - W[:, -2], lo)
    stop = np.minimum(W[:, 1], hi) + 1
    np.maximum(stop, start, out=stop)
    return start, stop - start


def _fix(W, parent, a) -> np.ndarray:
    """The children's tables, label k (bit 0) fixed to a under each parent:
    minimum(W over masks without k, W over masks with k, less a)."""
    out = W[:, 0::2].take(parent, axis=0)
    with_k = W[:, 1::2].take(parent, axis=0)
    with_k -= a[:, None]
    return np.minimum(out, with_k, out=out)


@lru_cache(maxsize=16)
def _cone_table(n: int, bound: int) -> tuple[np.ndarray, np.ndarray] | None:
    """zero_sum_box(n, bound) and its read-only (2^n, N) bool table, row m
    saying which box rows sum to at most zero over mask m; None, with nothing
    built, when the box's grid times 2^n passes FILTER_CELLS (a 4 MiB table)."""
    if (1 << n) * (2 * bound + 1) ** max(n - 1, 0) > FILTER_CELLS:
        return None
    box = zero_sum_box(n, bound)
    signs = subset_sums(box, n * bound) <= 0
    signs.setflags(write=False)
    return box, signs


def cone_window(n: int, bound: int, masks) -> np.ndarray:
    """The rows of zero_sum_box(n, bound) whose coordinate sum over every
    mask in masks (bitmasks of nonempty proper subsets) is at most zero, in
    the box's order, as a new (K, n) int64 array: from the cached sign
    table, or walked, without building the box, when it has none."""
    table = _cone_table(n, bound)
    if table is None:
        return lattice_window(_box_bounds(n, bound, masks), 0)
    box, signs = table
    return box.compress(signs.take(masks, axis=0).all(axis=0), axis=0)


@lru_cache(maxsize=64)
def zero_sum_box(n: int, bound: int) -> np.ndarray:
    """All integer vectors in [-bound, bound]^n with coordinate sum zero,
    lexicographically ordered, as a read-only (N, n) int64 array."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    out = lattice_window(_box_bounds(n, bound, ()), 0)
    out.setflags(write=False)
    return out


def _box_bounds(n: int, bound: int, masks) -> np.ndarray:
    """The bounds of [-bound, bound]^n at total zero with sums over masks at
    most zero: bound on each label and on its complement (x_i >= -bound),
    zero on masks, and n * bound, which no sum of the box exceeds, elsewhere."""
    out = np.full(1 << n, n * bound, dtype=np.int64)
    singles = 1 << np.arange(n, dtype=np.int64)
    out[singles] = out[(1 << n) - 1 ^ singles] = bound
    out[list(masks)] = 0
    return out
