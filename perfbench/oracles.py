"""Independent oracles for the stored expected values.

Nothing here imports the library or the rest of the benchmark: each oracle
recomputes a value from its definition, by brute force or by counting.
"""
from __future__ import annotations

import itertools
from math import comb, factorial


def compositions(labels):
    """Every ordered set partition of `labels`, first lump chosen by
    increasing bitmask."""
    labels = tuple(labels)
    if not labels:
        return [()]
    out = []
    n = len(labels)
    for m in range(1, 1 << n):
        first = tuple(x for k, x in enumerate(labels) if m >> k & 1)
        rest = tuple(x for k, x in enumerate(labels) if not m >> k & 1)
        for tail in compositions(rest):
            out.append((first,) + tail)
    return out


def forest_count(n):
    """Labeled forests on n vertices: lattice points of the n-permutohedron."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 0
    for bits in range(1 << len(edges)):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for k, (i, j) in enumerate(edges):
            if bits >> k & 1:
                ri, rj = find(i), find(j)
                if ri == rj:
                    acyclic = False
                    break
                parent[ri] = rj
        total += acyclic
    return total


def preorder_count(k):
    """Transitive relations (preposets) on k labels, by brute force."""
    cells = [(i, j) for i in range(k) for j in range(k) if i != j]
    count = 0
    for bits in range(1 << len(cells)):
        rel = {c for t, c in enumerate(cells) if bits >> t & 1}
        if all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c and a != d):
            count += 1
    return count


def _aug(k):
    # preposets plus the adjoined bottom
    return preorder_count(k) + 1


def _multinomial_sum(n, parts, weight):
    """Sum over ordered decompositions of n labels into `parts` blocks of
    weight(block sizes), counting label assignments."""
    total = 0
    for sizes in itertools.product(range(n + 1), repeat=parts):
        if sum(sizes) != n:
            continue
        ways = factorial(n)
        for s in sizes:
            ways //= factorial(s)
        total += ways * weight(sizes)
    return total


def exhaustive_law_counts(n):
    """Cases the exhaustive o-bullet harness checks on n labels, per law."""
    a = {k: _aug(k) for k in range(n + 1)}
    two = sum(comb(n, k) * a[k] * a[n - k] for k in range(n + 1))
    return {
        "mul-naturality": factorial(n) * two,
        "comul-naturality": a[n] * 2**n * factorial(n),
        "associativity": _multinomial_sum(n, 3, lambda s: a[s[0]] * a[s[1]] * a[s[2]]),
        "coassociativity": a[n] * 3**n,
        "square": 2**n * two,
        "general-square": len(compositions(range(n))) ** 2,
    }


def indexing_counts(n):
    """(multiplication, comultiplication) identities check_indexing visits."""
    a = {k: _aug(k) for k in range(n + 1)}
    comps = compositions(range(n))
    mul = 0
    for F in comps:
        prod = 1
        for lump in F:
            prod *= a[len(lump)]
        mul += prod
    return mul, len(comps) * a[n]


def zero_sum_box(n, bound):
    """Integer vectors in [-bound, bound]^n summing to zero, lexicographic."""
    if n == 0:
        return [()]
    out = []
    for head in itertools.product(range(-bound, bound + 1), repeat=n - 1):
        last = -sum(head)
        if -bound <= last <= bound:
            out.append(head + (last,))
    return out


def _initial_segments(F):
    segs, acc = [], []
    for lump in F[:-1]:
        acc += lump
        segs.append(tuple(acc))
    return segs


def cone_window(F, bound):
    """Window points of the cone of the total preposet of F: every proper
    initial segment of F pairs to at most zero."""
    pos = {x: k for k, x in enumerate(sorted(x for l in F for x in l))}
    segs = [[pos[x] for x in seg] for seg in _initial_segments(F)]
    return [
        h for h in zero_sum_box(len(pos), bound)
        if all(sum(h[k] for k in seg) <= 0 for seg in segs)
    ]


def _mask(labels, subset):
    return sum(1 << labels.index(x) for x in subset)


def plate_window(F, table, bound):
    """Window points of the plate (F, z) around its canonical center."""
    labels = sorted(x for l in F for x in l)
    center = {}
    acc = []
    prev = 0
    for lump in F:
        acc += lump
        cur = table[_mask(labels, acc)]
        q, r = divmod(cur - prev, len(lump))
        for k, x in enumerate(sorted(lump)):
            center[x] = q + 1 if k < r else q
        prev = cur
    c = [center[x] for x in labels]
    segs = [
        ([labels.index(x) for x in seg], table[_mask(labels, seg)])
        for seg in _initial_segments(F)
    ]
    out = []
    for d in zero_sum_box(len(labels), bound):
        h = tuple(a + b for a, b in zip(c, d))
        if all(sum(h[k] for k in idx) <= rhs for idx, rhs in segs):
            out.append(h)
    return out


def sections(table, n):
    """Brute-force box scan of the base polytope's integer points, sorted."""
    full = (1 << n) - 1
    tot = table[full]
    his = [table[1 << k] for k in range(n)]
    los = [tot - table[full ^ (1 << k)] for k in range(n)]
    if n == 0:
        return [()]
    out = []
    for head in itertools.product(*[range(lo, hi + 1) for lo, hi in zip(los[:-1], his[:-1])]):
        cand = head + (tot - sum(head),)
        if not los[-1] <= cand[-1] <= his[-1]:
            continue
        if all(sum(cand[k] for k in range(n) if m >> k & 1) <= table[m] for m in range(1, full)):
            out.append(cand)
    return sorted(out)


def product_table(t1, n1, t2, n2):
    """(z1|z2)(A) = z1(A ∩ S) + z2(A ∩ T), with S the first n1 labels."""
    return [t1[m & (1 << n1) - 1] + t2[m >> n1] for m in range(1 << (n1 + n2))]
