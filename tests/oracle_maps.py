"""Maps of the paper that the library itself does not call, kept as oracles
for the tests: the iterated subset-function coproduct along a composition,
the generating coroots of a cone, the maximal affine flat of a plate, the
juxtaposition of points on flats, and submodularity by all pairs of subsets."""
from permutokit.boolfun import bf_comul
from permutokit.cones import AffinePoint, coroot, juxtaposed
from permutokit.plates import FlatSpec, _lump_heights, _prefix_masks
from permutokit.setcomp import EMPTY_GROUND


def bf_comul_along(z, F):
    """Iterated coproduct along all lumps of F, left to right."""
    if F.ground != z.ground:
        raise ValueError("ground sets differ")
    out = []
    rest = z
    remaining = list(F.lumps)
    for lump in F.lumps:
        remaining.pop(0)
        others = [x for l in remaining for x in l]
        left, rest = bf_comul(rest, lump, others)
        out.append(left)
    return tuple(out)


def cone_generators(p):
    """The generating coroots: one for each related pair, oriented downward."""
    return tuple(coroot(b, a, p.ground) for a, b in p.pairs)


def max_affine_flat(P):
    """The flat obtained by forcing every initial-segment inequality to an
    equality: per-lump heights are the consecutive differences of z along H."""
    return FlatSpec(P.H, _lump_heights(P.z, _prefix_masks(P.H)))


def flat_mul(points, heights):
    """Juxtapose points whose coordinate sums match the prescribed heights."""
    if len(points) != len(heights):
        raise ValueError("one height per point required")
    ground = EMPTY_GROUND
    for pt, a in zip(points, heights):
        if pt.total() != a:
            raise ValueError("coordinate sum does not match the prescribed height")
        ground = ground.union(pt.ground)  # raises on overlap
    return AffinePoint(ground, juxtaposed(ground, points))


def submodular_by_all_pairs(z):
    """z(A) + z(B) >= z(A ∪ B) + z(A ∩ B) for every pair of subsets."""
    vals, n = z.values, len(z.ground)
    for a in range(1 << n):
        for b in range(a + 1, 1 << n):
            if vals[a] + vals[b] < vals[a | b] + vals[a & b]:
                return False
    return True
