"""The split test of the preposet coproduct, kept with the tests as the
oracle that `preposet.upward_masks` and the cone and section splits are
checked against. It reads `preposet._closed_upward` at call time, so a test
that patches that helper patches this oracle too."""
from permutokit import preposet


def split_admissible(p: preposet.Preposet, S, T) -> bool:
    """Whether (S,T) <= p, i.e. the relation of p is contained in the total
    relation of (S|T): no label of T is related to a label of S."""
    S_mask, _ = preposet._split_masks(p.ground, S, T)
    return preposet._closed_upward(p.rows, S_mask)
