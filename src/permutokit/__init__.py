"""Exact combinatorial kernel for compositions of a finite set, preposets,
coroot cones, integer subset functions, plates, section spaces, torus-orbit
points, and orbit-indexed open unions, with a law-verification harness."""

from .setcomp import (
    Bijection,
    Composition,
    GroundSet,
    Perm,
    all_compositions,
    concatenate,
    hat_beta,
    permute_lumps,
    refines,
    relabel,
    restrict,
    tits_product,
)
from .preposet import (
    AugPreposet,
    Bottom,
    Preposet,
    composition_of_total,
    enumerate_aug_preposets,
    enumerate_preposets,
    is_bottom,
    o_comul,
    o_mul,
    preposet_leq,
    relabel_preposet,
    total_of_composition,
    upward_masks,
    upward_pairs,
)
from .cones import (
    Box,
    CoweightVector,
    PointSet,
    cone_contains,
    cone_face,
    cone_lattice_points,
    cone_product_map,
    cone_restrict,
    coroot,
    pairing,
)
from .boolfun import (
    BooleanFunction,
    bf_comul,
    bf_equivalent,
    bf_mul,
    hei,
    is_generalized_permutohedron,
    relabel_bf,
    z_of_point,
)
from .plates import (
    AffinePoint,
    FlatSpec,
    Plate,
    flat_contains,
    plate_F_face_contains,
    plate_contains,
    plate_lattice_points,
    window_center,
)
from .sections import (
    SectionBasis,
    TensorWord,
    co_comul,
    co_mul,
    global_sections,
    sections_comul,
    sections_mul,
)
from .points import PermPoint, evaluate, point_comul, point_mul, point_relabel
from .opens import (
    IndexingReport,
    ToricOpen,
    check_indexing,
    open_of_preposet,
    open_product,
    pullback_delta,
    pullback_mu,
)
from .axioms import (
    INSTANCES,
    BimonoidInstance,
    LawReport,
    check_all,
    lift_comul,
    lift_mul,
)

__version__ = "0.1.0"
