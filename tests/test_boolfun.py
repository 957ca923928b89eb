"""Integer-valued set functions: product, two-sided coproduct, modular
functions of vectors, the modular-shift equivalence, and submodularity."""
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutokit.boolfun import (
    BooleanFunction,
    bf_comul,
    bf_comul_along,
    bf_equivalent,
    bf_mul,
    hei,
    is_generalized_permutohedron,
    relabel_bf,
    z_of_point,
)
from permutokit.cones import CoweightVector, cone_product_map
from permutokit.setcomp import Bijection, Composition, GroundSet


def bf(labels, values):
    return BooleanFunction(GroundSet.of(labels), tuple(values))


def _random_bf(rng, labels, lo=-3, hi=3):
    n = len(labels)
    vals = [0] + [rng.randint(lo, hi) for _ in range((1 << n) - 1)]
    return bf(labels, vals)


def _random_submodular(rng, labels):
    """Weighted coverage function plus a modular shift; submodular by
    construction."""
    ground = GroundSet.of(labels)
    blocks = []
    for _ in range(rng.randint(1, 4)):
        blk = frozenset(x for x in labels if rng.random() < 0.6)
        if blk:
            blocks.append((blk, rng.randint(0, 3)))
    shift = {x: rng.randint(-2, 2) for x in labels}

    def fn(A):
        cover = sum(w for blk, w in blocks if A & blk)
        return cover + sum(shift[x] for x in A)

    return BooleanFunction.from_callable(ground, fn)


class TestBooleanFunction:
    def test_empty_set_must_vanish(self):
        with pytest.raises(ValueError):
            bf([1], [1, 0])

    def test_table_size_checked(self):
        with pytest.raises(ValueError):
            bf([1, 2], [0, 1, 1])

    def test_size_cap(self):
        with pytest.raises(ValueError):
            BooleanFunction.zero(GroundSet.of(range(13)))

    def test_value_lookup(self):
        z = bf([1, 2], [0, 1, 1, 2])
        assert z.value([]) == 0
        assert z.value([1]) == 1
        assert z.value([2, 1]) == 2

    def test_from_callable_roundtrip(self):
        z = BooleanFunction.from_callable(GroundSet.of([1, 2, 3]), len)
        assert z.value([1, 3]) == 2
        assert hei(z) == 3


class TestMul:
    def test_zero_times_zero(self):
        z = bf_mul(BooleanFunction.zero(GroundSet.of([1])), BooleanFunction.zero(GroundSet.of([2])))
        assert z == BooleanFunction.zero(GroundSet.of([1, 2]))

    def test_blockwise_sum(self):
        z1 = bf([1], [0, 2])
        z2 = bf([2, 3], [0, 1, 1, 3])
        z = bf_mul(z1, z2)
        assert z.value([1]) == 2
        assert z.value([2, 3]) == 3
        assert z.value([1, 2, 3]) == 5

    def test_overlap_rejected(self):
        z = bf([1, 2], [0, 1, 1, 2])
        with pytest.raises(ValueError):
            bf_mul(z, z)

    def test_height_additive(self):
        rng = random.Random(5)
        for _ in range(50):
            z1 = _random_bf(rng, [1, 2])
            z2 = _random_bf(rng, [3])
            assert hei(bf_mul(z1, z2)) == hei(z1) + hei(z2)

    def test_modular_functions_multiply_by_juxtaposition(self):
        rng = random.Random(6)
        for _ in range(50):
            g1, g2 = GroundSet.of([1, 3]), GroundSet.of([2, 4])
            a = rng.randint(-3, 3)
            c = rng.randint(-3, 3)
            h1 = CoweightVector(g1, (a, -a))
            h2 = CoweightVector(g2, (c, -c))
            lhs = bf_mul(z_of_point(g1, h1), z_of_point(g2, h2))
            rhs = z_of_point(GroundSet.of([1, 2, 3, 4]), cone_product_map(h1, h2))
            assert lhs == rhs


class TestComul:
    def test_worked_example(self):
        z = bf([1, 2], [0, 1, 1, 2])
        zS, zT = bf_comul(z, [1], [2])
        assert zS.value([1]) == 1
        assert zT.value([2]) == 2 - 1

    def test_unitor_case(self):
        z = bf([1, 2], [0, 1, 1, 2])
        zS, zT = bf_comul(z, [1, 2], [])
        assert zS == z
        assert zT == BooleanFunction.zero(GroundSet.of([]))

    def test_bad_decomposition(self):
        z = bf([1, 2], [0, 1, 1, 2])
        with pytest.raises(ValueError):
            bf_comul(z, [1], [1, 2])

    def test_height_telescopes(self):
        rng = random.Random(7)
        for _ in range(50):
            z = _random_bf(rng, [1, 2, 3])
            zS, zT = bf_comul(z, [1, 3], [2])
            assert hei(zS) == z.value([1, 3])
            assert hei(zT) == hei(z) - z.value([1, 3])

    def test_along_composition_matches_iteration(self):
        rng = random.Random(8)
        F = Composition.of([[2], [1, 3], [4]])
        for _ in range(20):
            z = _random_bf(rng, [1, 2, 3, 4])
            parts = bf_comul_along(z, F)
            a, rest = bf_comul(z, [2], [1, 3, 4])
            b, c = bf_comul(rest, [1, 3], [4])
            assert parts == (a, b, c)


class TestZOfPoint:
    def test_zero_vector(self):
        g = GroundSet.of([1, 2])
        assert z_of_point(g, (0, 0)) == BooleanFunction.zero(g)

    def test_ones(self):
        z = z_of_point(GroundSet.of([1, 2]), (1, 1))
        assert z.values == (0, 1, 1, 2)

    def test_accepts_dict_and_coweight(self):
        g = GroundSet.of([1, 2])
        h = CoweightVector(g, (1, -1))
        assert z_of_point(g, h) == z_of_point(g, {1: 1, 2: -1})

    def test_full_value_is_total(self):
        z = z_of_point(GroundSet.of([1, 2, 3]), (2, -1, 4))
        assert hei(z) == 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            z_of_point(GroundSet.of([1, 2]), (1,))


class TestEquivalent:
    def test_reflexive(self):
        z = bf([1, 2], [0, 1, 1, 2])
        assert bf_equivalent(z, z) == {1: 0, 2: 0}

    def test_shift_by_ones(self):
        g = GroundSet.of([1, 2])
        assert bf_equivalent(BooleanFunction.zero(g), z_of_point(g, (1, 1))) == {1: 1, 2: 1}

    def test_non_modular_difference(self):
        g = GroundSet.of([1, 2])
        z2 = bf([1, 2], [0, 0, 0, 1])
        assert bf_equivalent(BooleanFunction.zero(g), z2) is None

    def test_ground_mismatch(self):
        with pytest.raises(ValueError):
            bf_equivalent(bf([1], [0, 1]), bf([2], [0, 1]))

    def test_symmetric_and_transitive(self):
        rng = random.Random(9)
        g = GroundSet.of([1, 2, 3])
        for _ in range(40):
            z1 = _random_bf(rng, [1, 2, 3])
            h12 = {x: rng.randint(-3, 3) for x in g.labels}
            h23 = {x: rng.randint(-3, 3) for x in g.labels}
            z2 = BooleanFunction(g, tuple(a + b for a, b in zip(z1.values, z_of_point(g, h12).values)))
            z3 = BooleanFunction(g, tuple(a + b for a, b in zip(z2.values, z_of_point(g, h23).values)))
            assert bf_equivalent(z1, z2) == h12
            assert bf_equivalent(z2, z1) == {x: -v for x, v in h12.items()}
            assert bf_equivalent(z1, z3) == {x: h12[x] + h23[x] for x in g.labels}


class TestGeneralizedPermutohedron:
    def test_modular_is_always_one(self):
        rng = random.Random(10)
        for _ in range(30):
            g = GroundSet.of([1, 2, 3])
            h = {x: rng.randint(-4, 4) for x in g.labels}
            assert is_generalized_permutohedron(z_of_point(g, h))

    def test_permutohedron_data(self):
        z = BooleanFunction.from_callable(
            GroundSet.of([1, 2, 3]), lambda A: {0: 0, 1: 3, 2: 5, 3: 6}[len(A)]
        )
        assert is_generalized_permutohedron(z)

    def test_supermodular_bump_fails(self):
        z = bf([1, 2], [0, 0, 0, 1])
        assert not is_generalized_permutohedron(z)

    def test_preserved_by_mul_and_comul(self):
        rng = random.Random(11)
        for _ in range(40):
            z1 = _random_submodular(rng, [1, 2])
            z2 = _random_submodular(rng, [3, 4])
            z = bf_mul(z1, z2)
            assert is_generalized_permutohedron(z)
            zS, zT = bf_comul(z, [1, 4], [2, 3])
            assert is_generalized_permutohedron(zS)
            assert is_generalized_permutohedron(zT)


class TestRelabel:
    def test_pullback(self):
        z = bf([1, 2], [0, 1, 1, 2])
        sigma = Bijection.of({"a": 2, "b": 1})
        w = relabel_bf(sigma, z)
        assert w.ground == GroundSet.of(["a", "b"])
        assert w.value(["a"]) == z.value([2])
        assert hei(w) == hei(z)

    def test_target_must_match(self):
        z = bf([1, 2], [0, 1, 1, 2])
        with pytest.raises(ValueError):
            relabel_bf(Bijection.of({"a": 1, "b": 3}), z)


class TestBimonoidIdentities:
    def test_square_identity(self):
        # splitting a product along a crossing decomposition equals the
        # product of the splits
        rng = random.Random(12)
        for _ in range(100):
            z1 = _random_bf(rng, [1, 2])
            z2 = _random_bf(rng, [3, 4])
            z = bf_mul(z1, z2)
            S, T = [1], [2]
            U, V = [3], [4]
            left = bf_comul(z, S + U, T + V)
            right = (
                bf_mul(bf_comul(z1, S, T)[0], bf_comul(z2, U, V)[0]),
                bf_mul(bf_comul(z1, S, T)[1], bf_comul(z2, U, V)[1]),
            )
            assert left == right

    def test_coassociativity(self):
        rng = random.Random(13)
        for _ in range(100):
            z = _random_bf(rng, [1, 2, 3])
            a1, rest = bf_comul(z, [1], [2, 3])
            b1, c1 = bf_comul(rest, [2], [3])
            ab, c2 = bf_comul(z, [1, 2], [3])
            a2, b2 = bf_comul(ab, [1], [2])
            assert (a1, b1, c1) == (a2, b2, c2)

    def test_associativity(self):
        rng = random.Random(14)
        for _ in range(100):
            z1 = _random_bf(rng, [1])
            z2 = _random_bf(rng, [2])
            z3 = _random_bf(rng, [3])
            assert bf_mul(bf_mul(z1, z2), z3) == bf_mul(z1, bf_mul(z2, z3))

    def test_mul_comul_roundtrip(self):
        rng = random.Random(15)
        for _ in range(100):
            z1 = _random_bf(rng, [1, 3])
            z2 = _random_bf(rng, [2])
            assert bf_comul(bf_mul(z1, z2), [1, 3], [2]) == (z1, z2)


# ---------------------------------------------------------------------------
# gathers and scatters of subset masks: differential checks against label
# definitions built with from_callable, copied in as oracles


def label_bf_mul(z1, z2):
    g1, g2 = set(z1.ground.labels), set(z2.ground.labels)
    return BooleanFunction.from_callable(
        z1.ground.union(z2.ground), lambda A: z1.value(A & g1) + z2.value(A & g2)
    )


def label_bf_comul(z, S, T):
    return (
        BooleanFunction.from_callable(GroundSet.of(S), z.value),
        BooleanFunction.from_callable(
            GroundSet.of(T), lambda A: z.value(A | set(S)) - z.value(S)
        ),
    )


def label_relabel_bf(sigma, z):
    return BooleanFunction.from_callable(sigma.source, lambda A: z.value(sigma(x) for x in A))


def _table(draw, labels):
    size = 1 << len(labels)
    vals = draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size))
    return BooleanFunction(GroundSet.of(labels), (0,) + tuple(vals[1:]))


@st.composite
def split_tables(draw):
    """A ground from mixed labels, an ordered split (S, T) in drawn order, a
    table on each block and on the ground, and a bijection onto the ground
    from primed labels."""
    labels = draw(st.lists(st.sampled_from([1, 2, 3, "a", "b"]), unique=True, max_size=5))
    in_S = draw(st.lists(st.booleans(), min_size=len(labels), max_size=len(labels)))
    S = [x for x, b in zip(labels, in_S) if b]
    T = [x for x, b in zip(labels, in_S) if not b]
    images = draw(st.permutations(labels))
    sigma = Bijection.of({f"{x}'": y for x, y in zip(labels, images)})
    return S, T, _table(draw, S), _table(draw, T), _table(draw, labels), sigma


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(split_tables())
def test_mask_ops_match_the_label_definitions(case):
    S, T, z1, z2, z, sigma = case
    assert bf_mul(z1, z2) == label_bf_mul(z1, z2)
    assert bf_mul(z2, z1) == label_bf_mul(z2, z1)
    assert bf_comul(z, S, T) == label_bf_comul(z, S, T)
    assert relabel_bf(sigma, z) == label_relabel_bf(sigma, z)
