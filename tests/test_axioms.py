"""Instance-agnostic law harness: lifted operations, pointed tuple equality,
the full law battery on every shipped instance, and mutation sanity checks
showing that broken operations are actually caught."""
import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from permutokit import axioms
from permutokit.axioms import (
    INSTANCES,
    BimonoidInstance,
    LawReport,
    _random_bf,
    bf_instance,
    check_all,
    lift_comul,
    lift_mul,
    o_bullet_instance,
    points_instance,
    random_point,
    sigma_instance,
    tuples_equal,
)
from permutokit.boolfun import bf_comul, bf_mul
from permutokit.points import point_comul, point_mul
from permutokit.preposet import (
    Bottom,
    enumerate_aug_preposets,
    enumerate_preposets,
    o_comul,
)
from permutokit.setcomp import (
    Bijection,
    Composition,
    GroundSet,
    all_compositions,
    concatenate,
    restrict,
)

G3 = GroundSet.of([1, 2, 3])


def comp(*lumps):
    return Composition.of([list(l) for l in lumps])


def pick(inst, labels, seed=0):
    return inst.draw(GroundSet.of(labels), random.Random(seed))


class TestLiftMul:
    def test_equal_compositions_are_identity(self):
        inst = sigma_instance()
        F = comp([2], [1, 3])
        elems = (comp([2]), comp([3], [1]))
        assert lift_mul(inst, F, F, elems) == elems

    def test_two_lumps_to_one_is_binary_mul(self):
        inst = sigma_instance()
        F = comp([1], [2, 3])
        one = Composition.one_lump(G3)
        a, b = comp([1]), comp([3], [2])
        assert lift_mul(inst, F, one, (a, b)) == (concatenate(a, b),)

    def test_three_lump_merge_orders_agree(self):
        # left-to-right merge versus randomized adjacent merges
        inst = o_bullet_instance()
        F = comp([2], [1], [3])
        one = Composition.one_lump(G3)
        for p in enumerate_aug_preposets(GroundSet.of([2])):
            for q in enumerate_aug_preposets(GroundSet.of([1])):
                for r in enumerate_aug_preposets(GroundSet.of([3])):
                    base = lift_mul(inst, F, one, (p, q, r))
                    for seed in range(5):
                        rng = random.Random(seed)
                        assert lift_mul(inst, F, one, (p, q, r), rng) == base

    def test_requires_coarsening(self):
        inst = sigma_instance()
        F = comp([1, 2, 3])
        G = comp([1], [2, 3])
        with pytest.raises(ValueError):
            lift_mul(inst, F, G, (comp([2], [1], [3]),))

    def test_requires_one_element_per_lump(self):
        inst = sigma_instance()
        F = comp([1], [2, 3])
        with pytest.raises(ValueError):
            lift_mul(inst, F, Composition.one_lump(G3), (comp([1]),))

    def test_rejects_element_over_wrong_ground(self):
        inst = sigma_instance()
        F = comp([1], [2, 3])
        with pytest.raises(ValueError, match="wrong ground"):
            lift_mul(
                inst, F, Composition.one_lump(G3), (comp([2]), comp([3], [1]))
            )


class TestLiftComul:
    def test_equal_compositions_are_identity(self):
        inst = sigma_instance()
        F = comp([1, 3], [2])
        elems = (comp([3], [1]), comp([2]))
        assert lift_comul(inst, F, F, elems) == elems

    def test_one_lump_to_two_is_binary_comul(self):
        inst = sigma_instance()
        F = comp([1], [2, 3])
        one = Composition.one_lump(G3)
        x = comp([2], [1, 3])
        assert lift_comul(inst, F, one, (x,)) == (
            restrict(x, (1,)),
            restrict(x, (2, 3)),
        )

    def test_split_orders_agree(self):
        inst = sigma_instance()
        F = comp([3], [1], [2])
        one = Composition.one_lump(G3)
        for x in sigma_instance().population(G3):
            base = lift_comul(inst, F, one, (x,))
            for seed in range(5):
                rng = random.Random(seed)
                assert lift_comul(inst, F, one, (x,), rng) == base

    def test_rejects_element_over_wrong_ground(self):
        inst = sigma_instance()
        F = comp([1], [2], [3])
        with pytest.raises(ValueError, match="wrong ground"):
            lift_comul(inst, F, Composition.one_lump(G3), (comp([2], [1]),))


class TestTuplesEqual:
    def test_plain_instances_compare_componentwise(self):
        inst = sigma_instance()
        assert tuples_equal(inst, (comp([1]),), (comp([1]),))
        assert not tuples_equal(inst, (comp([1], [2]),), (comp([2], [1]),))

    def test_pointed_tuples_with_a_zero_coordinate_coincide(self):
        # the comultiplication target is a smash product: one bottom
        # coordinate collapses the whole tuple to the basepoint
        inst = o_bullet_instance()
        g1, g2 = GroundSet.of([1]), GroundSet.of([2])
        p1 = next(iter(enumerate_preposets(g1)))
        p2 = next(iter(enumerate_preposets(g2)))
        assert tuples_equal(inst, (Bottom(g1), p2), (p1, Bottom(g2)))
        assert not tuples_equal(inst, (Bottom(g1), p2), (p1, p2))
        assert tuples_equal(inst, (p1, p2), (p1, p2))


FROZEN_N3_OBULLET_COUNTS = {
    "mul-naturality": 1080,
    "comul-naturality": 1440,
    "associativity": 768,
    "coassociativity": 810,
    "square": 1440,
    "general-square": 169,
}


class TestCheckAll:
    def test_sigma_passes_exhaustively(self):
        reports = check_all(sigma_instance(), G3, exhaustive=True)
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]

    def test_o_bullet_passes_exhaustively_with_frozen_counts(self):
        reports = check_all(o_bullet_instance(), G3, exhaustive=True)
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]
        counts = {r.law: r.checked for r in reports}
        for law, n in FROZEN_N3_OBULLET_COUNTS.items():
            assert counts[law] == n

    def test_sampled_instances_pass(self):
        for name in ("bf", "points"):
            reports = check_all(INSTANCES[name](), G3, seed=7, budget=60)
            assert all(r.passed for r in reports), (
                name,
                [r for r in reports if not r.passed],
            )

    def test_zero_absorption_runs_only_for_pointed_instances(self):
        laws_pointed = {r.law for r in check_all(o_bullet_instance(), G3, budget=5)}
        laws_plain = {r.law for r in check_all(sigma_instance(), G3, budget=5)}
        assert "zero-absorption" in laws_pointed
        assert "zero-absorption" not in laws_plain

    def test_reports_are_deterministic_for_a_seed(self):
        a = check_all(points_instance(), G3, seed=11, budget=40)
        b = check_all(points_instance(), G3, seed=11, budget=40)
        assert a == b

    def test_every_report_is_well_formed(self):
        for r in check_all(bf_instance(), G3, seed=3, budget=20):
            assert isinstance(r, LawReport)
            assert r.checked > 0
            assert r.passed and r.counterexample is None


def _mutated(inst: BimonoidInstance, **overrides) -> BimonoidInstance:
    return dataclasses.replace(inst, **overrides)


class TestMutationSanity:
    def test_sigma_with_reversed_restriction_order_fails(self):
        broken = _mutated(
            sigma_instance(),
            comul=lambda F, S, T: (restrict(F, T), restrict(F, S)),
        )
        reports = {r.law: r for r in check_all(broken, G3, budget=40)}
        bad = reports["general-square"]
        assert not bad.passed
        assert bad.counterexample is not None

    def test_o_bullet_with_swapped_comul_halves_fails(self):
        broken = _mutated(
            o_bullet_instance(),
            comul=lambda p, S, T: tuple(reversed(o_comul(p, S, T))),
        )
        reports = check_all(broken, G3, seed=1, budget=80)
        failing = [r for r in reports if not r.passed]
        assert failing and all(r.counterexample is not None for r in failing)

    def test_bf_with_swapped_comul_halves_fails(self):
        broken = _mutated(
            bf_instance(),
            comul=lambda z, S, T: tuple(reversed(bf_comul(z, S, T))),
        )
        reports = check_all(broken, G3, seed=2, budget=80)
        assert any(not r.passed for r in reports)

    def test_points_with_swapped_comul_halves_fails(self):
        broken = _mutated(
            points_instance(),
            comul=lambda x, S, T: tuple(reversed(point_comul(x, S, T))),
        )
        reports = check_all(broken, G3, seed=2, budget=80)
        assert any(not r.passed for r in reports)

    def test_counterexample_strings_name_the_inputs(self):
        broken = _mutated(
            sigma_instance(),
            comul=lambda F, S, T: (restrict(F, T), restrict(F, S)),
        )
        reports = {r.law: r for r in check_all(broken, G3, budget=40)}
        bad = reports["general-square"]
        assert not bad.passed and "F=" in bad.counterexample


PINNED_REPORTS_SHA256 = (
    "c43db509d17aaf8be12df59a42840fa360c684b4c788c58cd8364d5c3420544c"
)


def _swapped_comul(inst: BimonoidInstance) -> BimonoidInstance:
    return _mutated(
        inst, comul=lambda x, S, T, c=inst.comul: tuple(reversed(c(x, S, T)))
    )


class TestPinnedReports:
    def test_report_digest_is_frozen(self):
        """Every LawReport field (law, checked, passed, counterexample text)
        and the order of laws and cases, pinned across versions:

            runs = [check_all(f(make()), G3, seed=1, budget=20)
                    for make in INSTANCES.values()
                    for f in (lambda i: i, _swapped_comul)]
            runs.append(check_all(sigma_instance(), GroundSet.of([1, 2]),
                                  exhaustive=True))
            hashlib.sha256(json.dumps(
                [[dataclasses.astuple(r) for r in rs] for rs in runs]
            ).encode()).hexdigest()
        """
        runs = [
            check_all(f(make()), G3, seed=1, budget=20)
            for make in INSTANCES.values()
            for f in (lambda i: i, _swapped_comul)
        ]
        runs.append(check_all(sigma_instance(), GroundSet.of([1, 2]), exhaustive=True))
        payload = json.dumps([[dataclasses.astuple(r) for r in rs] for rs in runs])
        assert hashlib.sha256(payload.encode()).hexdigest() == PINNED_REPORTS_SHA256

    def test_listing_order_is_pinned(self):
        """Two sigma mutants that fail only on some cases, checked exhaustively
        on 3 labels: the (checked, counterexample) of every law fixes the
        order of each listing up to its first failure. Values recorded
        before the laws became rows of factors."""
        mul_on_23 = _mutated(sigma_instance(), mul=lambda a, b: (
            concatenate(b, a) if a.ground.labels == (2, 3) else concatenate(a, b)))
        comul_on_12 = _mutated(sigma_instance(), comul=lambda F, S, T: (
            reversed_lumps(restrict(F, S)) if S[:1] == (1,) and len(S) == 2 else restrict(F, S),
            restrict(F, T)))
        reports = [[(r.checked, r.counterexample) for r in check_all(m, G3, exhaustive=True)]
                   for m in (mul_on_23, comul_on_12)]
        assert reports == PINNED_LISTING_ORDER


def oracle_elements(name):
    """A separate copy of each instance's element source as one budgeted
    sampler, elements(ground, rng, budget): at most `budget` elements over
    the ground, and the whole population, in order, when it fits. The draws
    of every law case are these, so `draw` and `population` must match it
    draw for draw."""
    population = {
        "sigma": all_compositions,
        "o-bullet": lambda g: itertools.chain((Bottom(g),), enumerate_preposets(g)),
    }.get(name)
    sample = {"bf": _random_bf, "points": random_point}.get(name)

    def elements(ground, rng, budget):
        if population is None:
            return [sample(ground, rng) for _ in range(budget)]
        full = list(population(ground))
        if len(full) <= budget:
            return full
        return rng.sample(full, budget)

    return elements


ORACLE_GROUNDS = [GroundSet.of(range(1, n + 1)) for n in range(5)]


def draw_mismatches(name: str) -> list:
    """The (seed, ground size) of each draw, in runs over ground sizes
    0, 1, ..., 4 twice for seeds 0-29, that differs from the oracle's one
    element or leaves the generator in another state."""
    inst, elements = INSTANCES[name](), oracle_elements(name)
    bad = []
    for seed in range(30):
        rng, ref = random.Random(seed), random.Random(seed)
        for g in ORACLE_GROUNDS * 2:
            if inst.draw(g, rng) != elements(g, ref, 1)[0] or rng.getstate() != ref.getstate():
                bad.append((seed, len(g)))
    return bad


class TestElementSources:
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_draws_match_the_oracle(self, name):
        assert draw_mismatches(name) == []

    @pytest.mark.parametrize("name", ["o-bullet", "sigma"])
    def test_population_is_the_oracles_in_order(self, name):
        elements = oracle_elements(name)
        for g in ORACLE_GROUNDS:
            assert list(INSTANCES[name]().population(g)) == elements(g, random.Random(0), 10**9)

    def test_sampled_instances_have_no_population(self):
        assert bf_instance().population is None and points_instance().population is None

    def test_drawing_from_a_population_of_one_is_caught(self, monkeypatch):
        # sigma has one composition on 0 and 1 labels; drawing it through the
        # generator shifts every later draw
        monkeypatch.setattr(axioms, "_pick", lambda population, rng: rng.choice(population))
        assert (0, 0) in draw_mismatches("sigma")


class TestInstanceRegistry:
    def test_all_four_instances_are_registered(self):
        assert set(INSTANCES) == {"sigma", "o-bullet", "bf", "points"}

    def test_registry_builds_fresh_instances(self):
        inst = INSTANCES["points"]()
        assert inst.name == "points" and inst is not INSTANCES["points"]()
        x = random_point(G3, random.Random(0))
        ident = Bijection(G3, G3, (0, 1, 2))
        assert inst.relabel(ident, x) == x

    def test_point_mul_comul_wired(self):
        inst = points_instance()
        rng = random.Random(5)
        a = random_point(GroundSet.of([1]), rng)
        b = random_point(GroundSet.of([2, 3]), rng)
        prod = inst.mul(a, b)
        assert prod == point_mul(a, b)
        assert inst.comul(prod, (1,), (2, 3)) == point_comul(prod, (1,), (2, 3))


def row_lengths(inst, n, budget, exhaustive):
    """The length of each law's row on n labels, in report order."""
    laws = axioms._laws(inst, GroundSet.of(range(1, n + 1)), random.Random(0), exhaustive)
    return [axioms._length(law, n, budget) for law in laws]


class TestCaseCounts:
    """check_all's estimate of the cases it checks, law by law, which it
    charges to the work budget before listing anything, against the cases
    it then checks: exhaustive sigma on up to 4 labels and o-bullet on up
    to 3 run here; o-bullet on 4 is criterion 01's frozen counts."""

    @pytest.mark.parametrize("name, n", [
        *(("sigma", n) for n in range(5)),
        *(("o-bullet", n) for n in range(4)),
    ])
    def test_exhaustive_estimate_is_the_checked_count(self, name, n):
        inst = INSTANCES[name]()
        reports = check_all(inst, GroundSet.of(range(1, n + 1)), exhaustive=True, budget=3)
        assert [r.checked for r in reports] == row_lengths(inst, n, 3, True)

    def test_o_bullet_on_four_labels_is_criterion_01s_count(self):
        from test_acceptance import FROZEN_N4

        counts = row_lengths(o_bullet_instance(), 4, 200, True)
        assert counts[:6] == list(FROZEN_N4.values())
        assert sum(counts[:6]) == 262_097

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_sampled_estimate_is_the_checked_count(self, name):
        inst = INSTANCES[name]()
        reports = check_all(inst, G3, seed=4, budget=7)
        assert [r.checked for r in reports] == row_lengths(inst, 3, 7, False)

    def test_exhaustive_cases_past_the_budget_are_refused_before_any_list(self, monkeypatch):
        def no_list(ground):
            raise AssertionError("a population was listed")

        inst = dataclasses.replace(sigma_instance(), population=no_list)
        monkeypatch.setattr(axioms, "_comps", no_list)
        with pytest.raises(ValueError, match="checking 2907211 law cases on 5 labels"):
            check_all(inst, GroundSet.of(range(1, 6)), exhaustive=True)

    def test_a_decomposition_size_off_by_one_is_caught(self, monkeypatch):
        decomposition = axioms._decomposition

        def miscounted(ground, k, rng):
            f = decomposition(ground, k, rng)
            return f._replace(size=lambda ks: f.size(ks) + (ks[0] == 1))

        monkeypatch.setattr(axioms, "_decomposition", miscounted)
        inst = sigma_instance()
        reports = check_all(inst, GroundSet.of([1, 2]), exhaustive=True, budget=3)
        lengths = row_lengths(inst, 2, 3, True)
        assert [r.law for r, m in zip(reports, lengths) if r.checked != m] == [
            "mul-naturality", "comul-naturality", "associativity", "coassociativity", "square"]


def reversed_lumps(F):
    return Composition.of([list(l) for l in reversed(F.lumps)]) if F.lumps else F


SIGMA_123 = "Bijection(source=GroundSet(labels=(1, 2, 3)), target=GroundSet(labels=(1, 2, 3)), "
PINNED_LISTING_ORDER = [
    [
        (119, f"sigma={SIGMA_123}pairs=((1, 3), (2, 1), (3, 2))) a=({{1}}|{{2}}) b=({{3}})"),
        (624, None),
        (70, "a=({2}) b=({3}) c=({1})"),
        (351, None),
        (180, "a=({2}|{3}) b=({1}) S=(2,) T=(3,) U=(1,)"),
        (30, "F=({2}|{3}|{1}) G=({1,2}|{3}) elems=(({2}), ({3}), ({1}))"),
        (200, None),
        (200, None),
        (39, "F=({2}|{3}|{1}) G=({1,2,3}) elems=(({2}), ({3}), ({1}))"),
        (200, None),
    ],
    [
        (264, None),
        (21, f"sigma={SIGMA_123}pairs=((1, 2), (2, 1), (3, 3))) x=({{1}}|{{2}}|{{3}}) S=(1, 2)"),
        (99, None),
        (3, "x=({1}|{2}|{3}) A=(1, 2) B=()"),
        (27, "a=({1}|{2}) b=({3}) S=(1, 2) T=() U=(3,)"),
        (4, "F=({1}|{2}|{3}) G=({1,2}|{3}) elems=(({1}), ({2}), ({3}))"),
        (200, None),
        (200, None),
        (200, None),
        (200, None),
    ],
]
