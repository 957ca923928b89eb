"""Instance-agnostic law harness: lifted operations, pointed tuple equality,
the full law battery on every shipped instance, and mutation sanity checks
showing that broken operations are actually caught."""
import dataclasses
import hashlib
import json
import random

import pytest

from permutokit.axioms import (
    INSTANCES,
    BimonoidInstance,
    LawReport,
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
from permutokit.setcomp import Bijection, Composition, GroundSet, concatenate, restrict

G3 = GroundSet.of([1, 2, 3])


def comp(*lumps):
    return Composition.of([list(l) for l in lumps])


def pick(inst, labels, seed=0):
    return inst.elements(GroundSet.of(labels), random.Random(seed), 1)[0]


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
        for x in sigma_instance().elements(G3, random.Random(0), 10**9):
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


class TestInstanceRegistry:
    def test_all_four_instances_are_registered(self):
        assert set(INSTANCES) == {"sigma", "o-bullet", "bf", "points"}

    def test_registry_builds_fresh_instances(self):
        inst = INSTANCES["points"]()
        assert inst.name == "points" and inst is not INSTANCES["points"]()
        x = random_point(G3, random.Random(0))
        ident = Bijection(G3, G3, ((1, 1), (2, 2), (3, 3)))
        assert inst.relabel(ident, x) == x

    def test_point_mul_comul_wired(self):
        inst = points_instance()
        rng = random.Random(5)
        a = random_point(GroundSet.of([1]), rng)
        b = random_point(GroundSet.of([2, 3]), rng)
        prod = inst.mul(a, b)
        assert prod == point_mul(a, b)
        assert inst.comul(prod, (1,), (2, 3)) == point_comul(prod, (1,), (2, 3))
