import copy
import dataclasses
import functools
import itertools
import math
import operator
import pickle
import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from conftest import _count_weights, random_dominant
from test_acceptance import TABLE_CLASSES, random_class_weight
from test_groups import _reference_reduce_flat
from horbits.errors import (
    DomainError,
    GroupMismatchError,
    MalformedMultisetError,
    NonDominantError,
    SizeLimitError,
)
from horbits.geometry import _orbit_rows, nested_polyhedra
from horbits.golden import GoldenNumber, _sign_pair, golden
from horbits.groups import A1, A2, H2, H3, H4, Group, Weight, _flatten, _reflect_flat, _unflatten
from horbits import orbits as orbits_module
from horbits.indices import (
    anomaly_number,
    branch_decompose,
    branch_layers,
    branching_rule,
    default_direction,
    direct_product_index,
    embedding_index,
    even_index,
    multiset_even_index,
)
from horbits.orbits import (
    Decomposition,
    Orbit,
    WeightMultiset,
    decompose,
    decompose_product,
    generate_orbit,
    orbit_product,
    orbit_sum,
    _norm_order,
    _orbit_flats,
    _pair_ranks,
)
from horbits.weightsys import build_tree, weight_system_dominants


@pytest.mark.parametrize("coords,size", [
    ((1, 0), 5), ((0, "1t"), 5), ((2, 3), 10),
])
def test_h2_orbit_sizes(coords, size):
    assert len(generate_orbit(H2, H2.weight(*coords))) == size


@pytest.mark.parametrize("coords,size", [
    ((1, 0, 0), 12), ((0, 1, 0), 30), ((0, 0, 1), 20),
    ((1, 1, 0), 60), ((1, 0, 1), 60), ((0, 1, 1), 60), ((1, 1, 1), 120),
])
def test_h3_orbit_sizes(coords, size):
    orbit = generate_orbit(H3, H3.weight(*coords))
    assert len(orbit) == size
    assert H3.orbit_size(orbit.dominant) == size


def test_zero_orbit_is_singleton():
    orbit = generate_orbit(H3, H3.zero_weight())
    assert len(orbit) == 1


def test_orbit_rejects_non_dominant():
    with pytest.raises(NonDominantError):
        generate_orbit(H2, H2.weight(-1, 2))


_H3_BAD = H3.weight(1, -1, 0)
_H3_TO_H2 = branching_rule("H3", "H2")


@pytest.mark.parametrize("call", [
    lambda: H3.orbit_size(_H3_BAD),
    lambda: generate_orbit(H3, _H3_BAD),
    lambda: decompose_product([generate_orbit(H3, H3.weight(0, 0, 1)),
                               Orbit(H3, _H3_BAD, (_H3_BAD,))]),
    lambda: even_index(H3, _H3_BAD, 1),
    lambda: direct_product_index([(H2, H2.weight(1, 1)), (H3, _H3_BAD)], 1),
    lambda: anomaly_number(H2, H2.weight(1, -1), default_direction(H2), 3),
    lambda: branch_decompose(H3, _H3_TO_H2, _H3_BAD),
    lambda: branch_layers(H3, _H3_TO_H2, _H3_BAD),
    lambda: embedding_index(H3, _H3_TO_H2, _H3_BAD),
    lambda: build_tree(H3, _H3_BAD),
    lambda: weight_system_dominants(H3, _H3_BAD),
    lambda: nested_polyhedra(H3, _H3_BAD),
], ids=["orbit_size", "generate_orbit", "decompose_product", "even_index",
        "direct_product_index", "anomaly_number", "branch_decompose", "branch_layers",
        "embedding_index", "build_tree", "weight_system_dominants", "nested_polyhedra"])
def test_every_seed_entry_rejects_a_non_dominant_seed(call):
    with pytest.raises(NonDominantError, match=r"\) is not dominant$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: orbit_sum([]), "orbit_sum needs at least 1 orbit"),
    (lambda: orbit_product([generate_orbit(H2, H2.weight(1, 0))]),
     "orbit_product needs at least 2 orbits"),
    (lambda: decompose_product([generate_orbit(H2, H2.weight(1, 0))]),
     "decompose_product needs at least 2 orbits"),
    (lambda: direct_product_index([], 1), "direct_product_index needs at least one factor"),
], ids=["orbit_sum", "orbit_product", "decompose_product", "direct_product_index"])
def test_orbit_list_entries_count_their_orbits(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_multiset_weights_belong_to_its_group():
    foreign, message = H2.weight(1, 0), "^weight of H2 passed to H3$"
    with pytest.raises(GroupMismatchError, match=message):
        WeightMultiset(H3, {foreign: 1})
    multiset = generate_orbit(H3, H3.weight(1, 0, 0)).multiset()
    with pytest.raises(GroupMismatchError, match=message):
        multiset.add(foreign)
    # a tally mutated after it was built, mixed or of foreign weights alone
    multiset.tally[foreign] = 1
    alone = WeightMultiset(H3)
    alone.tally[foreign] = 1
    for m in (multiset, alone):
        with pytest.raises(GroupMismatchError, match=message):
            multiset_even_index(m, 1)
        with pytest.raises(GroupMismatchError, match=message):
            decompose(m)
    with pytest.raises(GroupMismatchError, match="^weights belong to H3 and H2$"):
        H3.weight(1, 0, 0) + foreign


def test_orbit_equal_norm_and_zero_sum(rng):
    for group in (H2, H3):
        for _ in range(10):
            seed = random_dominant(group, rng)
            orbit = generate_orbit(group, seed)
            norm = orbit.norm()
            total = group.zero_weight()
            for w in orbit.elements:
                assert group.inner(w, w) == norm
                total = total + w
            assert total.is_zero


def test_orbit_regenerates_from_any_element(rng):
    seed = H3.weight(1, 1, 0)
    orbit = generate_orbit(H3, seed)
    element = orbit.elements[rng.randrange(len(orbit))]
    dom, _ = H3.to_dominant(element)
    assert dom == seed
    assert set(generate_orbit(H3, dom).elements) == set(orbit.elements)


def test_orbit_has_exactly_one_dominant_element(rng):
    for group in (H2, H3):
        for _ in range(5):
            orbit = generate_orbit(group, random_dominant(group, rng))
            dominant = [w for w in orbit.elements if w.is_dominant]
            assert dominant == [orbit.dominant]


def test_orbit_sizes_divide_group_order():
    for group in (H2, H3, H4):
        seed = group.weight(*([1] * group.rank))
        assert group.order % len(generate_orbit(group, seed)) == 0


SUM_POINTS = ["1,0", "-1,1t", "1t,-1t", "-1t,1", "0,-1",
              "0,1t", "1+1t,-1t", "-1-1t,1+1t", "1t,-1-1t", "-1t,0"]

PRODUCT_POINTS = {
    "1,1t": 1, "2+1t,-1t": 1, "-1t,1+1t": 2, "1+1t,-1-1t": 2, "1-1t,0": 1,
    "-1,2t": 1, "1t,0": 2, "-2-1t,1+2t": 1, "-1+1t,-1": 1, "-1-1t,1t": 2,
    "1+2t,-2t": 1, "-1,1": 1, "2t,-1-2t": 1, "0,-1t": 2, "1,1-1t": 1,
    "-1-2t,2+1t": 1, "-2t,1": 1, "0,-1+1t": 1, "1t,-2-1t": 1, "-1t,-1": 1,
}


def test_sum_worked_example():
    left = generate_orbit(H2, H2.weight(1, 0))
    right = generate_orbit(H2, H2.weight(0, "1t"))
    total = orbit_sum([left, right])
    assert {w.text() for w in total.tally} == set(SUM_POINTS)
    assert total.total() == 10
    assert all(count == 1 for count in total.tally.values())


def test_product_worked_example():
    left = generate_orbit(H2, H2.weight(1, 0))
    right = generate_orbit(H2, H2.weight(0, "1t"))
    product = orbit_product([left, right])
    assert product.total() == 25
    assert {w.text(): n for w, n in product.tally.items()} == PRODUCT_POINTS


def test_decompose_worked_example():
    left = generate_orbit(H2, H2.weight(1, 0))
    right = generate_orbit(H2, H2.weight(0, "1t"))
    parts = decompose(orbit_product([left, right]))
    expected = {
        H2.parse_weight("1,1t"): 1,
        H2.parse_weight("1t,0"): 2,
        H2.parse_weight("0,-1+1t"): 1,
    }
    assert parts.parts == expected
    assert parts.total_points() == 25
    assert 25 == 10 + 2 * 5 + 5


def test_decompose_single_orbit():
    orbit = generate_orbit(H3, H3.weight(0, 1, 0))
    parts = decompose(orbit.multiset())
    assert parts.parts == {orbit.dominant: 1}


def test_decomposition_equality():
    zero, one = golden(0), golden(1)
    parts = {Weight(H2, (one, zero)): 2}
    same = Decomposition(H2, {Weight(H2, (one, zero)): 2})
    assert Decomposition(H2, parts) == same
    assert Decomposition(H2, parts) != Decomposition(H2, {Weight(H2, (one, zero)): 1})
    # equal parts under another group, and other types, compare unequal
    assert Decomposition(A2, parts) != same
    assert same != parts and parts != same
    multiset = WeightMultiset(H2, parts)
    assert same != multiset and multiset != same


# corruptions of the H2 (1,0) orbit, from its dominant and its other points
_H2_CORRUPTIONS = {
    "point dropped": lambda top, rest: {top: 1, **dict.fromkeys(rest[:-1], 1)},
    # one point replaced by 3 times another: a total of 5, one dominant of an orbit of 5
    "point scaled": lambda top, rest: {top: 1, rest[1].scaled(3): 1,
                                       **dict.fromkeys(rest[1:], 1)},
    "point moved": lambda top, rest: {top: 1, rest[0]: 2, **dict.fromkeys(rest[1:-1], 1)},
    "point recounted": lambda top, rest: {top: 1, rest[0]: 2, **dict.fromkeys(rest[1:], 1)},
    "dominant recounted": lambda top, rest: {top: 2, **dict.fromkeys(rest, 1)},
    "lone dominant added": lambda top, rest: {top: 1, top.scaled(2): 1,
                                              **dict.fromkeys(rest, 1)},
}


@pytest.mark.parametrize("corrupt", _H2_CORRUPTIONS.values(), ids=_H2_CORRUPTIONS)
def test_decompose_rejects_partial_orbit(corrupt):
    orbit = generate_orbit(H2, H2.weight(1, 0))
    rest = [w for w in orbit.elements if w != orbit.dominant]
    broken = WeightMultiset(H2, corrupt(orbit.dominant, rest))
    with pytest.raises(MalformedMultisetError, match="not a union of orbits"):
        decompose(broken)


@pytest.mark.parametrize("count", [0, -1, 2.5, Fraction(3, 2), "1"])
def test_multiset_counts_are_positive_integers(count):
    multiset = generate_orbit(H3, H3.weight(1, 0, 0)).multiset()
    with pytest.raises(DomainError, match="positive integer"):
        multiset.add(H3.weight(0, 0, 1), count)
    assert decompose(multiset).sorted_parts() == [(H3.weight(1, 0, 0), 1)]
    # a hand-built tally, and one mutated after it was built
    with pytest.raises(MalformedMultisetError, match="positive integer"):
        decompose(WeightMultiset(H3, {H3.weight(0, 0, 1): count}))
    multiset.tally[H3.weight(0, 0, 1)] = count
    with pytest.raises(MalformedMultisetError, match="positive integer"):
        decompose(multiset)
    with pytest.raises(MalformedMultisetError, match="positive integer"):
        multiset_even_index(multiset, 1)
    with pytest.raises(MalformedMultisetError, match="positive integer"):
        WeightMultiset(H3, {H3.weight(1, 0, 0): count})


def test_streaming_matches_materialized(rng):
    for group, n_trials in ((H2, 6), (H3, 3)):
        for _ in range(n_trials):
            a = generate_orbit(group, random_dominant(group, rng))
            b = generate_orbit(group, random_dominant(group, rng))
            assert decompose_product([a, b]) == decompose(orbit_product([a, b]))


def _pairwise_product(orbits):
    """The product multiset by ``Weight`` addition, one sum at a time."""
    first, *rest = orbits
    out = first.multiset()
    for orbit in rest:
        nxt = WeightMultiset(out.group)
        for x, count in out.tally.items():
            for y in orbit.elements:
                nxt.add(x + y, count)
        out = nxt
    return out


def test_row_backed_product_matches_pairwise(rng):
    cases = [[random_dominant(group, rng, max_coef=2) for _ in range(2)]
             for group in (H2,) * 6 + (H3,) * 3]
    cases.append([H3.parse_weight(c) for c in ("1/2,0,1t", "0,1/3,1")])
    cases.append([H2.parse_weight(c) for c in ("1,0", "0,1t", "1/2,1")])
    for seeds in cases:
        orbits = [generate_orbit(w.group, w) for w in seeds]
        reference = _pairwise_product(orbits)
        # total() and == read the held rows, then the tally built from them
        product = orbit_product(orbits)
        assert product.total() == reference.total() == prod(len(o) for o in orbits)
        assert product == reference
        assert reference == orbit_product(orbits)
        assert orbit_product(orbits).tally == reference.tally
        assert product != WeightMultiset(product.group)


def test_product_rule_matches_materialized():
    cases = [
        (H4, ["1,0,0,0", "0,0,0,1"]),
        (H3, ["1/2,0,1t", "0,1/3,1"]),
        (H3, ["1,0,0", "0,1t,0", "0,0,1/2"]),
    ]
    for group, coords in cases:
        orbits = [generate_orbit(group, group.parse_weight(c)) for c in coords]
        assert decompose_product(orbits) == decompose(orbit_product(orbits))


def test_product_rejects_truncated_orbit():
    # regular big orbit: every count divides, so only the size checks catch it
    big = generate_orbit(H3, H3.weight(1, 1, 1))
    small = generate_orbit(H3, H3.weight(1, 0, 0))
    for orbit in (big, small):
        truncated = Orbit(H3, orbit.dominant, orbit.elements[:-1])
        with pytest.raises(MalformedMultisetError):
            decompose_product([truncated, big if orbit is small else small])


def test_product_is_commutative(rng):
    a = generate_orbit(H2, H2.weight(2, 0))
    b = generate_orbit(H2, H2.weight(1, "1t"))
    assert decompose_product([a, b]) == decompose_product([b, a])


def test_highest_weight_present_with_multiplicity_one(rng):
    for group, n_trials in ((H2, 8), (H3, 4)):
        for _ in range(n_trials):
            a = generate_orbit(group, random_dominant(group, rng))
            b = generate_orbit(group, random_dominant(group, rng))
            parts = decompose_product([a, b])
            assert parts.parts.get(a.dominant + b.dominant) == 1


def test_three_factor_product():
    a = generate_orbit(H2, H2.weight(1, 0))
    parts = decompose_product([a, a, a])
    assert parts.total_points() == 125
    materialized = decompose(orbit_product([a, a, a]))
    assert parts == materialized


def test_product_with_zero_orbit():
    a = generate_orbit(H2, H2.weight(1, 0))
    zero = generate_orbit(H2, H2.zero_weight())
    assert orbit_product([a, zero]).tally == a.multiset().tally


def test_product_guards():
    a = generate_orbit(H2, H2.weight(1, 0))
    with pytest.raises(DomainError):
        orbit_product([a])
    # the library names its function; the command line names --decompose
    with pytest.raises(SizeLimitError,
                       match=r"^product has 25 points \(> 3\); use decompose_product$"):
        orbit_product([a, a], max_points=3)
    with pytest.raises(GroupMismatchError):
        orbit_sum([a, generate_orbit(H3, H3.weight(1, 0, 0))])


def test_sum_of_single_orbit_is_its_multiset():
    a = generate_orbit(H2, H2.weight(2, 1))
    assert orbit_sum([a]) == a.multiset()


def test_decomposition_sorted_parts_order():
    a = generate_orbit(H2, H2.weight(1, 0))
    b = generate_orbit(H2, H2.weight(0, "1t"))
    ordered = [w.text() for w, _ in decompose_product([a, b]).sorted_parts()]
    assert ordered == ["1,1t", "1t,0", "0,-1+1t"]


def _fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("n", [40, 41, 89, 90, 91, 93])
def test_sorted_parts_exact_past_the_value_proxy(n):
    # c = F_n*tau - F_(n+1) = (-1)**(n+1) * tau**-n: a float64 value of tau
    # gets its sign wrong from n = 40 on, a 120-bit value from n = 89 on, for
    # c and for norms near 1 + c; the presort misorders, the exact sort decides
    c = golden(-_fib(n + 1), _fib(n))
    zero = golden(0)
    # equal norms, so the coordinates decide: (0, c) < (c, 0) iff c > 0
    parts = Decomposition(H2, {Weight(H2, (c, zero)): 1, Weight(H2, (zero, c)): 2})
    small, large = ((zero, c), (c, zero)) if c > 0 else ((c, zero), (zero, c))
    assert [w.coords for w, _ in parts.sorted_parts()] == [small, large]
    # the larger norm first: |1 + c| > 1 iff c > 0
    one = golden(1)
    parts = Decomposition(H2, {Weight(H2, (one + c, zero)): 1, Weight(H2, (one, zero)): 2})
    big, less = (one + c, one) if c > 0 else (one, one + c)
    assert [w.coords[0] for w, _ in parts.sorted_parts()] == [big, less]


def test_pair_ranks_past_the_float_range():
    # parts past the float64 range fail the presort, and the exact sort decides
    big = 10 ** 400
    pairs = [(big, 1), (1, big), (-big, big), (3, 4), (big, 1)]
    assert _pair_ranks(pairs) == [2, 3, 1, 0, 2]


def _lexsort_order(flats, norms):
    """The rank order as ``np.lexsort`` computed it: the reference for ``_norm_order``."""
    width = len(flats[0])
    coords = _pair_ranks([(f[i], f[i + 1]) for f in flats for i in range(0, width, 2)])
    keys = np.array(coords, dtype=np.int64).reshape(len(flats), width // 2)
    return np.lexsort((*keys.T[::-1], -np.array(_pair_ranks(norms)))).tolist()


@pytest.mark.parametrize("half", [2, 3, 4])
def test_norm_order_matches_lexsort(rng, half):
    # few distinct pair values, so coordinates repeat, norms tie and whole
    # (row, norm) items recur: equal items must keep their input order
    values = [(a, b) for a in range(-2, 3) for b in range(-1, 2)]
    for n in (1, 2, 7, 60, 400):
        pool = [(tuple(x for _ in range(half) for x in rng.choice(values)),
                 rng.choice(values[:4]))
                for _ in range(max(1, n // 3))]
        items = [rng.choice(pool) for _ in range(n)]
        flats = [row for row, _ in items]
        norms = [norm for _, norm in items]
        assert _norm_order(flats, norms) == _lexsort_order(flats, norms)


def test_h4_product_small():
    a = generate_orbit(H4, H4.weight(1, 0, 0, 0))
    b = generate_orbit(H4, H4.weight(0, 0, 0, 1))
    parts = decompose_product([a, b])
    assert parts.total_points() == 72000
    assert parts.parts[H4.weight(1, 0, 0, 1)] == 1


# 268568218 and 244410401+14930352t, two coordinates of this orbit, differ by
# tau**-36, less than the float64 step near them
FLOAT_TIED_H2 = "244410401+14930352t,-39088169+24157817t"


def _fibonacci_seed(group, rng):
    """A dominant seed whose orbit may have distinct coordinates closer than a float64 step.

    Coordinates are 0, tiny ``tau**-n = (-1)**n * (F(n+1) - F(n)*tau)`` with
    36 <= n <= 40, or large pairs near 2**27: sums of a large and a tiny
    coordinate then differ from the large one by less than its float64 step.
    """
    coords = []
    for _ in range(group.rank):
        kind = rng.random()
        if kind < 0.25:
            coords.append(GoldenNumber(0))
        elif kind < 0.6:
            n = rng.randint(36, 40)
            sign = (-1) ** n
            coords.append(GoldenNumber(sign * _fib(n + 1), -sign * _fib(n)))
        else:
            coords.append(GoldenNumber(rng.randint(1, 1 << 27), rng.randint(0, 1 << 24)))
    return group.weight(coords)


def _assert_exact_order(group, seeds):
    """Each orbit lists the rows of :func:`_orbit_flats` in order, its
    dominant first, and they are the points the global search reaches;
    :func:`_orbit_rows` lists the same rows for all seeds at once.  Returns
    whether some orbit has two distinct coordinates closer than a float64 step."""
    orbits = [generate_orbit(group, seed) for seed in seeds]
    flats, denom = _flatten(seeds)
    for orbit, flat in zip(orbits, flats):
        closure = _orbit_flats(group, flat)
        assert orbit.elements[0] == orbit.dominant
        assert orbit.elements == tuple(_unflatten(group, closure, denom))
        assert set(closure) == _ref_global_closure(group, flat)
    rows, sizes = _orbit_rows(group, flats)
    assert sizes == [len(orbit) for orbit in orbits]
    assert _unflatten(group, rows.tolist(), denom) == [w for o in orbits for w in o.elements]
    values = [sorted({c for w in orbit.elements for c in w.coords}) for orbit in orbits]
    return any(float(y - x) < math.ulp(float(y)) for v in values for x, y in zip(v, v[1:]))


def test_float_tied_h2_orbit_lists_in_exact_order():
    seed = H2.parse_weight(FLOAT_TIED_H2)
    assert _assert_exact_order(H2, [seed])
    texts = [w.text() for w in generate_orbit(H2, seed).elements]
    assert texts[:4] == ["244410401+14930352t,-39088169+24157817t",
                         "-244410401-14930352t,-24157817+283498570t",
                         "268568218,39088169-24157817t",
                         "39088169+244410401t,24157817-283498570t"]


@pytest.mark.parametrize("group,count", [(H3, 12), (H4, 3)], ids=["H3", "H4"])
def test_fibonacci_seeds_list_in_exact_order(rng, group, count):
    assert _assert_exact_order(group, [_fibonacci_seed(group, rng) for _ in range(count)])


def _ref_global_closure(group, seed_flat):
    """The closure under every simple reflection of every point, against one
    global set: the reference for the orbit of :func:`_orbit_flats`."""
    rows = group._int_rows
    seen = {seed_flat}
    frontier = [seed_flat]
    while frontier:
        new = []
        for flat in frontier:
            for i in range(group.rank):
                image = _reflect_flat(flat, i, rows[i])
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return seen


def _ref_orbit_levels(group, seed_flat):
    """The graded closure, level by level: each level reflected in every
    ``s_i`` with ``x_i > 0``, and its repeats dropped with ``dict.fromkeys``.
    Level ``k`` holds the points ``k`` reflections below the seed."""
    rows = group._int_rows
    levels = [[seed_flat]]
    while levels[-1]:
        levels.append(list(dict.fromkeys(
            _reflect_flat(x, i, rows[i]) for x in levels[-1]
            for i in range(group.rank) if _sign_pair(x[2 * i], x[2 * i + 1]) > 0)))
    return levels[:-1]


def test_graded_closure_matches_the_global_search():
    # the criterion-1 seed of each of the 25 zero-pattern classes
    rng = random.Random(101)
    for group, pattern, size in TABLE_CLASSES:
        seed = random_class_weight(group, pattern, rng)
        (flat,), denom = _flatten([seed])
        orbit = _orbit_flats(group, flat)
        reference = _ref_global_closure(group, flat)
        assert isinstance(orbit, list)
        assert len(orbit) == len(set(orbit)) == size == group.orbit_size(seed)
        assert set(orbit) == reference
        elements = _unflatten(group, orbit, denom)
        assert generate_orbit(group, seed).elements == tuple(elements)


def _closure_seed(group, rng):
    """A dominant seed whose coordinates are zero, integers, ``a + b*tau`` or
    fractions in both parts."""
    coords = []
    for _ in range(group.rank):
        kind = rng.randrange(4)
        if kind == 0:
            coords.append(golden(0))
        elif kind == 1:
            coords.append(golden(rng.randint(1, 9)))
        elif kind == 2:
            coords.append(golden(rng.randint(0, 9), rng.randint(1, 9)))
        else:
            coords.append(golden(Fraction(rng.randint(0, 9), rng.randint(1, 7)),
                                 Fraction(rng.randint(1, 9), rng.randint(1, 7))))
    return group.weight(coords)


@pytest.mark.parametrize("group, count", [(H2, 40), (H3, 30), (H4, 6)], ids=["H2", "H3", "H4"])
def test_unique_parent_closure_matches_the_graded_closure(group, count):
    rng = random.Random(group.rank * 211)
    seeds = [_closure_seed(group, rng) for _ in range(count)]
    flats, _ = _flatten(seeds)
    # the batched search takes all seeds at once, by the same unique-parent rule
    rows, sizes = _orbit_rows(group, flats)
    assert sizes == [group.orbit_size(seed) for seed in seeds]
    for flat, size, end in zip(flats, sizes, itertools.accumulate(sizes)):
        orbit = _orbit_flats(group, flat)
        assert orbit[0] == flat
        assert len(orbit) == len(set(orbit)) == size
        levels = _ref_orbit_levels(group, flat)
        assert set(orbit) == set(itertools.chain(*levels))
        # breadth first: the orbit lists each level of the graded closure in turn
        ends = itertools.accumulate(map(len, levels))
        assert [set(orbit[end - len(level):end]) for level, end in zip(levels, ends)] == [
            set(level) for level in levels]
        batched = list(map(tuple, rows[end - size:end].tolist()))
        assert len(set(batched)) == size
        assert batched == orbit


@pytest.mark.parametrize("group", [H2, H3, H4, A1, A2], ids=lambda g: g.tag)
def test_cartan_rows_fit_the_unique_parent_rule(group):
    # _orbit_flats relies on a path diagram: row i of the Cartan matrix touches
    # only i - 1, i and i + 1, with every off-diagonal entry <= 0, and the
    # entry (i, i - 1) is nonzero
    for i, row in enumerate(group._int_rows):
        assert {j for j, _, _ in row} <= {i - 1, i, i + 1}
        assert all(_sign_pair(ca, cb) <= 0 for j, ca, cb in row if j != i)
        assert i == 0 or any(j == i - 1 for j, _, _ in row)


# coordinates of the product seeds: 1/2, tau, 1 + tau and 1, or 0
PRODUCT_COORDS = [golden(Fraction(1, 2)), golden(0, 1), golden(1, 1), golden(1)]


def _product_seed(group, rng, pattern=None):
    """A dominant seed: zeros outside ``pattern`` (random, not all zero, if
    None) and one of :data:`PRODUCT_COORDS` inside."""
    while pattern is None or not any(pattern):
        pattern = [rng.random() < 0.6 for _ in range(group.rank)]
    return group.weight([rng.choice(PRODUCT_COORDS) if flag else 0 for flag in pattern])


def test_product_rule_matches_materialized_on_random_seeds(rng):
    cases = [[_product_seed(group, rng) for _ in range(k)]
             for group, k, count in ((H2, 2, 8), (H3, 2, 8), (H2, 3, 4), (H3, 3, 6))
             for _ in range(count)]
    cases += [[_product_seed(H4, rng, p) for p in patterns] for patterns in (
        ((1, 0, 0, 0), (0, 0, 0, 1)), ((0, 1, 0, 0), (1, 0, 0, 0)),
        ((0, 0, 0, 1), (1, 0, 0, 0)), ((1, 0, 0, 0), (0, 0, 1, 0)))]
    tested = 0
    for seeds in cases:
        orbits = [generate_orbit(w.group, w) for w in seeds]
        if prod(map(len, orbits)) > 200_000:
            continue
        assert decompose_product(orbits) == decompose(orbit_product(orbits))
        tested += 1
    assert tested >= 20


@pytest.mark.parametrize("coords, calls", [
    (("1,1,0,0", "0,0,1,1"), 300),
    (("1,0,0,0", "0,0,0,1"), 15),
])
def test_product_rule_reflects_one_sum_per_stabilizer_orbit(coords, calls, monkeypatch):
    # the stabilizer of (0,0,1,1) is A2, of (0,0,0,1) A3: 1440 and 120 points
    # of the smaller orbit fall into 300 and 15 stabilizer orbits
    orbits = [generate_orbit(H4, H4.parse_weight(c)) for c in coords]
    reflected = []
    to_dominant = Group._to_dominant_flat

    def counted(group, flat):
        reflected.append(flat)
        return to_dominant(group, flat)

    monkeypatch.setattr(Group, "_to_dominant_flat", counted)
    parts = decompose_product(orbits)
    assert len(reflected) == calls
    assert parts.total_points() == prod(map(len, orbits))


@pytest.mark.parametrize("group, coords, sample", [
    (H3, ("0,1,1", "1,0,0"), None),
    (H4, ("0,0,1,1", "1,1,0,0"), 24),
    (H3, ("1,1,1", "1,0,0"), None),
], ids=["H3", "H4", "H3-generic"])
def test_product_rejects_a_repeated_element(group, coords, sample):
    # every element overwritten by a copy of every other (H3: all 132), or a
    # sample (H4); the generic (1,1,1) has a trivial stabilizer, so only the
    # distinctness check sees the copy
    big, small = (generate_orbit(group, group.parse_weight(c)) for c in coords)
    n = len(small)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if sample:
        pairs = random.Random(7).sample(pairs, sample)
    for i, j in pairs:
        elements = list(small.elements)
        elements[i] = elements[j]
        corrupted = Orbit(group, small.dominant, tuple(elements))
        with pytest.raises(MalformedMultisetError):
            decompose_product([big, corrupted])


def test_product_rejects_points_off_the_stabilizer_orbits():
    # (0,1,1) is fixed by s_1 alone; the points of (1,0,0) pair up under it
    big = generate_orbit(H3, H3.weight(0, 1, 1))
    small = generate_orbit(H3, H3.weight(1, 0, 0))
    elements = list(small.elements)
    free = [k for k, w in enumerate(elements) if w.coords[0] > 0]
    moved = [k for k, w in enumerate(elements) if w.coords[0] < 0]
    # a kept representative replaced: its partner reduces to a missing point
    swapped = elements[:]
    swapped[free[0]] = elements[free[0]].scaled(2)
    # a partner replaced by a new representative: the orbit sizes sum past 12
    grown = elements[:]
    grown[moved[0]] = elements[free[0]].scaled(2)
    for broken in (swapped, grown):
        corrupted = Orbit(H3, small.dominant, tuple(broken))
        with pytest.raises(MalformedMultisetError,
                           match=r"elements of the orbit of \(1,0,0\) are not its orbit"):
            decompose_product([big, corrupted])


def test_product_checks_the_size_of_the_larger_orbit():
    # the larger orbit gives only its dominant to the product rule
    big = generate_orbit(H3, H3.weight(1, 1, 0))
    small = generate_orbit(H3, H3.weight(1, 0, 0))
    elements = list(big.elements)
    for broken, count in ((elements[1:], 59), (elements + [elements[0].scaled(2)], 61)):
        corrupted = Orbit(H3, big.dominant, tuple(broken))
        for orbits in ([corrupted, small], [small, corrupted]):
            with pytest.raises(MalformedMultisetError, match=f"has {count} elements, not 60"):
                decompose_product(orbits)


def _double(row):
    return tuple(2 * v for v in row)


def _stabilizer_orbit(group, flat, J):
    """The W_J-orbit of a flat row: its closure under the reflections of ``J``."""
    orbit, frontier = {flat}, [flat]
    while frontier:
        frontier = [image for x in frontier for i in J
                    for image in [_reflect_flat(x, i, group._int_rows[i])] if image not in orbit]
        orbit.update(frontier)
    return orbit


def _is_stabilizer_union(group, rows, J):
    """The reference: rows are a disjoint union of W_J-orbits when they are
    distinct, each J-reduces, by the re-scan loop, into the rows, and the
    W_J-orbits of the rows that take no step have sizes summing to their number."""
    members = set(rows)
    reduced = [_reference_reduce_flat(group, y, J) for y in rows]
    return (len(members) == len(rows)
            and all(x in members for x, _ in reduced)
            and sum(len(_stabilizer_orbit(group, y, J))
                    for y, (_, steps) in zip(rows, reduced) if not steps) == len(rows))


@pytest.mark.parametrize("group, coords, samples", [(H3, "1,0,0", 12), (H4, "1,0,0,0", 4)],
                         ids=["H3", "H4"])
def test_product_rule_rejects_exactly_the_non_unions_of_stabilizer_orbits(group, coords, samples):
    # for each zero pattern J of the larger dominant, the product rule rejects
    # every corrupted factor, the unions of W_J-orbits among them: a W_J-orbit
    # scaled is one.  decompose() rejects the materialized product of each of
    # those: the group ring of the weight lattice has no zero divisors, so a
    # product is a union of orbits only when each factor is
    rng = random.Random(41 * group.rank)
    small = generate_orbit(group, group.parse_weight(coords))
    flats, denom = _flatten(small.elements)
    n = len(flats)
    materialized = 0
    for pattern in itertools.product((0, 1), repeat=group.rank):
        if not any(pattern):
            continue  # the zero orbit is never the larger one
        big = generate_orbit(group, _product_seed(group, rng, pattern))
        assert len(big) >= n
        J = [i for i, flag in enumerate(pattern) if not flag]
        for _ in range(samples):
            k, m = rng.sample(range(n), 2)
            y = flats[k]
            orbit = _stabilizer_orbit(group, y, J)
            corruptions = [
                {k: _double(y)},  # a row scaled
                {k: flats[m]},  # a row replaced by another row
                {k: _double(flats[m])},  # ... or by another row scaled
            ]
            moved = [i for i in J if y[2 * i] or y[2 * i + 1]]
            if moved:  # a row replaced by its J-reflection image
                i = rng.choice(moved)
                corruptions.append({k: _reflect_flat(y, i, group._int_rows[i])})
            cases = [[changes.get(r, x) for r, x in enumerate(flats)] for changes in corruptions]
            cases.append(flats[:k] + flats[k + 1:] + [flats[m]])  # a row dropped, another duplicated
            cases.append([_double(x) if x in orbit else x for x in flats])  # a W_J-orbit scaled
            assert _is_stabilizer_union(group, cases[-1], J)
            for rows in cases:
                corrupted = Orbit(group, small.dominant, tuple(_unflatten(group, rows, denom)))
                with pytest.raises(MalformedMultisetError, match="are not its orbit"):
                    decompose_product([big, corrupted])
            if len(big) * n <= 20_000:  # the last one, the W_J-orbit scaled
                materialized += 1
                with pytest.raises(MalformedMultisetError, match="not a union of orbits"):
                    decompose(orbit_product([big, corrupted]))
    assert materialized >= samples


def test_product_rejects_a_non_dominant_seed():
    good = generate_orbit(H3, H3.weight(0, 0, 1))
    bad = Orbit(H3, H3.parse_weight("1+2t,-1-2t,2"),
                generate_orbit(H3, H3.weight(1, 1, 0)).elements)
    for orbits in ([bad, good], [good, bad]):
        with pytest.raises(NonDominantError):
            decompose_product(orbits)


def _eager(orbit):
    return Orbit(orbit.group, orbit.dominant, tuple(orbit.elements))


def test_orbit_length_and_rows_build_no_weight(monkeypatch):
    seeds = [H4.parse_weight(c) for c in ("1,1,0,0", "0,0,1,1")]
    small = [H3.weight(1, 0, 0), H3.weight(0, 1, 0)]
    built = _count_weights(monkeypatch)
    a, b = (generate_orbit(H4, seed) for seed in seeds)
    assert len(a.elements) == len(a) == 1440 and len(b.elements) == 2400
    assert not built
    parts = decompose_product([a, b])
    # only the dominants of the result are built
    assert len(built) == len(parts.parts) == 255
    del built[:]
    assert orbit_product([generate_orbit(H3, w) for w in small]).total() == 360
    assert not built
    assert len(a.elements[:1]) == 1 and len(built) == 1440


def test_decompose_builds_one_weight_per_part(monkeypatch):
    orbits = [generate_orbit(H3, H3.weight(*c)) for c in ((1, 1, 0), (0, 1, 1))]
    product = orbit_product(orbits)
    built = _count_weights(monkeypatch)
    parts = decompose(product)
    # the product's 2,600 distinct rows are read as rows
    assert len(built) == len(parts.parts) == 31
    assert parts == decompose_product(orbits)


def _count_closures(monkeypatch):
    """A list that grows by the seed row of each ``_orbit_flats`` run from now on."""
    seeds = []
    closure = orbits_module._orbit_flats

    def counted(group, seed):
        seeds.append(seed)
        return closure(group, seed)

    monkeypatch.setattr(orbits_module, "_orbit_flats", counted)
    return seeds


def test_orbit_rows_are_built_on_first_read(monkeypatch):
    closures = _count_closures(monkeypatch)
    a, b = (generate_orbit(H4, H4.parse_weight(c)) for c in ("1,1,0,0", "0,0,1,1"))
    # the length comes from the zero pattern
    assert len(a) == len(a.elements) == 1440 and len(b) == 2400
    assert not closures
    # the product iterates the smaller orbit and reads only the dominant of the larger
    decompose_product([a, b])
    assert closures == [(1, 0, 1, 0, 0, 0, 0, 0)]
    del closures[:]
    # the size guard trips before any point is built
    with pytest.raises(SizeLimitError):
        orbit_product([generate_orbit(H3, H3.weight(1, 1, 0)),
                       generate_orbit(H3, H3.weight(0, 1, 1))], max_points=10)
    assert not closures
    rng = random.Random(17)
    for group in (H2, H3, H4, A1, A2):
        for _ in range(8):
            orbit = generate_orbit(group, _closure_seed(group, rng))
            size = len(orbit)
            assert size == len(orbit.elements._source.rows) == len(tuple(orbit.elements))


def test_lazy_orbit_compares_and_hashes_as_its_tuple():
    for group, coords in ((H3, "1/2,0,1t"), (H4, "0,1,0,0"), (H2, "1,1")):
        lazy = generate_orbit(group, group.parse_weight(coords))
        eager = _eager(generate_orbit(group, group.parse_weight(coords)))
        assert isinstance(eager.elements, tuple) and not isinstance(lazy.elements, tuple)
        assert lazy == eager and eager == lazy
        assert lazy.elements == eager.elements and eager.elements == lazy.elements
        assert hash(lazy) == hash(eager) and hash(lazy.elements) == hash(eager.elements)
        assert len({lazy, eager}) == 1
        assert lazy != Orbit(group, lazy.dominant, eager.elements[1:])
        # slices, reversal and membership are those of the tuple
        assert isinstance(lazy.elements[:-1], tuple)
        assert lazy.elements[:-1] == eager.elements[:-1]
        assert list(reversed(lazy.elements)) == list(reversed(eager.elements))
        assert lazy.dominant in lazy.elements and lazy.elements[0] == eager.elements[0]
        assert repr(lazy) == repr(eager)


def test_product_mixes_lazy_and_hand_built_orbits():
    # denominators 6 and 1: the held rows are scaled to the shared one
    cases = [(H3, ("1/2,0,1/3", "0,1,0")), (H3, ("1/2,1/3,0", "0,1/2,1t")),
             (H2, ("1/3,1t", "1/2,0", "0,1/5"))]
    for group, coords in cases:
        lazy = [generate_orbit(group, group.parse_weight(c)) for c in coords]
        eager = [_eager(orbit) for orbit in lazy]
        # the reference adds Weight objects, so no flat rows are involved
        product = WeightMultiset(group)
        for point in itertools.product(*(orbit.elements for orbit in eager)):
            product.add(functools.reduce(operator.add, point))
        expected = decompose(product)
        for mask in range(2 ** len(lazy)):
            mixed = [lazy[k] if mask >> k & 1 else eager[k] for k in range(len(lazy))]
            assert decompose_product(mixed) == expected
            assert orbit_product(mixed) == product


def test_product_accepts_hand_built_orbits_in_any_order():
    # a true orbit as a shuffled tuple passes the set check, whether it is
    # the larger orbit, which gives only its dominant, or an iterated one
    rng = random.Random(23)
    cases = [(H3, ("1/2,0,1/3", "0,1,0")), (H3, ("0,1,0", "1,0,0", "1/2,0,1/3")),
             (H4, ("0,0,0,1", "1,0,0,0"))]
    for group, coords in cases:
        lazy = [generate_orbit(group, group.parse_weight(c)) for c in coords]
        expected = decompose_product(lazy)
        assert expected.total_points() == prod(map(len, lazy))
        if len(lazy) == 2:
            assert expected == decompose(orbit_product(lazy))
        for mask in range(1, 2 ** len(lazy)):
            mixed = []
            for k, orbit in enumerate(lazy):
                elements = list(orbit.elements)
                rng.shuffle(elements)
                mixed.append(Orbit(group, orbit.dominant, tuple(elements))
                             if mask >> k & 1 else orbit)
            assert decompose_product(mixed) == expected


def test_product_checks_a_view_made_from_another_dominant():
    # only an orbit generate_orbit made is trusted: one rebuilt around its
    # view is checked, as the larger orbit (0,1,1) or as the iterated (1,0,0)
    for coords, other in (((1, 0, 0), (0, 1, 1)), ((0, 1, 1), (1, 0, 0))):
        view = generate_orbit(H3, H3.weight(*coords)).elements
        partner = generate_orbit(H3, H3.weight(*other))
        same = Orbit(H3, H3.weight(*coords), view)
        expected = decompose_product([partner, generate_orbit(H3, same.dominant)])
        assert decompose_product([partner, same]) == expected
        for dominant in (same.dominant.scaled(2), same.dominant.scaled(golden(0, 1))):
            with pytest.raises(MalformedMultisetError, match="are not its orbit"):
                decompose_product([partner, Orbit(H3, dominant, view)])


def test_only_a_generated_orbit_carries_its_rows(monkeypatch):
    # an orbit rebuilt by hand from a generated view, or a replace copy,
    # carries no rows: it is read through its elements, to the same
    # decomposition and product, and checked against the closure of its seed
    a, b = generate_orbit(H3, H3.weight(1, 0, "1t")), generate_orbit(H3, H3.weight(0, 1, 0))
    expected, product = decompose_product([a, b]), orbit_product([a, b])
    assert a._rows is not None and a._rows is a.elements._source
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        held = clone(a)
        assert held._rows is held.elements._source and held == a
    closures = _count_closures(monkeypatch)
    for orbit in (Orbit(H3, a.dominant, a.elements), dataclasses.replace(a)):
        assert orbit._rows is None and orbit == a
        assert decompose_product([orbit, b]) == decompose_product([b, orbit]) == expected
        assert orbit_product([orbit, b]) == product
    assert closures == [a._rows.seed] * 4
