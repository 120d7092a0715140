import copy
import json
import pickle
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from horbits import weightsys
from horbits.errors import DomainError, NonDominantError, SizeLimitError
from horbits.golden import TAU, _sign_pair, golden
from horbits.groups import A2, H2, H3, H4, Weight
from horbits.orbits import _norm_order, generate_orbit
from horbits.weightsys import (
    SubtractionEdge,
    SubtractionNode,
    SubtractionTree,
    build_tree,
    closed_form_lower_orbits,
    subtraction_children,
    tree_to_dot,
    tree_to_json,
    weight_system_dominants,
)


def w2(text):
    return H2.parse_weight(text)


def w3(text):
    return H3.parse_weight(text)


def edge_set(tree):
    return {(e.source.text(), str(e.multiple), e.root_index, e.target.text())
            for e in tree.edges}


def test_children_of_tau_one():
    edges = subtraction_children(H2, w2("1t,1"))
    assert {(str(e.multiple), e.root_index, e.target.text()) for e in edges} == {
        ("1t", 1, "-1t,2+1t"),
        ("1", 2, "2t,-1"),
    }


def test_children_single_gcd_edge():
    edges = subtraction_children(H2, w2("-1t,2+1t"))
    assert [(str(e.multiple), e.root_index, e.target.text()) for e in edges] == [
        ("2+1t", 2, "1+2t,-2-1t"),
    ]


def test_children_of_terminal_point_empty():
    assert subtraction_children(H2, w2("-1,-1t")) == []


def test_children_integer_string():
    edges = subtraction_children(H3, H3.weight(2, 0, 0))
    assert [(str(e.multiple), e.target.text()) for e in edges] == [
        ("1", "0,1,0"), ("2", "-2,2,0"),
    ]


def test_children_reject_non_ztau():
    with pytest.raises(DomainError):
        subtraction_children(H2, H2.weight("1/2", 0))


def test_children_budget_names_the_fixed_budget():
    # subtraction_children has no max_nodes, so its guard names its own budget
    with pytest.raises(SizeLimitError) as error:
        subtraction_children(H2, H2.weight(10**8, 0))
    assert str(error.value) == ("(100000000,0) has 100000000 subtraction children, "
                                "over the fixed budget of 8000000")


# -- the H2 (tau, 1) tree ---------------------------------------------------
# The weight system is the 10-point seed orbit plus the whole lower pentagon
# O_(0,tau): two pentagon points appear as intermediate stops of double-step
# subtractions, and expanding (0,tau) through its positive coordinate brings
# in the remaining three.

SEED_ORBIT_NODES = {
    "1t,1", "-1t,2+1t", "2t,-1", "1+2t,-2-1t", "-2t,1+2t",
    "-1-2t,2t", "2+1t,-1-2t", "1,-2t", "-2-1t,1t", "-1,-1t",
}
VIA_NODES = {"0,1t", "-1t,0"}
PENTAGON_TAIL = {"1+1t,-1t", "-1-1t,1+1t", "1t,-1-1t"}

SINGLE_STEP_EDGES = {
    ("1t,1", "1t", 1, "-1t,2+1t"),
    ("1t,1", "1", 2, "2t,-1"),
    ("-1t,2+1t", "2+1t", 2, "1+2t,-2-1t"),
    ("1+2t,-2-1t", "1+2t", 1, "-1-2t,2t"),
    ("-1-2t,2t", "1t", 2, "-1t,0"),
    ("2t,-1", "1t", 1, "0,1t"),
    ("-2t,1+2t", "1+2t", 2, "2+1t,-1-2t"),
    ("2+1t,-1-2t", "2+1t", 1, "-2-1t,1t"),
    ("-2-1t,1t", "1t", 2, "-1,-1t"),
    ("1,-2t", "1", 1, "-1,-1t"),
}
# a coordinate 2*tau spawns both the tau and the 2*tau multiple; the far
# points are reached directly, not through the intermediate stop
DOUBLE_STEP_EDGES = {
    ("-1-2t,2t", "2t", 2, "1,-2t"),
    ("2t,-1", "2t", 1, "-2t,1+2t"),
}


def test_h2_tau_one_tree_structure():
    tree = build_tree(H2, w2("1t,1"))
    nodes = {w.text() for w in tree.node_weights()}
    assert nodes == SEED_ORBIT_NODES | VIA_NODES | PENTAGON_TAIL
    orbit = {w.text() for w in generate_orbit(H2, w2("1t,1")).elements}
    assert orbit == SEED_ORBIT_NODES
    edges = edge_set(tree)
    assert SINGLE_STEP_EDGES <= edges
    assert DOUBLE_STEP_EDGES <= edges
    assert len(tree.edges) == 16
    assert {w.text() for w, _ in tree.lower_dominants} == {"1t,1", "0,1t"}
    assert sorted(w.text() for w in tree.terminals()) == ["-1,-1t", "-1t,0"]
    # the lower orbit O_(0,tau) is contained in the weight system in full
    pentagon = generate_orbit(H2, w2("0,1t"))
    assert {w.text() for w in pentagon.elements} == PENTAGON_TAIL | VIA_NODES


def test_h2_tau_one_revisits():
    tree = build_tree(H2, w2("1t,1"))
    revisited = {w.text() for w, n in tree.arrivals.items() if n > 1}
    assert revisited == {"-1t,0", "-1,-1t"}
    marked = {n.weight.text() for n in tree.nodes if not n.first_visit}
    assert marked == revisited


# -- the H3 icosahedron and dodecahedron trees --------------------------------

def test_h3_icosahedron_tree():
    tree = build_tree(H3, H3.weight(1, 0, 0))
    orbit = generate_orbit(H3, H3.weight(1, 0, 0))
    assert tree.node_weights() == set(orbit.elements)
    assert len(tree.node_weights()) == 12
    assert [w.text() for w in tree.terminals()] == ["-1,0,0"]
    assert [(w.text(), c) for w, c in tree.lower_dominants] == [("1,0,0", 1)]
    # one point is reached along two paths
    assert tree.arrivals[w3("-1t,1t,-1")] == 2
    assert edge_set(tree) >= {
        ("1,0,0", "1", 1, "-1,1,0"),
        ("-1,1,0", "1", 2, "0,-1,1t"),
        ("0,-1,1t", "1t", 3, "0,1t,-1t"),
        ("0,1t,-1t", "1t", 2, "1t,-1t,1"),
        ("1t,-1t,1", "1t", 1, "-1t,0,1"),
        ("1t,-1t,1", "1", 3, "1t,0,-1"),
    }


def test_h3_dodecahedron_tree():
    tree = build_tree(H3, H3.weight(0, 0, 1))
    orbit = generate_orbit(H3, H3.weight(0, 0, 1))
    assert tree.node_weights() == set(orbit.elements)
    assert len(tree.node_weights()) == 20
    assert [w.text() for w in tree.terminals()] == ["0,0,-1"]
    assert [(w.text(), c) for w, c in tree.lower_dominants] == [("0,0,1", 1)]


def test_h3_two_zero_zero_tree():
    tree = build_tree(H3, H3.weight(2, 0, 0))
    dominants = {w.text() for w, _ in tree.lower_dominants}
    assert {"2,0,0", "0,1,0", "0,-1+1t,0"} <= dominants
    assert dominants - {"2,0,0", "0,1,0", "0,-1+1t,0"} == {"0,0,0"}
    assert edge_set(tree) >= {
        ("2,0,0", "1", 1, "0,1,0"),
        ("2,0,0", "2", 1, "-2,2,0"),
        ("-2,2,0", "1", 2, "-1,0,1t"),
        ("-2,2,0", "2", 2, "0,-2,2t"),
        ("0,-2,2t", "1t", 3, "0,-1+1t,0"),
    }


# -- multi-shell seeds --------------------------------------------------------

def test_h3_3_1_0_lower_orbits():
    tree = build_tree(H3, H3.weight(3, 1, 0))
    dominants = [w.text() for w, _ in tree.lower_dominants]
    # the four largest shells, in descending norm order
    assert dominants[:4] == ["3,1,0", "1,2,0", "2,0,1t", "0,1,1t"]
    assert len(dominants) == 17


def test_h3_0_1_3_lower_orbits():
    tree = build_tree(H3, H3.weight(0, 1, 3))
    dominants = [w.text() for w, _ in tree.lower_dominants]
    assert dominants[0] == "0,1,3"
    assert dominants[1] == "0,1+1t,1"
    assert len(dominants) == 14
    # all coordinates stay in Z[tau]: no half-integer parts can ever appear
    assert all(w.is_ztau for w, _ in tree.lower_dominants)


def test_lower_dominants_properties(rng):
    for seed in (H3.weight(2, 1, 0), H3.weight(0, 2, 1), H2.weight(3, 2)):
        group = seed.group
        tree = build_tree(group, seed)
        seed_norm = group.inner(seed, seed)
        for dom, count in tree.lower_dominants:
            assert dom.is_dominant
            assert count >= 1
            diff = group.inner(dom, dom)
            assert (seed_norm - diff).sign() >= 0
            # seed - dominant decomposes over the simple roots with
            # nonnegative coefficients
            delta = seed - dom
            for i in range(group.rank):
                coeff = golden(0)
                for j in range(group.rank):
                    coeff = coeff + group.gram[i][j] * delta.coords[j]
                assert coeff.sign() >= 0


def test_terminals_have_no_positive_coordinate():
    for seed in (H3.weight(1, 1, 0), H2.weight(2, 1)):
        tree = build_tree(seed.group, seed)
        for t in tree.terminals():
            assert all(c.sign() <= 0 for c in t.coords)


def test_build_tree_guards():
    with pytest.raises(NonDominantError):
        build_tree(H2, H2.weight(-1, 1))
    with pytest.raises(DomainError):
        build_tree(H2, H2.zero_weight())
    with pytest.raises(DomainError):
        build_tree(H2, H2.weight("1/2", 1))
    with pytest.raises(DomainError):
        build_tree(A2, A2.weight(1, 0))
    with pytest.raises(SizeLimitError):
        build_tree(H3, H3.weight(2, 2, 2), max_nodes=50)


def test_h4_tree_small_seed():
    # the 120-point orbit contains root vectors, so the origin joins the
    # weight system as a degenerate lower orbit
    tree = build_tree(H4, H4.weight(1, 0, 0, 0))
    assert [(w.text(), c) for w, c in tree.lower_dominants] == [
        ("1,0,0,0", 1), ("0,0,0,0", 4)]
    orbit = generate_orbit(H4, H4.weight(1, 0, 0, 0))
    assert tree.node_weights() == set(orbit.elements) | {H4.zero_weight()}


def test_fast_dominants_match_tree(rng):
    for seed in (H2.weight("1t", 1), H3.weight(2, 0, 0), H3.weight(3, 1, 0),
                 H3.weight(1, 1, 1), H4.weight(0, 0, 0, 1)):
        tree = build_tree(seed.group, seed)
        fast = weight_system_dominants(seed.group, seed)
        assert [(w, c) for w, c in tree.lower_dominants] == fast


@pytest.mark.parametrize("group,text", [
    (H2, "3+2t,5"), (H2, "3-1t,1+1t"),
    (H3, "2t,1+1t,1"), (H3, "3,-1+2t,1t"), (H3, "2-1t,1t,1"),
    (H4, "1t,0,0,1"), (H4, "0,0,0,5+8t"),
])
def test_fast_dominants_match_tree_tau_and_mixed(group, text):
    seed = group.parse_weight(text)
    assert weight_system_dominants(group, seed) == build_tree(group, seed).lower_dominants


def test_fast_dominants_lane_bound_fails_mid_closure(monkeypatch):
    # H4 keys pack 7-bit lanes; the closure reaches (1+13t,0,0,0) and points
    # up to 41 in a coordinate part, and the proven bound (51) keeps them all
    # inside the lanes, so every level takes its child keys from key arithmetic
    seed = H4.parse_weight("0,0,0,12+1t")
    assert weightsys._key_bits(8, weightsys._coord_bound(H4, seed)) == 7
    seen = []
    unpack = weightsys._unpack_keys

    def spy(keys, bits, width):
        seen.append(bits)
        return unpack(keys, bits, width)

    monkeypatch.setattr(weightsys, "_unpack_keys", spy)
    fast = weight_system_dominants(H4, seed)
    assert H4.parse_weight("1+13t,0,0,0") in dict(fast)
    assert seen and set(seen) == {7}
    seen.clear()
    assert fast == build_tree(H4, seed).lower_dominants
    assert seen and set(seen) == {7}


def _random_mixed_seed(group, rng, span):
    """A nonzero dominant Z[tau] seed whose coordinates ``a + b*tau`` take
    parts of either sign in ``-span..span``."""
    while True:
        pairs = []
        for _ in range(group.rank):
            a, b = rng.randint(-span, span), rng.randint(-span, span)
            pairs.append((a, b) if _sign_pair(a, b) >= 0 else (0, 0))
        if any(a or b for a, b in pairs):
            return group.weight(*(golden(a, b) for a, b in pairs))


def _largest_part(tree):
    return max(abs(part) for w in tree.arrivals for part in _flat(w))


def test_coord_bound_holds_on_every_tree_node(rng):
    # the key format rests on this bound: it must cover every point of the
    # closure, the children of every level included
    # (seeds whose closure passes 20,000 points are drawn again)
    for group, span, count in ((H2, 9, 15), (H3, 3, 15), (H4, 2, 8)):
        trees = 0
        while trees < count:
            seed = _random_mixed_seed(group, rng, span)
            try:
                tree = build_tree(group, seed, max_nodes=20_000)
            except SizeLimitError:
                continue
            trees += 1
            assert _largest_part(tree) <= weightsys._coord_bound(group, seed), seed
    # on these seeds the proven supremum is an integer the closure reaches,
    # so only the one unit of float margin lies above it
    for group, text in ((H2, "1,0"), (H2, "0,3"), (H2, "5+2t,7+2t"), (H3, "0,1+1t,3+3t")):
        seed = group.parse_weight(text)
        bound = weightsys._coord_bound(group, seed)
        assert _largest_part(build_tree(group, seed)) == bound - 1, text


def test_fast_dominants_norms_past_int64():
    # with coordinates past about 1.1e8, det * <x,x> outgrows int64 in H4
    # (1.8e8 in H3), so the listing is ordered on Python integers
    seed = H4.weight("110000001+110000000t", 0, 0, 0)
    assert [(w.text(), c) for w, c in weight_system_dominants(H4, seed)] == [
        ("110000001+110000000t,0,0,0", 1), ("0,0,0,0", 4)]
    seed = H3.weight("250000001+250000000t", 0, 0)
    assert weight_system_dominants(H3, seed) == build_tree(H3, seed).lower_dominants


def test_fast_dominants_reject_int64_overflow():
    # squaring 2a+b for a = 3e9 would wrap int64 and stop the closure at the
    # seed; the engine has to refuse instead
    with pytest.raises(SizeLimitError):
        weight_system_dominants(H3, H3.weight(3_000_000_000, 0, 0),
                                max_nodes=10_000)


def test_fast_dominants_node_guard_trips_before_allocation():
    # the seed alone has 10**6 children (gcd step count of its coordinate),
    # so the guard must fire before the level is built
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            weight_system_dominants(H3, H3.weight(10**6, 0, 0), max_nodes=1_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_fast_dominants_exact_keys_past_packing(monkeypatch):
    # shrink the packed key lanes to 4 bits, so the coordinate bound of each
    # seed below misses them and every level is keyed by its rows
    seeds = (H3.weight(0, 4, 0), H3.weight(3, 3, 0), H2.weight(7, "3t"))
    expected = [weight_system_dominants(seed.group, seed) for seed in seeds]
    switched = []
    unpack = weightsys._unpack_keys

    def spy(keys, bits, width):
        switched.append(len(keys))
        return unpack(keys, bits, width)

    monkeypatch.setattr(weightsys, "_key_bits",
                        lambda width, bound: 4 if bound < 8 else None)
    monkeypatch.setattr(weightsys, "_unpack_keys", spy)
    for seed, want in zip(seeds, expected):
        switched.clear()
        assert weight_system_dominants(seed.group, seed) == want
        assert switched, seed


# -- independent reference: a first-in-first-out closure over tuples -----------

def _flat(w):
    return tuple(part for c in w.coords for part in (int(c.rat), int(c.tau)))


def _fifo_tree(group, seed):
    """The subtraction closure as a plain FIFO breadth-first search.

    Returns the edge events ``(source, target, (ma, mb), root index,
    first visit)`` on flat integer rows in visiting order, the arrival count
    of every row in first-visit order, and the lower dominants ``(row,
    max(1, arrivals))`` in listing order.
    """
    rank = group.rank
    rows = group._int_rows
    seed_flat = _flat(seed)
    events = []
    arrivals = {seed_flat: 0}
    queue = [seed_flat]
    head = 0
    while head < len(queue):
        current = queue[head]
        head += 1
        for i in range(rank):
            a = current[2 * i]
            b = current[2 * i + 1]
            if _sign_pair(a, b) <= 0:
                continue
            g = gcd(abs(a), abs(b))
            for k in range(1, g + 1):
                ma = k * (a // g)
                mb = k * (b // g)
                target = list(current)
                for j, ca, cb in rows[i]:
                    target[2 * j] -= ma * ca + mb * cb
                    target[2 * j + 1] -= ma * cb + mb * ca + mb * cb
                target = tuple(target)
                first = target not in arrivals
                arrivals[target] = arrivals.get(target, 0) + 1
                events.append((current, target, (ma, mb), i, first))
                if first:
                    queue.append(target)
    lower = [f for f in queue
             if all(_sign_pair(f[2 * i], f[2 * i + 1]) >= 0 for i in range(rank))]
    order = _norm_order(lower, [group._det_inner_pair(f, f) for f in lower])
    return events, arrivals, [(lower[k], max(1, arrivals[lower[k]])) for k in order]


def _assert_tree_is_fifo(tree):
    events, arrivals, dominants = _fifo_tree(tree.group, tree.seed)
    assert tree.nodes[0] == SubtractionNode(tree.seed, True)
    assert len(tree.nodes) == len(tree.edges) + 1
    assert [(_flat(e.source), _flat(e.target), (int(e.multiple.rat), int(e.multiple.tau)),
             e.root_index - 1, n.first_visit)
            for e, n in zip(tree.edges, tree.nodes[1:])] == events
    assert [(_flat(w), n) for w, n in tree.arrivals.items()] == list(arrivals.items())
    assert [(_flat(w), c) for w, c in tree.lower_dominants] == dominants


FIFO_SEEDS = [(H2, "1t,1"), (H3, "3,1,0"), (H3, "2,1t,1"), (H3, "1+2t,2+1t,1"),
              (H4, "1,0,0,1"), (H4, "0,0,0,12+1t")]


@pytest.mark.parametrize("group,text", FIFO_SEEDS)
def test_build_tree_matches_fifo_reference(group, text):
    _assert_tree_is_fifo(build_tree(group, group.parse_weight(text)))


def test_build_tree_exact_keys_past_packing(monkeypatch):
    # 4-bit lanes, as in test_fast_dominants_exact_keys_past_packing: the
    # key format is chosen once, so a tree runs on row keys at every level,
    # or, when its coordinate bound fits the lanes, on packed keys throughout
    switched = []
    unpack = weightsys._unpack_keys

    def spy(keys, bits, width):
        switched.append(bits)
        return unpack(keys, bits, width)

    monkeypatch.setattr(weightsys, "_key_bits",
                        lambda width, bound: 4 if bound < 8 else None)
    monkeypatch.setattr(weightsys, "_unpack_keys", spy)
    for seed, bits in ((H3.weight(0, 4, 0), None), (H3.weight(3, 3, 0), None),
                       (H2.weight(7, "3t"), None), (H3.weight(1, 1, 1), 4)):
        switched.clear()
        _assert_tree_is_fifo(build_tree(seed.group, seed))
        assert set(switched) == {bits}, seed


@pytest.mark.parametrize("group,text", [
    (H2, "1t,1"), (H3, "2,0,0"), (H3, "3,1,0"), (H4, "1,0,0,1")])
def test_build_tree_node_guard_boundary(group, text):
    # max_nodes bounds the distinct points of the tree: the level child
    # budget must not trip before it on a tree within the bound
    seed = group.parse_weight(text)
    tree = build_tree(group, seed)
    exact = build_tree(group, seed, max_nodes=len(tree.arrivals))
    assert tree_to_json(exact) == tree_to_json(tree)
    assert list(exact.arrivals.items()) == list(tree.arrivals.items())
    with pytest.raises(SizeLimitError, match=f"exceeds {len(tree.arrivals) - 1} nodes"):
        build_tree(group, seed, max_nodes=len(tree.arrivals) - 1)


def test_tree_and_dominants_share_the_int64_guard():
    seed = H3.weight("2147483649+1t", 0, 0)
    with pytest.raises(SizeLimitError) as tree_error:
        build_tree(H3, seed)
    with pytest.raises(SizeLimitError) as dominants_error:
        weight_system_dominants(H3, seed)
    assert str(tree_error.value) == str(dominants_error.value)


@pytest.mark.parametrize("text", ["268435456+268435457t,0,0", "0,200000001+200000000t,0"])
def test_closure_int64_guard_names_the_coordinates(text):
    # both seeds pass the seed check; their children (and in dominants mode
    # the seed's root coordinates) are past the sign test's |2a + b|, |b| bound
    seed = H3.parse_weight(text)
    for call in (weight_system_dominants, build_tree):
        with pytest.raises(SizeLimitError) as error:
            call(H3, seed, max_nodes=10_000)
        assert str(error.value) == "weight system coordinates exceed the exact int64 range"


def test_seed_guard_matches_the_sign_test_bound():
    # the sign test bounds |2a + b| and |b| by 2**30: an integer coordinate of
    # 2**29 + 1 is past it, and the seed check must say so before any level
    seed = H3.weight(2**29 + 1, 0, 0)
    calls = (lambda s: weight_system_dominants(H3, s, max_nodes=10),
             lambda s: build_tree(H3, s, max_nodes=10),
             lambda s: subtraction_children(H3, s))
    for call in calls:
        with pytest.raises(SizeLimitError) as error:
            call(seed)
        assert str(error.value) == "(536870913,0,0) exceeds the exact int64 range"
        # 2**29 itself passes the seed check and meets the node budget instead
        with pytest.raises(SizeLimitError, match="536870912 .*children"):
            call(H3.weight(2**29, 0, 0))


# -- closed-form catalogue -----------------------------------------------------

def test_closed_form_examples():
    assert closed_form_lower_orbits("(a,0,0)", 4) == {
        w3("4,0,0"), w3("2,1,0"), w3("0,2,0"), w3("0,-2+2t,0")}
    assert closed_form_lower_orbits("(a,0,0)", 1) == {w3("1,0,0")}
    assert closed_form_lower_orbits("(0,0,a)", 2) == {
        w3("0,0,2"), w3("0,1t,0"), w3("0,-1+1t,0"), w3("1t,0,-1+1t")}


def test_closed_form_guards():
    with pytest.raises(DomainError):
        closed_form_lower_orbits("(a,b,c)", 2)
    with pytest.raises(DomainError):
        closed_form_lower_orbits("(a,0,0)", 12)


def test_closed_form_rows_are_computed_dominants():
    # spot-check a couple of families; the full sweep runs in acceptance
    for family, seed in [("(a,0,0)", (3, 0, 0)), ("(0,a,0)", (0, 4, 0)),
                         ("(a,a,0)", (2, 2, 0))]:
        claimed = closed_form_lower_orbits(family, max(seed))
        actual = {w for w, _ in weight_system_dominants(H3, H3.weight(*seed))}
        assert claimed <= actual


# -- exports -------------------------------------------------------------------

def test_dot_export():
    tree = build_tree(H2, w2("1t,1"))
    dot = tree_to_dot(tree)
    assert dot.startswith("digraph")
    assert dot.endswith("}\n")
    assert 'label="(1t,1)"' in dot
    assert "color=gray" in dot  # the revisited points
    assert "1t·α1" in dot


def test_json_export_round_trip():
    tree = build_tree(H3, H3.weight(2, 0, 0))
    payload = json.loads(tree_to_json(tree))
    assert payload["group"] == "H3"
    assert payload["seed"] == ["2", "0", "0"]
    assert payload["lower_dominants"][0] == {"coords": ["2", "0", "0"], "count": 1}
    rebuilt = {H3.weight(*entry["coords"]) for entry in payload["nodes"]
               if entry["first_visit"]}
    assert rebuilt == tree.node_weights()
    assert len(payload["edges"]) == len(tree.edges)


def _json_payload(tree):
    """The tree's JSON payload, built field by field for ``json.dumps``."""
    return {
        "group": tree.group.tag,
        "seed": list(tree.seed.texts()),
        "nodes": [
            {"coords": list(n.weight.texts()), "first_visit": n.first_visit}
            for n in tree.nodes
        ],
        "edges": [
            {
                "from": list(e.source.texts()),
                "to": list(e.target.texts()),
                "multiple": str(e.multiple),
                "root_index": e.root_index,
            }
            for e in tree.edges
        ],
        "lower_dominants": [
            {"coords": list(w.texts()), "count": c}
            for w, c in tree.lower_dominants
        ],
    }


def _hand_built_trees():
    half = golden(Fraction(1, 2), Fraction(-3, 4))
    seed = H2.weight(golden(Fraction(5, 2), Fraction(-1, 3)), golden(0, Fraction(7, 6)))
    alpha = H2.simple_roots[0]
    target = seed - alpha.scaled(half)
    with_edge = SubtractionTree(
        H2, seed,
        [SubtractionNode(seed, True), SubtractionNode(target, True)],
        [SubtractionEdge(seed, target, half, 1)],
        {seed: 0, target: 1},
        [(seed, 1)],
    )
    lone = SubtractionTree(H2, seed, [SubtractionNode(seed, True)], [], {seed: 0}, [])
    # mixed-sign fractional parts in every position, and a rational and a pure-tau multiple
    seed = H2.weight(golden(Fraction(-7, 3), Fraction(5, 2)), golden(Fraction(11, 4), -2))
    steps = [golden(Fraction(-2, 5), Fraction(9, 8)), golden(Fraction(-1, 6)),
             golden(0, Fraction(-4, 9))]
    points = [seed]
    for k, m in enumerate(steps):
        points.append(points[-1] - H2.simple_roots[k % 2].scaled(m))
    mixed = SubtractionTree(
        H2, seed, [SubtractionNode(p, True) for p in points],
        [SubtractionEdge(p, q, m, k % 2 + 1)
         for k, (p, q, m) in enumerate(zip(points, points[1:], steps))],
        dict.fromkeys(points, 1), [(points[-1], 2), (seed, 1)],
    )
    return [with_edge, lone, mixed]


@pytest.mark.parametrize("make", [
    lambda: build_tree(H2, w2("1t,1")),
    lambda: build_tree(H3, w3("2,1t,1")),
    lambda: build_tree(H4, H4.weight(1, 0, 0, 1)),
    lambda: _hand_built_trees()[0],
    lambda: _hand_built_trees()[1],
    lambda: _hand_built_trees()[2],
], ids=["H2-t1", "H3-2t1", "H4-1001", "hand-edge", "hand-no-edges", "hand-mixed"])
def test_json_export_matches_json_dumps(make):
    tree = make()
    assert tree_to_json(tree) == json.dumps(_json_payload(tree), indent=2) + "\n"


def test_results_pickle_and_copy():
    # copies rebuild numbers from their parts and keep the group singletons
    number = golden(Fraction(-3, 2), Fraction(5, 7))
    fresh = golden(Fraction(-3, 2), Fraction(5, 7))
    hash(number)  # caches _hash and _text on one of the two
    str(number)
    v, w = H3.weight(1, "1t", 0), H3.weight(0, 1, "1+1t")
    orbit = generate_orbit(H3, v)
    lower = build_tree(H3, H3.weight(2, 1, 0)).lower_dominants
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        for x in (number, fresh):
            y = clone(x)
            assert y == x and hash(y) == hash(x) and str(y) == "-3/2+5/7t"
        assert clone(v) == v and clone(v).group is H3
        assert clone(v) + w == v + w
        assert clone(orbit) == orbit and clone(orbit).group is H3
        assert clone(lower) == lower


_DOT_NODE = re.compile(r'  (n\d+) \[label="\((.*)\)"( color=gray fontcolor=gray)?\];')
_DOT_EDGE = re.compile(r'  (n\d+) -> (n\d+) \[label="(.*)"\];')


def test_dot_ids_in_first_visit_order():
    tree = build_tree(H2, w2("1t,1"))
    lines = tree_to_dot(tree).splitlines()
    nodes = [m for m in map(_DOT_NODE.fullmatch, lines) if m]
    first = [n.weight for n in tree.nodes if n.first_visit]
    assert [m.group(1) for m in nodes] == [f"n{i}" for i in range(len(first))]
    assert [m.group(2) for m in nodes] == [w.text() for w in first]
    assert [bool(m.group(3)) for m in nodes] == [tree.arrivals[w] > 1 for w in first]
    assert sum(bool(m.group(3)) for m in nodes) == 2
    names = {m.group(2): m.group(1) for m in nodes}
    edges = [m.groups() for m in map(_DOT_EDGE.fullmatch, lines) if m]
    assert edges == [(names[e.source.text()], names[e.target.text()], e.label())
                     for e in tree.edges]


def test_dot_matches_equal_weight_objects_by_value():
    tree = build_tree(H3, w3("2,0,0"))

    def copy(w):
        return Weight(w.group, tuple(golden(c.rat, c.tau) for c in w.coords))

    copied = replace(
        tree,
        edges=[replace(e, source=copy(e.source), target=copy(e.target))
               for e in tree.edges],
        arrivals={copy(w): n for w, n in tree.arrivals.items()},
    )
    assert tree_to_dot(copied) == tree_to_dot(tree)
    assert tree_to_json(copied) == tree_to_json(tree)
