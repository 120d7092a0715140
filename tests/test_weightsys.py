import copy
import hashlib
import json
import pickle
import random
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from horbits import weightsys
from horbits.errors import DomainError, NonDominantError, SizeLimitError
from horbits.geometry import nested_polyhedra
from horbits.golden import TAU, _sign_pair, golden
from horbits.groups import A2, H2, H3, H4, Weight, _pair_dot
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


@pytest.mark.parametrize("call", [build_tree, weight_system_dominants, nested_polyhedra])
@pytest.mark.parametrize("bad", [0, -5, True, False, 2.5, "10", None])
def test_max_nodes_must_be_a_positive_int(call, bad):
    # refused as an argument before the closure runs, not as a node budget
    with pytest.raises(DomainError, match=r"^max_nodes must be an int >= 1, got ") as info:
        call(H3, H3.weight(1, 0, 0), max_nodes=bad)
    assert not isinstance(info.value, SizeLimitError)
    assert repr(bad) in str(info.value)


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


# the six Table-3 families for a = 1..6, family-major, then (7,7,0)
_TABLE3_SEEDS = [tuple(a * c for c in family)
                 for family in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))
                 for a in range(1, 7)] + [(7, 7, 0)]


@pytest.mark.parametrize("group,seeds,lines,digest", [
    (H3, _TABLE3_SEEDS, 15_316,
     "03c3945298e0dde0b7fbcabc77b700c1375ece61a19c01c81ff66af7a0885d72"),
    (H4, [(1, 1, 0, 1), (1, 0, 0, 1), (0, 0, 0, 3), (2, 0, 0, 0), (0, 1, 1, 0)], 313,
     "a70cc257dffc6e88b3e8beb4970ceda735904dc7ca6740312cbedc9be77bfef3"),
], ids=["H3", "H4"])
def test_lower_orbit_listings_are_pinned(group, seeds, lines, digest):
    # the listings, counts and order of the benchmark's seeds, byte for byte
    text = "".join(f"{w.text()} x{n}\n" for s in seeds
                   for w, n in weight_system_dominants(group, group.weight(*s)))
    assert text.count("\n") == lines
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_fast_dominants_lane_bound_fails_mid_closure(monkeypatch):
    # H4 keys pack 8-bit lanes; the closure reaches (1+13t,0,0,0) and points
    # up to 41 in a coordinate part, and the proven bound (51) keeps them all
    # inside the lanes, so every level takes its child keys from key arithmetic
    seed = H4.parse_weight("0,0,0,12+1t")
    assert weightsys._key_bits(8, weightsys._coord_bound(H4, seed)) == 8
    seen = []
    unpack = weightsys._unpack_keys

    def spy(keys, bits, width):
        seen.append(bits)
        return unpack(keys, bits, width)

    monkeypatch.setattr(weightsys, "_unpack_keys", spy)
    fast = weight_system_dominants(H4, seed)
    assert H4.parse_weight("1+13t,0,0,0") in dict(fast)
    assert seen and set(seen) == {8}
    seen.clear()
    assert fast == build_tree(H4, seed).lower_dominants
    assert seen and set(seen) == {8}


def test_wide_lanes_keep_h4_bounds_past_64_on_keys(monkeypatch):
    # H4 bounds 64..127 fit the 8-bit lanes: the top lane reaches the int64
    # sign bit, so keys wrap to negative values, which are still distinct
    seed = H4.parse_weight("0,0,0,6+10t")
    assert 64 <= weightsys._coord_bound(H4, seed) < 128
    seen = []
    unpack = weightsys._unpack_keys

    def spy(keys, bits, width):
        seen.append((bits, bool(len(keys)) and int(keys.min()) < 0))
        return unpack(keys, bits, width)

    monkeypatch.setattr(weightsys, "_unpack_keys", spy)
    fast = weight_system_dominants(H4, seed)
    assert {bits for bits, _ in seen} == {8} and any(neg for _, neg in seen)
    assert len(fast) == 33 and fast[0] == (seed, 1)
    # the same listing from row keys
    monkeypatch.setattr(weightsys, "_unpack_keys", unpack)
    monkeypatch.setattr(weightsys, "_key_bits", lambda width, bound: None)
    assert weight_system_dominants(H4, seed) == fast


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


# -- float64 sign and cone tests: exactness ------------------------------------

_TAU = (1 + 5 ** 0.5) / 2
_ULP = 2.0 ** -53  # unit roundoff of float64


def _fibonacci_pairs(limit):
    """``(F(n+1), -F(n))`` and its negative while ``|2a + b| = L(n) < limit``:
    ``F(n+1) - F(n)*tau = (-1/tau)**n`` is the smallest nonzero ``a + b*tau``
    of its size, the worst case for a float sign."""
    pairs = []
    a, b = 1, 1
    while 2 * a - b < limit:
        pairs += [(a, -b), (-a, b)]
        a, b = a + b, a
    return pairs


def test_signs_exact_and_the_key_regime_float_filter_holds():
    # the packed-key regime takes its signs in float64: a nonzero a + b*tau
    # with |a|, |b| <= B is at least 1/((1 + 1/tau)*B) and the float error at
    # most 6*B*2**-53, so below the largest lane bound B = 2**15 (H2) the
    # float sign is exact
    B = _key_regime_top(H2) + 1
    assert B == 1 << 15 and all(_key_regime_top(g) < B for g in (H3, H4))
    assert 6 * B * _ULP < 1 / ((1 + 1 / _TAU) * B)
    pairs = _fibonacci_pairs(weightsys._MAX_COORD)
    rng = random.Random(14)
    for size in (10, 1000, 1 << 19, 1 << 20, 1 << 21, weightsys._MAX_COORD // 4):
        for _ in range(100):
            b = rng.randint(-size, size)
            pairs.append((round(-b * _TAU) + rng.randint(-2, 2), b))  # near a + b*tau = 0
            pairs.append((rng.randint(-size, size), b))
    pairs += [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]
    assert max(max(abs(2 * a + b), abs(b)) for a, b in pairs) <= weightsys._MAX_COORD
    # the integer squares, one pair per call and all pairs in one batch
    for a, b in pairs:
        assert weightsys._signs(np.array([a]), np.array([b])).tolist() == [_sign_pair(a, b)], (a, b)
    a, b = np.array(pairs, dtype=np.int64).T
    assert weightsys._signs(a, b).tolist() == [_sign_pair(*p) for p in pairs]
    # the float signs of the key regime, on the pairs inside its bound
    small = [p for p in pairs if max(map(abs, p)) < B]
    assert len(small) > 100
    a, b = np.array(small, dtype=np.int64).T
    assert np.sign(a + b * weightsys._TAU_F).tolist() == [_sign_pair(*p) for p in small]


def _key_regime_top(group):
    """The largest coordinate part of the packed-key regime of ``group``."""
    return (1 << (weightsys._key_bits(2 * group.rank, 0) - 1)) - 1


def _boundary_rows(group, rng, top, count):
    """Rows ``x = s_i(y)`` whose full step on root ``i`` lands on ``y``, where
    the root coordinate ``i`` of ``y`` is zero or ``±(F(n+1) - F(n)*tau)``:
    steps with a cone value of zero or next to it."""
    U, V = weightsys._step_matrices(group)
    small = _fibonacci_pairs(top // 8)
    span = max(1, top // 24)
    rows = []
    while len(rows) < count:
        i = rng.randrange(group.rank)
        coeffs = [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(group.rank)]
        coeffs[i] = rng.choice(small) if rng.random() < 0.5 else (0, 0)
        y = sum(ca * U[j] + cb * V[j] for j, (ca, cb) in enumerate(coeffs))
        side = _sign_pair(int(y[2 * i]), int(y[2 * i + 1]))
        y = -side * y  # coordinate i of y negative, so that of s_i(y) positive
        x = y - y[2 * i] * U[i] - y[2 * i + 1] * V[i]
        if side and np.abs(x).max() <= top:
            rows.append(x.tolist())
    return rows


@pytest.mark.parametrize("group", [H2, H3, H4], ids=lambda g: g.tag)
def test_float_cone_decisions_match_integer_pairs_at_the_key_bound(group):
    # full closures stay far below the key regime's bound, so random rows
    # reach it here: the float64 prefix of every string must equal the
    # count of its steps that pass the exact integer-pair test, on and next
    # to the cone boundary too
    width = 2 * group.rank
    top = _key_regime_top(group)
    adj = weightsys._adj_arrays(group)
    da, db = det = (int(group.cartan_det.rat), int(group.cartan_det.tau))
    gram = np.array(group.gram, dtype=float)
    for seed in range(3):
        rng = random.Random(1400 + group.rank + 10 * seed)
        rows = [[rng.randint(-top, top) for _ in range(width)] for _ in range(1500)]
        for row in rows[::3]:
            row[rng.randrange(width)] = rng.choice((top, -top))
        frontier = np.array(rows + _boundary_rows(group, rng, top, 600), dtype=np.int64)
        assert np.abs(frontier).max() == top
        # the closure's two cone tests: integer pairs, and the key regime's floats
        signs = weightsys._signs(frontier[:, 0::2], frontier[:, 1::2])
        roots = (weightsys._adj_times(frontier, adj), det)
        exact = weightsys._child_steps(frontier, signs, roots, 10**8)
        values = frontier[:, 0::2] + frontier[:, 1::2] * weightsys._TAU_F
        fast = weightsys._child_steps(frontier, values, values @ gram, 10**8)
        assert [a.tolist() for a in fast] == [a.tolist() for a in exact]
        # the counts are prefixes, checked on every string: step n (if n > 0)
        # is inside the cone and step n + 1 (if n < g) outside
        (ra, rb), every = roots[0], weightsys._child_steps(frontier, signs, None, 10**8)
        root, parents, _, _, ns = (a.tolist() for a in exact)
        kept = {(i, p): n for i, p, n in zip(root, parents, ns)}
        on_boundary = 0
        for i, p, a, b, g in zip(*(a.tolist() for a in every)):
            n, r = kept.get((i, p), 0), (int(ra[p, i]), int(rb[p, i]))
            cone = [_sign_pair(r[0] - (da * k * a + db * k * b),
                               r[1] - (da * k * b + db * k * a + db * k * b))
                    for k in (n, n + 1)]
            assert (n == 0 or cone[0] >= 0) and (n == g or cone[1] < 0)
            on_boundary += n > 0 and cone[0] == 0
        # the cone pruned some steps and kept some on its boundary
        assert sum(ns) < int(every[4].sum())
        assert on_boundary > 50


@pytest.mark.parametrize("group", [H2, H3, H4], ids=lambda g: g.tag)
def test_cone_eps_lies_between_float_error_and_smallest_cone_value(group):
    # In the key regime every part is below B.  det*(r_i - m) = p + q*tau has
    # |p| <= P*B and |q| <= Q*B, from the adjugate rows and det; its field norm
    # is a nonzero integer unless it is zero, so a nonzero cone value is at
    # least delta = 1/((P + Q/tau)*B*|det|).
    B = _key_regime_top(group) + 1
    adj = group._adjugate_int
    da, db = int(group.cartan_det.rat), int(group.cartan_det.tau)
    P = max(sum(abs(a) + abs(b) for a, b in row) for row in adj) + abs(da) + abs(db)
    Q = max(sum(abs(b) + abs(a + b) for a, b in row) for row in adj) + abs(db) + abs(da + db)
    delta = 1 / ((P + Q / _TAU) * B * abs(float(group.cartan_det)))
    # The float steps: a + b*TAU_F (error below 6*B*ulp over its three
    # roundings), then the product with the float inverse Cartan matrix
    # (rank terms, column sums G) gives r_i, below G*(1 + tau)*B.
    gram = np.abs(np.array(group.gram, dtype=float))
    n, G = group.rank, float(gram.sum(axis=0).max())
    gamma = n * _ULP / (1 - n * _ULP)
    e_x = 6 * B * _ULP
    e_r = G * (e_x * (1 + _ULP) + (1 + _TAU) * B * _ULP
               + gamma * ((1 + _TAU) * B + e_x) * (1 + _ULP))
    # A string of step s = sa + sb*tau keeps n = min(g, floor((r_i + eps)/s))
    # children, in float64.  Its k-th child has k*sa and k*sb below B, so
    # k*e_s <= 6*B*ulp for the error e_s of s; the sum r_i + eps rounds by at
    # most ulp(r_i).
    eps, k_e_s = weightsys._CONE_EPS, e_x
    ulp_r = float(np.spacing(G * (1 + _TAU) * B + e_r + eps))
    # Inside the cone, r_i - k*s >= 0 gives fl(r_i + eps) > k*s, so the
    # quotient rounds to k or more.
    assert eps > e_r + k_e_s + ulp_r
    # Outside, r_i - k*s <= -delta puts (r_i + eps)/s below k by more than
    # (delta - eps - e_r - k*e_s - ulp(r_i))/s, with s < (1 + tau)*B, and the
    # quotient, which rounds by k*2**-53 with k <= B, stays below k.
    margin = (delta - eps - e_r - k_e_s - ulp_r) / ((1 + _TAU) * B) / (B * _ULP)
    assert margin > 1
    # the figures quoted where _CONE_EPS is defined; H2 has the least margin
    assert delta >= 1.9e-6 and e_r + k_e_s + ulp_r < 1.9e-10
    assert margin > (6 if group is H2 else 10**6)


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


def test_signs_range_test_reads_the_int64_minimum():
    # np.abs wraps the int64 minimum to itself, a negative bound that would
    # pass the range test; the test reads the extremes as Python ints
    low = np.iinfo(np.int64).min
    assert weightsys._max_abs(np.array([low, 5])) == 1 << 63
    assert weightsys._max_abs(np.zeros((0, 4), dtype=np.int64)) == 0
    with pytest.raises(SizeLimitError):
        weightsys._signs(np.zeros(1, dtype=np.int64), np.array([low]))


@pytest.mark.parametrize("closure", [build_tree, weight_system_dominants],
                         ids=lambda f: f.__name__)
def test_fast_dominants_node_guard_trips_before_allocation(closure):
    # the seed alone has 10**6 children (gcd step count of its coordinate),
    # so the guard must fire before the level is built, in both modes
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="over the node budget"):
            closure(H3, H3.weight(10**6, 0, 0), max_nodes=1_000)
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
    order = _norm_order(lower, [_pair_dot(f, group._adj_flat(f)) for f in lower])
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


def _random_seeds(count, seed):
    """``count`` distinct nonzero dominant H2 and H3 seeds, drawn from a seeded
    generator, with coordinates ``a + b*tau``, ``-1 <= a <= 2``, ``0 <= b <= 2``."""
    rng = random.Random(seed)
    coords = [str(golden(a, b)) for a in range(-1, 3) for b in range(3) if a >= 0 or b]
    seeds = []
    while len(seeds) < count:
        group = rng.choice((H2, H3))
        pick = (group, ",".join(rng.choice(coords) for _ in range(group.rank)))
        if pick not in seeds and not group.parse_weight(pick[1]).is_zero:
            seeds.append(pick)
    return seeds


RANDOM_SEEDS = _random_seeds(8, 2718)


@pytest.mark.parametrize("group,text", FIFO_SEEDS + RANDOM_SEEDS)
def test_build_tree_matches_fifo_reference(group, text):
    _assert_tree_is_fifo(build_tree(group, group.parse_weight(text)))


def test_writing_a_built_tree_builds_no_records(monkeypatch):
    built = []
    for record in (SubtractionEdge, SubtractionNode):
        init = record.__init__

        def counted(self, *args, _init=init, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(record, "__init__", counted)
    tree = build_tree(H4, H4.weight(1, 0, 0, 1))
    assert (len(tree.nodes), len(tree.edges)) == (13465, 13464)
    tree_to_json(tree)
    tree_to_dot(tree)
    assert built == []
    # read on demand, each record is built once, and the records are the FIFO tree
    edges, nodes = list(tree.edges), list(tree.nodes)
    assert list(tree.edges)[5] is edges[5] and tree.nodes[-1] is nodes[-1]
    assert (built.count(SubtractionEdge), built.count(SubtractionNode)) == (13464, 13465)
    _assert_tree_is_fifo(tree)


@pytest.mark.parametrize("group,text", FIFO_SEEDS)
def test_record_table_matches_array_table(group, text):
    # the writers' table comes from the closure arrays for a built tree and
    # from the records for a tree made of them; both must write the same bytes
    t = build_tree(group, group.parse_weight(text))
    as_json, as_dot = tree_to_json(t), tree_to_dot(t)
    rebuilt = SubtractionTree(group, t.seed, list(t.nodes), list(t.edges), dict(t.arrivals),
                              list(t.lower_dominants))
    assert tree_to_json(rebuilt) == as_json
    assert tree_to_dot(rebuilt) == as_dot
    assert rebuilt == t and t == rebuilt


def test_only_a_built_tree_carries_its_arrays():
    # a built tree is frozen, so its arrays always match its views; a tree
    # rebuilt by hand from those views, or a replace copy, carries no arrays
    # and is written from its records, to the same bytes
    t = build_tree(H3, H3.weight(2, 1, 0))
    texts = tree_to_json(t), tree_to_dot(t)
    for name in ("edges", "_arrays"):
        with pytest.raises(FrozenInstanceError):
            setattr(t, name, [])
    assert t._arrays is t.nodes._source
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        held = clone(t)
        assert held._arrays is held.nodes._source and held == t
    for other in (SubtractionTree(H3, t.seed, t.nodes, t.edges, t.arrivals, t.lower_dominants),
                  replace(t), replace(t, edges=list(t.edges))):
        assert other._arrays is None and other == t
        assert (tree_to_json(other), tree_to_dot(other)) == texts


def test_built_tree_keeps_parts_near_the_int64_guard_exact():
    # a built tree keeps its rows as int32, exact for parts up to 2**30
    seed = H3.weight("536870911+1t", 0, 0)
    t = build_tree(H3, seed)
    _assert_tree_is_fifo(t)
    assert max(abs(c.rat) for w in t.node_weights() for c in w.coords) == 536870911
    rebuilt = SubtractionTree(H3, seed, list(t.nodes), list(t.edges), dict(t.arrivals),
                              list(t.lower_dominants))
    assert (tree_to_json(rebuilt), tree_to_dot(rebuilt)) == (tree_to_json(t), tree_to_dot(t))


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
    # and a few random seeds with no lanes at all, on row keys throughout
    monkeypatch.setattr(weightsys, "_key_bits", lambda width, bound: None)
    for group, text in RANDOM_SEEDS[:4]:
        switched.clear()
        _assert_tree_is_fifo(build_tree(group, group.parse_weight(text)))
        assert set(switched) == {None}, text


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


def test_tree_writers_render_the_point_texts_once(monkeypatch):
    tree = build_tree(H4, H4.weight(1, 0, 0, 1))
    arrays = tree.nodes._source
    texts = tree_to_json(tree), tree_to_dot(tree)
    calls = []
    pair_texts = weightsys._pair_texts

    def spy(pairs, *args):
        calls.append(len(pairs))
        return pair_texts(pairs, *args)

    monkeypatch.setattr(weightsys, "_pair_texts", spy)
    assert (tree_to_json(tree), tree_to_dot(tree)) == texts
    # the point and multiple texts are kept from the first writer
    assert calls == []
    # a copy renders them again on first use, the distinct multiples once
    for name in ("point_texts", "multiple_texts"):
        assert name in vars(arrays) and name not in arrays.__getstate__()
    copied = copy.deepcopy(tree)
    assert "point_texts" not in vars(copied.nodes._source)
    assert tree_to_dot(copied) == texts[1] and tree_to_json(copied) == texts[0]
    assert calls[1:] == [len(set(zip(arrays.ma.tolist(), arrays.mb.tolist())))]


def test_results_pickle_and_copy():
    # copies rebuild numbers from their parts and keep the group singletons
    number = golden(Fraction(-3, 2), Fraction(5, 7))
    fresh = golden(Fraction(-3, 2), Fraction(5, 7))
    hash(number)  # caches _hash and _text on one of the two
    str(number)
    v, w = H3.weight(1, "1t", 0), H3.weight(0, 1, "1+1t")
    orbit = generate_orbit(H3, v)
    lower = build_tree(H3, H3.weight(2, 1, 0)).lower_dominants
    written = build_tree(H3, H3.weight(2, 1, 0))
    texts = tree_to_json(written), tree_to_dot(written)
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        # whole built trees, before their records are read and after
        for read in (False, True):
            tree = build_tree(H3, H3.weight(2, 1, 0))
            if read:
                _assert_tree_is_fifo(tree)
            y = clone(tree)
            assert (tree_to_json(y), tree_to_dot(y)) == texts
            assert y == tree and y.group is H3
            _assert_tree_is_fifo(y)
        for x in (number, fresh):
            y = clone(x)
            assert y == x and hash(y) == hash(x) and str(y) == "-3/2+5/7t"
        assert clone(v) == v and clone(v).group is H3
        assert clone(v) + w == v + w
        assert clone(orbit) == orbit and clone(orbit).group is H3
        assert clone(lower) == lower
        # generated orbits hold their dominant row: unread, with their rows
        # read (as products read them) and with their elements read
        for read in (None, "rows", "elements"):
            held = generate_orbit(H3, v)
            if read:
                getattr(held.elements._source, read)
            y = clone(held)
            assert ("rows" in vars(y.elements._source)) == (read is not None)
            assert len(y.elements) == 60 and isinstance(y.elements[:2], tuple)
            assert y == held and held == y and hash(y) == hash(held)
            assert y.elements == orbit.elements and y.elements[0].group is H3


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


@pytest.mark.parametrize("values, bits", [
    ([0, 1, -1, 5, -7], (32, 10)),
    # the lane edge: every part within 2**31 - 1 still packs in pairs
    ([0, 1, -1, (1 << 31) - 1, 1 - (1 << 31)], (32, None)),
    # a part of magnitude 2**31 or more takes the raw row bytes
    ([0, 1, -(1 << 31), 1 << 31, -(1 << 40), (1 << 45) + 3], (None, None)),
], ids=["small", "lane-edge", "raw-bytes"])
def test_distinct_rows_in_both_key_regimes(rng, values, bits):
    for width, width_bits in zip((2, 6), bits):
        rows = np.array([[rng.choice(values) for _ in range(width)] for _ in range(200)],
                        dtype=np.int64)
        assert weightsys._key_bits(width, int(np.abs(rows).max())) == width_bits
        distinct, inverse = weightsys._distinct_rows(rows)
        assert distinct.dtype == np.int64 and inverse.shape == (len(rows),)
        assert np.array_equal(distinct[inverse], rows)
        found = set(map(tuple, distinct.tolist()))
        assert len(found) == len(distinct) and found == set(map(tuple, rows.tolist()))
