from collections import Counter
from fractions import Fraction
import itertools
import math
import re

import pytest

from conftest import _count_weights, random_dominant
from horbits.errors import DomainError, GroupMismatchError, MalformedMultisetError, NonDominantError
from horbits.golden import GoldenNumber, TAU, ZERO, golden
from horbits.groups import A1, A2, H2, H3, H4, Weight, get_group
from horbits import indices
from horbits.indices import (
    BranchLayer,
    BranchingRule,
    anomaly_number,
    anomaly_number_normalized,
    axis_directions,
    branch_decompose,
    branch_layers,
    branching_rule,
    default_direction,
    direct_product_index,
    embedding_index,
    embedding_index_by_rank,
    even_index,
    multiset_even_index,
    subgroup_rank,
)
from horbits.orbits import (
    Decomposition,
    WeightMultiset,
    _by_norm,
    generate_orbit,
    orbit_product,
    orbit_sum,
)
from horbits.weightsys import closed_form_lower_orbits


def idx(orbit, p):
    return even_index(orbit.group, orbit.dominant, p).value


def test_even_index_h2_worked_value():
    # 5 points of squared norm 2/(3-tau): total 10/(3-tau) = 4 + 2 tau
    assert even_index(H2, H2.weight(1, 0), 1).value == golden(4, 2)


def test_even_index_p0_is_orbit_size():
    assert even_index(H3, H3.weight(1, 1, 0), 0).value == golden(60)


def test_even_index_matches_brute_force_h3():
    lam = H3.weight(1, 1, 0)
    value = even_index(H3, lam, 1).value
    brute = multiset_even_index(generate_orbit(H3, lam).multiset(), 1).value
    assert value == brute
    assert (golden(4) - 2 * TAU) * H3.inner(lam, lam) == golden(11, -1)


def test_even_index_rejects_non_dominant():
    with pytest.raises(NonDominantError):
        even_index(H2, H2.weight(-1, 1), 1)


def test_multiset_index_consistent_on_single_orbit():
    orbit = generate_orbit(H2, H2.weight(1, 0))
    assert multiset_even_index(orbit.multiset(), 1).value == idx(orbit, 1)


def test_multiset_index_shared_denominator():
    # half- and third-integer parts put the multiset over the shared
    # denominator 6, and the repeated orbit gives its weights a count of 2
    half = generate_orbit(H3, H3.weight("1/2", 0, "1/2+1t"))
    third = generate_orbit(H3, H3.weight(0, "1/3", 1))
    cases = [orbit_sum([half, half, third]),
             generate_orbit(H4, H4.weight(0, 0, 0, "1/2")).multiset()]
    for multiset in cases:
        group = multiset.group
        for p in range(4):
            plain = golden(0)
            for w, count in multiset.tally.items():
                plain = plain + group.inner(w, w) ** p * count
            assert multiset_even_index(multiset, p).value == plain


@pytest.mark.parametrize("group,n_trials", [(H2, 20), (H3, 10)])
def test_product_index_identities(group, n_trials, rng):
    coeff = GoldenNumber(Fraction(2 * (group.rank + 2), group.rank))
    for _ in range(n_trials):
        a = generate_orbit(group, random_dominant(group, rng, max_coef=2))
        b = generate_orbit(group, random_dominant(group, rng, max_coef=2))
        product = orbit_product([a, b])
        i2 = multiset_even_index(product, 1).value
        assert i2 == idx(a, 1) * idx(b, 0) + idx(a, 0) * idx(b, 1)
        i4 = multiset_even_index(product, 2).value
        assert i4 == (idx(a, 2) * idx(b, 0) + idx(a, 0) * idx(b, 2)
                      + coeff * idx(a, 1) * idx(b, 1))


def test_decomposition_preserves_indices(rng):
    from horbits.orbits import decompose
    a = generate_orbit(H2, H2.weight(1, 1))
    b = generate_orbit(H2, H2.weight(2, 0))
    product = orbit_product([a, b])
    parts = decompose(product)
    for p in range(4):
        total = golden(0)
        for w, mult in parts.parts.items():
            total = total + even_index(H2, w, p).value * mult
        assert total == multiset_even_index(product, p).value


def test_direct_product_index_matches_brute_force(rng):
    for _ in range(5):
        lam1 = random_dominant(H2, rng, max_coef=2)
        lam2 = random_dominant(H2, rng, max_coef=2)
        value = direct_product_index([(H2, lam1), (H2, lam2)], 1).value
        brute = golden(0)
        for w1 in generate_orbit(H2, lam1).elements:
            for w2 in generate_orbit(H2, lam2).elements:
                brute = brute + H2.inner(w1, w1) + H2.inner(w2, w2)
        assert value == brute


@pytest.mark.parametrize("p", [2, 3])
def test_direct_product_index_sums_factor_indices(rng, p):
    # the sum of each factor's <x_j, x_j>**p over the product's points
    cases = [[(H2, H2.weight(1, 0)), (H2, H2.weight(0, 1))]]
    cases += [[(H2, random_dominant(H2, rng)), (H3, random_dominant(H3, rng))] for _ in range(2)]
    cases += [[(H2, random_dominant(H2, rng)) for _ in range(3)]]
    for factors in cases:
        orbits = [generate_orbit(group, lam) for group, lam in factors]
        norms = [[o.group.inner(x, x) for x in o.elements] for o in orbits]
        brute = blocks = golden(0)
        for point in itertools.product(*norms):
            brute = brute + sum((n ** p for n in point), golden(0))
            blocks = blocks + sum(point, golden(0)) ** p
        assert direct_product_index(factors, p).value == brute
        assert blocks != brute
        if p == 2 and factors is cases[0]:
            assert (brute, blocks) == (golden(40, 40), golden(80, 80))


def test_direct_product_index_worked_value():
    value = direct_product_index([(H2, H2.weight(1, 0)), (H2, H2.weight(1, 0))], 1)
    assert value.value == golden(100) / (golden(3) - TAU)


def test_direct_product_index_degenerate_and_p0():
    lam = H2.weight(2, 1)
    assert direct_product_index([(H2, lam)], 2).value == even_index(H2, lam, 2).value
    value = direct_product_index([(H2, lam), (H3, H3.weight(1, 0, 0))], 0).value
    assert value == golden(10 * 12 * 2)


def test_anomaly_low_degrees_vanish_h2(rng):
    v = default_direction(H2)
    assert v == H2.weight("-1t", "1t")
    for _ in range(20):
        lam = random_dominant(H2, rng, max_coef=4, allow_zero_coords=False)
        for degree in (1, 3):
            assert not anomaly_number(H2, lam, v, degree).value


def _h2_closed_formula(a, b, degree):
    """Five mirror-paired heights, scaled by tau/(2+tau), doubled."""
    factor = TAU / (golden(2) + TAU)
    t = TAU
    terms = [
        b - a,
        a + a * t + b,
        -(a + b + b * t),
        -(2 * a * t + b + b * t),
        a + a * t + 2 * b * t,
    ]
    total = golden(0)
    for term in terms:
        total = total + term ** degree
    return golden(2) * factor ** degree * total


def test_anomaly_matches_closed_formula(rng):
    # the paired-heights formula describes the generic 10-point orbit
    v = default_direction(H2)
    for _ in range(20):
        a = rng.randint(1, 5)
        b = rng.randint(1, 5)
        lam = H2.weight(a, b)
        for degree in (1, 3, 5, 7):
            brute = anomaly_number(H2, lam, v, degree).value
            assert brute == _h2_closed_formula(golden(a), golden(b), degree)


def test_anomaly_nonzero_sample():
    value = anomaly_number(H2, H2.weight(1, 2), default_direction(H2), 5).value
    assert value
    assert value == golden(2) * (TAU / (golden(2) + TAU)) ** 5 * golden(3080, 4950)


def test_anomaly_h3_vanishes():
    lam = H3.weight(1, 1, 0)
    v = H3.weight(1, 0, 0)
    for degree in (1, 3, 5, 7):
        assert not anomaly_number(H3, lam, v, degree).value


def test_anomaly_h4_axis_directions_vanish():
    # the H4 orbits are centrally symmetric, so every odd index vanishes
    lam = H4.weight(1, 0, 0, 0)
    for v in axis_directions(H4):
        assert not anomaly_number(H4, lam, v, 3).value


@pytest.mark.parametrize("group, seeds", [(H3, 6), (H4, 2)], ids=["H3", "H4"])
def test_odd_indices_vanish_by_central_symmetry(group, seeds, rng):
    # the enumeration stays the oracle of anomaly_number's zero for H3 and H4
    for _ in range(seeds):
        lam = random_dominant(group, rng, max_coef=2)
        v = group.weight(*[rng.randint(-2, 2) or 1 for _ in range(group.rank)])
        elements = generate_orbit(group, lam).elements
        assert {-w for w in elements} == set(elements)
        heights = [group.inner(w, v) for w in elements]
        for degree in (1, 3, 5, 7):
            assert sum((h ** degree for h in heights), ZERO) == ZERO
            assert anomaly_number(group, lam, v, degree).value == ZERO


def test_anomaly_degree_one_always_zero(rng):
    for group in (H2, H3):
        for _ in range(5):
            lam = random_dominant(group, rng)
            v = group.weight(*[rng.randint(-2, 2) or 1 for _ in range(group.rank)])
            assert not anomaly_number(group, lam, v, 1).value


def test_anomaly_scales_with_direction():
    lam = H2.weight(1, 2)
    v = default_direction(H2)
    scaled = v.scaled(golden(3))
    a1 = anomaly_number(H2, lam, v, 5).value
    a2 = anomaly_number(H2, lam, scaled, 5).value
    assert a2 == golden(3) ** 5 * a1


def test_anomaly_normalized_is_scale_invariant():
    lam = H2.weight(1, 2)
    v = default_direction(H2)
    n1 = anomaly_number_normalized(H2, lam, v, 5)
    n2 = anomaly_number_normalized(H2, lam, v.scaled(golden(2)), 5)
    assert n1 == pytest.approx(n2, rel=1e-12)
    # a raw anomaly past the float range, the normalized value inside it
    lam, far = H2.weight(2, 1), v.scaled(golden(10 ** 20))
    with pytest.raises(OverflowError):
        float(anomaly_number(H2, lam, far, 21))
    n1 = anomaly_number_normalized(H2, lam, v, 21)
    assert n1 == pytest.approx(-1.9665478303427e11, rel=1e-12)
    assert anomaly_number_normalized(H2, lam, far, 21) == pytest.approx(n1, rel=1e-12)
    # <v,v> itself past the float range, and below its least normal value
    for scale in (golden(10 ** 200), golden(Fraction(1, 10 ** 200))):
        assert anomaly_number_normalized(H2, lam, v.scaled(scale), 21) == pytest.approx(
            n1, rel=1e-12)
    # past the float range itself: the infinity of the exact sign
    assert anomaly_number_normalized(H2, lam, v, 1001) == -math.inf


def test_anomaly_guards():
    with pytest.raises(DomainError):
        anomaly_number(H2, H2.weight(1, 0), H2.zero_weight(), 3)
    with pytest.raises(DomainError, match="^degree must be odd, got 2$"):
        anomaly_number(H2, H2.weight(1, 0), default_direction(H2), 2)


@pytest.mark.parametrize("value", [-1, 1.5, 2.0, True, False, "1", None])
def test_p_is_an_int_of_at_least_zero(value):
    lam = H2.weight(2, 1)
    message = rf"^p must be an int >= 0, got {re.escape(repr(value))}$"
    for call in (lambda: even_index(H2, lam, value),
                 lambda: multiset_even_index(generate_orbit(H2, lam).multiset(), value),
                 lambda: direct_product_index([(H2, lam), (H2, H2.weight(1, 0))], value)):
        with pytest.raises(DomainError, match=message):
            call()


@pytest.mark.parametrize("group", [H2, H3], ids=lambda g: g.tag)
@pytest.mark.parametrize("value", [0, -3, 3.0, True, "3"])
def test_degree_is_an_int_of_at_least_one(group, value):
    # checked before the H3 and H4 shortcut to 0
    lam = group.weight(*[1] * group.rank)
    with pytest.raises(DomainError, match=rf"^degree must be an int >= 1, got {re.escape(repr(value))}$"):
        anomaly_number(group, lam, default_direction(group), value)


def _square_of_h2(max_points):
    orbit = generate_orbit(H2, H2.weight(1, 0))
    return orbit_product([orbit, orbit], max_points=max_points)


@pytest.mark.parametrize("call,value,message", [
    (_square_of_h2, None, "max_points must be an int >= 1, got None"),
    (_square_of_h2, True, "max_points must be an int >= 1, got True"),
    (lambda a: closed_form_lower_orbits("(a,0,0)", a), 2.5, "a must be an int >= 1, got 2.5"),
    (lambda a: closed_form_lower_orbits("(a,0,0)", a), True, "a must be an int >= 1, got True"),
    (lambda i: H3.reflect(i, H3.weight(1, 0, 0)), True, "root index must be an int >= 1, got True"),
    (lambda i: H3.reflect(i, H3.weight(1, 0, 0)), 1.0, "root index must be an int >= 1, got 1.0"),
    (lambda r: embedding_index_by_rank(H3, r), True, "child_rank must be an int >= 1, got True"),
    (lambda r: embedding_index_by_rank(H3, r), 1.5, "child_rank must be an int >= 1, got 1.5"),
    (get_group, 3, "unknown group 3; choose from "),
    (subgroup_rank, 3, "unknown subgroup 3"),
], ids=["max_points-None", "max_points-True", "a-2.5", "a-True", "reflect-True", "reflect-1.0",
        "child_rank-True", "child_rank-1.5", "get_group-3", "subgroup_rank-3"])
def test_int_and_name_arguments_are_checked(call, value, message):
    # a bool is not an int, and a float or None raises no TypeError
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        call(value)


def test_directions_are_owned_and_nonzero():
    lam, rule = H3.weight(1, 1, 0), branching_rule(H3, H2)
    for call in (lambda v: anomaly_number(H3, lam, v, 3),
                 lambda v: branch_layers(H3, rule, lam, v)):
        with pytest.raises(DomainError, match="^direction must be nonzero$"):
            call(H3.zero_weight())
        with pytest.raises(GroupMismatchError, match="^weight of H2 passed to H3$"):
            call(H2.weight(1, 0))


def test_axis_directions():
    dirs = axis_directions(H4)
    assert len(dirs) == 4 and dirs[0] == H4.weight(1, 0, 0, 0)
    assert default_direction(H4) == dirs[0]


FIG_LAYERS = [
    ("2+3/2t", "1,0", 5),
    ("1+3/2t", "2,0", 5),
    ("3/2t", "1,1t", 10),
    ("1/2t", "2,1", 10),
    ("-1/2t", "1,2", 10),
    ("-3/2t", "1t,1", 10),
    ("-1-3/2t", "0,2", 5),
    ("-2-3/2t", "0,1", 5),
]


def test_branch_layers_h3_to_h2():
    rule = branching_rule(H3, H2)
    layers = branch_layers(H3, rule, H3.weight(1, 1, 0))
    assert [(str(l.height), l.child_dominant.text(), l.count) for l in layers] == FIG_LAYERS
    assert {l.child_dominant.text() for l in layers} == {
        "1,0", "1,1t", "2,1", "2,0", "0,2", "1,2", "1t,1", "0,1"}
    assert sum(l.count for l in layers) == 60
    for layer in layers:
        assert H2.orbit_size(layer.child_dominant) == layer.count


def test_branch_layers_h2_to_a1_general_labels(rng):
    rule = branching_rule(H2, A1)
    for _ in range(5):
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        layers = branch_layers(H2, rule, H2.weight(a, b))
        labels = {l.child_dominant.coords[0] for l in layers}
        t = TAU
        expected = {golden(0, a + b), golden(a, b), golden(b, a),
                    golden(a), golden(b)}
        assert labels == expected
        assert sum(l.count for l in layers) == 10


def test_branch_layers_rejects_wrong_rule():
    with pytest.raises(GroupMismatchError):
        branch_layers(H2, branching_rule(H3, H2), H2.weight(1, 0))


def test_branch_decompose_tallies_whole_orbits():
    rule = branching_rule(H3, H2)
    parts = branch_decompose(H3, rule, H3.weight(1, 0, 0))
    as_text = {w.text(): n for w, n in parts.parts.items()}
    assert as_text == {"0,0": 2, "1,0": 1, "0,1": 1}


def test_embedding_indices_table():
    rule_a1 = branching_rule(H2, A1)
    for coords in [(1, 0), (0, "1t"), (2, 3)]:
        assert embedding_index(H2, rule_a1, H2.weight(*coords)) == golden(2)
    rule_h2 = branching_rule(H3, H2)
    rule_a2 = branching_rule(H3, A2)
    expected = golden(Fraction(3, 2))
    for coords in [(1, 0, 0), (0, 1, 0), (1, 1, 0)]:
        assert embedding_index(H3, rule_h2, H3.weight(*coords)) == expected
        assert embedding_index(H3, rule_a2, H3.weight(*coords)) == expected


def test_embedding_index_sums_the_images_without_child_weights(monkeypatch):
    # the image's order-2 index is a sum over the projected rows: no child
    # Weight is built and the parent's even index is the only one taken
    rule, lam = branching_rule(H3, A2), H3.parse_weight("7,3t,2")
    calls = []

    def counted(*args):
        calls.append(args)
        return even_index(*args)

    monkeypatch.setattr(indices, "even_index", counted)
    built = _count_weights(monkeypatch)
    assert embedding_index(H3, rule, lam) == golden(Fraction(3, 2))
    assert [w for w in built if w.group is A2] == []
    assert calls == [(H3, lam, 1)]


def test_embedding_index_by_rank_full_table():
    assert embedding_index_by_rank(H2, subgroup_rank("A1")) == 2
    assert embedding_index_by_rank(H3, subgroup_rank("A1xA1xA1")) == 1
    assert embedding_index_by_rank(H3, subgroup_rank("A2")) == Fraction(3, 2)
    assert embedding_index_by_rank(H3, subgroup_rank("H2")) == Fraction(3, 2)
    for name in ["A2xA2", "H2xH2", "A1xA1xA1xA1", "H3xA1", "A4", "D4"]:
        assert embedding_index_by_rank(H4, subgroup_rank(name)) == 1


def test_embedding_index_guards():
    with pytest.raises(DomainError):
        embedding_index_by_rank(H3, 4)
    with pytest.raises(DomainError):
        subgroup_rank("Q7")
    with pytest.raises(DomainError):
        branching_rule(H4, A2)
    with pytest.raises(DomainError):
        embedding_index(H2, branching_rule(H2, A1), H2.zero_weight())


def _custom_rule(*rows):
    return BranchingRule(H3, H2, tuple(tuple(map(golden, row)) for row in rows),
                         H3.weight(1, 0, 0))


def test_custom_projection_guards():
    lam = H3.weight(1, 1, 0)
    # one row for a rank-2 child: every branching function needs two
    short = _custom_rule((0, 1, 0))
    for call in (branch_decompose, branch_layers, embedding_index):
        with pytest.raises(DomainError, match="H2 weight needs 2 coordinates, got 1"):
            call(H3, short, lam)
    # coordinates 1 and 3 do not map the orbit onto whole H2 orbits
    split = _custom_rule((1, 0, 0), (0, 0, 1))
    for call in (branch_decompose, branch_layers, embedding_index):
        with pytest.raises(MalformedMultisetError, match="not a union of orbits"):
            call(H3, split, lam)
    # every point projects to zero: 60 copies of the zero orbit, of index 0
    flat = _custom_rule((0, 0, 0), (0, 0, 0))
    assert branch_decompose(H3, flat, lam).parts == {H2.zero_weight(): 60}
    with pytest.raises(DomainError, match="branched image has vanishing order-2 index"):
        embedding_index(H3, flat, lam)


def test_coordinate_slots_carry_equal_multisets(rng):
    for _ in range(4):
        lam = random_dominant(H3, rng, max_coef=2)
        orbit = generate_orbit(H3, lam)
        slots = [Counter(str(w.coords[i]) for w in orbit.elements) for i in range(3)]
        assert slots[0] == slots[1] == slots[2]


# ---------------------------------------------------------------------------
# Fraction references: the GoldenNumber loops that the integer-pair kernels
# replaced, kept to pin every value and order exactly


def _ref_inner(group, x, y):
    total = golden(0)
    for i, xi in enumerate(x.coords):
        for j, yj in enumerate(y.coords):
            total = total + xi * group.gram[i][j] * yj
    return total


def _ref_heights(group, dominant, direction):
    form = [sum((group.gram[i][j] * direction.coords[j] for j in range(group.rank)),
                start=golden(0)) for i in range(group.rank)]
    for w in generate_orbit(group, dominant).elements:
        yield w, sum((form[i] * w.coords[i] for i in range(group.rank)), start=golden(0))


def _ref_anomalies(group, dominant, direction, degrees):
    heights = [height for _, height in _ref_heights(group, dominant, direction)]
    totals = []
    for degree in degrees:
        total = golden(0)
        for height in heights:
            total = total + height ** degree
        totals.append(total)
    return totals


def _ref_project(rule, w):
    rule.parent._own(w)
    coords = tuple(
        sum((row[j] * w.coords[j] for j in range(rule.parent.rank)),
            start=ZERO)
        for row in rule.projection
    )
    return Weight(rule.child, coords)


def _ref_branch_layers(group, rule, dominant, direction):
    tally = {}
    for w, height in _ref_heights(group, dominant, direction):
        child, _ = rule.child.to_dominant(_ref_project(rule, w))
        tally[height, child] = tally.get((height, child), 0) + 1
    by_child = _by_norm(rule.child, [(c, (h, n)) for (h, c), n in tally.items()])
    layers = [BranchLayer(h, c, n) for c, (h, n) in by_child]
    layers.sort(key=lambda l: l.height, reverse=True)
    return layers


def _ref_branch_decompose(group, rule, dominant):
    out = Decomposition(rule.child)
    for w in generate_orbit(group, dominant).elements:
        image = _ref_project(rule, w)
        if image.is_dominant:
            out.add(image, 1)
    return out


def _ref_embedding_index(group, rule, dominant):
    numerator = group.orbit_size(dominant) * _ref_inner(group, dominant, dominant)
    denominator = golden(0)
    for child, mult in _ref_branch_decompose(group, rule, dominant).parts.items():
        size = rule.child.orbit_size(child)
        denominator = denominator + size * mult * _ref_inner(rule.child, child, child)
    return numerator / denominator


def _random_number(rng):
    """A golden number with signed parts over denominators 1, 2 and 3."""
    return GoldenNumber(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))),
                        Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))))


def _random_weight(group, rng):
    return group.weight(*[_random_number(rng) for _ in range(group.rank)])


def _random_signed_dominant(group, rng, max_nonzero):
    """A nonzero dominant weight whose parts may be negative or fractional."""
    while True:
        coords = [golden(0)] * group.rank
        for i in rng.sample(range(group.rank), rng.randint(1, max_nonzero)):
            c = _random_number(rng)
            coords[i] = -c if c < 0 else c
        w = group.weight(*coords)
        if not w.is_zero:
            return w


@pytest.mark.parametrize("group", [H2, H3, H4, A1, A2], ids=lambda g: g.tag)
def test_inner_matches_fraction_reference(group, rng):
    for _ in range(25):
        x = _random_weight(group, rng)
        y = _random_weight(group, rng)
        assert group.inner(x, y) == _ref_inner(group, x, y)
        assert group.inner(x, x) == _ref_inner(group, x, x)
        assert group.norm(y) == _ref_inner(group, y, y)


@pytest.mark.parametrize("group,max_nonzero,n_trials",
                         [(H2, 2, 12), (H3, 3, 8), (H4, 2, 2)], ids=["H2", "H3", "H4"])
def test_anomaly_matches_fraction_reference(group, max_nonzero, n_trials, rng):
    for _ in range(n_trials):
        lam = _random_signed_dominant(group, rng, max_nonzero)
        directions = [default_direction(group), _random_weight(group, rng)]
        for v in directions:
            if v.is_zero:
                continue
            refs = _ref_anomalies(group, lam, v, (1, 3, 5, 7))
            for degree, ref in zip((1, 3, 5, 7), refs):
                value = anomaly_number(group, lam, v, degree)
                assert value.degree == degree
                assert value.value == ref


def test_anomaly_h4_generic_orbit_vanishes():
    value = anomaly_number(H4, H4.weight(1, 1, 1, 1), H4.weight(1, 0, 0, 0), 7)
    assert value.value == golden(0)
    assert str(value) == "0 (0.0)"


_HALF = Fraction(1, 2)
_RULES_UNDER_TEST = [
    branching_rule(H2, A1),
    branching_rule(H3, H2),
    branching_rule(H3, A2),
    # a scaled projection: its rows have their own denominator
    BranchingRule(H3, H2, ((golden(0), golden(_HALF), golden(0)),
                           (golden(0), golden(0), golden(_HALF))), H3.weight(1, 0, 0)),
]


@pytest.mark.parametrize("rule", _RULES_UNDER_TEST,
                         ids=["H2-A1", "H3-H2", "H3-A2", "H3-H2-half"])
def test_branch_layers_match_fraction_reference(rule, rng):
    group = rule.parent
    for _ in range(4):
        lam = _random_signed_dominant(group, rng, group.rank)
        for v in (None, _random_weight(group, rng)):
            if v is not None and v.is_zero:
                continue
            layers = branch_layers(group, rule, lam, v)
            ref_v = rule.direction if v is None else v
            assert layers == _ref_branch_layers(group, rule, lam, ref_v)


@pytest.mark.parametrize("rule", _RULES_UNDER_TEST,
                         ids=["H2-A1", "H3-H2", "H3-A2", "H3-H2-half"])
def test_branch_decompose_and_embedding_match_fraction_reference(rule, rng):
    group = rule.parent
    for _ in range(4):
        lam = _random_signed_dominant(group, rng, group.rank)
        parts = branch_decompose(group, rule, lam)
        ref = _ref_branch_decompose(group, rule, lam)
        assert list(parts.parts.items()) == list(ref.parts.items())
        assert embedding_index(group, rule, lam) == _ref_embedding_index(group, rule, lam)


@pytest.mark.parametrize("group, child, text", [
    (H2, A1, "244410401+14930352t,-39088169+24157817t"),
    (H3, H2, "116170025+70667t,71492565+7675986t,24157817-14930352t"),
    (H3, A2, "-102334155+63245986t,24157817-14930352t,63245986-39088169t"),
], ids=["H2-A1", "H3-H2", "H3-A2"])
def test_branch_parts_follow_exact_element_order(group, child, text):
    # each orbit has distinct coordinates closer than a float64 step
    rule = branching_rule(group, child)
    seed = group.parse_weight(text)
    elements = generate_orbit(group, seed).elements
    images = [_ref_project(rule, w) for w in elements]
    first = list(dict.fromkeys(w for w in images if w.is_dominant))
    assert list(branch_decompose(group, rule, seed).parts) == first


# ---------------------------------------------------------------------------
# multiset_even_index: row-backed products, hand-built tallies, exact past int64


def _assert_multiset_index(multiset):
    # the index first: the reference reads the tally, which drops held rows
    values = [multiset_even_index(multiset, p) for p in range(5)]
    group = multiset.group
    norms = Counter()
    for w, count in multiset.tally.items():
        norms[_ref_inner(group, w, w)] += count
    for p, value in enumerate(values):
        ref = golden(0)
        for norm, count in norms.items():
            ref = ref + norm ** p * count
        assert value.degree == 2 * p
        assert value.value == ref, p


def _orbits(group, *coords):
    return [generate_orbit(group, group.parse_weight(c)) for c in coords]


@pytest.mark.parametrize("group,coords", [
    (H2, ("1,1t", "2,1")),
    (H3, ("1/2,0,1t", "0,1,0")),
    (H2, ("1,0", "0,1t", "1,1")),
    (H3, ("1,0,0", "0,0,1/3", "1,0,0")),
], ids=["H2x2", "H3x2-half", "H2x3", "H3x3-third"])
def test_multiset_index_of_orbit_product(group, coords):
    _assert_multiset_index(orbit_product(_orbits(group, *coords)))


@pytest.mark.parametrize("group,coords", [
    (H2, "2,1+1t"), (H3, "1/2,1t,0"), (H4, "1/2,0,0,0"),
])
def test_multiset_index_of_orbit_multiset(group, coords):
    _assert_multiset_index(generate_orbit(group, group.parse_weight(coords)).multiset())


@pytest.mark.parametrize("group", [H2, H3, H4], ids=lambda g: g.tag)
def test_multiset_index_of_hand_built_tally(group, rng):
    tally = {}
    for _ in range(30):
        w = _random_weight(group, rng)
        tally[w] = tally.get(w, 0) + rng.randint(1, 4)
    _assert_multiset_index(WeightMultiset(group, tally))


def test_multiset_index_after_add_and_tally_mutation():
    extra = H3.weight("1/2", "-1/3t", "2+1/5t")
    added = orbit_product(_orbits(H3, "1,0,0", "0,1t,1"))
    added.add(extra, 3)
    added.add(H3.weight(1, 0, 0), 2)
    _assert_multiset_index(added)

    mutated = orbit_product(_orbits(H3, "1,0,0", "0,1t,1"))
    total = mutated.total()
    tally = mutated.tally
    first, second = list(tally)[:2]
    tally[first] += 5
    del tally[second]
    tally[extra] = 7
    assert mutated.total() == total + 5 - 1 + 7
    _assert_multiset_index(mutated)


def test_multiset_index_of_empty_multiset():
    for group in (H2, H3, H4):
        empty = WeightMultiset(group)
        assert [multiset_even_index(empty, p).value for p in range(5)] == [golden(0)] * 5


@pytest.mark.parametrize("scale", [10 ** 9, 10 ** 20], ids=["int64-rows", "object-rows"])
def test_multiset_index_exact_past_int64(scale):
    # 10**9: the rows fit int64 but their norms do not; 10**20: neither does
    big = generate_orbit(H3, H3.weight(scale, 0, f"{scale}t"))
    _assert_multiset_index(big.multiset())
    _assert_multiset_index(orbit_product([big, *_orbits(H3, "1/2,0,0")]))
