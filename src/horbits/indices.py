"""Orbit indices: even-degree sums of norms, odd-degree direction sums
(anomaly numbers), branching to subgroups, and embedding indices.

The even index of degree ``2p`` of an orbit is ``|O| * <lambda, lambda>**p``
since all orbit points share one norm.  Odd-degree indices sum
``<mu, v>**(2p-1)`` over the orbit for a distinguished direction ``v``; they
are computed unnormalized (``v`` as given), which keeps every value inside
Q(tau) and does not affect whether the sum vanishes.

Inner products, heights and anomaly sums run on integer pairs
``a + b*tau`` over one shared denominator ``D``: the weights are flattened
to the integer rows of :mod:`horbits.groups`, each product
``cartan_det * D**2 * <x,y>`` goes through the integer adjugate of the
Cartan matrix, powers and sums stay in Z[tau], and the total is divided
once at the end.  Branching projects the same rows once, in one helper,
and builds one ``GoldenNumber`` per distinct height and one ``Weight`` per
distinct child dominant; the embedding index builds no ``Weight``.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, GroupMismatchError, _check_int
from .golden import GoldenNumber, ONE, TAU, ZERO, _pair_pow
from .groups import A1, A2, Group, H2, H3, Weight, _flatten, _pair_dot, _unflatten, get_group
from .orbits import (
    Decomposition,
    WeightMultiset,
    _element_order,
    _norm_order,
    _orbit_flats,
    _orbit_parts,
    _pair_ranks,
)

__all__ = [
    "IndexValue",
    "BranchingRule",
    "BranchLayer",
    "even_index",
    "multiset_even_index",
    "direct_product_index",
    "anomaly_number",
    "anomaly_number_normalized",
    "default_direction",
    "axis_directions",
    "branching_rule",
    "branch_decompose",
    "branch_layers",
    "embedding_index",
    "embedding_index_by_rank",
    "subgroup_rank",
]


@dataclass(frozen=True)
class IndexValue:
    value: GoldenNumber
    degree: int

    def __float__(self):
        return float(self.value)

    def __str__(self):
        try:
            approx = repr(float(self.value))
        except OverflowError:  # past the float range: the exact value's sign
            approx = "inf" if self.value.sign() > 0 else "-inf"
        return f"{self.value} ({approx})"


def even_index(group: Group, dominant: Weight, p: int) -> IndexValue:
    """Index of order 2p of one orbit: ``|O| * <lambda,lambda>**p``."""
    group._own_dominant(dominant)
    _check_int(p, "p", 0)
    size = GoldenNumber(group.orbit_size(dominant))
    return IndexValue(size * group.inner(dominant, dominant) ** p, 2 * p)


def multiset_even_index(multiset: WeightMultiset, p: int) -> IndexValue:
    """Brute-force sum of ``<mu,mu>**p`` over a weight multiset, exactly.

    The sum runs in integer pairs ``a + b*tau`` over the multiset's flat
    rows (the rows :func:`horbits.orbits.orbit_product` keeps, or the tally
    scaled to one shared denominator ``D``).  Every ``det * D**2 * <mu,mu>``
    comes from one call of the vectorized norm kernel of
    :mod:`horbits.weightsys`, exact past int64, which loads numpy on the
    first call; each distinct norm is raised to ``p`` once, and the total is
    divided by ``(det * D**2)**p`` once at the end.
    """
    _check_int(p, "p", 0)
    from .weightsys import _adj_arrays, _det_norms

    group = multiset.group
    rows, counts, denom = multiset._flat()
    norms = Counter()
    for norm, count in zip(_det_norms(rows, _adj_arrays(group)), counts):
        norms[norm] += count
    return IndexValue(group._over_det(_power_sum(norms, p), p, denom ** (2 * p)), 2 * p)


def _power_sum(tally, p: int) -> tuple[int, int]:
    """``sum(count * (a + b*tau)**p)`` over a tally of integer pairs."""
    total_a = total_b = 0
    for (a, b), count in tally.items():
        pa, pb = _pair_pow(a, b, p)
        total_a += count * pa
        total_b += count * pb
    return total_a, total_b


def direct_product_index(factors, p: int) -> IndexValue:
    """Index of order 2p of a product of orbits of distinct groups.

    ``factors`` is a sequence of (group, dominant) pairs.  The value is the
    sum, over the points ``(x_1, ..., x_k)`` of the product, of
    ``sum_j <x_j, x_j>**p``: the even index of each factor, counted once per
    point of the others, ``sum_j (prod_{i != j} |O_i|) * I_2p(O_j)``.  It is
    not the power sum ``(sum_j <x_j, x_j>)**p`` of the block-diagonal inner
    product, which differs for ``p >= 2``.
    """
    factors = list(factors)
    if not factors:
        raise DomainError("direct_product_index needs at least one factor")
    indices = [even_index(group, dominant, p).value for group, dominant in factors]
    sizes = [group.orbit_size(dominant) for group, dominant in factors]
    total = math.prod(sizes)
    return IndexValue(sum((index * (total // size) for index, size in zip(indices, sizes)),
                          ZERO), 2 * p)


# ---------------------------------------------------------------------------
# odd-degree indices


def default_direction(group: Group) -> Weight:
    """The built-in projection direction used when none is given."""
    if group is H2:
        return _RULES["H2", "A1"].direction
    return axis_directions(group)[0]


def axis_directions(group: Group) -> tuple[Weight, ...]:
    """The omega-axis directions of a group, in order."""
    return tuple(group.weight([int(j == i) for j in range(group.rank)])
                 for i in range(group.rank))


def anomaly_number(group: Group, dominant: Weight, direction: Weight,
                   degree: int) -> IndexValue:
    """Odd index: sum of ``<mu, v>**degree`` over the orbit of ``dominant``.

    The direction is used as given (not normalized); scaling ``v`` by ``c``
    scales the result by ``c**degree``, so vanishing is scale-independent.
    The orbit and ``v`` share one denominator ``D``, so with ``u = adj @ v``
    each height ``det * D**2 * <mu, v>`` is the integer pair ``mu . u``; the
    heights are tallied, each distinct one is raised to ``degree`` in
    integers, and the sum is divided by ``(det * D**2)**degree`` once.
    Every Coxeter degree of H3 and H4 is even, so ``-1`` is in W, every
    orbit is ``O = -O``, and the sum is 0 there without enumeration.
    """
    group._own_dominant(dominant)
    group._own_direction(direction)
    _check_int(degree, "degree", 1)
    if degree % 2 == 0:
        raise DomainError(f"degree must be odd, got {degree}")
    if group.tag in ("H3", "H4"):
        return IndexValue(ZERO, degree)
    (seed, v), denom = _flatten([dominant, direction])
    u = group._adj_flat(v)
    heights = Counter(_pair_dot(x, u) for x in _orbit_flats(group, seed))
    total = _power_sum(heights, degree)
    return IndexValue(group._over_det(total, degree, denom ** (2 * degree)), degree)


def anomaly_number_normalized(group: Group, dominant: Weight, direction: Weight,
                              degree: int) -> float:
    """Float convenience: the anomaly for the unit vector along ``direction``."""
    raw = anomaly_number(group, dominant, direction, degree)
    length = math.sqrt(float(group.inner(direction, direction)))
    return float(raw.value) / length ** degree


# ---------------------------------------------------------------------------
# branching


@dataclass(frozen=True)
class BranchingRule:
    """Linear projection from a parent group's weights onto a subgroup's."""

    parent: Group
    child: Group
    projection: tuple[tuple[GoldenNumber, ...], ...]  # child_rank x parent_rank
    direction: Weight | None = None  # layer axis orthogonal to the child


_RULES = {
    ("H2", "A1"): BranchingRule(H2, A1, ((TAU, TAU),), H2.weight("-1t", "1t")),
    ("H3", "H2"): BranchingRule(
        H3, H2, ((ZERO, ONE, ZERO), (ZERO, ZERO, ONE)), H3.weight(1, 0, 0)),
    ("H3", "A2"): BranchingRule(
        H3, A2, ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO)), H3.weight(0, 0, 1)),
}


def branching_rule(parent, child) -> BranchingRule:
    """Look up one of the built-in projection rules."""
    parent = parent if isinstance(parent, Group) else get_group(parent)
    child = child if isinstance(child, Group) else get_group(child)
    rule = _RULES.get((parent.tag, child.tag))
    if rule is None:
        raise DomainError(
            f"no built-in branching {parent.tag} -> {child.tag}; "
            f"available: {sorted(_RULES)}"
        )
    return rule


def _project_orbit(group: Group, rule: BranchingRule, dominant: Weight):
    """``(images, parts, dominants, D, S)``: each flat orbit row over ``D``
    mapped to its child row over ``D * S`` (``S`` flattens the projection
    rows, each a linear form on the parent's weights), and the union-of-orbits
    check :func:`horbits.orbits._orbit_parts` of the images' tally."""
    if rule.parent is not group:
        raise GroupMismatchError(f"rule branches {rule.parent.tag}, group is {group.tag}")
    group._own_dominant(dominant)
    child = rule.child
    if len(rule.projection) != child.rank:
        raise DomainError(f"{child.tag} weight needs {child.rank} coordinates, "
                          f"got {len(rule.projection)}")
    rows, scale = _flatten([group.weight(row) for row in rule.projection])
    (seed,), denom = _flatten([dominant])
    images = {x: tuple(part for row in rows for part in _pair_dot(row, x))
              for x in _orbit_flats(group, seed)}
    parts, dominants = _orbit_parts(child, Counter(images.values()))
    return images, parts, dominants, denom, scale


def branch_decompose(group: Group, rule: BranchingRule, dominant: Weight) -> Decomposition:
    """Project an orbit onto the subgroup and tally child orbits.

    The images must be a union of whole child orbits, each of which has one
    dominant image; ``parts`` come in the order of first occurrence of those
    images over the element order of :func:`generate_orbit`.
    """
    images, parts, _, denom, scale = _project_orbit(group, rule, dominant)
    order = _element_order(x for x, image in images.items() if image in parts)
    firsts = list(dict.fromkeys(images[x] for x in order))
    weights = _unflatten(rule.child, firsts, denom * scale)
    return Decomposition(rule.child, {w: parts[f] for w, f in zip(weights, firsts)})


@dataclass(frozen=True)
class BranchLayer:
    """One child orbit inside a parent orbit, at fixed height along ``v``."""

    height: GoldenNumber
    child_dominant: Weight
    count: int


def branch_layers(group: Group, rule: BranchingRule, dominant: Weight,
                  direction: Weight | None = None) -> list[BranchLayer]:
    """Slice an orbit into child orbits on parallel planes orthogonal to v.

    Each element takes the child dominant of its image, as in
    :func:`branch_decompose`.  With the orbit over ``D`` and ``v`` over ``E``,
    its height is the integer pair ``x . u = cartan_det * D * E * <x, v>``,
    ``u = adj @ v``.  Layers come by descending height, then in the listing
    order of :func:`horbits.orbits._norm_order` of their child dominants,
    both decided by exact comparison (``cartan_det * D * E > 0``).
    """
    images, _, dominants, denom, scale = _project_orbit(group, rule, dominant)
    if direction is None:
        direction = rule.direction or default_direction(group)
    group._own_direction(direction)
    (v,), v_denom = _flatten([direction])
    u = group._adj_flat(v)
    child = rule.child
    tally = Counter((_pair_dot(x, u), dominants[image]) for x, image in images.items())
    heights = list(dict.fromkeys(h for h, _ in tally))
    children = list(dict.fromkeys(c for _, c in tally))
    height_rank = dict(zip(heights, _pair_ranks(heights)))
    by_norm = _norm_order(children, [child._det_norm_pair(c) for c in children])
    child_rank = {children[k]: n for n, k in enumerate(by_norm)}
    order = sorted(tally, key=lambda key: (-height_rank[key[0]], child_rank[key[1]]))
    values = {h: group._over_det(h, 1, denom * v_denom) for h in heights}
    weights = dict(zip(children, _unflatten(child, children, denom * scale)))
    return [BranchLayer(values[h], weights[c], tally[h, c]) for h, c in order]


# ---------------------------------------------------------------------------
# embedding index


def embedding_index(group: Group, rule: BranchingRule, dominant: Weight) -> GoldenNumber:
    """Ratio of the parent orbit's order-2 index to its branched image's,
    ``sum_x <pi x, pi x>`` over the orbit: each distinct image occurs as
    often as the dominant of its child orbit."""
    group._own(dominant)
    if dominant.is_zero:
        raise DomainError("embedding index needs a nonzero orbit")
    numerator = even_index(group, dominant, 1).value
    _, parts, dominants, denom, scale = _project_orbit(group, rule, dominant)
    child = rule.child
    norms = Counter()
    for image, nu in dominants.items():
        norms[child._det_norm_pair(image)] += parts[nu]
    denominator = child._over_det(_power_sum(norms, 1), 1, (denom * scale) ** 2)
    if not denominator:
        raise DomainError("branched image has vanishing order-2 index")
    return numerator / denominator


def embedding_index_by_rank(group: Group, child_rank: int) -> Fraction:
    """Embedding index as the rank ratio rank(G)/rank(G')."""
    _check_int(child_rank, "child_rank", 1)
    if child_rank > group.rank:
        raise DomainError(
            f"subgroup rank must be in 1..{group.rank} for {group.tag}")
    return Fraction(group.rank, child_rank)


_SIMPLE_RANKS = {
    "A1": 1, "A2": 2, "A3": 3, "A4": 4, "D4": 4, "H2": 2, "H3": 3, "H4": 4,
}


def subgroup_rank(name: str) -> int:
    """Rank of a (possibly composite) subgroup name like ``A1xA1xA1``."""
    if not isinstance(name, str):
        raise DomainError(f"unknown subgroup {name!r}")
    total = 0
    for part in name.replace("×", "x").upper().split("X"):
        part = part.strip()
        if part not in _SIMPLE_RANKS:
            raise DomainError(f"unknown subgroup factor {part!r}")
        total += _SIMPLE_RANKS[part]
    return total
