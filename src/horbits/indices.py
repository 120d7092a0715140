"""Orbit indices: even-degree sums of norms, odd-degree direction sums
(anomaly numbers), branching to subgroups, and embedding indices.

The even index of degree ``2p`` of an orbit is ``|O| * <lambda, lambda>**p``
since all orbit points share one norm.  Odd-degree indices sum
``<mu, v>**(2p-1)`` over the orbit for a distinguished direction ``v``; they
are computed unnormalized (``v`` as given), which keeps every value inside
Q(tau) and does not affect whether the sum vanishes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, GroupMismatchError, NonDominantError
from .golden import GoldenNumber, TAU, ZERO
from .groups import A1, A2, Group, H2, H3, Weight, _flatten, get_group
from .orbits import Decomposition, WeightMultiset, _by_norm, generate_orbit

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
        return f"{self.value} ({float(self.value)!r})"


def even_index(group: Group, dominant: Weight, p: int) -> IndexValue:
    """Index of order 2p of one orbit: ``|O| * <lambda,lambda>**p``."""
    group._own(dominant)
    if not dominant.is_dominant:
        raise NonDominantError(f"{dominant} is not dominant")
    if p < 0:
        raise DomainError("even index needs p >= 0")
    size = GoldenNumber(group.orbit_size(dominant))
    return IndexValue(size * group.inner(dominant, dominant) ** p, 2 * p)


def multiset_even_index(multiset: WeightMultiset, p: int) -> IndexValue:
    """Brute-force sum of ``<mu,mu>**p`` over a weight multiset, exactly.

    The sum runs in integer pairs ``a + b*tau``: the weights are scaled to
    one shared denominator ``D``, each term ``(det * D**2 * <mu,mu>)**p`` is
    formed through the integer adjugate of the Cartan matrix, and the total
    is divided by ``(det * D**2)**p`` once at the end.
    """
    if p < 0:
        raise DomainError("even index needs p >= 0")
    group = multiset.group
    flats, denom = _flatten(multiset.tally)
    total_a = total_b = 0
    for flat, count in zip(flats, multiset.tally.values()):
        na, nb = group._det_norm_pair(flat)
        pa, pb = 1, 0
        for _ in range(p):
            pa, pb = pa * na + pb * nb, pa * nb + pb * na + pb * nb
        total_a += pa * count
        total_b += pb * count
    scale = (group.cartan_det * denom ** 2) ** p
    return IndexValue(GoldenNumber(total_a, total_b) / scale, 2 * p)


def direct_product_index(factors, p: int) -> IndexValue:
    """Index of order 2p of a product of orbits of distinct groups.

    ``factors`` is a sequence of (group, dominant) pairs.  With the inner
    product block-diagonal over the factors, the value is
    ``prod |O_i| * sum_j <lambda_j, lambda_j>**p``.
    """
    factors = list(factors)
    if not factors:
        raise DomainError("direct_product_index needs at least one factor")
    if p < 0:
        raise DomainError("even index needs p >= 0")
    sizes = 1
    norm_sum = ZERO
    for group, dominant in factors:
        group._own(dominant)
        if not dominant.is_dominant:
            raise NonDominantError(f"{dominant} is not dominant")
        sizes *= group.orbit_size(dominant)
        norm_sum = norm_sum + group.inner(dominant, dominant) ** p
    return IndexValue(GoldenNumber(sizes) * norm_sum, 2 * p)


# ---------------------------------------------------------------------------
# odd-degree indices


def default_direction(group: Group) -> Weight:
    """The built-in projection direction used when none is given."""
    if group is H2:
        return H2.weight("-1t", "1t")
    return Weight(group, tuple(
        GoldenNumber(1 if i == 0 else 0) for i in range(group.rank)
    ))


def axis_directions(group: Group) -> tuple[Weight, ...]:
    """The omega-axis directions of a group, in order."""
    out = []
    for i in range(group.rank):
        out.append(Weight(group, tuple(
            GoldenNumber(1 if j == i else 0) for j in range(group.rank)
        )))
    return tuple(out)


def _direction_form(group: Group, direction: Weight):
    # gram * v, so each height is a single dot product
    return tuple(
        sum((group.gram[i][j] * direction.coords[j] for j in range(group.rank)),
            start=ZERO)
        for i in range(group.rank)
    )


def anomaly_number(group: Group, dominant: Weight, direction: Weight,
                   degree: int) -> IndexValue:
    """Odd index: sum of ``<mu, v>**degree`` over the orbit of ``dominant``.

    The direction is used as given (not normalized); scaling ``v`` by ``c``
    scales the result by ``c**degree``, so vanishing is scale-independent.
    """
    group._own(dominant)
    group._own(direction)
    if direction.is_zero:
        raise DomainError("direction must be nonzero")
    if degree < 1 or degree % 2 == 0:
        raise DomainError("anomaly degree must be odd and positive")
    if not dominant.is_dominant:
        raise NonDominantError(f"{dominant} is not dominant")
    form = _direction_form(group, direction)
    total = ZERO
    for w in generate_orbit(group, dominant).elements:
        height = sum((form[i] * w.coords[i] for i in range(group.rank)), start=ZERO)
        total = total + height ** degree
    return IndexValue(total, degree)


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

    def project(self, w: Weight) -> Weight:
        self.parent._own(w)
        coords = tuple(
            sum((row[j] * w.coords[j] for j in range(self.parent.rank)),
                start=ZERO)
            for row in self.projection
        )
        return Weight(self.child, coords)


def _make_rules():
    g1 = GoldenNumber(1)
    g0 = ZERO
    t = TAU
    rules = {
        ("H2", "A1"): BranchingRule(H2, A1, ((t, t),), H2.weight("-1t", "1t")),
        ("H3", "H2"): BranchingRule(
            H3, H2, ((g0, g1, g0), (g0, g0, g1)), H3.weight(1, 0, 0)),
        ("H3", "A2"): BranchingRule(
            H3, A2, ((g1, g0, g0), (g0, g1, g0)), H3.weight(0, 0, 1)),
    }
    return rules


_RULES = _make_rules()


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


def branch_decompose(group: Group, rule: BranchingRule, dominant: Weight) -> Decomposition:
    """Project an orbit onto the subgroup and tally child orbits.

    Every element is projected and mapped to its child-dominant
    representative; as with products, each child orbit copy contributes
    exactly one dominant point.
    """
    if rule.parent is not group:
        raise GroupMismatchError(
            f"rule branches {rule.parent.tag}, group is {group.tag}")
    out = Decomposition(rule.child)
    covered = 0
    orbit = generate_orbit(group, dominant)
    for w in orbit.elements:
        image = rule.project(w)
        if image.is_dominant:
            out.add(image, 1)
            covered += rule.child.orbit_size(image)
    if covered != len(orbit.elements):
        raise DomainError(
            f"branching tally covers {covered} of {len(orbit.elements)} points"
        )
    return out


@dataclass(frozen=True)
class BranchLayer:
    """One child orbit inside a parent orbit, at fixed height along ``v``."""

    height: GoldenNumber
    child_dominant: Weight
    count: int


def branch_layers(group: Group, rule: BranchingRule, dominant: Weight,
                  direction: Weight | None = None) -> list[BranchLayer]:
    """Slice an orbit into child orbits on parallel planes orthogonal to v."""
    if rule.parent is not group:
        raise GroupMismatchError(
            f"rule branches {rule.parent.tag}, group is {group.tag}")
    if direction is None:
        direction = rule.direction or default_direction(group)
    group._own(direction)
    if direction.is_zero:
        raise DomainError("direction must be nonzero")
    form = _direction_form(group, direction)
    tally: dict[tuple[GoldenNumber, Weight], int] = {}
    orbit = generate_orbit(group, dominant)
    for w in orbit.elements:
        height = sum((form[i] * w.coords[i] for i in range(group.rank)), start=ZERO)
        child, _ = rule.child.to_dominant(rule.project(w))
        key = (height, child)
        tally[key] = tally.get(key, 0) + 1
    # order by child first, then (stably) by descending height, compared exactly
    by_child = _by_norm(rule.child, [(c, (h, n)) for (h, c), n in tally.items()])
    layers = [BranchLayer(h, c, n) for c, (h, n) in by_child]
    layers.sort(key=lambda l: l.height, reverse=True)
    return layers


# ---------------------------------------------------------------------------
# embedding index


def embedding_index(group: Group, rule: BranchingRule, dominant: Weight) -> GoldenNumber:
    """Ratio of the parent orbit's order-2 index to its branched image's."""
    group._own(dominant)
    if dominant.is_zero:
        raise DomainError("embedding index needs a nonzero orbit")
    numerator = even_index(group, dominant, 1).value
    parts = branch_decompose(group, rule, dominant)
    denominator = ZERO
    for child, mult in parts.parts.items():
        denominator = denominator + even_index(rule.child, child, 1).value * mult
    if not denominator:
        raise DomainError("branched image has vanishing order-2 index")
    return numerator / denominator


def embedding_index_by_rank(group: Group, child_rank: int) -> Fraction:
    """Embedding index as the rank ratio rank(G)/rank(G')."""
    if not 1 <= child_rank <= group.rank:
        raise DomainError(
            f"subgroup rank must be in 1..{group.rank} for {group.tag}")
    return Fraction(group.rank, child_rank)


_SIMPLE_RANKS = {
    "A1": 1, "A2": 2, "A3": 3, "A4": 4, "D4": 4, "H2": 2, "H3": 3, "H4": 4,
}


def subgroup_rank(name: str) -> int:
    """Rank of a (possibly composite) subgroup name like ``A1xA1xA1``."""
    total = 0
    for part in name.replace("×", "x").upper().split("X"):
        part = part.strip()
        if part not in _SIMPLE_RANKS:
            raise DomainError(f"unknown subgroup factor {part!r}")
        total += _SIMPLE_RANKS[part]
    return total
