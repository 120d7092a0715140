"""Orbit generation, direct sums, products, and decomposition into orbits.

Orbit elements are generated by a graded closure from the dominant point,
on the flat integer rows of :mod:`horbits.groups` (the numerators of a
weight's 2*rank rational parts over a common denominator): each level is
reflected only upwards, and deduplicated on its own.

Products of orbits are decomposed without forming their pairwise sums, by
the stabilizer product rule: for dominant lambda and an orbit O_mu, the
multiplicity of the orbit O_nu in O_lambda x O_mu is
``|O_lambda| * #{y in O_mu : dom(lambda + y) = nu} / |O_nu|``, and the
count is taken over one ``y`` per orbit of the stabilizer of lambda,
weighted by the size of that orbit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key
from itertools import islice
from math import prod
from operator import add

from .errors import (
    DomainError,
    GroupMismatchError,
    MalformedMultisetError,
    NonDominantError,
    SizeLimitError,
)
from .golden import GoldenNumber, _sign_pair, _value_numerator
from .groups import Group, Weight, _flatten, _reflect_flat, _unflatten

__all__ = [
    "Orbit",
    "WeightMultiset",
    "Decomposition",
    "generate_orbit",
    "orbit_sum",
    "orbit_product",
    "decompose",
    "decompose_product",
]

MAX_MATERIALIZED_POINTS = 2_000_000


def _orbit_flats(group: Group, seed_flat) -> list[tuple[int, ...]]:
    """Orbit of a dominant flat row, closed level by level, each point once.

    The level of ``x`` is ``N(x) = #{beta > 0 : <x, beta> < 0}``.  If
    ``x_i > 0`` then ``N(s_i x) = N(x) + 1``, and a point above level 0 has
    some ``x_i < 0``, so it is ``s_i`` of a point one level below whose
    coordinate ``i`` is positive.  Reflecting each point of a level only in
    the ``s_i`` with ``x_i > 0`` therefore gives exactly the next level, and
    a point can repeat only within its own level.  The seed must be
    dominant, the one point of level 0: from any other point the levels
    below it are never reached.
    """
    rows = group._int_rows
    rank = group.rank
    level = [seed_flat]
    orbit = [seed_flat]
    while level:
        level = list(dict.fromkeys(
            _reflect_flat(x, i, rows[i])
            for x in level for i in range(rank) if _sign_pair(x[2 * i], x[2 * i + 1]) > 0))
        orbit += level
    return orbit


def _flat_orbit_size(group: Group, flat) -> int:
    """Orbit size of a dominant flat row, from its zero coordinates."""
    return group._orbit_size_of_zeros(
        [not (flat[i] or flat[i + 1]) for i in range(0, len(flat), 2)])


def _flatten_lists(lists) -> tuple[list[list[tuple[int, ...]]], int]:
    """Flatten several lists of weights over one shared denominator."""
    flats, denom = _flatten([w for weights in lists for w in weights])
    rows = iter(flats)
    return [list(islice(rows, len(weights))) for weights in lists], denom


def _pair_ranks(pairs: list[tuple[int, int]]) -> list[int]:
    """Rank of each integer pair ``(a, b)`` among the distinct values ``a + b*tau``.

    The distinct pairs are presorted by the ``value_fraction`` proxy and the
    result is checked with the exact sign test of each adjacent difference;
    only if the proxy misordered a pair are they sorted again by exact
    comparison.  Distinct pairs have distinct values, so ranks never tie.
    """
    distinct = sorted(set(pairs), key=lambda p: _value_numerator(*p))
    if any(_sign_pair(q[0] - p[0], q[1] - p[1]) <= 0
           for p, q in zip(distinct, distinct[1:])):
        distinct.sort(key=cmp_to_key(lambda p, q: _sign_pair(p[0] - q[0], p[1] - q[1])))
    rank = {p: k for k, p in enumerate(distinct)}
    return [rank[p] for p in pairs]


def _coord_ranks(flats) -> list[list[int]]:
    """:func:`_pair_ranks` of the coordinates of ``flats``, one column each."""
    half = len(flats[0]) // 2 if flats else 0
    ranks = _pair_ranks([(f[i], f[i + 1]) for f in flats for i in range(0, 2 * half, 2)])
    return [ranks[j::half] for j in range(half)]


def _element_order(flats) -> list[tuple[int, ...]]:
    """Distinct flat rows in orbit element order: coordinates descending, compared exactly."""
    flats = list(flats)
    # distinct rows have distinct rank tuples, so no two keys tie
    return [f for _, f in sorted(zip(zip(*_coord_ranks(flats)), flats), reverse=True)]


def _norm_order(flats, norms) -> list[int]:
    """Positions of flat rows in listing order, decided by exact comparison.

    The order is ``cartan_det * <x,x>`` descending, then the coordinates
    ascending; equal rows keep their input order.  ``flats`` are integer rows
    ``(a_1, b_1, ..., a_r, b_r)`` over one shared denominator and ``norms``
    their ``cartan_det * <x,x>`` pairs.
    """
    keys = list(zip([-r for r in _pair_ranks(norms)], *_coord_ranks(flats)))
    return sorted(range(len(flats)), key=keys.__getitem__)


def _by_norm(group: Group, items) -> list:
    """``(weight, value)`` pairs ordered by :func:`_norm_order` of the weights."""
    items = list(items)
    flats, _ = _flatten([w for w, _ in items])
    order = _norm_order(flats, [group._det_norm_pair(flat) for flat in flats])
    return [items[k] for k in order]


# ---------------------------------------------------------------------------
# public types


@dataclass(frozen=True)
class Orbit:
    """A dominant weight together with all of its reflections."""

    group: Group
    dominant: Weight
    elements: tuple[Weight, ...]

    def __len__(self):
        return len(self.elements)

    def norm(self) -> GoldenNumber:
        return self.group.inner(self.dominant, self.dominant)

    def multiset(self) -> "WeightMultiset":
        return WeightMultiset(self.group, {w: 1 for w in self.elements})


class WeightMultiset:
    """A tally of weights of one group (weight -> positive count).

    A multiset made by :func:`orbit_product` holds flat integer rows over one
    shared denominator instead; the first read of ``tally``, or the first
    :meth:`add`, builds the ``Weight`` tally once and drops the rows.
    """

    def __init__(self, group: Group, tally: dict[Weight, int] | None = None):
        self.group = group
        self._tally = {} if tally is None else tally
        self._rows: tuple[dict[tuple[int, ...], int], int] | None = None

    @property
    def tally(self) -> dict[Weight, int]:
        if self._rows is not None:
            rows, denom = self._rows
            self._tally = dict(zip(_unflatten(self.group, rows, denom), rows.values()))
            self._rows = None
        return self._tally

    def _flat(self):
        """``(rows, counts, denom)``: the held rows, or the tally flattened."""
        if self._rows is not None:
            rows, denom = self._rows
            return list(rows), rows.values(), denom
        flats, denom = _flatten(self._tally)
        return flats, self._tally.values(), denom

    def add(self, w: Weight, count: int = 1):
        if w.group is not self.group:
            raise GroupMismatchError("cannot mix groups in one multiset")
        tally = self.tally
        tally[w] = tally.get(w, 0) + count

    def total(self) -> int:
        counts = self._tally if self._rows is None else self._rows[0]
        return sum(counts.values())

    def __eq__(self, other):
        return (
            isinstance(other, WeightMultiset)
            and self.group is other.group
            and self.tally == other.tally
        )


@dataclass
class Decomposition:
    """Multiplicities of the orbits making up a weight multiset."""

    group: Group
    parts: dict[Weight, int] = field(default_factory=dict)

    def add(self, dominant: Weight, multiplicity: int = 1):
        self.parts[dominant] = self.parts.get(dominant, 0) + multiplicity

    def sorted_parts(self) -> list[tuple[Weight, int]]:
        """Parts ordered by descending norm, then ascending coords."""
        return _by_norm(self.group, self.parts.items())

    def total_points(self) -> int:
        return sum(m * self.group.orbit_size(w) for w, m in self.parts.items())


# ---------------------------------------------------------------------------
# operations


def _check_orbit_seed(group: Group, dominant: Weight) -> None:
    group._own(dominant)
    if not dominant.is_dominant:
        raise NonDominantError(f"orbit seed {dominant} is not dominant")


def generate_orbit(group: Group, dominant: Weight) -> Orbit:
    """All images of a dominant weight under the group, exactly deduplicated."""
    _check_orbit_seed(group, dominant)
    flats, denom = _flatten([dominant])
    elements = tuple(_unflatten(group, _element_order(_orbit_flats(group, flats[0])), denom))
    return Orbit(group, dominant, elements)


def orbit_sum(orbits) -> WeightMultiset:
    """Multiset union of the element sets of the given orbits."""
    orbits = list(orbits)
    if not orbits:
        raise DomainError("orbit_sum of an empty list")
    group = orbits[0].group
    out = WeightMultiset(group)
    for orbit in orbits:
        if orbit.group is not group:
            raise GroupMismatchError("orbit_sum requires a single group")
        for w in orbit.elements:
            out.add(w)
    return out


def orbit_product(orbits, max_points: int = MAX_MATERIALIZED_POINTS) -> WeightMultiset:
    """Materialized multiset of all k-fold sums of orbit elements (k >= 2).

    The sums are tallied as flat integer rows, and the multiset keeps them:
    no ``Weight`` is built until its ``tally`` is read.  Only for products
    small enough to hold in memory; the decomposition of a large product
    should go through :func:`decompose_product` instead.
    """
    orbits = list(orbits)
    if len(orbits) < 2:
        raise DomainError("orbit_product needs at least two orbits")
    group = orbits[0].group
    total = 1
    for orbit in orbits:
        if orbit.group is not group:
            raise GroupMismatchError("orbit_product requires a single group")
        total *= len(orbit.elements)
    if total > max_points:
        raise SizeLimitError(
            f"product has {total} points (> {max_points}); use decompose_product"
        )
    factors, denom = _flatten_lists([orbit.elements for orbit in orbits])
    partial = dict.fromkeys(factors[0], 1)
    for factor in factors[1:]:
        nxt: dict[tuple[int, ...], int] = {}
        for w, count in partial.items():
            for v in factor:
                s = tuple(map(add, w, v))
                nxt[s] = nxt.get(s, 0) + count
        partial = nxt
    out = WeightMultiset(group)
    out._rows = partial, denom
    return out


def decompose(multiset: WeightMultiset) -> Decomposition:
    """Resolve a union of whole orbits into dominant points with multiplicity.

    Every orbit contributes exactly one dominant element, so the multiplicity
    of an orbit equals the count of its dominant point in the multiset.  The
    bookkeeping identity sum(mult * orbit size) == total count is enforced.
    """
    group = multiset.group
    out = Decomposition(group)
    covered = 0
    for w, count in multiset.tally.items():
        if w.is_dominant:
            out.add(w, count)
            covered += count * group.orbit_size(w)
    if covered != multiset.total():
        raise MalformedMultisetError(
            f"multiset is not a union of orbits: {covered} accounted, "
            f"{multiset.total()} present"
        )
    return out


def _stabilizer_classes(group: Group, factor, zeros, name) -> list[tuple[tuple[int, ...], int]]:
    """The flat orbit ``factor`` as ``(y, |W_J y|)`` pairs, one per W_J-orbit.

    ``J``, the true ``zeros``, is the zero set of a dominant ``lambda``; its
    stabilizer ``W_J`` fixes ``dom(lambda + y)`` on each W_J-orbit.  Each
    W_J-orbit meets the closed J-chamber ``{y : y_i >= 0, i in J}`` exactly
    once (Humphreys, *Reflection Groups and Coxeter Groups*, 1990,
    1.10-1.12), in a ``y`` of W_J-orbit size ``|W_J| / |W_{J & zeros(y)}|``.
    The elements, distinct (:func:`decompose_product` checks that), must
    reduce by J-reflections to kept ``y``, and the sizes must sum to
    ``len(factor)``: then the elements are the disjoint union of the kept
    W_J-orbits.  With ``J`` empty, every element is kept.
    """
    if not any(zeros):
        return [(y, 1) for y in factor]
    J = [i for i, zero in enumerate(zeros) if zero]
    rows = group._int_rows
    stab = group._orbit_size_of_zeros(zeros)
    reps: dict[tuple[int, ...], int] = {}
    reduced = set()
    for y in factor:
        x = y
        while True:
            for i in J:
                if _sign_pair(x[2 * i], x[2 * i + 1]) < 0:
                    x = _reflect_flat(x, i, rows[i])
                    break
            else:
                break
        if x is y:
            reps[y] = group._orbit_size_of_zeros(
                [zero and not (y[2 * i] or y[2 * i + 1]) for i, zero in enumerate(zeros)]) // stab
        else:
            reduced.add(x)
    if not reduced <= reps.keys():
        raise MalformedMultisetError(f"orbit of {name} is not closed under its J-reflections")
    covered = sum(reps.values())
    if covered != len(factor):
        raise MalformedMultisetError(
            f"W_J-orbits cover {covered} of the {len(factor)} elements of the orbit of {name}")
    return list(reps.items())


def decompose_product(orbits) -> Decomposition:
    """Decomposition of a product of orbits by the stabilizer product rule.

    Left-associates: each dominant ``lambda`` of the running decomposition,
    with multiplicity ``m``, is multiplied by the next orbit ``O_mu`` by
    reflecting one ``lambda + y`` per orbit of the stabilizer of ``lambda``
    in ``O_mu`` to the dominant chamber, weighted by the size of that orbit
    (:func:`_stabilizer_classes`); a dominant ``nu`` reached ``count`` times
    gains multiplicity ``m * |O_lambda| * count / |O_nu|``.  The first
    product iterates over the smaller of the two orbits.  No sum point set
    is formed.  Every seed must be dominant, and the bookkeeping identity
    ``sum(mult * |O_nu|) == prod |O_i|`` is checked.
    """
    orbits = list(orbits)
    if len(orbits) < 2:
        raise DomainError("decompose_product needs at least two orbits")
    group = orbits[0].group
    for orbit in orbits:
        if orbit.group is not group:
            raise GroupMismatchError("decompose_product requires a single group")
        _check_orbit_seed(group, orbit.dominant)
    first, second = sorted(orbits[:2], key=len, reverse=True)
    iterated = [second, *orbits[2:]]
    for orbit in iterated:
        if len(orbit.elements) != group.orbit_size(orbit.dominant):
            raise MalformedMultisetError(
                f"orbit of {orbit.dominant} has {len(orbit.elements)} elements, "
                f"not {group.orbit_size(orbit.dominant)}"
            )
    ((seed,), *factors), denom = _flatten_lists(
        [[first.dominant], *(orbit.elements for orbit in iterated)])

    parts = {seed: 1}
    for orbit, factor in zip(iterated, factors):
        if len(set(factor)) != len(factor):
            raise MalformedMultisetError(f"orbit of {orbit.dominant} has repeated elements")
        classes: dict[tuple[bool, ...], list] = {}
        merged: dict[tuple[int, ...], int] = {}
        for lam, mult in parts.items():
            zeros = tuple(not (lam[i] or lam[i + 1]) for i in range(0, len(lam), 2))
            if zeros not in classes:
                classes[zeros] = _stabilizer_classes(group, factor, zeros, orbit.dominant)
            tally: dict[tuple[int, ...], int] = {}
            for y, size in classes[zeros]:
                nu, _ = group._to_dominant_flat(tuple([a + b for a, b in zip(lam, y)]))
                tally[nu] = tally.get(nu, 0) + size
            lam_size = group._orbit_size_of_zeros(zeros)
            for nu, count in tally.items():
                m, rest = divmod(lam_size * count, _flat_orbit_size(group, nu))
                if rest:
                    raise MalformedMultisetError(
                        f"{count} sums reach a dominant of an orbit of "
                        f"{_flat_orbit_size(group, nu)} points from one of {lam_size}"
                    )
                merged[nu] = merged.get(nu, 0) + mult * m
        parts = merged
    total = prod(len(orbit.elements) for orbit in orbits)
    covered = sum(mult * _flat_orbit_size(group, nu) for nu, mult in parts.items())
    if covered != total:
        raise MalformedMultisetError(
            f"dominant tally covers {covered} of {total} product points"
        )
    weights = _unflatten(group, parts, denom)
    return Decomposition(group, dict(zip(weights, parts.values())))
