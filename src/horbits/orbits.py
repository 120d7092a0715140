"""Orbit generation, direct sums, products, and decomposition into orbits.

Orbit elements are generated from the dominant point on the flat integer
rows of :mod:`horbits.groups` (the numerators of a weight's 2*rank rational
parts over a common denominator), each point once, from its unique parent.
A generated orbit holds its dominant row, builds the rows when they are
first read, and builds its ``Weight`` elements only when those are read.

Products of orbits are decomposed without forming their pairwise sums, by
the stabilizer product rule: for dominant lambda and an orbit O_mu, the
multiplicity of the orbit O_nu in O_lambda x O_mu is
``|O_lambda| * #{y in O_mu : dom(lambda + y) = nu} / |O_nu|``, and the
count is taken over one ``y`` per orbit of the stabilizer of lambda,
weighted by the size of that orbit.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key
from math import lcm, prod
from operator import add

from .errors import (_USE_DECOMPOSE, DomainError, GroupMismatchError, MalformedMultisetError,
                     SizeLimitError, _check_int)
from .golden import _TAU_F, GoldenNumber, _sign_pair
from .groups import Group, Weight, _flatten, _RecordList, _reflect_flat, _unflatten

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
    """Orbit of a dominant flat row, each point generated once.

    A point ``x`` other than the seed has exactly one parent, ``s_f x`` with
    ``f`` the least index such that ``x_f < 0`` (Casselman, Invent. Math.
    116 (1994); Stembridge, MSJ Memoirs 11 (2001)).  So the children of a
    point ``y`` with least negative index ``f`` (the rank for the seed) are
    the ``s_i y`` whose least negative index is ``i``.  On a path diagram
    ``s_i`` changes only coordinates ``i - 1``, ``i`` and ``i + 1``, and
    raises ``i - 1``: every ``i < f`` with ``y_i != 0`` gives a child,
    ``i = f + 1`` gives one if the image's coordinate ``f`` is ``>= 0``, and
    no larger ``i`` does.  Every test is exact.
    """
    rows = group._int_rows
    rank = group.rank
    # the entry a_{i,i-1} of each row i > 0, as an integer pair
    below = [None] + [next((ca, cb) for j, ca, cb in rows[i] if j == i - 1)
                      for i in range(1, rank)]
    orbit = [seed_flat]
    firsts = [rank]  # least negative index of each point; the seed has none
    # both lists grow in step while they are read
    for x, f in zip(orbit, firsts):
        for i in range(f):
            if x[2 * i] or x[2 * i + 1]:
                orbit.append(_reflect_flat(x, i, rows[i]))
                firsts.append(i)
        i = f + 1
        if i < rank:
            # coordinate f of s_i x, as _reflect_flat computes it
            xa, xb = x[2 * i], x[2 * i + 1]
            ca, cb = below[i]
            if _sign_pair(x[2 * f] - xa * ca - xb * cb,
                          x[2 * f + 1] - xa * cb - xb * ca - xb * cb) >= 0:
                orbit.append(_reflect_flat(x, i, rows[i]))
                firsts.append(i)
    return orbit


def _flat_orbit_size(group: Group, flat) -> int:
    """Orbit size of a dominant flat row, from its zero coordinates."""
    zeros = [not (flat[i] or flat[i + 1]) for i in range(0, len(flat), 2)]
    return group._orbit_sizes[tuple(zeros)]


def _held_rows(weights) -> _OrbitRows | None:
    """The rows a generated orbit holds: the source of a view made by
    :func:`generate_orbit`, or ``None`` for any other weight sequence."""
    source = getattr(weights, "_source", None)
    return source if isinstance(source, _OrbitRows) else None


def _flatten_lists(lists) -> tuple[list[list[tuple[int, ...]]], int]:
    """Flat rows of several weight sequences over their least common
    denominator: a generated orbit's elements give the rows they hold, any
    other sequence is flattened, and rows are scaled to the shared one."""
    parts = []
    for weights in lists:
        source = _held_rows(weights)
        parts.append((source.rows, source.denom) if source else _flatten(weights))
    denom = lcm(*(d for _, d in parts))
    return [rows if d == denom else [tuple(v * (denom // d) for v in row) for row in rows]
            for rows, d in parts], denom


def _pair_ranks(pairs: list[tuple[int, int]]) -> list[int]:
    """Rank of each integer pair ``(a, b)`` among the distinct values ``a + b*tau``.

    The distinct pairs are presorted by their float64 values ``a + b*tau``
    and the result is checked with the exact sign test of each adjacent
    difference; only if the presort misordered a pair are they sorted again
    by exact comparison.  Distinct pairs have distinct values, so ranks
    never tie.
    """
    distinct = list(set(pairs))
    try:
        distinct.sort(key=lambda p: p[0] + p[1] * _TAU_F)
    except OverflowError:
        pass  # a part past the float64 range: the exact check decides
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


class _OrbitRows:
    """The orbit of a dominant weight, held as its flat row ``seed`` over
    ``denom``: its flat rows and its elements, each built on first read."""

    def __init__(self, dominant: Weight):
        self.dominant, self.group = dominant, dominant.group
        (self.seed,), self.denom = _flatten([dominant])

    @cached_property
    def rows(self) -> list[tuple[int, ...]]:
        return _orbit_flats(self.group, self.seed)

    @cached_property
    def elements(self) -> tuple[Weight, ...]:
        return tuple(_unflatten(self.group, _element_order(self.rows), self.denom))


@dataclass(frozen=True)
class Orbit:
    """A dominant weight together with all of its reflections: a tuple, or
    the view of :func:`generate_orbit`, which compares and hashes as one."""

    group: Group
    dominant: Weight
    elements: Sequence[Weight]

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
        self._check(self._tally.items())

    def _check(self, items) -> None:
        """The multiset contract: every weight of the ``(weight, count)``
        items belongs to the multiset's group, and every count is a positive
        integer."""
        for w, count in items:
            self.group._own(w)
            if not isinstance(count, int) or count < 1:
                raise MalformedMultisetError(f"count {count!r} of {w} is not a positive integer")

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
        self._check(self._tally.items())
        flats, denom = _flatten(self._tally)
        return flats, self._tally.values(), denom

    def add(self, w: Weight, count: int = 1):
        self._check([(w, count)])
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


def _one_group(orbits, name: str, least: int) -> Group:
    """The group of a list of at least ``least`` orbits, which every orbit must share."""
    if len(orbits) < least:
        raise DomainError(f"{name} needs at least {least} orbit{'s' if least > 1 else ''}")
    group = orbits[0].group
    if any(orbit.group is not group for orbit in orbits):
        raise GroupMismatchError(f"{name} requires a single group")
    return group


def generate_orbit(group: Group, dominant: Weight) -> Orbit:
    """All images of a dominant weight under the group, each generated once.

    ``elements`` is a view over the rows of :func:`_orbit_flats`, which are
    built on their first read: its length comes from the zero pattern of the
    dominant, and its ``Weight`` tuple, in element order, is built on the
    first read of an item.  Products read the rows directly.
    """
    group._own_dominant(dominant)
    source = _OrbitRows(dominant)
    return Orbit(group, dominant, _RecordList(
        source, "elements", _flat_orbit_size(group, source.seed)))


def orbit_sum(orbits) -> WeightMultiset:
    """Multiset union of the element sets of the given orbits."""
    orbits = list(orbits)
    out = WeightMultiset(_one_group(orbits, "orbit_sum", 1))
    for orbit in orbits:
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
    _check_int(max_points, "max_points", 1)
    orbits = list(orbits)
    group = _one_group(orbits, "orbit_product", 2)
    total = prod(len(orbit.elements) for orbit in orbits)
    if total > max_points:
        raise SizeLimitError(
            f"product has {total} points (> {max_points}); {_USE_DECOMPOSE}"
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


def _orbit_parts(group: Group, tally) -> tuple[dict, dict]:
    """The multiplicities of the orbits that make up distinct flat rows with
    counts, keyed by dominant row in tally order, and the dominant of each
    row.  Each orbit has exactly one dominant point (Humphreys 1990, 1.12),
    so the rows are a union of whole orbits exactly when every row has its
    dominant's count and every dominant has as many rows as orbit points.
    """
    dominants = {x: group._to_dominant_flat(x)[0] for x in tally}
    classes = Counter(dominants.values())
    for x, nu in dominants.items():
        size = _flat_orbit_size(group, nu)
        if tally.get(nu) != tally[x] or classes[nu] != size:
            raise MalformedMultisetError(
                f"multiset is not a union of orbits: {classes[nu]} of the {size} points of an "
                f"orbit, one with count {tally[x]}, its dominant with count {tally.get(nu, 0)}")
    return {x: count for x, count in tally.items() if dominants[x] == x}, dominants


def decompose(multiset: WeightMultiset) -> Decomposition:
    """Resolve a union of whole orbits (:func:`_orbit_parts`) into dominant
    points with multiplicity, the count of each orbit's one dominant point."""
    group = multiset.group
    rows, counts, denom = multiset._flat()
    parts, _ = _orbit_parts(group, dict(zip(rows, counts)))
    return Decomposition(group, dict(zip(_unflatten(group, parts, denom), parts.values())))


def _stabilizer_classes(group: Group, factor, zeros) -> list[tuple[tuple[int, ...], int]]:
    """The flat orbit ``factor`` as ``(y, |W_J y|)`` pairs, one per W_J-orbit.

    ``J``, the true ``zeros``, is the zero set of a dominant ``lambda``; its
    stabilizer ``W_J`` fixes ``dom(lambda + y)`` on each W_J-orbit.  Each
    W_J-orbit meets the closed J-chamber ``{y : y_i >= 0, i in J}`` exactly
    once (Humphreys, *Reflection Groups and Coxeter Groups*, 1990,
    1.10-1.12), in a ``y`` of W_J-orbit size ``|W_J| / |W_{J & zeros(y)}|``,
    so the rows of that chamber are kept.
    """
    J = [i for i, zero in enumerate(zeros) if zero]
    stab = group._orbit_sizes[zeros]
    classes = []
    for y in factor:
        # both parts >= 0 make a coordinate >= 0; the exact test takes the rest
        if not any((y[2 * i] < 0 or y[2 * i + 1] < 0) and _sign_pair(y[2 * i], y[2 * i + 1]) < 0
                   for i in J):
            classes.append((y, group._orbit_sizes[tuple(
                [z and not (y[2 * j] or y[2 * j + 1]) for j, z in enumerate(zeros)])] // stab))
    return classes


def decompose_product(orbits) -> Decomposition:
    """Decomposition of a product of orbits by the stabilizer product rule.

    Left-associates: each dominant ``lambda`` of the running decomposition,
    with multiplicity ``m``, is multiplied by the next orbit ``O_mu`` by
    reflecting one ``lambda + y`` per orbit of the stabilizer of ``lambda``
    in ``O_mu`` to the dominant chamber, weighted by the size of that orbit
    (:func:`_stabilizer_classes`); a dominant ``nu`` reached ``count`` times
    gains multiplicity ``m * |O_lambda| * count / |O_nu|``.  The first
    product iterates over the smaller of the two orbits.  No sum point set
    is formed.  Every seed must be dominant and every orbit's elements the
    orbit :func:`_orbit_flats` builds from it; the view
    :func:`generate_orbit` made from this same dominant is that orbit, so its
    rows are not built for the check.  Then each multiplicity is an integer
    and ``sum(mult * |O_nu|) == prod |O_i|``.
    """
    orbits = list(orbits)
    group = _one_group(orbits, "decompose_product", 2)
    for orbit in orbits:
        size = group.orbit_size(orbit.dominant)
        if len(orbit.elements) != size:
            raise MalformedMultisetError(
                f"orbit of {orbit.dominant} has {len(orbit.elements)} elements, not {size}")
        source = _held_rows(orbit.elements)
        if not (source and source.dominant == orbit.dominant):
            (seed, *rows), _ = _flatten([orbit.dominant, *orbit.elements])
            if set(rows) != set(_orbit_flats(group, seed)):
                raise MalformedMultisetError(
                    f"elements of the orbit of {orbit.dominant} are not its orbit")
    first, second = sorted(orbits[:2], key=len, reverse=True)
    iterated = [second, *orbits[2:]]
    ((seed,), *factors), denom = _flatten_lists(
        [[first.dominant], *(orbit.elements for orbit in iterated)])

    parts = {seed: 1}
    for factor in factors:
        classes: dict[tuple[bool, ...], list] = {}
        merged: dict[tuple[int, ...], int] = {}
        for lam, mult in parts.items():
            zeros = tuple([not (lam[i] or lam[i + 1]) for i in range(0, len(lam), 2)])
            if zeros not in classes:
                classes[zeros] = _stabilizer_classes(group, factor, zeros)
            tally: dict[tuple[int, ...], int] = {}
            for y, size in classes[zeros]:
                nu, _ = group._to_dominant_flat(map(add, lam, y))
                tally[nu] = tally.get(nu, 0) + size
            scale = mult * group._orbit_sizes[zeros]
            for nu, count in tally.items():
                merged[nu] = merged.get(nu, 0) + scale * count // _flat_orbit_size(group, nu)
        parts = merged
    weights = _unflatten(group, parts, denom)
    return Decomposition(group, dict(zip(weights, parts.values())))
