"""Weight systems below a seed point, by repeated subtraction of simple roots.

Starting from a dominant seed with Z[tau] coordinates, every point with some
positive coordinate ``l = a + b*tau`` spawns children ``point - k*(l/g)*alpha_i``
for ``k = 1..g`` with ``g = gcd(|a|, |b|)`` (and ``gcd(0, n) = n``).  For
``b = 0`` this is the familiar string of integer steps ``alpha_i, 2*alpha_i,
..., a*alpha_i``; for ``a = 0`` the steps are ``tau*alpha_i``; the gcd rule
interpolates between the two and extends to mixed-sign coefficients.

One engine applies the rule: a breadth-first search, one vectorized level
at a time, with size and int64-range guards checked before each level is
allocated.  :func:`build_tree` runs it in tree mode, which keeps every point
and records the closure as a tree (really a DAG) in first-in-first-out order:
each distinct weight is expanded once, and arrivals at an already-known
weight are kept as revisit markers.  :func:`weight_system_dominants` runs it
in dominants mode, pruned to the positive root cone, and keeps only the
visited weights with all coordinates non-negative: the dominant points of
the lower orbits nested inside the seed orbit.  Both listings are ordered
by exact comparison in Q(tau): ``cartan_det * <x,x>`` descending, then the
coordinates ascending (:func:`horbits.orbits._norm_order`).
"""
from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import floor, sqrt
from typing import NamedTuple

import numpy as np

from .errors import MAX_TREE_NODES, _RAISE_MAX_NODES, DomainError, SizeLimitError, _check_int
from .golden import _TAU_F, GoldenNumber, TAU
from .groups import Group, Weight, H3, _flatten, _RecordDict, _RecordList, _Records, _unflatten
from .orbits import _norm_order

__all__ = [
    "SubtractionNode",
    "SubtractionEdge",
    "SubtractionTree",
    "subtraction_children",
    "build_tree",
    "weight_system_dominants",
    "closed_form_lower_orbits",
    "tree_to_dot",
    "tree_to_json",
]

_LEVEL_OVER_BUDGET = ("weight system level needs {total} children, over the node budget; "
                      + _RAISE_MAX_NODES)
_OUT_OF_RANGE = "weight system coordinates exceed the exact int64 range"

_TREE_GROUPS = ("H2", "H3", "H4")


@dataclass(frozen=True)
class SubtractionNode:
    weight: Weight
    first_visit: bool


@dataclass(frozen=True)
class SubtractionEdge:
    source: Weight
    target: Weight
    multiple: GoldenNumber
    root_index: int  # 1-based

    def label(self) -> str:
        return f"{self.multiple}·α{self.root_index}"


@dataclass
class SubtractionTree:
    """A weight system as node and edge records, first in, first out.

    :func:`build_tree` returns a tree that holds the closure's integer
    arrays: its ``nodes``, ``edges``, ``lower_dominants`` and ``arrivals``
    are read-only views whose length is known at once, and whose records
    (``Weight``, ``SubtractionNode``, ``SubtractionEdge``) are built on the
    first read of an item and then kept.  :func:`tree_to_json` and
    :func:`tree_to_dot` write such a tree from its arrays and build no
    records.  A tree constructed from record lists, such as a
    ``dataclasses.replace`` copy, is written from its records.
    """

    group: Group
    seed: Weight
    nodes: Sequence[SubtractionNode]
    edges: Sequence[SubtractionEdge]
    arrivals: Mapping[Weight, int]
    lower_dominants: Sequence[tuple[Weight, int]]

    def node_weights(self) -> set[Weight]:
        return {n.weight for n in self.nodes if n.first_visit}

    def terminals(self) -> list[Weight]:
        sources = {e.source for e in self.edges}
        return [n.weight for n in self.nodes
                if n.first_visit and n.weight not in sources]


class _TreeArrays:
    """A tree as :func:`_closure` returns it in tree mode, and its records.

    Point ``k`` is the ``k``-th point first visited, with flat row
    ``rows[k]``; edge ``j`` runs from point ``source[j]`` to point
    ``target[j]`` and is followed by node ``j + 1``.  Each record field is
    built on its first use and kept; the nodes, edges and arrivals share
    one ``Weight`` per point.
    """

    def __init__(self, group: Group, rows, counts, lower, edges):
        source, target, ma, mb, root, self.first = edges
        # the narrowest exact types: parts and multiples are within 2**30
        # (_MAX_COORD), point numbers below len(rows), root indices below 4
        number = np.min_scalar_type(len(rows))
        self.group, self.counts, self.lower = group, counts, lower
        self.rows, self.ma, self.mb = (a.astype(np.int32) for a in (rows, ma, mb))
        self.source, self.target = source.astype(number), target.astype(number)
        self.root = root.astype(np.int8)

    def __getstate__(self):
        # the arrays alone: a copy builds its records and texts again on first use
        return {key: value for key, value in vars(self).items()
                if key not in ("weights", "point_texts", *_RECORD_FIELDS)}

    @cached_property
    def weights(self) -> list[Weight]:
        return _unflatten(self.group, self.rows.tolist(), 1)

    @cached_property
    def point_texts(self) -> list[tuple[str, ...]]:
        """The coordinate texts of each point, which both writers read."""
        return list(map(tuple, _pair_columns(self.rows, _pair_texts).tolist()))

    @cached_property
    def nodes(self) -> list[SubtractionNode]:
        weights = self.weights
        return [SubtractionNode(weights[0], True)] + [
            SubtractionNode(weights[t], f)
            for t, f in zip(self.target.tolist(), self.first.tolist())]

    @cached_property
    def edges(self) -> list[SubtractionEdge]:
        weights = self.weights
        ma, mb = self.ma.tolist(), self.mb.tolist()
        multiples = {pair: GoldenNumber(*pair) for pair in set(zip(ma, mb))}
        return [SubtractionEdge(weights[s], weights[t], multiples[a, b], i + 1)
                for s, t, a, b, i in zip(self.source.tolist(), self.target.tolist(),
                                         ma, mb, self.root.tolist())]

    @cached_property
    def arrivals(self) -> dict[Weight, int]:
        return dict(zip(self.weights, self.counts.tolist()))

    @cached_property
    def lower_dominants(self) -> list[tuple[Weight, int]]:
        return _dominant_records(self.group, self.rows, self.counts, self.lower)

    def table(self) -> _Table:
        """The index table of the tree (:func:`_table`), from the arrays alone."""
        target = self.target.tolist()
        return _Table(
            self.point_texts,
            self.counts.tolist(),
            zip([0, *target], [True, *self.first.tolist()]),
            zip(self.source.tolist(), target,
                _pair_columns(np.stack([self.ma, self.mb], axis=1), _pair_texts)[:, 0].tolist(),
                (self.root + 1).tolist()),
            zip(self.lower.tolist(), np.maximum(self.counts[self.lower], 1).tolist()),
        )


_RECORD_FIELDS = ("nodes", "edges", "arrivals", "lower_dominants")


def subtraction_children(group: Group, point: Weight) -> list[SubtractionEdge]:
    """Subtraction edges leaving one point (empty if no coordinate is positive),
    with the int64-range and child guards of the closure."""
    group._own(point)
    if not point.is_ztau:
        raise DomainError(f"subtraction requires Z[tau] coordinates, got {point}")
    U, V = _step_matrices(group)
    frontier = _int_row(point)
    over_budget = (f"{point} has {{total}} subtraction children, "
                   "over the fixed budget of {budget}")
    root, _, sa, sb, n = _child_steps(frontier, _signs(frontier[:, 0::2], frontier[:, 1::2]),
                                      None, 8 * MAX_TREE_NODES, over_budget)
    k, root = _ranks(n), np.repeat(root, n)
    ma, mb = k * np.repeat(sa, n), k * np.repeat(sb, n)
    children = frontier[0] - ma[:, None] * U[root] - mb[:, None] * V[root]
    targets = _unflatten(group, children.tolist(), 1)
    return [SubtractionEdge(point, t, GoldenNumber(a, b), i + 1)
            for t, a, b, i in zip(targets, ma.tolist(), mb.tolist(), root.tolist())]


def _check_args(group: Group, seed: Weight, max_nodes: int) -> None:
    group._own_dominant(seed)
    _check_int(max_nodes, "max_nodes", 1)
    if group.tag not in _TREE_GROUPS:
        raise DomainError(f"weight systems are generated for {_TREE_GROUPS} only")
    if seed.is_zero:
        raise DomainError("seed must be nonzero")
    if not seed.is_ztau:
        raise DomainError(f"seed {seed} must have Z[tau] coordinates")


def _int_row(w: Weight) -> np.ndarray:
    """The flat row of a Z[tau] weight as a 1-row int64 array, held to the
    bound of :func:`_signs` on ``|2a + b|`` and ``|b|``."""
    parts = _flatten([w])[0][0]
    if max(max(abs(2 * a + b), abs(b)) for a, b in zip(parts[0::2], parts[1::2])) > _MAX_COORD:
        raise SizeLimitError(f"{w} exceeds the exact int64 range")
    return np.array([parts], dtype=np.int64)


def build_tree(group: Group, seed: Weight, max_nodes: int = MAX_TREE_NODES) -> SubtractionTree:
    """Breadth-first closure of a dominant Z[tau] seed under root subtraction.

    Nodes and edges come first in, first out.  The engine and its guards are
    those of :func:`weight_system_dominants`, without the cone pruning;
    ``max_nodes`` bounds the distinct points.  The tree keeps the closure's
    arrays and builds its records on first read (:class:`SubtractionTree`).
    """
    _check_args(group, seed, max_nodes)
    rows, counts, lower, edges = _closure(group, seed, max_nodes, tree=True)
    arrays = _TreeArrays(group, rows, counts, lower, edges)
    n_edges = len(arrays.source)
    return SubtractionTree(group, seed, _RecordList(arrays, "nodes", n_edges + 1),
                           _RecordList(arrays, "edges", n_edges),
                           _RecordDict(arrays, "arrivals", len(rows)),
                           _RecordList(arrays, "lower_dominants", len(lower)))


def weight_system_dominants(group: Group, seed: Weight,
                            max_nodes: int = MAX_TREE_NODES) -> list[tuple[Weight, int]]:
    """Lower-orbit dominants of a seed and their arrival counts.

    The closure of :func:`build_tree`, pruned exactly to the positive root
    cone and recording no edges (the seed counts ``max(1, arrivals)``).
    ``max_nodes`` bounds the points kept, and ``8 * max_nodes`` the children
    of one level; both guards are checked before a level's arrays are
    allocated, and the int64 range of the coordinates before it is expanded.
    """
    _check_args(group, seed, max_nodes)
    rows, counts, lower, _ = _closure(group, seed, max_nodes, tree=False)
    return _dominant_records(group, rows, counts, lower)


def _dominant_records(group: Group, rows: np.ndarray, counts: np.ndarray,
                      lower: np.ndarray) -> list[tuple[Weight, int]]:
    """The lower dominants ``rows[lower]`` with their counts ``max(1, arrivals)``."""
    return list(zip(_unflatten(group, rows[lower].tolist(), 1),
                    np.maximum(counts[lower], 1).tolist()))


def _step_matrices(group: Group) -> tuple[np.ndarray, np.ndarray]:
    """``U, V`` with subtracting ``(ma + mb*tau) * alpha_i`` from a flat row
    ``x`` giving ``x - ma*U[i] - mb*V[i]``."""
    width = 2 * group.rank
    U = np.zeros((group.rank, width), dtype=np.int64)
    V = np.zeros((group.rank, width), dtype=np.int64)
    for i, row in enumerate(group._int_rows):
        for j, ca, cb in row:
            U[i, 2 * j:2 * j + 2] = ca, cb
            V[i, 2 * j:2 * j + 2] = cb, ca + cb
    return U, V


def _coord_bound(group: Group, seed: Weight) -> int:
    """A bound on ``|a|`` and ``|b|`` over the coordinates ``a + b*tau`` of
    every point the closure of ``seed`` reaches, children included.

    A step ``x -> x - (k/g)*x_i*alpha_i`` ends on the segment ``[x, s_i x]``,
    so every point lies in the hull of the orbit ``W*seed``; ``k/g`` is
    rational, so its Galois conjugate lies in the hull of the conjugate orbit,
    whose Gram matrix is positive definite for H2, H3 and H4.  A coordinate is
    ``x_i = <x, alpha_i>`` with ``<alpha_i, alpha_i> = 2``, so ``|x_i| <= V =
    sqrt(2<seed,seed>)`` and ``|conj(x_i)| <= V'`` from the conjugate norm;
    then ``|b| <= (V + V')/sqrt5`` and ``|a| <= (tau*V' + V/tau)/sqrt5``.  The
    bound is attained on some seeds, so the floor is raised by one: float
    rounding, far below one unit here, must never lower it.
    """
    norm = group.inner(seed, seed)
    v, v_conj = (sqrt(max(0.0, 2 * float(n))) for n in (norm, norm.conjugate()))
    return floor(max(v + v_conj, _TAU_F * v_conj + v / _TAU_F) / sqrt(5)) + 1


def _closure(group: Group, seed: Weight, max_nodes: int, tree: bool):
    """The closure of a seed under root subtraction, one level at a time.

    A level travels as exact 1-D keys, in a format chosen once from
    :func:`_coord_bound`: when every reachable point fits the ``64 // width``
    bit lanes, packed rows, and as the packing is linear the children of a
    string (:func:`_child_steps`) have keys ``key(x) - k*step`` with ``step =
    sa*key(U_i) + sb*key(V_i)``, with no child row built, and the signs and
    the cone test take float64 coordinates, exact at those sizes; otherwise
    each level's children are built as rows, keyed by their raw bytes and
    tested on integer pairs, and each frontier is held to the int64 range.
    Sorting the keys deduplicates a level against the sorted keys visited
    before.  Each point is expanded once, so its arrival count is the number
    of times it is emitted as a child.

    One visited set serves both modes: a main and a recent sorted run.  A
    level's new keys are merged into the recent run, which is merged into
    the main run once it holds a quarter as many keys (O'Neil et al., "The
    log-structured merge-tree", Acta Inf. 33, 1996), so a key is copied a
    few times, not once per level.  Dominants mode prunes to the positive
    root cone and keeps its dominant points apart, as sorted keys with a
    count array.  Tree mode keeps every point and numbers it first in,
    first out: a level's children come by parent, root index and multiple,
    so its new points are numbered in the order of their first occurrence.
    Its edges keep their child keys, and one sort of the numbered keys at
    the end turns each into a point number.  Returns ``(rows, counts,
    lower, edges)``: the dominant rows (tree mode: every point's row, by
    number), their arrival counts, the positions of the lower dominants in
    listing order, and in tree mode the edges ``(source, target, ma, mb,
    root, first_visit)`` as arrays.
    """
    width = 2 * group.rank
    U, V = _step_matrices(group)
    adj = _adj_arrays(group)
    det = (int(group.cartan_det.rat), int(group.cartan_det.tau))

    frontier = _int_row(seed)
    bits = _key_bits(width, _coord_bound(group, seed))
    if bits is not None:
        # key(x) = sum((x_l + offset) << shift_l) is linear in x; int64
        # wrap-around cancels because every child key is in range
        key_u, key_v = ((M << _lane_shifts(bits, width)).sum(axis=1) for M in (U, V))
        gram = np.array(group.gram, dtype=float)
    keys, counts, seen = _row_keys(frontier, bits), np.zeros(1, dtype=np.int64), 1
    # the visited keys as two sorted runs; dominants mode keeps its dominant
    # points apart, as sorted keys with arrival counts
    main = recent = dom_keys = keys[:0]
    dom_counts = counts[:0]
    # tree mode: the dominance and keys of each level's points, and its edges
    levels, events = [], []
    while len(frontier):
        if bits is not None:
            # a static float filter (Shewchuk, DCG 18, 1997): a nonzero a + b*tau
            # with |a|, |b| <= M has a nonzero integer field norm, so it is at
            # least 1/((1 + 1/tau)*M), while the float64 a + b*TAU_F errs by
            # under 6*M*2**-53; with every part below 2**15 its sign is exact,
            # and zero gives 0.0.  The root coordinates decide the cone exactly
            # (see _CONE_EPS).
            signs = frontier[:, 0::2] + frontier[:, 1::2] * _TAU_F
            roots = None if tree else signs @ gram
        else:
            signs = _signs(frontier[:, 0::2], frontier[:, 1::2])
            roots = None if tree else (_adj_times(frontier, adj), det)
        # column by column: numpy reduces the short rows far more slowly
        dominant = np.logical_and.reduce([column >= 0 for column in signs.T])
        if tree:
            levels.append((dominant, keys))
        else:
            at = np.searchsorted(dom_keys, keys[dominant])
            dom_keys = np.insert(dom_keys, at, keys[dominant])
            dom_counts = np.insert(dom_counts, at, counts[dominant])
        # dominants mode's keys are sorted (tree mode's come first in, first
        # out), so the stable sort is a linear merge; sorting in place holds
        # no third copy of the main run
        recent = np.concatenate([recent, keys if tree else keys[~dominant]])
        recent.sort(kind="stable")
        if 4 * len(recent) >= len(main):
            main, recent = np.concatenate([main, recent]), recent[:0]
            main.sort(kind="stable")
        root, parent, sa, sb, n = _child_steps(frontier, signs, roots,
                                               budget=8 * max_nodes - seen)
        if not len(n):
            break
        k = _ranks(n)
        if bits is not None:
            step = sa * key_u[root] + sb * key_v[root]
            keys = np.repeat(keys[parent], n) - k * np.repeat(step, n)
        else:
            step = sa[:, None] * U[root] + sb[:, None] * V[root]
            keys = _row_keys(np.repeat(frontier[parent], n, axis=0)
                             - k[:, None] * np.repeat(step, n, axis=0), None)
        if tree:
            # the frontier holds the points numbered last
            events.append((seen - len(frontier) + np.repeat(parent, n), keys,
                           k * np.repeat(sa, n), k * np.repeat(sb, n), np.repeat(root, n)))
        # tree mode: the first position of each key among the children;
        # dominants mode: its count
        keys, counts = np.unique(keys, return_index=tree, return_counts=not tree)
        for run in (main, recent):
            new = _missing(run, keys, np.searchsorted(run, keys))
            keys, counts = keys[new], counts[new]
        if tree:
            # the children come by parent, then root index and multiple, so
            # new points are numbered first in, first out
            keys = keys[np.argsort(counts)]
        else:
            # a revisited dominant was tallied when it was new
            at = np.searchsorted(dom_keys, keys)
            hit = ~_missing(dom_keys, keys, at)
            dom_counts[at[hit]] += counts[hit]
            keys, counts = keys[~hit], counts[~hit]
        seen += len(keys)
        if seen > max_nodes:
            raise SizeLimitError(f"weight system exceeds {max_nodes} nodes; {_RAISE_MAX_NODES}")
        frontier = _unpack_keys(keys, bits, width)

    if not tree:
        rows = _unpack_keys(dom_keys, bits, width)
        return rows, dom_counts, _listing_order(rows, adj), None
    # a nonzero dominant seed has a positive coordinate, so there are edges
    dominant, numbered = (np.concatenate(column) for column in zip(*levels))
    source, children, ma, mb, root = (np.concatenate(column) for column in zip(*events))
    # every key is an exact packing of its row, or the row's bytes
    rows = _unpack_keys(numbered, bits, width)
    order = np.argsort(numbered)
    target = order[np.searchsorted(numbered, children, sorter=order)]
    # points are numbered in the order of their first visits, and no edge
    # returns to the seed, point 0
    first = np.diff(np.maximum.accumulate(target), prepend=0) > 0
    lower = np.flatnonzero(dominant)
    return (rows, np.bincount(target, minlength=len(rows)),
            lower[_listing_order(rows[lower], adj)], (source, target, ma, mb, root, first))


def _listing_order(rows: np.ndarray, adj) -> np.ndarray:
    """Positions of int64 rows in the order of :func:`horbits.orbits._norm_order`."""
    return np.array(_norm_order(rows.tolist(), _det_norms(rows, adj)), dtype=np.int64)


def _det_norms(rows, adj) -> list[tuple[int, int]]:
    """``cartan_det * <x,x>`` of each flat integer row ``x``, as exact pairs ``(a, b)``.

    ``rows`` is an int64 array or a sequence of rows of Python ints, and
    ``adj`` is :func:`_adj_arrays` of their group.
    """
    if not isinstance(rows, np.ndarray):
        try:
            rows = np.array(rows, dtype=np.int64)
        except OverflowError:
            rows = np.array(rows, dtype=object)
        rows = rows.reshape(-1, 2 * len(adj[0]))
    # |det * <x,x>| <= 8 * rank**2 * max|adj| * max|x|**2; past int64, use Python ints
    bound = 2 * rows.shape[1] ** 2 * max(map(_max_abs, adj)) * _max_abs(rows) ** 2
    exact = rows.astype(object) if bound >= 1 << 63 else rows
    roots_a, roots_b = _adj_times(exact, adj)
    a, b = exact[:, 0::2], exact[:, 1::2]
    return list(zip((a * roots_a + b * roots_b).sum(axis=1).tolist(),
                    (a * roots_b + b * roots_a + b * roots_b).sum(axis=1).tolist()))


# |2a + b| and |b| up to 2**30 keep the squares taken by _signs below 2**63.
# Seeds and, through _signs, the rows of every frontier are held to that bound
# (so |a| <= 2**30 too; integer seed coordinates go up to 2**29), so their
# children (below 5 * 2**30) and their root coordinates times det (adjugate
# and det parts are below 8 for H2, H3, H4) stay far inside int64 before
# they are checked: a new child is checked as a row of the next frontier,
# and a revisited one equals a row checked before.
_MAX_COORD = 1 << 30
# In the key regime a string of step s from a parent with root coordinate
# r_i keeps n = min(g, floor((r_i + _CONE_EPS)/s)) children, in float64.
# With parts below B = 2**15, 2**9, 2**7 (H2, H3, H4), det*(r_i - k*s) has
# parts below 7B, 14B, 26B, so a nonzero cone value is at least delta =
# 1.9e-6.  _CONE_EPS exceeds the float errors of r_i and k*s plus one
# rounding of r_i (below 1.9e-10), so every k inside the cone is counted; and
# (delta - _CONE_EPS - those errors) / ((1 + tau)*B) exceeds B*2**-53, the
# rounding of the quotient, so no k outside it is (every bound is computed in
# the tests; H2 has the least margin, a factor of 6).
_CONE_EPS = 1e-8


def _signs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact elementwise sign (-1, 0, +1) of a + b*tau for int64 arrays, from
    the signs of ``2a + b`` and ``b`` and, when they differ, of the squares.
    Every caller tests points of a weight system or their root coordinates,
    so an out-of-range input raises the closure's int64-range error."""
    s = 2 * a + b  # a + b*tau = (s + b*sqrt5) / 2
    if max(_max_abs(s), _max_abs(b)) > _MAX_COORD:
        raise SizeLimitError(_OUT_OF_RANGE)
    sign_s = np.sign(s)
    sign_b = np.sign(b)
    return np.where(sign_s * sign_b < 0,
                    sign_s * np.sign(s * s - 5 * b * b),
                    np.sign(sign_s + sign_b))


def _max_abs(x: np.ndarray) -> int:
    """``max |x|`` over an integer array (0 if empty) with no ``np.abs`` copy;
    negating a Python int cannot wrap at the int64 minimum."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _adj_arrays(group: Group) -> tuple[np.ndarray, np.ndarray]:
    """The integer adjugate of the Cartan matrix as the arrays ``(adj_a, adj_b)``
    of its integer pairs."""
    return tuple(np.moveaxis(np.array(group._adjugate_int, dtype=np.int64), 2, 0))


def _adj_times(rows: np.ndarray, adj) -> tuple[np.ndarray, np.ndarray]:
    """``adjugate @ x`` for each flat row x, as integer pairs ``(a, b)``:
    the root coordinates of x times ``cartan_det``."""
    a = rows[:, 0::2]
    b = rows[:, 1::2]
    adj_a, adj_b = adj
    return a @ adj_a.T + b @ adj_b.T, b @ adj_a.T + (a + b) @ adj_b.T


def _missing(keys: np.ndarray, probe: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Mask of ``probe`` values absent from the sorted ``keys``, given
    ``pos = np.searchsorted(keys, probe)``."""
    if not len(keys):
        return np.ones(len(probe), dtype=bool)
    # a probe past the last key meets the last key, which is smaller
    return keys[np.minimum(pos, len(keys) - 1)] != probe


def _child_steps(frontier: np.ndarray, signs: np.ndarray, roots, budget: int,
                 over_budget: str = _LEVEL_OVER_BUDGET):
    """Subtraction strings of the frontier rows, as arrays ``(root, parents,
    sa, sb, n)`` with one entry per string.

    Row ``x = frontier[parents[j]]``, whose coordinate ``x_i = a + b*tau``
    (``i = root[j]``) is positive, with ``g = gcd(|a|, |b|)``, has the string
    of children ``x - k*s*alpha_i``, ``s = sa[j] + sb[j]*tau = x_i/g``, for
    ``k = 1..n[j]``; strings come by parent, then root, in one pass over the
    positive coordinates, and those with no child are left out.  ``signs``
    holds the signs of the frontier coordinates, or float64 values with
    those signs.  Without ``roots``, ``n = g``.  With ``roots``, the root
    coordinates of the frontier, only the children in the positive root
    cone are kept: subtracting ``k*s*alpha_i`` lowers only root coordinate
    ``r_i``, by ``k*s``, so they are the prefix ``k <= r_i/s`` of the
    string, and a point outside the cone never reaches a dominant point
    again.  The prefix is exact: counted
    on integer pairs when ``roots`` is ``((ra, rb), (da, db))``
    (:func:`_adj_times`, ``cartan_det``), and ``n = min(g, floor((r_i +
    _CONE_EPS)/s))`` in float64 when ``roots`` is a float array, for rows of
    the packed-key regime (see ``_CONE_EPS``).  The string lengths ``g`` are
    checked against ``budget`` before any step array is allocated;
    ``over_budget`` is the message, with fields ``total`` and ``budget``.
    """
    # np.nonzero reads row by row: by parent, then root
    parents, root = np.nonzero(signs > 0)
    # one flat gather per part from the frontier's columns (a view of the
    # column-major frontiers of _unpack_keys) beats 2-D indexing
    columns, at = frontier.T.ravel(), 2 * len(frontier) * root + parents
    fa, fb = columns[at], columns[at + len(frontier)]
    g = np.gcd(fa, fb)
    total = int(g.sum())
    if total > budget:
        raise SizeLimitError(over_budget.format(total=total, budget=budget))
    # exact: g divides parts below 2**31, and float64 division rounds correctly
    sa = (fa / g).astype(np.int64)
    sb = (fb / g).astype(np.int64)
    del fa, fb, at
    if roots is None:
        n = g
    elif isinstance(roots, tuple):
        ((ra, rb), (da, db)), k = roots, _ranks(g)
        reps = np.repeat(np.arange(len(g)), g)
        ma, mb, cells = k * sa[reps], k * sb[reps], (parents[reps], root[reps])
        inside = _signs(ra[cells] - (da * ma + db * mb),
                        rb[cells] - (da * mb + db * ma + db * mb)) >= 0
        n = np.bincount(reps[inside], minlength=len(g))
    else:
        # (r_i + _CONE_EPS) / (sa + sb*tau), in place, and n in place of g;
        # astype truncates: the floor of a quotient >= 0, and below 1 either way
        quotient = roots[parents, root]
        quotient += _CONE_EPS
        quotient /= sb * _TAU_F + sa
        n = np.minimum(g, quotient.astype(np.int64), out=g)
        del quotient
    # the strings with a child; an index array gathers faster than a mask
    keep = np.flatnonzero(n > 0)
    return root[keep], parents[keep], sa[keep], sb[keep], n[keep]


def _ranks(n: np.ndarray) -> np.ndarray:
    """``1, ..., n[j]`` for each string ``j`` in turn: the multiples ``k`` of
    its children (:func:`_child_steps`)."""
    return np.arange(1, n.sum() + 1) - np.repeat(np.cumsum(n) - n, n)


def _key_bits(width: int, bound: int) -> int | None:
    """Lane width that packs rows bounded by ``bound`` into int64 keys, or None."""
    bits = 64 // width
    return bits if bound < 1 << (bits - 1) else None


def _lane_shifts(bits: int, width: int) -> np.ndarray:
    """Bit offset of each lane of the packed keys, first lane highest."""
    return np.arange(width - 1, -1, -1, dtype=np.int64) * bits


def _row_keys(rows: np.ndarray, bits: int | None) -> np.ndarray:
    """Exact 1-D keys for int64 rows: packed lanes of ``bits`` bits each, or
    the raw row bytes when ``bits`` is None."""
    if bits is None:
        rows = np.ascontiguousarray(rows)
        return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    keys = np.zeros(len(rows), dtype=np.int64)
    offset = 1 << (bits - 1)
    for lane in range(rows.shape[1]):
        keys = (keys << bits) | (rows[:, lane] + offset)
    return keys


def _unpack_keys(keys: np.ndarray, bits: int | None, width: int) -> np.ndarray:
    """Inverse of :func:`_row_keys`; packed keys unpack column by column, to
    a column-major array."""
    if bits is None:
        return np.ascontiguousarray(keys).view(np.int64).reshape(-1, width)
    mask, offset = (1 << bits) - 1, 1 << (bits - 1)
    return (((keys >> _lane_shifts(bits, width)[:, None]) & mask) - offset).T


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct int64 rows of ``rows`` and ``inverse``: ``distinct[inverse] == rows``."""
    bits = _key_bits(rows.shape[1], _max_abs(rows))
    keys, inverse = np.unique(_row_keys(rows, bits), return_inverse=True)
    return _unpack_keys(keys, bits, rows.shape[1]), inverse.reshape(-1)


def _pair_columns(rows: np.ndarray, convert) -> np.ndarray:
    """``convert`` of each coordinate pair of flat integer rows, one column per
    coordinate; ``convert`` maps an int64 array of distinct pairs to one value each.

    The pairs are made distinct a coordinate at a time and then among those
    found, so ``convert`` sees each distinct pair once, and no sort runs
    over all coordinates of all points: its arrays would be several times
    the size of the rows.
    """
    found = [_distinct_rows(rows[:, i:i + 2].astype(np.int64, copy=False))
             for i in range(0, rows.shape[1], 2)]
    distinct, inverse = _distinct_rows(np.concatenate([pairs for pairs, _ in found]))
    values = convert(distinct)[inverse]
    ends = accumulate(len(pairs) for pairs, _ in found)
    return np.column_stack([values[end - len(pairs):end][at]
                            for (pairs, at), end in zip(found, ends)])


# ---------------------------------------------------------------------------
# closed-form catalogue of lower-orbit dominants for the six H3 seed families


def _fl(x) -> int:
    return floor(Fraction(x))


def _family_a00(a):
    rows = [(a - 2 * k, k, 0) for k in range(0, a // 2 + 1)]
    if a % 2 == 0:
        rows.append((0, Fraction(a, 2) * (TAU - 1), 0))
    if a % 2 == 1 and a > 3:
        rows.append((0, (a // 2) * TAU - _fl(Fraction(a + 2, 2)), TAU))
    return rows


def _family_0a0(a):
    rows = [(k, a - 2 * k, k * TAU) for k in range(0, a // 2 + 1)]
    if a % 2 == 0:
        half = Fraction(a, 2)
        rows.append((0, 0, 0))
        rows.append((half * (TAU - 1), 0, half))
        rows.append((a, half * (TAU - 1), 0))
    if a % 2 == 1 and a > 3:
        drop = (a // 2) * TAU - _fl(Fraction(a + 2, 2))
        rows.append((drop, TAU + 1, (a // 2) - TAU))
        rows.append((a, drop, TAU))
    return rows


def _family_00a(a):
    rows = [(0, k * TAU, a - 2 * k) for k in range(0, a // 2 + 1)]
    if a % 2 == 0:
        half = Fraction(a, 2)
        rows.append((0, half * (TAU - 1), 0))
        rows.append((half * TAU, 0, half * (TAU - 1)))
    if a % 2 == 1 and a > 3:
        drop = (a // 2) * TAU - _fl(Fraction(a + 2, 2))
        rows.append(((a // 2) * TAU, TAU, drop))
        rows.append((TAU + 1, drop, 0))
    return rows


def _family_aa0(a):
    rows = [(a, a, 0), (0, 0, a * TAU), (a, a * (TAU - 1), 0)]
    if a > 1:
        for k in range(1, a // 2 + 1):
            rows.append((a - 2 * k, a + k, 0))
            rows.append((a + k, a - 2 * k, k * TAU))
    if a % 2 == 0:
        half = Fraction(a, 2)
        rows.append((half * (2 * TAU - 1), 0, half * (2 - TAU)))
        rows.append((0, half * (TAU - 1), 0))
        rows.append((half * 4, half * (TAU - 1), 0))
        rows.append((0, half * (2 - TAU), a))
    if a > 4:
        rows.append((a, (a - 1) * TAU - (a + 1), 2 * TAU))
    if a % 2 == 1 and a > 3:
        drop = (a // 2) * TAU - _fl(Fraction(a, 2) + 1)
        rows.append((2 * a, drop, TAU))
        rows.append((0, drop, TAU))
    if a > 8:
        rows.append((a, (a - 2) * TAU - (a + 2), 4 * TAU))
    return rows


def _family_a0a(a):
    rows = [(a, 0, a), (a * TAU, 0, 0)]
    if a > 1:
        for k in range(1, a // 2 + 1):
            rows.append((a - 2 * k, k, a))
            rows.append((a, k * TAU, a - 2 * k))
    if a % 2 == 1 and a > 1:
        for k in range(0, (a - 2) // 4 + 1):
            rows.append((0, (a - 2 * k - 1) * TAU - _fl(Fraction(a, 2) + k + 1),
                         (2 * k + 1) * (TAU + 1)))
    if a % 2 == 0:
        half = Fraction(a, 2)
        rows.append((0, half, 0))
        rows.append((half * (TAU + 2), 0, half * (TAU - 1)))
        rows.append((half, 0, half * (2 - TAU)))
        rows.append((half * (TAU - 1), 0, half * (2 * TAU - 1)))
        for k in range(0, a // 4 + 1):
            rows.append((0, (a - 2 * k) * TAU - half - k, 2 * k * (TAU + 1)))
    if a % 2 == 1 and a > 1:
        rows.append((TAU + 2, (a // 2) * TAU - 1, 0))
    if a % 2 == 1 and a > 3:
        drop = (a // 2) * TAU - _fl(Fraction(a, 2) + 1)
        rows.append(((a // 2) * TAU + a, TAU, drop))
        rows.append((drop, TAU + 1, (a - 1) * TAU - _fl(Fraction(a, 2) + 1)))
    if a % 2 == 0 and a > 4:
        rows.append((2 * TAU + 4, (Fraction(a, 2) - 1) * TAU - 2, 0))
    if a % 2 == 1 and a > 5:
        rows.append((3 * TAU + 6, _fl(Fraction(a, 2) - 1) * TAU - 3, 0))
    return rows


def _family_0aa(a):
    rows = [(0, a, a), (a * (TAU + 1), 0, 0)]
    if a > 1:
        for k in range(1, a // 2 + 1):
            rows.append((k, a - 2 * k, k * TAU + a))
            rows.append((0, k * TAU + a, a - 2 * k))
    if a % 2 == 0:
        half = Fraction(a, 2)
        rows.append((0, 0, a))
        rows.append((half * (2 * TAU - 1), 0, half * TAU))
        rows.append((0, half * (TAU - 1), 0))
        for k in range(0, a // 4 + 1):
            rows.append(((half - k) * (TAU + 1), 2 * k * (TAU + 1),
                         (a - 2 * k) * TAU - _fl(half + k)))
            rows.append((a, (a - 2 * k) * TAU - half - k, 2 * k * (TAU + 1)))
    if a % 2 == 1 and a > 1:
        for k in range(0, (a - 3) // 4 + 1):
            rows.append((_fl(Fraction(a, 2) - k) * (TAU + 1),
                         (2 * k + 1) * (TAU + 1),
                         (a - 2 * k - 1) * TAU - _fl(Fraction(a, 2) + k + 1)))
            rows.append((a,
                         (a - 2 * k - 1) * TAU - _fl(Fraction(a, 2) + k + 1),
                         (2 * k + 1) * (TAU + 1)))
    if a % 2 == 1 and a > 3:
        rows.append(((a - 1) * TAU - _fl(Fraction(a, 2) + 1), 2 * TAU + 1,
                     _fl(Fraction(a, 2) - 1) * TAU - 1))
    return rows


_FAMILIES = {
    "(a,0,0)": _family_a00,
    "(0,a,0)": _family_0a0,
    "(0,0,a)": _family_00a,
    "(a,a,0)": _family_aa0,
    "(a,0,a)": _family_a0a,
    "(0,a,a)": _family_0aa,
}


def closed_form_lower_orbits(family: str, a: int) -> set[Weight]:
    """Evaluate the closed-form lower-orbit catalogue rows for one family.

    ``family`` is one of ``(a,0,0)``, ``(0,a,0)``, ``(0,0,a)``, ``(a,a,0)``,
    ``(a,0,a)``, ``(0,a,a)`` and ``1 <= a <= 9``.  Row conditions are honored
    literally; the output is meant for cross-checking :func:`build_tree`.
    """
    key = family.replace(" ", "")
    if key not in _FAMILIES:
        raise DomainError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
    _check_int(a, "a", 1)
    if a > 9:
        raise DomainError("family parameter must be in 1..9")
    return {Weight(H3, tuple(v if isinstance(v, GoldenNumber) else GoldenNumber(Fraction(v))
                             for v in row)) for row in _FAMILIES[key](a)}


# ---------------------------------------------------------------------------
# export


class _Table(NamedTuple):
    """A tree as a writer reads it, once: points are numbered, and the
    points first visited come first, in order."""

    points: list[tuple[str, ...]]  # coordinate texts of each point
    arrivals: list[int]  # arrival count of each point first visited
    nodes: Iterable[tuple[int, bool]]  # (point, first_visit)
    edges: Iterable[tuple[int, int, str, int]]  # (source, target, multiple text, root index)
    dominants: Iterable[tuple[int, int]]  # (point, count)


def _pair_texts(pairs: np.ndarray, denom: int = 1) -> np.ndarray:
    """The canonical text of ``(a + b*tau) / denom`` for each int64 row
    ``(a, b)``, as an object array; :func:`_pair_columns` gives it each
    distinct pair once."""
    return np.array([str(GoldenNumber(Fraction(a, denom), Fraction(b, denom)))
                     for a, b in pairs.tolist()], dtype=object)


def _table(tree: SubtractionTree) -> _Table:
    """The index table of a tree: from its arrays while all its record
    fields are the views :func:`build_tree` made, else from its records."""
    views = [getattr(tree, name) for name in _RECORD_FIELDS]
    arrays = getattr(views[0], "_source", None)
    if all(isinstance(v, _Records) and v._source is arrays for v in views):
        return arrays.table()
    index: dict[Weight, int] = {}
    points = []

    def point(w: Weight) -> int:
        k = index.get(w)
        if k is None:
            k = index[w] = len(points)
            points.append(w.texts())
        return k

    # a point's first visit precedes its revisits, so the points first
    # visited are numbered first, in order
    nodes = [(point(n.weight), n.first_visit) for n in tree.nodes]
    return _Table(
        points,
        [tree.arrivals[n.weight] for n in tree.nodes if n.first_visit],
        nodes,
        [(point(e.source), point(e.target), str(e.multiple), e.root_index)
         for e in tree.edges],
        [(point(w), c) for w, c in tree.lower_dominants],
    )


def tree_to_dot(tree: SubtractionTree) -> str:
    """DOT rendering: one node per distinct weight, revisited weights in gray.

    Nodes are named ``n0, n1, ...`` in first-visit order; edges are labeled
    ``multiple·α<root index>``.
    """
    table = _table(tree)
    lines = ["digraph weight_system {", "  rankdir=TB;", "  node [shape=box];"]
    lines += [f'  n{k} [label="({",".join(texts)})"'
              f'{" color=gray fontcolor=gray" if count > 1 else ""}];'
              for k, (texts, count) in enumerate(zip(table.points, table.arrivals))]
    lines += [f'  n{source} -> n{target} [label="{multiple}·α{root}"];'
              for source, target, multiple, root in table.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_list(items: list[str], indent: int) -> str:
    """``json.dumps(items, indent=2)`` for a list nested ``indent`` spaces deep."""
    if not items:
        return "[]"
    pad = " " * indent
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def tree_to_json(tree: SubtractionTree) -> str:
    """JSON of the tree: group, seed, node and edge records, lower dominants.

    Byte for byte ``json.dumps(payload, indent=2) + "\n"``, written from
    templates: each point's coordinate block is rendered once and shared by
    all node and edge records that hold it.  Numbers are quoted as they are:
    their canonical text (:func:`horbits.golden.parse_golden`) has only the
    characters ``0-9 + - / t``, none of which JSON escapes.
    """
    table = _table(tree)
    # _json_list of the quoted texts, six spaces deep
    blocks = ['[\n        "' + '",\n        "'.join(texts) + '"\n      ]'
              for texts in table.points]
    # each record list is joined as soon as it is built, so the records and
    # the finished text are never held at once
    nodes = _json_list([
        f'{{\n      "coords": {blocks[k]},'
        f'\n      "first_visit": {"true" if first else "false"}\n    }}'
        for k, first in table.nodes
    ], 2)
    edges = _json_list([
        f'{{\n      "from": {blocks[source]},\n      "to": {blocks[target]},'
        f'\n      "multiple": "{multiple}",\n      "root_index": {root}\n    }}'
        for source, target, multiple, root in table.edges
    ], 2)
    dominants = _json_list([
        f'{{\n      "coords": {blocks[k]},\n      "count": {count}\n    }}'
        for k, count in table.dominants
    ], 2)
    return (
        '{\n  "group": %s,\n  "seed": %s,\n  "nodes": %s,\n  "edges": %s,'
        '\n  "lower_dominants": %s\n}\n'
        % (json.dumps(tree.group.tag),
           _json_list(['"%s"'] * tree.group.rank, 2) % tree.seed.coords,
           nodes, edges, dominants)
    )
