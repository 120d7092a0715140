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
from dataclasses import dataclass
from fractions import Fraction
from math import floor, sqrt

import numpy as np

from .errors import (
    MAX_TREE_NODES,
    _RAISE_MAX_NODES,
    DomainError,
    NonDominantError,
    SizeLimitError,
)
from .golden import GoldenNumber, TAU
from .groups import Group, Weight, H3, _flatten, _unflatten
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
    group: Group
    seed: Weight
    nodes: list[SubtractionNode]
    edges: list[SubtractionEdge]
    arrivals: dict[Weight, int]
    lower_dominants: list[tuple[Weight, int]]

    def node_weights(self) -> set[Weight]:
        return {n.weight for n in self.nodes if n.first_visit}

    def terminals(self) -> list[Weight]:
        sources = {e.source for e in self.edges}
        return [n.weight for n in self.nodes
                if n.first_visit and n.weight not in sources]

    def dominant_weights(self) -> set[Weight]:
        return {w for w, _ in self.lower_dominants}


def subtraction_children(group: Group, point: Weight) -> list[SubtractionEdge]:
    """Subtraction edges leaving one point (empty if no coordinate is positive),
    with the int64-range and child guards of the closure."""
    group._own(point)
    if not point.is_ztau:
        raise DomainError(f"subtraction requires Z[tau] coordinates, got {point}")
    U, V = _step_matrices(group)
    frontier = _int_row(point)
    edges = []
    over_budget = (f"{point} has {{total}} subtraction children, "
                   "over the fixed budget of {budget}")
    for i, _, ma, mb in _child_steps(frontier, _signs(frontier[:, 0::2], frontier[:, 1::2]),
                                     None, None, 8 * MAX_TREE_NODES, over_budget):
        children = frontier[0] - ma[:, None] * U[i] - mb[:, None] * V[i]
        targets = _unflatten(group, children.tolist(), 1)
        edges += [SubtractionEdge(point, t, GoldenNumber(a, b), i + 1)
                  for t, a, b in zip(targets, ma.tolist(), mb.tolist())]
    return edges


def _check_seed(group: Group, seed: Weight) -> None:
    group._own(seed)
    if group.tag not in _TREE_GROUPS:
        raise DomainError(f"weight systems are generated for {_TREE_GROUPS} only")
    if not seed.is_dominant:
        raise NonDominantError(f"seed {seed} is not dominant")
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
    ``max_nodes`` bounds the distinct points.
    """
    _check_seed(group, seed)
    rows, arrivals, lower, (source, target, ma, mb, root, first) = \
        _closure(group, seed, max_nodes, tree=True)
    # one Weight per distinct point, one GoldenNumber per distinct multiple
    weights = _unflatten(group, rows.tolist(), 1)
    target, ma, mb = target.tolist(), ma.tolist(), mb.tolist()
    multiples = {pair: GoldenNumber(*pair) for pair in set(zip(ma, mb))}
    edges = [SubtractionEdge(weights[s], weights[t], multiples[a, b], i + 1)
             for s, t, a, b, i in zip(source.tolist(), target, ma, mb, root.tolist())]
    nodes = [SubtractionNode(weights[0], True)]
    nodes += [SubtractionNode(weights[t], f) for t, f in zip(target, first.tolist())]
    counts = arrivals.tolist()
    return SubtractionTree(group, seed, nodes, edges, dict(zip(weights, counts)),
                           [(weights[k], max(1, counts[k])) for k in lower.tolist()])


def weight_system_dominants(group: Group, seed: Weight,
                            max_nodes: int = MAX_TREE_NODES) -> list[tuple[Weight, int]]:
    """Lower-orbit dominants of a seed and their arrival counts.

    The closure of :func:`build_tree`, pruned exactly to the positive root
    cone and recording no edges (the seed counts ``max(1, arrivals)``).
    ``max_nodes`` bounds the points kept, and ``8 * max_nodes`` the children
    of one level; both guards, and the int64 range of the coordinates, are
    checked before the arrays are allocated.
    """
    _check_seed(group, seed)
    rows, counts, lower, _ = _closure(group, seed, max_nodes, tree=False)
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
    tau = float(TAU)
    return floor(max(v + v_conj, tau * v_conj + v / tau) / sqrt(5)) + 1


def _closure(group: Group, seed: Weight, max_nodes: int, tree: bool):
    """The closure of a seed under root subtraction, one level at a time.

    A level travels as exact 1-D keys, in a format chosen once from
    :func:`_coord_bound`: when every reachable point fits the int64 lanes,
    packed rows, and as the packing is linear a child's key is ``key(x) -
    ma*key(U_i) - mb*key(V_i)``, with no child row built; otherwise each
    level's children are built as rows, held to the int64 range and keyed by
    their raw bytes.  Sorting the keys deduplicates a level against a global
    sorted visited array.  Each point is expanded once, so its arrival count
    is the number of times it is emitted as a child.

    Dominants mode prunes to the positive root cone and tallies the dominant
    points in a sorted key array with a count array.  Tree mode keeps every
    point and numbers it first in, first out: a level's children are put in
    order of parent, root index and multiple, so a point's first visit is
    the first occurrence of its key.  Returns ``(rows, counts, lower,
    edges)``: the dominant rows (tree mode: every point's row, by number),
    their arrival counts, the positions of the lower dominants in listing
    order, and in tree mode the edges ``(source, target, ma, mb, root,
    first_visit)`` as arrays.
    """
    width = 2 * group.rank
    U, V = _step_matrices(group)
    adj = _adj_arrays(group)
    det = (int(group.cartan_det.rat), int(group.cartan_det.tau))

    frontier = _int_row(seed)
    signs = _signs(frontier[:, 0::2], frontier[:, 1::2])
    bits = _key_bits(width, _coord_bound(group, seed))
    if bits is not None:
        # key(x) = sum((x_l + offset) << shift_l) is linear in x; int64
        # wrap-around cancels because every child key is in range
        key_u, key_v = ((M << _lane_shifts(bits, width)).sum(axis=1) for M in (U, V))
    keys = visited = _row_keys(frontier, bits)
    if tree:
        # the number of each visited key; the rows and the edges of each level
        ids = np.zeros(1, dtype=np.int64)
        levels, events = [frontier], []
    else:
        # the dominants met so far (the seed is one), as sorted keys and counts
        dom_keys = visited
        dom_counts = np.zeros(1, dtype=np.int64)
    while len(frontier):
        steps = _child_steps(frontier, signs, None if tree else _adj_times(frontier, adj),
                             det, budget=8 * max_nodes - len(visited))
        if not steps:
            break
        if bits is not None:
            keys = np.concatenate([keys[p] - ma * key_u[i] - mb * key_v[i]
                                   for i, p, ma, mb in steps])
        else:
            children = np.concatenate([frontier[p] - ma[:, None] * U[i] - mb[:, None] * V[i]
                                       for i, p, ma, mb in steps])
            a, b = children[:, 0::2], children[:, 1::2]
            if _sign_range(2 * a + b, b) > _MAX_COORD:
                raise SizeLimitError(_OUT_OF_RANGE)
            keys = _row_keys(children, None)
        if tree:
            root = np.repeat([i for i, *_ in steps], [len(p) for _, p, _, _ in steps])
            parent, ma, mb = (np.concatenate(column) for column in list(zip(*steps))[1:])
            # first in, first out: by parent, then root index, then multiple
            order = np.argsort(parent, kind="stable")
            keys, root, parent, ma, mb = (a[order] for a in (keys, root, parent, ma, mb))
            # equal keys are equal rows; new keys are numbered in the order
            # of their first occurrence
            keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            pos = np.searchsorted(visited, keys)
            new = _missing(visited, keys, pos)
            fresh = np.flatnonzero(new)[np.argsort(first[new])]
            number = np.empty(len(keys), dtype=np.int64)
            number[~new] = ids[pos[~new]]
            number[fresh] = len(visited) + np.arange(len(fresh))
            visits = new[inverse] & (first[inverse] == np.arange(len(inverse)))
            # the frontier holds the points numbered last
            events.append((len(visited) - len(frontier) + parent, number[inverse],
                           ma, mb, root, visits))
            ids = np.insert(ids, pos[new], number[new])
        else:
            keys, counts = np.unique(keys, return_counts=True)
            pos = np.searchsorted(visited, keys)
            new = _missing(visited, keys, pos)
            # a revisited dominant was tallied when it was new
            old = keys[~new]
            at = np.searchsorted(dom_keys, old)
            hit = ~_missing(dom_keys, old, at)
            dom_counts[at[hit]] += counts[~new][hit]
        visited = np.insert(visited, pos[new], keys[new])
        if len(visited) > max_nodes:
            raise SizeLimitError(f"weight system exceeds {max_nodes} nodes; {_RAISE_MAX_NODES}")
        keys = keys[fresh] if tree else keys[new]
        frontier = _unpack_keys(keys, bits, width)
        signs = _signs(frontier[:, 0::2], frontier[:, 1::2])
        if tree:
            levels.append(frontier)
        else:
            dominant = (signs >= 0).all(axis=1)
            at = np.searchsorted(dom_keys, keys[dominant])
            dom_keys = np.insert(dom_keys, at, keys[dominant])
            dom_counts = np.insert(dom_counts, at, counts[new][dominant])

    if not tree:
        rows = _unpack_keys(dom_keys, bits, width)
        return rows, dom_counts, _listing_order(rows, adj), None
    # a nonzero dominant seed has a positive coordinate, so there are edges
    rows = np.concatenate(levels)
    edges = tuple(np.concatenate(column) for column in zip(*events))
    lower = np.flatnonzero((_signs(rows[:, 0::2], rows[:, 1::2]) >= 0).all(axis=1))
    return (rows, np.bincount(edges[1], minlength=len(rows)),
            lower[_listing_order(rows[lower], adj)], edges)


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
    bound = 2 * rows.shape[1] ** 2 * int(np.abs(adj).max()) * int(np.abs(rows).max(initial=0)) ** 2
    exact = rows.astype(object) if bound >= 1 << 63 else rows
    roots_a, roots_b = _adj_times(exact, adj)
    a, b = exact[:, 0::2], exact[:, 1::2]
    return list(zip((a * roots_a + b * roots_b).sum(axis=1).tolist(),
                    (a * roots_b + b * roots_a + b * roots_b).sum(axis=1).tolist()))


# |2a + b| and |b| up to 2**30 keep the squares taken by _signs below 2**63.
# Seeds and the children of every level built as rows are held to that bound
# (so |a| <= 2**30 too; integer seed coordinates go up to 2**29), so their
# children (below 5 * 2**30) and their root coordinates times det (adjugate
# and det parts are below 8 for H2, H3, H4) stay far inside int64 before
# they are checked.
_MAX_COORD = 1 << 30


def _sign_range(s: np.ndarray, b: np.ndarray) -> int:
    """``max(|s|, |b|)`` for int64 arrays ``s = 2a + b`` and ``b``: the
    magnitudes :func:`_signs` squares."""
    return max(int(np.abs(s).max(initial=0)), int(np.abs(b).max(initial=0)))


def _signs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact elementwise sign (-1, 0, +1) of a + b*tau for int64 arrays.

    Every caller tests points of a weight system or their root coordinates,
    so an out-of-range input raises the closure's int64-range error."""
    s = 2 * a + b  # a + b*tau = (s + b*sqrt5) / 2
    if _sign_range(s, b) > _MAX_COORD:
        raise SizeLimitError(_OUT_OF_RANGE)
    sign_s = np.sign(s)
    sign_b = np.sign(b)
    return np.where(sign_s * sign_b < 0,
                    sign_s * np.sign(s * s - 5 * b * b),
                    np.sign(sign_s + sign_b))


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
    found = pos < len(keys)
    found[found] = keys[pos[found]] == probe[found]
    return ~found


def _child_steps(frontier: np.ndarray, signs: np.ndarray, roots, det, budget: int,
                 over_budget: str = _LEVEL_OVER_BUDGET):
    """Subtraction steps of the frontier rows, as ``(i, parents, ma, mb)`` per root.

    The child of ``frontier[parents[k]]`` is that row minus ``(ma[k] +
    mb[k]*tau) * alpha_i``; steps come by root, parent, then multiple.
    ``signs`` are the signs of the frontier coordinates.  With ``roots``, the
    integer pairs of their root coordinates times ``det``, only the steps
    into the positive root cone are kept: subtracting ``m * alpha_i`` lowers
    only root coordinate ``i``, and a point outside the cone never reaches a
    dominant point again.  The child count is checked against ``budget``
    before any step array is allocated; ``over_budget`` is the message, with
    fields ``total`` and ``budget``.
    """
    plans = []
    total = 0
    for i in range(frontier.shape[1] // 2):
        rows = np.flatnonzero(signs[:, i] > 0)
        if not len(rows):
            continue
        fa = frontier[rows, 2 * i]
        fb = frontier[rows, 2 * i + 1]
        g = np.gcd(np.abs(fa), np.abs(fb))
        total += int(g.sum())
        plans.append((i, rows, fa // g, fb // g, g))
    if total > budget:
        raise SizeLimitError(over_budget.format(total=total, budget=budget))
    steps = []
    for i, rows, sa, sb, g in plans:
        ends = np.cumsum(g)
        reps = np.repeat(np.arange(len(rows)), g)
        k = np.arange(int(ends[-1])) - np.repeat(ends - g, g) + 1
        ma = k * sa[reps]
        mb = k * sb[reps]
        parents = rows[reps]
        if roots is not None:
            da, db = det
            inside = _signs(roots[0][parents, i] - (da * ma + db * mb),
                            roots[1][parents, i] - (da * mb + db * ma + db * mb)) >= 0
            if not inside.any():
                continue
            parents, ma, mb = parents[inside], ma[inside], mb[inside]
        steps.append((i, parents, ma, mb))
    return steps


def _key_bits(width: int, bound: int) -> int | None:
    """Lane width that packs rows bounded by ``bound`` into int64 keys, or None."""
    bits = 63 // width
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
    """Inverse of :func:`_row_keys`."""
    if bits is None:
        return np.ascontiguousarray(keys).view(np.int64).reshape(-1, width)
    return ((keys[:, None] >> _lane_shifts(bits, width)) & ((1 << bits) - 1)) - (1 << (bits - 1))


def _new_rows(rows: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Positions of the first occurrence of each distinct row of ``rows``
    that is not a row of ``known``, for int64 rows of one width."""
    bound = max(int(np.abs(r).max(initial=0)) for r in (rows, known))
    bits = _key_bits(rows.shape[1], bound)
    keys, first = np.unique(_row_keys(rows, bits), return_index=True)
    known = np.sort(_row_keys(known, bits))
    return first[_missing(known, keys, np.searchsorted(known, keys))]


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
    if not 1 <= a <= 9:
        raise DomainError("family parameter must be in 1..9")
    rows = _FAMILIES[key](a)
    out = set()
    for row in rows:
        coords = tuple(
            v if isinstance(v, GoldenNumber) else GoldenNumber(Fraction(v))
            for v in row
        )
        out.add(Weight(H3, coords))
    return out


# ---------------------------------------------------------------------------
# export


def tree_to_dot(tree: SubtractionTree) -> str:
    """DOT rendering: one node per distinct weight, revisited weights in gray.

    Nodes are named ``n0, n1, ...`` in first-visit order.  Edge endpoints are
    looked up by object identity; a built tree holds one object per distinct
    weight, so only endpoints held by another, equal object are matched by
    value.  Each edge label is rendered once per multiple object and root.
    """
    lines = ["digraph weight_system {", "  rankdir=TB;", "  node [shape=box];"]
    order = [n.weight for n in tree.nodes if n.first_visit]
    ids = {id(w): f"n{i}" for i, w in enumerate(order)}
    arrivals = {id(w): count for w, count in tree.arrivals.items()}
    for w in order:
        count = arrivals[id(w)] if id(w) in arrivals else tree.arrivals[w]
        style = ' color=gray fontcolor=gray' if count > 1 else ""
        lines.append(f'  {ids[id(w)]} [label="({w.text()})"{style}];')
    by_value = None
    labels = {}
    for e in tree.edges:
        source = ids.get(id(e.source))
        target = ids.get(id(e.target))
        if source is None or target is None:
            if by_value is None:
                by_value = {w: f"n{i}" for i, w in enumerate(order)}
            source = source or by_value[e.source]
            target = target or by_value[e.target]
        key = id(e.multiple), e.root_index
        label = labels.get(key)
        if label is None:
            label = labels[key] = e.label()
        lines.append(f'  {source} -> {target} [label="{label}"];')
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
    templates: each distinct weight object's coordinate block is rendered
    once and shared by all node and edge records that hold it.  Numbers are
    quoted as they are: their canonical text (:func:`horbits.golden.parse_golden`)
    has only the characters ``0-9 + - / t``, none of which JSON escapes.
    """
    blocks: dict[int, str] = {}
    row = _json_list(['"%s"'] * tree.group.rank, 6)

    def coords(w: Weight) -> str:
        block = blocks.get(id(w))
        if block is None:
            block = blocks[id(w)] = row % w.coords
        return block

    # each record list is joined as soon as it is built, so the records and
    # the finished text are never held at once
    nodes = _json_list([
        '{\n      "coords": %s,\n      "first_visit": %s\n    }'
        % (coords(n.weight), "true" if n.first_visit else "false")
        for n in tree.nodes
    ], 2)
    edges = _json_list([
        '{\n      "from": %s,\n      "to": %s,\n      "multiple": "%s",'
        '\n      "root_index": %d\n    }'
        % (coords(e.source), coords(e.target), e.multiple, e.root_index)
        for e in tree.edges
    ], 2)
    dominants = _json_list([
        '{\n      "coords": %s,\n      "count": %d\n    }' % (coords(w), c)
        for w, c in tree.lower_dominants
    ], 2)
    return (
        '{\n  "group": %s,\n  "seed": %s,\n  "nodes": %s,\n  "edges": %s,'
        '\n  "lower_dominants": %s\n}\n'
        % (json.dumps(tree.group.tag),
           _json_list(['"%s"'] * tree.group.rank, 2) % tree.seed.coords,
           nodes, edges, dominants)
    )
