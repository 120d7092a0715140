"""Cartesian embeddings and nested-polyhedra geometry export.

The omega-basis is mapped to Cartesian coordinates by a matrix ``M`` with
``M^T M`` equal to the (real-evaluated) Gram matrix, so Cartesian dot
products reproduce the exact inner product to floating precision.  A seed's
weight system then yields one concentric shell per lower-orbit dominant,
exported as OBJ polylines or JSON.  The shells are computed on flat
integer rows and kept as those rows and their float Cartesian points, and
both files are written from the arrays through templates, byte for byte as
the per-point construction and ``json.dumps`` would write them.
"""
from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .errors import MAX_TREE_NODES, DomainError, SizeLimitError, _write_text
from .golden import _sign_pair, golden
from .groups import Group, Weight, _flatten, _RecordList, _unflatten
from .orbits import MAX_MATERIALIZED_POINTS, _flat_orbit_size, _orbit_flats, _pair_ranks
from .weightsys import (
    _adj_arrays,
    _adj_times,
    _check_args,
    _closure,
    _distinct_rows,
    _json_list,
    _pair_columns,
    _pair_texts,
    _step_matrices,
)

__all__ = [
    "CartesianEmbedding",
    "Shell",
    "NestedPolyhedra",
    "embed",
    "nested_polyhedra",
    "export_obj",
    "export_json",
]

@dataclass(frozen=True)
class CartesianEmbedding:
    group: Group
    basis_matrix: np.ndarray  # rank x rank; column j = image of omega_j

    def cartesian(self, w: Weight) -> np.ndarray:
        self.group._own(w)
        return self.basis_matrix @ np.array(w.floats())


def embed(group: Group) -> CartesianEmbedding:
    """Deterministic Cartesian embedding from a Cholesky factor of the Gram."""
    gram = np.array([[float(v) for v in row] for row in group.gram])
    lower = np.linalg.cholesky(gram)
    return CartesianEmbedding(group, lower.T)


@dataclass(frozen=True)
class Shell:
    """One lower orbit: its dominant, radius, points and minimal edges.

    A shell of :func:`nested_polyhedra` holds its part of the arrays that
    only that function sets (``NestedPolyhedra._arrays``): ``points``
    (Cartesian float tuples) and ``points_exact`` (weights) are read-only
    views whose length is known at once, and whose records are built on the
    first read of an item and then kept.  A shell made from tuples, such as
    a ``dataclasses.replace`` copy, holds those tuples.
    """

    dominant: Weight
    radius: float
    points: Sequence[tuple[float, ...]]
    points_exact: Sequence[Weight]
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class NestedPolyhedra:
    group: Group
    seed: Weight
    shells: tuple[Shell, ...]
    _arrays: _ShellArrays | None = field(default=None, init=False, repr=False, compare=False)


class _ShellArrays(NamedTuple):
    """The points of all shells as the writers read them, shell after shell."""

    group: Group
    rows: np.ndarray  # flat int64 rows of the exact points
    denom: int  # the denominator of the rows
    cartesian: np.ndarray  # float64 Cartesian points
    sizes: list[int]  # points of each shell


class _ShellRows:
    """Points ``start`` to ``stop`` of held arrays: the source of a shell's
    two views, each record field built on first read."""

    def __init__(self, arrays: _ShellArrays, start: int, stop: int):
        self.arrays, self.start, self.stop = arrays, start, stop

    @cached_property
    def points(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.arrays.cartesian[self.start:self.stop].tolist()))

    @cached_property
    def points_exact(self) -> tuple[Weight, ...]:
        held = self.arrays
        return tuple(_unflatten(held.group, held.rows[self.start:self.stop].tolist(), held.denom))


def _orbit_rows(group: Group, flats) -> tuple[np.ndarray, list[int]]:
    """The orbits of dominant flat rows as one int64 array, and their sizes.

    All orbits are searched together, one vectorized level at a time, and
    each point is generated once, from its unique parent, by the rule of
    :func:`horbits.orbits._orbit_flats`.  Each orbit comes in that
    function's order, the element order of
    :func:`horbits.orbits.generate_orbit`, and the orbits follow ``flats``.
    For a few shells the per-orbit search of ``generate_orbit`` is faster;
    this one pays off on the tens to thousands of shells of larger seeds.
    """
    # column 0 numbers the orbit, and no reflection changes it
    U, V = (np.pad(M, ((0, 0), (1, 0))) for M in _step_matrices(group))
    level = np.array([(k, *flat) for k, flat in enumerate(flats)], dtype=np.int64)
    first = np.full(len(level), group.rank)  # least negative index; seeds have none
    steps = np.arange(group.rank)
    levels = [level]
    while len(level):
        # each s_i x with i < f and x_i != 0, and s_{f+1} x
        nonzero = (level[:, 1::2] != 0) | (level[:, 2::2] != 0)
        parent, step = np.nonzero((first[:, None] > steps) & nonzero
                                  | (first[:, None] == steps - 1))
        a, b = level[parent, 1 + 2 * step], level[parent, 2 + 2 * step]
        level = level[parent] - a[:, None] * U[step] - b[:, None] * V[step]
        # s_i x is a child if its coordinate i - 1 is >= 0, untested for i < f
        keep = first[parent] != step - 1
        tested = np.flatnonzero(~keep)
        pairs, inverse = _distinct_rows(level[tested[:, None], 2 * step[tested, None] + [-1, 0]])
        keep[tested] = np.array([_sign_pair(*p) >= 0 for p in pairs.tolist()], dtype=bool)[inverse]
        level, first = level[keep], step[keep]
        levels.append(level)
    rows = np.concatenate(levels)
    del levels  # the levels alone match the rows in size
    # a level lists children by parent, then by step, so a stable sort by
    # orbit lists each orbit level by level in the order of _orbit_flats
    order = np.argsort(rows[:, 0], kind="stable")
    return rows[order, 1:], np.bincount(rows[:, 0], minlength=len(flats)).tolist()


def _shell_edges(group: Group, rows: np.ndarray, sizes: list[int],
                 least: list[tuple[int, int]]) -> list[tuple[tuple[int, int], ...]]:
    """Point-index pairs at the minimal nonzero distance, per shell, found exactly.

    ``rows`` stacks the shells' orbits as flat int64 rows, ``sizes`` points
    each, and ``least`` is each shell dominant's least nonzero coordinate
    ``m`` as an integer pair on the same scale, ``(0, 0)`` for the zero shell.
    A nearest pair of points on a sphere is a hull edge, every hull edge of
    an orbit polytope joins some ``x`` and ``x - <x,beta>*beta`` for a root
    ``beta``, and all roots have one length, so the edges are the ``(x, x -
    m*beta)`` with ``<x,beta> = m``; one root of each ``+-beta`` finds each once.
    """
    # alpha_1 is row 1 of the Cartan matrix, whose entries are in Z[tau]
    alpha = [part for v in group.cartan[0] for part in (int(v.rat), int(v.tau))]
    # every bond of H2, H3 and H4 has an odd label, so all roots are images of
    # alpha_1, and of the highest root, the orbit's dominant point
    highest, _ = group._to_dominant_flat(alpha)
    roots = np.array([r for r in _orbit_flats(group, highest) if r > tuple(-v for v in r)],
                     np.int64)
    # The heights det*<x,beta> as integer pairs.  An orbit point x = w(lambda) has
    # coordinates <lambda, w^-1 alpha_j>: root coordinates (parts summing to at most
    # 5 for H3, 2 for H2) times those of a dominant, whose parts are within
    # _MAX_COORD = 2**30, so x has parts below 2**34.  The roots' coordinates times
    # det have parts summing to at most 16, so heights and partial sums stay below 2**39.
    ha, hb = _adj_times(rows, _adj_times(roots, _adj_arrays(group)))
    da, db = int(group.cartan_det.rat), int(group.cartan_det.tau)
    shell = np.repeat(np.arange(len(sizes)), sizes)
    ma, mb = np.array(least, dtype=np.int64).reshape(-1, 2)[shell].T
    point, root = np.nonzero((ha == (da * ma + db * mb)[:, None])
                             & (hb == (da * mb + db * ma + db * mb)[:, None])
                             & ((ma != 0) | (mb != 0))[:, None])
    ma, mb, ba, bb = ma[point, None], mb[point, None], roots[root, 0::2], roots[root, 1::2]
    partners = rows[point]
    partners[:, 0::2] -= ma * ba + mb * bb
    partners[:, 1::2] -= ma * bb + mb * ba + mb * bb
    # orbits are disjoint, so a point's coordinates alone give its position
    _, inverse = _distinct_rows(np.concatenate([rows, partners]))
    position = np.empty(len(rows), dtype=np.int64)
    position[inverse[:len(rows)]] = np.arange(len(rows))
    pairs = np.sort(np.column_stack([point, position[inverse[len(rows):]]]), axis=1)
    pairs = pairs[np.lexsort(pairs.T[::-1])]
    starts = np.cumsum(sizes) - sizes
    ends = list(zip(*(pairs - starts[shell[pairs[:, 0]], None]).T.tolist()))
    bounds = np.searchsorted(pairs[:, 0], [*starts, len(rows)]).tolist()
    return [tuple(ends[b:e]) for b, e in zip(bounds, bounds[1:])]


def nested_polyhedra(group: Group, seed: Weight,
                     max_nodes: int = MAX_TREE_NODES) -> NestedPolyhedra:
    """One shell per lower-orbit dominant of the seed's weight system.

    Shells follow the exact listing order of
    :func:`horbits.weightsys.weight_system_dominants` (norm descending, then
    coordinates), whose closure gives the dominant rows.  Minimal-distance
    edges, found exactly from reflections, are part of the export for ranks
    up to 3 only: rank-4 shells have none, and OBJ has no rank-4
    realization.  ``max_nodes`` is the size guard of the weight-system
    closure; the shells' points, summed from the orbit sizes of the
    dominants, are bounded by ``MAX_MATERIALIZED_POINTS`` before any is built.

    All shells' orbits are built together as flat integer rows, and each
    distinct coordinate pair of the rows is converted to a float once.  The
    Cartesian points come from ``M @ v`` stacked over all points, which
    gives the floats of one product per point (one ``points @ M.T`` need
    not: BLAS may fuse its multiply-adds).  The shells keep both arrays
    (:class:`Shell`); a ``Weight`` is built for each dominant only.
    """
    _check_args(group, seed, max_nodes)
    rows, _, lower, _ = _closure(group, seed, max_nodes, tree=False)
    flats = rows[lower].tolist()  # Z[tau] seeds: over the denominator 1
    total = sum(_flat_orbit_size(group, flat) for flat in flats)
    if total > MAX_MATERIALIZED_POINTS:
        raise SizeLimitError(
            f"nested polyhedra have {total} points (> {MAX_MATERIALIZED_POINTS})")
    rows, sizes = _orbit_rows(group, flats)
    # each dominant's least nonzero coordinate, by the exact ranks of all coordinates
    pairs = [list(zip(f[0::2], f[1::2])) for f in flats]
    rank = dict(zip(chain(*pairs), _pair_ranks(list(chain(*pairs)))))
    least = [min(filter(any, p), key=rank.__getitem__, default=(0, 0)) for p in pairs]
    edges = _shell_edges(group, rows, sizes, least) if group.rank <= 3 else [()] * len(sizes)
    omega = _pair_columns(rows, lambda pairs: np.array(
        [float(golden(a, b)) for a, b in pairs.tolist()], np.float64))
    cartesian = (embed(group).basis_matrix @ omega[:, :, None])[:, :, 0]
    held = _ShellArrays(group, rows, 1, cartesian, sizes)
    shells = []
    for dominant, flat, size, end, shell_edges in zip(
            _unflatten(group, flats, 1), flats, sizes, accumulate(sizes), edges):
        part = _ShellRows(held, end - size, end)
        shells.append(Shell(
            dominant=dominant,
            # group.inner(dominant, dominant), from the flat row
            radius=float(np.sqrt(float(group._over_det(group._det_norm_pair(flat), 1, 1)))),
            points=_RecordList(part, "points", size),
            points_exact=_RecordList(part, "points_exact", size),
            edges=shell_edges,
        ))
    poly = NestedPolyhedra(group, seed, tuple(shells))
    object.__setattr__(poly, "_arrays", held)
    return poly


def _shell_arrays(poly: NestedPolyhedra) -> _ShellArrays:
    """The points of a result as arrays: those :func:`nested_polyhedra` gave
    it (``_arrays``), else the shells' records, read once."""
    if poly._arrays is not None:
        return poly._arrays
    sizes = [len(s.points) for s in poly.shells]
    if sizes != [len(s.points_exact) for s in poly.shells]:
        raise DomainError("every shell needs as many points as exact points")
    rank = poly.group.rank
    flats, denom = _flatten([w for s in poly.shells for w in s.points_exact])
    # |parts| < 2**62: the int64 rows, and their distinct pairs, stay exact
    if max((abs(v) for flat in flats for v in flat), default=0) >> 62:
        raise SizeLimitError("shell coordinates exceed the int64 range of the writers")
    return _ShellArrays(
        poly.group, np.array(flats, np.int64).reshape(-1, 2 * rank), denom,
        np.array([p for s in poly.shells for p in s.points], np.float64).reshape(-1, rank), sizes)


def _float_texts(values: np.ndarray, render) -> np.ndarray:
    """The texts of each float64 of a 2-D array, as an object array.

    ``render`` maps the list of distinct bit patterns of a column, as
    floats, to their texts, so that ``0.0`` and ``-0.0`` (equal as floats)
    keep their own texts.
    """
    def column(x):
        bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
        return np.array(render(bits.view(np.float64).tolist()), dtype=object)[inverse.reshape(-1)]

    # a column at a time, the sort's arrays have the size of one coordinate
    return np.column_stack([column(x) for x in values.T])


def _json_floats(values: list[float]) -> list[str]:
    """``json.dumps(x)`` of each float, from one call."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def export_obj(poly: NestedPolyhedra, path) -> None:
    """Write shells as OBJ points (``v``) and polyline edges (``l``).

    OBJ is 3-dimensional: rank-2 groups are padded with z = 0 and rank-4
    data has no 3-D realization here, so it is rejected (use JSON).  The
    points are read as arrays (:func:`_shell_arrays`), and each shell is
    written from a template, with one text per distinct float.
    """
    rank = poly.group.rank
    if rank > 3:
        raise DomainError("OBJ export supports rank <= 3; use JSON for H4")
    arrays = _shell_arrays(poly)
    coords = _float_texts(arrays.cartesian, lambda values: list(map("{:.15g}".format, values)))
    vertex = "v " + " ".join(["%s"] * rank + ["0"] * (3 - rank)) + "\n"

    def shells():
        offset = 1  # OBJ vertices are numbered from 1
        for index, (shell, size, end) in enumerate(
                zip(poly.shells, arrays.sizes, accumulate(arrays.sizes))):
            yield (f"g shell{index}\n"
                   + vertex * size % tuple(coords[end - size:end].ravel().tolist())
                   + "l %d %d\n" * len(shell.edges)
                   % tuple([offset + k for edge in shell.edges for k in edge]))
            offset += size

    head = f"# nested orbits of {poly.group.tag}, seed ({poly.seed.text()})\n"
    _write_text(path, chain([head], shells()))


def export_json(poly: NestedPolyhedra, path) -> None:
    """Write shells with exact omega-coordinates and float Cartesian points.

    Byte for byte ``json.dumps(payload, indent=2) + "\n"``, written shell by
    shell from templates and the points' arrays (:func:`_shell_arrays`):
    exact coordinates are quoted as they are (their canonical text has no
    character that JSON escapes), with one text per distinct coordinate
    pair, and floats with one text per distinct float.
    """
    rank = poly.group.rank
    arrays = _shell_arrays(poly)
    exact = _pair_columns(arrays.rows, lambda pairs: _pair_texts(pairs, arrays.denom))
    floats = _float_texts(arrays.cartesian, _json_floats)
    quoted = _json_list(['"%s"'] * rank, 8)
    row = _json_list(["%s"] * rank, 8)
    edge = _json_list(["%d", "%d"], 8)

    def shells():
        for index, (s, size, end) in enumerate(
                zip(poly.shells, arrays.sizes, accumulate(arrays.sizes))):
            yield (",\n    " if index else "[\n    ") + (
                '{\n      "dominant": %s,\n      "radius": %s,\n      "points_exact": %s,'
                '\n      "points": %s,\n      "edges": %s\n    }'
                % (_json_list(['"%s"'] * rank, 6) % s.dominant.coords,
                   json.dumps(s.radius),
                   _json_list([quoted] * size, 6) % tuple(exact[end - size:end].ravel().tolist()),
                   _json_list([row] * size, 6) % tuple(floats[end - size:end].ravel().tolist()),
                   _json_list([edge] * len(s.edges), 6)
                   % tuple([k for e in s.edges for k in e])))

    head = ('{\n  "group": %s,\n  "seed": %s,\n  "shells": '
            % (json.dumps(poly.group.tag), _json_list(['"%s"'] * rank, 2) % poly.seed.coords))
    _write_text(path, chain([head], shells(), ["\n  ]\n}\n" if poly.shells else "[]\n}\n"]))
