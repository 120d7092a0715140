"""Cartesian embeddings and nested-polyhedra geometry export.

The omega-basis is mapped to Cartesian coordinates by a matrix ``M`` with
``M^T M`` equal to the (real-evaluated) Gram matrix, so Cartesian dot
products reproduce the exact inner product to floating precision.  A seed's
weight system then yields one concentric shell per lower-orbit dominant,
exported as OBJ polylines or JSON.  The shells are computed on flat
integer rows and both files are written from templates, byte for byte as
the per-point construction and ``json.dumps`` would write them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from operator import attrgetter

import numpy as np

from .errors import MAX_TREE_NODES, DomainError, _write_text
from .golden import _sign_pair, golden
from .groups import Group, Weight, _flatten, _unflatten
from .orbits import _orbit_flats, _pair_ranks
from .weightsys import (
    _adj_arrays,
    _adj_times,
    _distinct_rows,
    _json_list,
    _step_matrices,
    weight_system_dominants,
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
    dominant: Weight
    radius: float
    points: tuple[tuple[float, ...], ...]
    points_exact: tuple[Weight, ...]
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class NestedPolyhedra:
    group: Group
    seed: Weight
    shells: tuple[Shell, ...]


def _orbit_rows(group: Group, flats) -> tuple[np.ndarray, list[int]]:
    """The orbits of dominant flat rows as one int64 array, and their sizes.

    Each orbit is in the element order of
    :func:`horbits.orbits.generate_orbit` (coordinates descending, compared
    exactly), and the orbits follow ``flats``.
    All orbits are searched together, one vectorized level at a time, and
    each point is generated once, from its unique parent, by the rule of
    :func:`horbits.orbits._orbit_flats`.
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
    # generate_orbit's order: exact ranks of the few distinct coordinates, descending
    distinct, inverse = _distinct_rows(rows[:, 1:].reshape(-1, 2))
    codes = -np.array(_pair_ranks(list(map(tuple, distinct.tolist()))))[inverse]
    order = np.lexsort((*codes.reshape(len(rows), -1)[:, ::-1].T, rows[:, 0]))
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
    (alpha,), _ = _flatten([group.simple_roots[0]])
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

    Shells follow the exact listing order of :func:`weight_system_dominants`
    (norm descending, then coordinates).  Minimal-distance edges, found
    exactly from reflections, are part of the export for ranks up to 3
    only: rank-4 shells have none, and OBJ has no rank-4 realization.
    ``max_nodes`` is the size guard of the weight-system closure.

    All shells' orbits are built together as flat integer rows and turned
    into weights by one call; each distinct coordinate pair of the rows is
    converted to a float once.  The Cartesian points come from ``M @ v``
    stacked over all points, which gives the floats of one product per
    point (one ``points @ M.T`` need not: BLAS may fuse its multiply-adds).
    """
    dominants = [w for w, _ in weight_system_dominants(group, seed, max_nodes=max_nodes)]
    flats, denom = _flatten(dominants)
    rows, sizes = _orbit_rows(group, flats)
    least = [min(filter(any, zip(f[0::2], f[1::2])), key=lambda p: golden(*p), default=(0, 0))
             for f in flats]
    edges = _shell_edges(group, rows, sizes, least) if group.rank <= 3 else [()] * len(sizes)
    exact = _unflatten(group, rows.tolist(), denom)
    pairs, inverse = _distinct_rows(rows.reshape(-1, 2))
    omega = np.array([float(golden(Fraction(a, denom), Fraction(b, denom)))
                      for a, b in pairs.tolist()], np.float64)[inverse]
    basis = embed(group).basis_matrix
    cartesian = (basis @ omega.reshape(-1, group.rank, 1))[:, :, 0]
    shells = tuple(Shell(
        dominant=dominant,
        radius=float(np.sqrt(float(group.inner(dominant, dominant)))),
        points=tuple(map(tuple, cartesian[end - size:end].tolist())),
        points_exact=tuple(exact[end - size:end]),
        edges=shell_edges,
    ) for dominant, size, end, shell_edges in zip(dominants, sizes, accumulate(sizes), edges))
    return NestedPolyhedra(group, seed, shells)


def _float_texts(shells, render) -> list[list[str]]:
    """``render(float(x))`` of every point coordinate, flat per shell.

    ``render`` runs once per distinct float, told apart by bit pattern so
    that ``0.0`` and ``-0.0`` (equal as dict keys) keep their own texts.
    """
    values = np.fromiter(chain.from_iterable(chain.from_iterable(s.points for s in shells)),
                         np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([render(x) for x in bits.view(np.float64).tolist()],
                     dtype=object)[inverse].tolist()
    counts = [sum(map(len, s.points)) for s in shells]
    return [texts[end - n:end] for n, end in zip(counts, accumulate(counts))]


def export_obj(poly: NestedPolyhedra, path) -> None:
    """Write shells as OBJ points (``v``) and polyline edges (``l``).

    OBJ is 3-dimensional: rank-2 groups are padded with z = 0 and rank-4
    data has no 3-D realization here, so it is rejected (use JSON).  Each
    shell is written from a template, with one text per distinct float.
    """
    rank = poly.group.rank
    if rank > 3:
        raise DomainError("OBJ export supports rank <= 3; use JSON for H4")
    vertex = "v " + " ".join(["%s"] * rank + ["0"] * (3 - rank)) + "\n"
    parts = [f"# nested orbits of {poly.group.tag}, seed ({poly.seed.text()})\n"]
    offset = 1  # OBJ vertices are numbered from 1
    for index, (shell, coords) in enumerate(
            zip(poly.shells, _float_texts(poly.shells, "{:.15g}".format))):
        parts.append(f"g shell{index}\n")
        parts.append(vertex * len(shell.points) % tuple(coords))
        parts.append("l %d %d\n" * len(shell.edges)
                     % tuple([offset + k for edge in shell.edges for k in edge]))
        offset += len(shell.points)
    _write_text(path, parts)


def export_json(poly: NestedPolyhedra, path) -> None:
    """Write shells with exact omega-coordinates and float Cartesian points.

    Byte for byte ``json.dumps(payload, indent=2) + "\n"``, written shell by
    shell from templates: exact coordinates are quoted as they are (their
    canonical text has no character that JSON escapes, and each number
    renders it once), floats with one text per distinct float.
    """
    rank = poly.group.rank
    floats = _float_texts(poly.shells, json.dumps)
    quoted = _json_list(['"%s"'] * rank, 8)
    row = _json_list(["%s"] * rank, 8)
    edge = _json_list(["%d", "%d"], 8)

    def shells():
        for index, (s, texts) in enumerate(zip(poly.shells, floats)):
            yield (",\n    " if index else "[\n    ") + (
                '{\n      "dominant": %s,\n      "radius": %s,\n      "points_exact": %s,'
                '\n      "points": %s,\n      "edges": %s\n    }'
                % (_json_list(['"%s"'] * rank, 6) % s.dominant.coords,
                   json.dumps(s.radius),
                   _json_list([quoted] * len(s.points_exact), 6)
                   % tuple(chain.from_iterable(map(attrgetter("coords"), s.points_exact))),
                   _json_list([row] * len(s.points), 6) % tuple(texts),
                   _json_list([edge] * len(s.edges), 6)
                   % tuple([k for e in s.edges for k in e])))

    head = ('{\n  "group": %s,\n  "seed": %s,\n  "shells": '
            % (json.dumps(poly.group.tag), _json_list(['"%s"'] * rank, 2) % poly.seed.coords))
    _write_text(path, chain([head], shells(), ["\n  ]\n}\n" if poly.shells else "[]\n}\n"]))
