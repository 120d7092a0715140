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
from itertools import accumulate, chain
from operator import attrgetter

import numpy as np

from .errors import MAX_TREE_NODES, DomainError, _write_text
from .groups import Group, Weight, _flatten, _unflatten
from .weightsys import (
    _json_list,
    _new_rows,
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

EDGE_RELTOL = 1e-9
# float64 coordinate differences per batch of shells in the edge search
_EDGE_BATCH = 1 << 20


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
    :func:`horbits.orbits.generate_orbit`, and the orbits follow ``flats``.
    All orbits are searched together, one vectorized level at a time: a
    simple reflection fixes an orbit point or moves it one level up or
    down, so a level's new points are its images minus the level before.
    For a few shells the per-orbit search of ``generate_orbit`` is faster;
    this one pays off on the tens to thousands of shells of larger seeds.
    """
    # column 0 numbers the orbit, and no reflection changes it
    U, V = (np.pad(M, ((0, 0), (1, 0))) for M in _step_matrices(group))
    level = np.array([(k, *flat) for k, flat in enumerate(flats)], dtype=np.int64)
    levels = [level]
    previous = level[:0]
    while len(level):
        images = []
        for i in range(group.rank):
            a, b = level[:, 1 + 2 * i], level[:, 2 + 2 * i]
            moved = (a != 0) | (b != 0)
            images.append(level[moved] - a[moved, None] * U[i] - b[moved, None] * V[i])
        images = np.concatenate(images)
        # orbits are disjoint, so a point's coordinates alone identify it
        previous, level = level, images[_new_rows(images[:, 1:], previous[:, 1:])]
        levels.append(level)
    rows = np.concatenate(levels)
    # generate_orbit's order: _element_sort_key per orbit, in the same float steps
    a, b = rows[:, 1::2], rows[:, 2::2]
    descending = -(a + b * 1.618033988749895)
    order = np.lexsort((*rows[:, :0:-1].T, *descending[:, ::-1].T, rows[:, 0]))
    return rows[order, 1:], np.bincount(rows[:, 0], minlength=len(flats)).tolist()


def _shell_edges(points: np.ndarray, sizes: list[int]) -> list[tuple[tuple[int, int], ...]]:
    """Point-index pairs at the minimal nonzero pairwise distance, per shell.

    ``points`` stacks the shells, of ``sizes`` points each.  Shells of one
    size are measured together, at most ``_EDGE_BATCH`` coordinate
    differences at a time, with the float steps of one distance matrix
    per shell.
    """
    starts = np.cumsum(sizes) - sizes
    edges = [()] * len(sizes)
    for n in set(sizes) - {0, 1}:
        shells = np.flatnonzero(np.equal(sizes, n))
        first, second = np.triu_indices(n, k=1)
        batch = max(1, _EDGE_BATCH // (len(first) * points.shape[1]))
        for chunk in np.split(shells, range(batch, len(shells), batch)):
            stacked = points[starts[chunk, None] + np.arange(n)]
            diff = np.take(stacked, first, axis=1)
            diff -= np.take(stacked, second, axis=1)
            diff *= diff
            # the additions of diff.sum(axis=-1), without its slow reduction over a short axis
            pair_d = np.sqrt(sum(diff[..., c] for c in range(points.shape[1])))
            nonzero = pair_d > pair_d.max(axis=1, keepdims=True) * 1e-12
            dmin = np.where(nonzero, pair_d, np.inf).min(axis=1, keepdims=True)
            shell, pair = np.nonzero(nonzero & (pair_d <= dmin * (1 + EDGE_RELTOL)))
            ends = list(zip(first[pair].tolist(), second[pair].tolist()))
            bounds = np.searchsorted(shell, np.arange(len(chunk) + 1)).tolist()
            for k, index in enumerate(chunk.tolist()):
                edges[index] = tuple(ends[bounds[k]:bounds[k + 1]])
    return edges


def nested_polyhedra(group: Group, seed: Weight,
                     max_nodes: int = MAX_TREE_NODES) -> NestedPolyhedra:
    """One shell per lower-orbit dominant of the seed's weight system.

    Shells are ordered by descending radius.  Minimal-distance edges are
    computed for ranks up to 3 only; rank-4 shells have none (pairwise
    distances over rank-4 orbits are too large to be useful).
    ``max_nodes`` is the size guard of the weight-system closure.

    All shells' orbits are built together as flat integer rows and turned
    into weights by one call, which shares a ``GoldenNumber`` per distinct
    coordinate; each distinct coordinate is converted to a float once.  The
    Cartesian points come from ``M @ v`` stacked over all points, which
    gives the floats of one product per point (one ``points @ M.T`` need
    not: BLAS may fuse its multiply-adds).
    """
    dominants = [w for w, _ in weight_system_dominants(group, seed, max_nodes=max_nodes)]
    flats, denom = _flatten(dominants)
    rows, sizes = _orbit_rows(group, flats)
    exact = _unflatten(group, rows.tolist(), denom)
    coords = list(chain.from_iterable(map(attrgetter("coords"), exact)))
    values = {key: float(c) for key, c in {id(c): c for c in coords}.items()}
    omega = np.fromiter(map(values.__getitem__, map(id, coords)), np.float64, len(coords))
    basis = embed(group).basis_matrix
    cartesian = (basis @ omega.reshape(-1, group.rank, 1))[:, :, 0]
    edges = _shell_edges(cartesian, sizes) if group.rank <= 3 else [()] * len(sizes)
    shells = []
    start = 0
    for dominant, size, shell_edges in zip(dominants, sizes, edges):
        end = start + size
        shells.append(Shell(
            dominant=dominant,
            radius=float(np.sqrt(float(group.inner(dominant, dominant)))),
            points=tuple(map(tuple, cartesian[start:end].tolist())),
            points_exact=tuple(exact[start:end]),
            edges=shell_edges,
        ))
        start = end
    shells.sort(key=lambda s: -s.radius)
    return NestedPolyhedra(group, seed, tuple(shells))


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
