"""Cartesian embeddings and nested-polyhedra geometry export.

The omega-basis is mapped to Cartesian coordinates by a matrix ``M`` with
``M^T M`` equal to the (real-evaluated) Gram matrix, so Cartesian dot
products reproduce the exact inner product to floating precision.  A seed's
weight system then yields one concentric shell per lower-orbit dominant,
exported as OBJ polylines or JSON.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .groups import Group, Weight
from .orbits import generate_orbit
from .weightsys import MAX_TREE_NODES, weight_system_dominants

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


def _minimal_distance_edges(points: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Point-index pairs at the minimal nonzero pairwise distance."""
    n = len(points)
    if n < 2:
        return ()
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    iu = np.triu_indices(n, k=1)
    pair_d = dist[iu]
    scale = pair_d.max()
    nonzero = pair_d > scale * 1e-12
    dmin = pair_d[nonzero].min()
    keep = nonzero & (pair_d <= dmin * (1 + EDGE_RELTOL))
    return tuple((int(i), int(j)) for i, j in zip(iu[0][keep], iu[1][keep]))


def nested_polyhedra(group: Group, seed: Weight,
                     max_nodes: int = MAX_TREE_NODES) -> NestedPolyhedra:
    """One shell per lower-orbit dominant of the seed's weight system.

    Shells are ordered by descending radius.  Minimal-distance edges are
    computed for ranks up to 3 only; rank-4 shells have none (pairwise
    distances over rank-4 orbits are too large to be useful).
    ``max_nodes`` is the size guard of the weight-system closure.
    """
    dominants = weight_system_dominants(group, seed, max_nodes=max_nodes)
    embedding = embed(group)
    shells = []
    for dominant, _count in dominants:
        orbit = generate_orbit(group, dominant)
        pts = np.array([embedding.cartesian(w) for w in orbit.elements])
        radius = float(np.sqrt(float(group.inner(dominant, dominant))))
        edges = _minimal_distance_edges(pts) if group.rank <= 3 and len(pts) > 1 else ()
        shells.append(Shell(
            dominant=dominant,
            radius=radius,
            points=tuple(tuple(float(x) for x in p) for p in pts),
            points_exact=orbit.elements,
            edges=edges,
        ))
    shells.sort(key=lambda s: -s.radius)
    return NestedPolyhedra(group, seed, tuple(shells))


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def export_obj(poly: NestedPolyhedra, path) -> None:
    """Write shells as OBJ points (``v``) and polyline edges (``l``).

    OBJ is 3-dimensional: rank-2 groups are padded with z = 0 and rank-4
    data has no 3-D realization here, so it is rejected (use JSON).
    """
    rank = poly.group.rank
    if rank > 3:
        raise DomainError("OBJ export supports rank <= 3; use JSON for H4")
    lines = [f"# nested orbits of {poly.group.tag}, seed ({poly.seed.text()})"]
    offset = 0
    for index, shell in enumerate(poly.shells):
        lines.append(f"g shell{index}")
        for p in shell.points:
            coords = list(p) + [0.0] * (3 - rank)
            lines.append("v " + " ".join(_fmt(c) for c in coords))
        for i, j in shell.edges:
            lines.append(f"l {offset + i + 1} {offset + j + 1}")
        offset += len(shell.points)
    _write_text(path, "\n".join(lines) + "\n")


def export_json(poly: NestedPolyhedra, path) -> None:
    """Write shells with exact omega-coordinates and float Cartesian points."""
    payload = {
        "group": poly.group.tag,
        "seed": list(poly.seed.texts()),
        "shells": [
            {
                "dominant": list(s.dominant.texts()),
                "radius": s.radius,
                "points_exact": [list(w.texts()) for w in s.points_exact],
                "points": [[float(x) for x in p] for p in s.points],
                "edges": [list(e) for e in s.edges],
            }
            for s in poly.shells
        ],
    }
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _write_text(path, text: str) -> None:
    """Write a text file; an ``OSError`` becomes a ``DomainError`` naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc
