"""Command-line interface.

Every command prints deterministically: exact values in the golden-field
text grammar first, float approximations in parentheses where useful.
Exit codes: 0 success, 2 usage error, 3 domain error.  Only the verbs that
run a numpy kernel (``lower-orbits`` and ``export``) import it.
"""
from __future__ import annotations

import argparse
import os
import sys

from .errors import MAX_TREE_NODES, _RAISE_MAX_NODES, DomainError, _write_text
from .golden import parse_golden
from .groups import Group, Weight, _unflatten, get_group
from .indices import (
    anomaly_number,
    branch_layers,
    branching_rule,
    default_direction,
    embedding_index,
    embedding_index_by_rank,
    even_index,
    subgroup_rank,
)
from .orbits import _norm_order, decompose_product, generate_orbit, orbit_product

MAX_LISTED_POINTS = 100_000


def _parse_coords(group: Group, text: str) -> Weight:
    try:
        return group.parse_weight(text)
    except DomainError:
        raise
    except ValueError as exc:
        raise _UsageError(f"bad coordinates {text!r}: {exc}") from exc


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horbits",
        description="Exact orbits, indices and nested polytopes of H2, H3, H4.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("orbit", help="generate an orbit from a dominant point")
    p.add_argument("group")
    p.add_argument("coords")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("index", help="even-degree index of an orbit")
    p.add_argument("group")
    p.add_argument("coords")
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("product", help="product of orbits (optionally decomposed)")
    p.add_argument("group")
    p.add_argument("coords", nargs="+")
    p.add_argument("--decompose", action="store_true")

    p = sub.add_parser("anomaly", help="odd-degree index along a direction")
    p.add_argument("group")
    p.add_argument("coords")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--direction")

    p = sub.add_parser("branch", help="slice an orbit into subgroup orbits")
    p.add_argument("group")
    p.add_argument("subgroup")
    p.add_argument("coords")

    p = sub.add_parser("embed-index", help="embedding index of a subgroup")
    p.add_argument("group")
    p.add_argument("subgroup")
    p.add_argument("--orbit", dest="orbit_coords")

    p = sub.add_parser("lower-orbits", help="dominant points reachable by root subtraction")
    p.add_argument("group")
    p.add_argument("coords")
    p.add_argument("--dot")
    p.add_argument("--json", dest="json_path")
    _add_max_nodes(p)

    p = sub.add_parser("export", help="write nested-polyhedra geometry to a file")
    p.add_argument("group")
    p.add_argument("coords")
    p.add_argument("--nested", action="store_true", required=True)
    p.add_argument("--format", choices=("obj", "json"), required=True)
    p.add_argument("--out", required=True)
    _add_max_nodes(p)

    return parser


def _add_max_nodes(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-nodes", type=int, default=MAX_TREE_NODES,
        help=f"size guard of the weight-system closure (default {MAX_TREE_NODES})",
    )


def _max_nodes(args) -> int:
    if args.max_nodes < 1:
        raise _UsageError("--max-nodes must be positive")
    return args.max_nodes


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): send the rest of the
        # output to devnull so the exit-time flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        # the closure's node guards name the Python parameter: name the flag
        message = str(exc).replace(_RAISE_MAX_NODES, "raise --max-nodes")
        print(f"error: {message}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    handler = {
        "orbit": _cmd_orbit,
        "index": _cmd_index,
        "product": _cmd_product,
        "anomaly": _cmd_anomaly,
        "branch": _cmd_branch,
        "embed-index": _cmd_embed_index,
        "lower-orbits": _cmd_lower_orbits,
        "export": _cmd_export,
    }[args.verb]
    return handler(args)


def _cmd_orbit(args) -> int:
    group = get_group(args.group)
    seed = _parse_coords(group, args.coords)
    orbit = generate_orbit(group, seed)
    if args.format == "text":
        print(f"# orbit {group.tag} {seed.text()} size={len(orbit)}")
        for w in orbit.elements:
            print(w.text())
    elif args.format == "csv":
        print(",".join(f"x{i + 1}" for i in range(group.rank)))
        for w in orbit.elements:
            print(",".join(f"{v:.15g}" for v in w.floats()))
    else:
        import json as _json
        payload = {
            "group": group.tag,
            "dominant": list(seed.texts()),
            "size": len(orbit),
            "points": [list(w.texts()) for w in orbit.elements],
            "points_float": [list(w.floats()) for w in orbit.elements],
        }
        print(_json.dumps(payload, indent=2))
    return 0


def _cmd_index(args) -> int:
    group = get_group(args.group)
    seed = _parse_coords(group, args.coords)
    if args.degree < 0 or args.degree % 2:
        raise _UsageError("--degree must be even and >= 0")
    value = even_index(group, seed, args.degree // 2).value
    print(f"{value} ({float(value)!r})")
    return 0


def _cmd_product(args) -> int:
    group = get_group(args.group)
    if len(args.coords) < 2:
        raise _UsageError("product needs at least two orbits")
    orbits = [generate_orbit(group, _parse_coords(group, c)) for c in args.coords]
    if args.decompose:
        parts = decompose_product(orbits)
        for w, mult in parts.sorted_parts():
            print(f"{w.text()} x{mult}")
        return 0
    # order the product's flat rows, then build one Weight per printed row
    rows, counts, denom = orbit_product(orbits, max_points=MAX_LISTED_POINTS)._flat()
    counts = list(counts)
    order = _norm_order(rows, [group._det_inner_pair(r, r) for r in rows])
    for w, k in zip(_unflatten(group, [rows[k] for k in order], denom), order):
        print(f"{w.text()} x{counts[k]}")
    return 0


def _cmd_anomaly(args) -> int:
    group = get_group(args.group)
    seed = _parse_coords(group, args.coords)
    if args.degree < 1 or args.degree % 2 == 0:
        raise _UsageError("--degree must be odd and positive")
    if args.direction:
        direction = _parse_coords(group, args.direction)
    else:
        direction = default_direction(group)
    value = anomaly_number(group, seed, direction, args.degree).value
    print(f"{value} ({float(value)!r})")
    return 0


def _cmd_branch(args) -> int:
    group = get_group(args.group)
    rule = branching_rule(group, get_group(args.subgroup))
    seed = _parse_coords(group, args.coords)
    for layer in branch_layers(group, rule, seed):
        print(f"{layer.height} {layer.child_dominant.text()} x{layer.count}")
    return 0


def _cmd_embed_index(args) -> int:
    group = get_group(args.group)
    if args.orbit_coords is not None:
        rule = branching_rule(group, get_group(args.subgroup))
        seed = _parse_coords(group, args.orbit_coords)
        value = embedding_index(group, rule, seed)
        print(str(value))
        return 0
    rank = subgroup_rank(args.subgroup)
    print(str(embedding_index_by_rank(group, rank)))
    return 0


def _cmd_lower_orbits(args) -> int:
    from .weightsys import build_tree, tree_to_dot, tree_to_json, weight_system_dominants

    group = get_group(args.group)
    seed = _parse_coords(group, args.coords)
    max_nodes = _max_nodes(args)
    if args.dot or args.json_path:
        tree = build_tree(group, seed, max_nodes=max_nodes)
        dominants = tree.lower_dominants
        if args.dot:
            _write_text(args.dot, [tree_to_dot(tree)])
        if args.json_path:
            _write_text(args.json_path, [tree_to_json(tree)])
    else:
        dominants = weight_system_dominants(group, seed, max_nodes=max_nodes)
    for w, count in dominants:
        print(f"{w.text()} x{count}")
    return 0


def _cmd_export(args) -> int:
    from .geometry import export_json, export_obj, nested_polyhedra

    group = get_group(args.group)
    seed = _parse_coords(group, args.coords)
    poly = nested_polyhedra(group, seed, max_nodes=_max_nodes(args))
    if args.format == "obj":
        export_obj(poly, args.out)
    else:
        export_json(poly, args.out)
    n_points = sum(len(s.points) for s in poly.shells)
    n_edges = sum(len(s.edges) for s in poly.shells)
    print(f"wrote {args.out}: {len(poly.shells)} shells, {n_points} points, {n_edges} edges")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
