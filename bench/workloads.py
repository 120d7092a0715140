"""The four workloads: job lists, CLI verbs and the checks of their results.

A job is a name, a ``run(tracer)`` that calls ``horbits`` and returns its raw
results, and a ``check(result)`` that validates them with :mod:`checks`.
Only ``run`` is timed; every result of every pass is checked in full.  Every
call into a ``horbits`` layer sits inside a span named after that layer;
untraced, the spans cost one no-op context manager each.
"""
from __future__ import annotations

import io
import json
import os
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import horbits
from horbits import cli as horbits_cli
from horbits.golden import GoldenNumber, parse_golden

import checks as C

WORKLOADS = ("products", "indices", "lower-orbits", "tree-export")


@dataclass
class Job:
    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], None]


def _group(tag):
    return horbits.get_group(tag)


def _weight(tag, coords):
    return _group(tag).weight(*coords)


def _orbit(tr, tag, coords):
    with tr.span("orbits.generate"):
        orbit = horbits.generate_orbit(_group(tag), _weight(tag, coords))
    tr.count("orbits.points", len(orbit.elements))
    return orbit


def _render(tr, items):
    with tr.span("groups.text"):
        return [f"{w.text()} x{m}" for w, m in items]


def _parse_coords(coords):
    """Literal coordinates (ints and ``'1t'``-style strings) as exact pairs."""
    return tuple(C.parse_q(str(c)) for c in coords)


# ---------------------------------------------------------------------------
# products


def _product_job(name, tag, factors, worked=False):
    def run(tr):
        orbits = [_orbit(tr, tag, f) for f in factors]
        with tr.span("orbits.decompose_product"):
            parts = horbits.decompose_product(orbits)
        with tr.span("orbits.sort"):
            ordered = parts.sorted_parts()
        pairs = 1
        for orbit in orbits:
            pairs *= len(orbit.elements)
        tr.count("orbits.pairs", pairs)
        tr.count("orbits.dominant_points", sum(m for _, m in ordered))
        return ordered, _render(tr, ordered)

    def check(result):
        ordered, rendered = result
        C.check_product(tag, [_parse_coords(f) for f in factors],
                        [(C.qvec(w), m) for w, m in ordered], rendered)
        if worked:
            C.check_h2_worked(rendered)

    return Job(name, run, check)


def products_jobs(rng):
    jobs = [
        _product_job("H4 (1,1,0,0)x(0,0,1,1)", "H4", [(1, 1, 0, 0), (0, 0, 1, 1)]),
        _product_job("H3 (1,1,0)x(0,t,1)x(1,0,1)", "H3",
                     [(1, 1, 0), (0, "1t", 1), (1, 0, 1)]),
        _product_job("H2 (1,0)x(0,t)", "H2", [(1, 0), (0, "1t")], worked=True),
    ]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# indices

# zero patterns of the seeded orbit pairs: orbit sizes, and so the product
# sizes, do not depend on the seed
INDEX_PAIRS = (
    ("H2", (1, 1), (1, 1)),
    ("H2", (1, 1), (0, 1)),
    ("H2", (1, 0), (1, 1)),
    ("H3", (1, 1, 0), (0, 1, 1)),
    ("H3", (1, 0, 1), (0, 0, 1)),
    ("H3", (1, 1, 1), (1, 0, 0)),
    ("H3", (0, 1, 0), (0, 1, 1)),
)
N_DOMINANT_BATCH = 48


def _seeded(rng, pattern):
    """A dominant weight with the given zero pattern; each nonzero coordinate
    is 1 + 2t or 2 + t, so the cost hardly depends on the seed."""
    return tuple(rng.choice(("1+2t", "2+1t")) if flag else "0" for flag in pattern)


def _index_pair_job(tag, lam, mu):
    def run(tr):
        a = _orbit(tr, tag, lam)
        b = _orbit(tr, tag, mu)
        with tr.span("orbits.orbit_product"):
            product = horbits.orbit_product([a, b])
        tr.count("orbits.product_points", product.total())
        with tr.span("indices.multiset_even_index"):
            i2 = horbits.multiset_even_index(product, 1)
            i4 = horbits.multiset_even_index(product, 2)
        return len(a.elements), len(b.elements), product.total(), i2.value, i4.value

    def check(result):
        size_a, size_b, total, i2, i4 = result
        lam_q, mu_q = _parse_coords(lam), _parse_coords(mu)
        C.require(size_a == C.orbit_size(tag, lam_q), f"{tag} orbit size {size_a}")
        C.require(size_b == C.orbit_size(tag, mu_q), f"{tag} orbit size {size_b}")
        C.check_product_indices(tag, lam_q, mu_q, total, C.q_of(i2), C.q_of(i4))

    return Job(f"{tag} ({','.join(lam)})x({','.join(mu)}) indices", run, check)


def _even_job(h2, h3, h4):
    factors = (("H2", h2), ("H3", h3), ("H4", h4))

    def run(tr):
        with tr.span("indices.even_index"):
            even = [horbits.even_index(_group(t), _weight(t, c), p).value
                    for t, c in factors for p in (0, 1, 2)]
            direct = [horbits.direct_product_index(
                [(_group(t), _weight(t, c)) for t, c in factors[:2]], p).value
                for p in (1, 2)]
        return even, direct

    def check(result):
        even, direct = result
        expected = [C.even_index_ref(t, _parse_coords(c), p)
                    for t, c in factors for p in (0, 1, 2)]
        for got, want in zip(even, expected, strict=True):
            C.check_equal_q(C.q_of(got), want, "even index")
        for p, got in zip((1, 2), direct, strict=True):
            C.check_direct_product_index(
                [(t, _parse_coords(c)) for t, c in factors[:2]], p, C.q_of(got))

    return Job("even and direct-product indices", run, check)


def _anomaly_job(a, b, h3):
    cases = (("H2", (a, b), None), ("H3", h3, (1, 0, 0)), ("H4", (1, 0, 0, 0), (1, 0, 0, 0)))

    def run(tr):
        out = []
        with tr.span("indices.anomaly"):
            for tag, lam, direction in cases:
                g = _group(tag)
                v = (horbits.default_direction(g) if direction is None
                     else _weight(tag, direction))
                for degree in (1, 3, 5, 7):
                    out.append(horbits.anomaly_number(g, _weight(tag, lam), v, degree).value)
        return out

    def check(values):
        C.require(len(values) == 12, f"{len(values)} anomaly values")
        for degree, value in zip((1, 3, 5, 7), values[:4]):
            C.check_equal_q(C.q_of(value), C.h2_odd_index((a, 0), (b, 0), degree),
                            f"H2 ({a},{b}) odd index of degree {degree}")
        for value in values[4:]:
            C.check_equal_q(C.q_of(value), C.Q0, "H3/H4 odd index")

    return Job("anomaly numbers", run, check)


def _branch_job(lam):
    rules = (("H3", "H2"), ("H3", "A2"))

    def run(tr):
        with tr.span("indices.branch"):
            return [horbits.branch_layers(_group(p), horbits.branching_rule(p, c),
                                          _weight(p, lam)) for p, c in rules]

    def check(result):
        for (parent, child), layers in zip(rules, result, strict=True):
            C.check_branch_layers(parent, child, _parse_coords(lam), [
                (C.q_of(l.height), C.qvec(l.child_dominant), l.count) for l in layers])

    return Job("branch layers", run, check)


def _embedding_job(h2, h3):
    cases = (("H2", "A1", h2), ("H3", "H2", h3), ("H3", "A2", h3))

    def run(tr):
        with tr.span("indices.embedding_index"):
            return [horbits.embedding_index(_group(p), horbits.branching_rule(p, c),
                                            _weight(p, lam)) for p, c, lam in cases]

    def check(values):
        for (parent, child, _), value in zip(cases, values, strict=True):
            C.check_equal_q(C.q_of(value), (Fraction(C.RANKS[parent], C.RANKS[child]), 0),
                            f"embedding index {parent}->{child}")

    return Job("embedding indices", run, check)


def _dominant_batch(rng, tag, n):
    rank = C.RANKS[tag]
    out = []
    while len(out) < n:
        x = tuple(rng.randint(-3, 3) for _ in range(rank))
        if min(x) < 0:
            out.append(x)
    return out


def _to_dominant_job(tag, batch):
    def run(tr):
        g = _group(tag)
        weights = [g.weight(*x) for x in batch]
        with tr.span("groups.to_dominant"):
            out = [g.to_dominant(w) for w in weights]
        tr.count("groups.reflections", sum(steps for _, steps in out))
        return out

    def check(result):
        C.require(len(result) == len(batch), "to_dominant batch size")
        for x, (dom, steps) in zip(batch, result):
            C.check_to_dominant(tag, _parse_coords(x), C.qvec(dom), steps)

    return Job(f"{tag} to_dominant x{len(batch)}", run, check)


def _inner_job(tag, batch):
    pairs = [(x, y) for x, y in zip(batch, batch[1:] + batch[:1])]
    pairs += [(x, x) for x in batch]

    def run(tr):
        g = _group(tag)
        weights = [(g.weight(*x), g.weight(*y)) for x, y in pairs]
        with tr.span("groups.inner"):
            out = [g.inner(x, y) for x, y in weights]
        tr.count("groups.inner", len(out))
        return out

    def check(values):
        data = C.group_data(tag)
        for (x, y), value in zip(pairs, values, strict=True):
            C.check_equal_q(C.q_of(value), data.inner(_parse_coords(x), _parse_coords(y)),
                            f"{tag} inner product")

    return Job(f"{tag} inner x{len(pairs)}", run, check)


def indices_jobs(rng):
    jobs = [_index_pair_job(tag, _seeded(rng, p), _seeded(rng, q))
            for tag, p, q in INDEX_PAIRS]
    jobs.append(_even_job(_seeded(rng, (1, 1)), _seeded(rng, (1, 1, 0)),
                          _seeded(rng, (1, 0, 0, 1))))
    jobs.append(_anomaly_job(*rng.sample((2, 3), 2), _seeded(rng, (1, 1, 0))))
    jobs.append(_branch_job(_seeded(rng, (1, 1, 0))))
    jobs.append(_embedding_job(_seeded(rng, (1, 1)), _seeded(rng, (1, 1, 0))))
    batch = _dominant_batch(rng, "H4", N_DOMINANT_BATCH)
    jobs.append(_to_dominant_job("H4", batch))
    jobs.append(_inner_job("H4", batch))
    return jobs


# ---------------------------------------------------------------------------
# lower orbits

TABLE3_FAMILIES = {
    "(a,0,0)": lambda a: (a, 0, 0), "(0,a,0)": lambda a: (0, a, 0),
    "(0,0,a)": lambda a: (0, 0, a), "(a,a,0)": lambda a: (a, a, 0),
    "(a,0,a)": lambda a: (a, 0, a), "(0,a,a)": lambda a: (0, a, a),
}
# seeds whose dominants and counts are also compared with the benchmark's
# own subtraction closure (pure Python, so kept small)
OWN_CLOSURE_MAX_A = 2


def _catalogue(family, a):
    return {C.ivec(w) for w in horbits.closed_form_lower_orbits(family, a)}


def _lower_orbits_job(tag, coords, family=None, a=None, own_closure=False):
    seed = C.int_pairs(_parse_coords(coords))

    def run(tr):
        with tr.span("weightsys.dominants"):
            dominants = horbits.weight_system_dominants(_group(tag), _weight(tag, coords))
        tr.count("weightsys.dominants", len(dominants))
        tr.count("weightsys.arrivals", sum(n for _, n in dominants))
        return dominants, _render(tr, dominants)

    def check(result):
        dominants, rendered = result
        C.check_lower_orbits(
            tag, seed, [(C.ivec(w), n) for w, n in dominants],
            catalogue=_catalogue(family, a) if family else None,
            closure=C.subtraction_closure(tag, seed) if own_closure else None)
        C.require(len(rendered) == len(dominants)
                  and rendered[0] == f"{C.text_of(seed)} x1",
                  f"{tag} {C.text_of(seed)}: rendered listing")

    return Job(f"{tag} ({C.text_of(seed)}) lower orbits", run, check)


def lower_orbits_jobs(rng):
    jobs = [_lower_orbits_job("H3", pattern(a), family, a,
                              own_closure=a <= OWN_CLOSURE_MAX_A)
            for family, pattern in TABLE3_FAMILIES.items() for a in range(1, 7)]
    jobs.append(_lower_orbits_job("H3", (7, 7, 0), "(a,a,0)", 7))
    jobs.append(_lower_orbits_job("H4", (1, 1, 0, 1)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# tree export


def _edge_rows(tree):
    return [(C.ivec(e.source), C.ivec(e.target), C.int_pairs([C.q_of(e.multiple)])[0],
             e.root_index) for e in tree.edges]


def check_dot(dot: str, n_first: int, n_edges: int, what: str):
    nodes = len(re.findall(r"^  n\d+ \[label=", dot, re.M))
    edges = len(re.findall(r"^  n\d+ -> n\d+ ", dot, re.M))
    C.require(dot.startswith("digraph") and nodes == n_first and edges == n_edges,
              f"{what}: DOT has {nodes} nodes / {edges} edges, "
              f"expected {n_first} / {n_edges}")


def check_tree_json(text: str, tag: str, n_nodes: int, edges, dominants, what: str):
    """The JSON parses and lists exactly the given (already checked) edges
    and dominants, in the benchmark's own rendering."""
    payload = json.loads(text)
    C.require(payload["group"] == tag and len(payload["nodes"]) == n_nodes
              and len(payload["edges"]) == len(edges),
              f"{what}: JSON record counts")
    for record, (source, target, m, i) in zip(payload["edges"], edges):
        if (record["from"] != C.texts_of(source) or record["to"] != C.texts_of(target)
                or record["multiple"] != C.number_text(*m) or record["root_index"] != i):
            raise C.CheckError(f"{what}: JSON edge {record} differs from the tree")
    C.require([(d["coords"], d["count"]) for d in payload["lower_dominants"]]
              == [(C.texts_of(w), n) for w, n in dominants],
              f"{what}: JSON lower dominants differ from the tree")


def _tree_job(tag, coords):
    seed = C.int_pairs(_parse_coords(coords))
    what = f"{tag} ({C.text_of(seed)}) tree"

    def run(tr):
        with tr.span("weightsys.build_tree"):
            tree = horbits.build_tree(_group(tag), _weight(tag, coords))
        tr.count("weightsys.tree_edges", len(tree.edges))
        with tr.span("weightsys.serialize"):
            as_json = horbits.tree_to_json(tree)
            as_dot = horbits.tree_to_dot(tree)
        tr.count("weightsys.serialized_bytes", len(as_json) + len(as_dot))
        return tree, as_json, as_dot

    def check(result):
        tree, as_json, as_dot = result
        edges = _edge_rows(tree)
        C.check_tree_edges(tag, edges)
        first = sum(1 for n in tree.nodes if n.first_visit)
        C.require(len(tree.nodes) == len(edges) + 1, f"{what}: node/edge records")
        dominants = [(C.ivec(w), n) for w, n in tree.lower_dominants]
        C.check_lower_orbits(tag, seed, dominants)
        check_tree_json(as_json, tag, len(tree.nodes), edges, dominants, what)
        check_dot(as_dot, first, len(edges), what)

    return Job(what, run, check)


def check_obj(text: str, shells, what: str):
    counts = C.count_records(text, "g ", "v ", "l ")
    n_points = sum(n for n, _ in shells)
    n_edges = sum(e for _, e in shells)
    C.require(counts == {"g ": len(shells), "v ": n_points, "l ": n_edges},
              f"{what}: OBJ records {counts}, expected {len(shells)} shells, "
              f"{n_points} points, {n_edges} edges")


def _nested_job(tag, coords, workdir, formats):
    seed = _parse_coords(coords)
    what = f"{tag} ({C.text_of(seed)}) nested polyhedra"
    stem = os.path.join(workdir, f"nested-{tag}-{'_'.join(map(str, coords))}")

    def run(tr):
        with tr.span("geometry.nested"):
            poly = horbits.nested_polyhedra(_group(tag), _weight(tag, coords))
        tr.count("geometry.points", sum(len(s.points) for s in poly.shells))
        with tr.span("geometry.export"):
            if "obj" in formats:
                horbits.export_obj(poly, stem + ".obj")
            horbits.export_json(poly, stem + ".json")
        if tr.on:
            tr.count("geometry.written_bytes",
                     sum(os.path.getsize(f"{stem}.{f}") for f in formats))
        return poly

    def check(poly):
        C.require(poly.shells and C.qvec(poly.shells[0].dominant) == seed,
                  f"{what}: outer shell is not the seed orbit")
        for shell in poly.shells:
            C.check_shell(tag, C.qvec(shell.dominant), shell.radius, shell.points)
        shells = [(len(s.points), len(s.edges)) for s in poly.shells]
        files = _read_files(stem, formats)
        if "obj" in formats:
            check_obj(files["obj"], shells, what)
        payload = json.loads(files["json"])
        C.require([(len(s["points"]), len(s["edges"])) for s in payload["shells"]] == shells,
                  f"{what}: JSON shells differ from the result")

    return Job(what, run, check)


def _read_files(stem, formats):
    out = {}
    for f in formats:
        with open(f"{stem}.{f}", encoding="utf-8") as handle:
            out[f] = handle.read()
    return out


def tree_export_jobs(rng, workdir):
    jobs = [
        _tree_job("H3", (3, 1, 0)),
        _tree_job("H3", (2, "1t", 1)),
        _tree_job("H4", (1, 0, 0, 1)),
        _nested_job("H3", (2, 2, 0), workdir, ("obj", "json")),
        _nested_job("H4", (0, 0, 0, 1), workdir, ("json",)),
    ]
    rng.shuffle(jobs)
    return jobs


def build_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "products":
        return products_jobs(rng)
    if workload == "indices":
        return indices_jobs(rng)
    if workload == "lower-orbits":
        return lower_orbits_jobs(rng)
    if workload == "tree-export":
        return tree_export_jobs(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# traced mode only: rates of the Q(tau) scalar operations on a seeded batch


def golden_job(rng, n=2000):
    def rand():
        return GoldenNumber(Fraction(rng.randint(-60, 60), rng.randint(1, 12)),
                            Fraction(rng.randint(-60, 60), rng.randint(1, 12)))

    xs = [rand() for _ in range(n)]
    ys = [rand() for _ in range(n)]
    pairs = list(zip(xs, ys))

    def run(tr):
        with tr.span("golden.mul"):
            prods = [x * y for x, y in pairs]
        tr.count("golden.mul", n)
        with tr.span("golden.add"):
            sums = [x + y for x, y in pairs]
        tr.count("golden.add", n)
        with tr.span("golden.sign"):
            signs = [x.sign() for x in xs]
        tr.count("golden.sign", n)
        with tr.span("golden.text"):
            parsed = [parse_golden(str(x)) for x in xs]
        tr.count("golden.text", n)
        return prods, sums, signs, parsed

    def check(result):
        prods, sums, signs, parsed = result
        for (x, y), p, s, sg, back in zip(pairs, prods, sums, signs, parsed, strict=True):
            qx, qy = C.q_of(x), C.q_of(y)
            C.check_equal_q(C.q_of(p), C.qmul(qx, qy), "golden product")
            C.check_equal_q(C.q_of(s), C.qadd(qx, qy), "golden sum")
            C.require(sg == C.qsign(qx), f"golden sign of {qx}")
            C.check_equal_q(C.q_of(back), qx, "golden text round trip")

    return Job("golden scalar rates", run, check)


# ---------------------------------------------------------------------------
# the representative CLI verb of each workload


def cli_calls(workload: str, workdir: str) -> list[list[str]]:
    if workload == "products":
        return [["product", "H4", "1,1,0,0", "0,0,1,1", "--decompose"]]
    if workload == "indices":
        return [["anomaly", "H4", "1,0,0,1", "--degree", "7"]]
    if workload == "lower-orbits":
        return [["lower-orbits", "H3", "7,7,0"]]
    if workload == "tree-export":
        base = os.path.join(workdir, "cli")
        return [["lower-orbits", "H3", "3,1,0", "--dot", base + ".dot", "--json", base + ".json"],
                ["export", "H3", "2,2,0", "--nested", "--format", "obj", "--out", base + ".obj"]]
    raise ValueError(f"unknown workload {workload!r}")


def _parse_listing(stdout: str):
    out = []
    for line in stdout.splitlines():
        text, _, mult = line.rpartition(" x")
        out.append((C.parse_qvec(text), int(mult)))
    return out


CLI_FILES = {"tree-export": ("dot", "json", "obj")}


def cli_outputs(workload: str, workdir: str, stdouts: list[str]) -> dict:
    """Everything the workload's CLI calls produced: stdout and files."""
    out = {"stdout": stdouts}
    for suffix in CLI_FILES.get(workload, ()):
        with open(os.path.join(workdir, f"cli.{suffix}"), encoding="utf-8") as handle:
            out[suffix] = handle.read()
    return out


def check_cli(workload: str, outputs: dict) -> None:
    stdouts = outputs["stdout"]
    if workload == "products":
        parts = _parse_listing(stdouts[0])
        C.check_product("H4", [_parse_coords((1, 1, 0, 0)), _parse_coords((0, 0, 1, 1))],
                        parts, stdouts[0].splitlines())
    elif workload == "indices":
        value = stdouts[0].split(" (")[0]
        C.check_equal_q(C.parse_q(value), C.Q0, "H4 (1,0,0,1) odd index of degree 7")
    elif workload == "lower-orbits":
        seed = ((7, 0), (7, 0), (0, 0))
        C.check_lower_orbits("H3", seed, [(C.int_pairs(w), n)
                                          for w, n in _parse_listing(stdouts[0])],
                             catalogue=_catalogue("(a,a,0)", 7))
    else:
        seed = ((3, 0), (1, 0), (0, 0))
        dominants = [(C.int_pairs(w), n) for w, n in _parse_listing(stdouts[0])]
        C.check_lower_orbits("H3", seed, dominants,
                             closure=C.subtraction_closure("H3", seed))
        payload = json.loads(outputs["json"])
        edges = [(C.int_pairs(C.parse_qvec(",".join(e["from"]))),
                  C.int_pairs(C.parse_qvec(",".join(e["to"]))),
                  C.int_pairs([C.parse_q(e["multiple"])])[0], e["root_index"])
                 for e in payload["edges"]]
        C.check_tree_edges("H3", edges)
        first = sum(1 for n in payload["nodes"] if n["first_visit"])
        check_tree_json(outputs["json"], "H3", len(payload["nodes"]), edges, dominants,
                        "CLI tree")
        check_dot(outputs["dot"], first, len(edges), "CLI tree")
        m = re.fullmatch(r"wrote .*: (\d+) shells, (\d+) points, (\d+) edges\n", stdouts[1])
        C.require(m is not None, f"export said {stdouts[1]!r}")
        counts = C.count_records(outputs["obj"], "g ", "v ", "l ")
        C.require([counts["g "], counts["v "], counts["l "]] == [int(x) for x in m.groups()],
                  f"CLI export: OBJ records {counts} != {m.groups()}")
        _check_obj_shells("H3", outputs["obj"])


def _check_obj_shells(tag, obj: str):
    """Every OBJ shell lies on one sphere and has the size of an orbit."""
    sizes = {C.orbit_size(tag, tuple((int(f), 0) for f in pattern))
             for pattern in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
                             (1, 0, 1), (0, 1, 1), (1, 1, 1), (0, 0, 0))}
    for block in obj.split("\ng ")[1:]:
        points = [[float(v) for v in line.split()[1:]]
                  for line in block.splitlines() if line.startswith("v ")]
        C.require(len(points) in sizes, f"OBJ shell of {len(points)} points")
        radii = [sum(v * v for v in p) ** 0.5 for p in points]
        C.require(max(radii) - min(radii) <= 1e-9 * max(1.0, max(radii)),
                  "OBJ shell points off one radius")


def run_cli_main(tr, argv: list[str]) -> str:
    """In-process ``horbits.cli.main`` with stdout captured (traced mode)."""
    buffer = io.StringIO()
    with tr.span("cli.main"), redirect_stdout(buffer):
        code = horbits_cli.main(argv)
    C.require(code == 0, f"horbits {' '.join(argv)} exited {code}")
    return buffer.getvalue()
