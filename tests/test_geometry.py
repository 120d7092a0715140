import copy
import dataclasses
import json
import math
import pickle
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import _count_weights, random_dominant
from horbits import geometry
from horbits.errors import DomainError, SizeLimitError
from horbits.groups import A1, H2, H3, H4, _flatten, _RecordList
from horbits.geometry import (
    NestedPolyhedra,
    Shell,
    embed,
    export_json,
    export_obj,
    nested_polyhedra,
    _orbit_rows,
    _shell_edges,
)
from horbits.orbits import generate_orbit
from horbits.weightsys import weight_system_dominants


def gram_float(group):
    return np.array([[float(v) for v in row] for row in group.gram])


@pytest.mark.parametrize("group", [H2, H3, H4, A1], ids=lambda g: g.tag)
def test_embedding_factorizes_gram(group):
    emb = embed(group)
    product = emb.basis_matrix.T @ emb.basis_matrix
    assert np.allclose(product, gram_float(group), atol=1e-12)


def test_embedding_preserves_inner_products(rng):
    emb = embed(H3)
    for _ in range(50):
        x = H3.weight(*[rng.randint(-4, 4) for _ in range(3)])
        y = H3.weight(*[rng.randint(-4, 4) for _ in range(3)])
        dot = emb.cartesian(x) @ emb.cartesian(y)
        assert math.isclose(dot, float(H3.inner(x, y)), rel_tol=1e-9, abs_tol=1e-9)


def test_embedded_h3_unit_vertex_norm():
    emb = embed(H3)
    point = emb.cartesian(H3.weight(1, 0, 0))
    expected = float((H3.gram[0][0]))
    assert math.isclose(point @ point, expected, rel_tol=1e-12)


def test_h2_simple_root_angle():
    emb = embed(H2)
    a1 = emb.cartesian(H2.simple_roots[0])
    a2 = emb.cartesian(H2.simple_roots[1])
    cosine = a1 @ a2 / (np.linalg.norm(a1) * np.linalg.norm(a2))
    assert math.isclose(math.degrees(math.acos(cosine)), 144.0, abs_tol=1e-6)


def degrees_of(shell):
    counts = Counter()
    for i, j in shell.edges:
        counts[i] += 1
        counts[j] += 1
    return set(counts.values())


def test_icosahedron_shell():
    poly = nested_polyhedra(H3, H3.weight(1, 0, 0))
    assert len(poly.shells) == 1
    shell = poly.shells[0]
    assert len(shell.points) == 12
    assert len(shell.edges) == 30
    assert degrees_of(shell) == {5}


def test_dodecahedron_shell():
    poly = nested_polyhedra(H3, H3.weight(0, 0, 1))
    shell = poly.shells[0]
    assert len(shell.points) == 20
    assert len(shell.edges) == 30
    assert degrees_of(shell) == {3}


def test_nested_shells_two_zero_zero():
    poly = nested_polyhedra(H3, H3.weight(2, 0, 0))
    by_dom = [(s.dominant.text(), len(s.points)) for s in poly.shells]
    assert by_dom[:3] == [("2,0,0", 12), ("0,1,0", 30), ("0,-1+1t,0", 30)]
    radii = [s.radius for s in poly.shells]
    assert radii == sorted(radii, reverse=True)
    for shell in poly.shells:
        norms = [math.sqrt(sum(c * c for c in p)) for p in shell.points]
        for n in norms:
            assert math.isclose(n, shell.radius, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(shell.radius ** 2,
                            float(H3.inner(shell.dominant, shell.dominant)),
                            rel_tol=1e-9, abs_tol=1e-12)


def test_obj_export_icosahedron(tmp_path):
    poly = nested_polyhedra(H3, H3.weight(1, 0, 0))
    path = tmp_path / "ico.obj"
    export_obj(poly, path)
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 12
    assert sum(1 for l in lines if l.startswith("l ")) == 30
    assert sum(1 for l in lines if l.startswith("g ")) == 1


def test_obj_export_h2_pads_z(tmp_path):
    poly = nested_polyhedra(H2, H2.weight(1, 0))
    path = tmp_path / "pentagon.obj"
    export_obj(poly, path)
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            assert line.split()[3] == "0"


def test_obj_export_rejects_h4(tmp_path):
    poly = nested_polyhedra(H4, H4.weight(0, 0, 0, 1))
    with pytest.raises(DomainError):
        export_obj(poly, tmp_path / "bad.obj")


def test_h4_nested_has_no_edges():
    poly = nested_polyhedra(H4, H4.weight(0, 0, 0, 1))
    assert all(s.edges == () for s in poly.shells)
    assert poly.shells[0].points[0] and len(poly.shells[0].points[0]) == 4


@pytest.mark.parametrize("text, edges, degree", [
    ("1000,1347269-832040t,0", 30, 1),
    ("1347269-832040t,1000,0", 60, 2),
])
def test_near_tied_edge_classes_keep_only_the_shortest(text, edges, degree):
    # 1347269-832040t = 1000 + tau**-30: the two edge classes of this truncated
    # icosahedron differ in length by a relative 5.4e-10, a float tie at 1e-9
    (flat,), _ = _flatten([H3.parse_weight(text)])
    rows, sizes = _orbit_rows(H3, [flat])
    (shell_edges,) = _shell_edges(H3, rows, sizes, [(1000, 0)])
    assert sizes == [60] and len(shell_edges) == edges
    degrees = Counter(k for edge in shell_edges for k in edge)
    assert len(degrees) == 60 and set(degrees.values()) == {degree}


@pytest.mark.parametrize("group, count", [(H2, 5), (H3, 15), (H4, 60)],
                         ids=lambda v: getattr(v, "tag", v))
def test_edge_search_takes_one_root_of_each_pair(group, count, monkeypatch):
    # the first _adj_times call of _shell_edges takes the root array
    calls = []
    adj_times = geometry._adj_times

    def spy(rows, adj):
        calls.append(rows)
        return adj_times(rows, adj)

    monkeypatch.setattr(geometry, "_adj_times", spy)
    (flat,), _ = _flatten([group.weight(*([1] * group.rank))])
    _shell_edges(group, np.array([flat], np.int64), [1], [(0, 0)])
    roots = [tuple(r) for r in calls[0].tolist()]
    (alpha,), _ = _flatten([group.simple_roots[0]])
    assert len(roots) == count
    assert len(set(roots) | {tuple(-v for v in r) for r in roots}) == 2 * count
    assert {group._det_norm_pair(r) for r in roots} == {group._det_norm_pair(alpha)}


@pytest.mark.parametrize("group", [H2, H3], ids=lambda g: g.tag)
def test_random_seed_edges_match_the_float_reference(group, rng):
    for _ in range(10):
        poly = nested_polyhedra(group, random_dominant(group, rng, max_coef=2))
        for shell in poly.shells:
            assert shell.edges == _ref_edges(np.array(shell.points))


def test_json_export_round_trip(tmp_path):
    poly = nested_polyhedra(H3, H3.weight(2, 0, 0))
    path = tmp_path / "shells.json"
    export_json(poly, path)
    payload = json.loads(path.read_text())
    assert payload["group"] == "H3"
    assert payload["seed"] == ["2", "0", "0"]
    first = payload["shells"][0]
    rebuilt = {H3.weight(*coords) for coords in first["points_exact"]}
    assert rebuilt == set(generate_orbit(H3, H3.weight(2, 0, 0)).elements)


def test_json_export_deterministic(tmp_path):
    poly = nested_polyhedra(H3, H3.weight(1, 0, 0))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    export_json(poly, a)
    export_json(nested_polyhedra(H3, H3.weight(1, 0, 0)), b)
    assert a.read_bytes() == b.read_bytes()


def test_export_empty_shell_list_is_valid(tmp_path):
    from horbits.geometry import NestedPolyhedra
    empty = NestedPolyhedra(H2, H2.weight(1, 0), ())
    obj_path = tmp_path / "empty.obj"
    export_obj(empty, obj_path)
    text = obj_path.read_text()
    assert text.endswith("\n")
    assert not any(l.startswith(("v ", "l ")) for l in text.splitlines())
    json_path = tmp_path / "empty.json"
    export_json(empty, json_path)
    assert json.loads(json_path.read_text())["shells"] == []


def test_export_write_failure_has_path_context(tmp_path):
    poly = nested_polyhedra(H2, H2.weight(1, 0))
    missing = tmp_path / "nodir" / "x.obj"
    with pytest.raises(DomainError, match="nodir"):
        export_obj(poly, missing)


# -- byte identity with the per-point reference --------------------------------
#
# The reference builds every shell on its own: one orbit, one ``M @ v`` and one
# ``float`` per point, a full distance matrix per shell, and files through
# ``json.dumps`` and a per-coordinate ``%.15g``.


def _ref_edges(points):
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
    keep = nonzero & (pair_d <= dmin * (1 + 1e-9))
    return tuple((int(i), int(j)) for i, j in zip(iu[0][keep], iu[1][keep]))


def _ref_nested_polyhedra(group, seed):
    embedding = embed(group)
    shells = []
    for dominant, _count in weight_system_dominants(group, seed):
        orbit = generate_orbit(group, dominant)
        pts = np.array([embedding.cartesian(w) for w in orbit.elements])
        radius = float(np.sqrt(float(group.inner(dominant, dominant))))
        edges = _ref_edges(pts) if group.rank <= 3 and len(pts) > 1 else ()
        shells.append(Shell(
            dominant=dominant,
            radius=radius,
            points=tuple(tuple(float(x) for x in p) for p in pts),
            points_exact=orbit.elements,
            edges=edges,
        ))
    shells.sort(key=lambda s: -s.radius)
    return NestedPolyhedra(group, seed, tuple(shells))


def _ref_fmt(x):
    return f"{x:.15g}"


def _ref_export_obj(poly, path):
    rank = poly.group.rank
    lines = [f"# nested orbits of {poly.group.tag}, seed ({poly.seed.text()})"]
    offset = 0
    for index, shell in enumerate(poly.shells):
        lines.append(f"g shell{index}")
        for p in shell.points:
            coords = list(p) + [0.0] * (3 - rank)
            lines.append("v " + " ".join(_ref_fmt(c) for c in coords))
        for i, j in shell.edges:
            lines.append(f"l {offset + i + 1} {offset + j + 1}")
        offset += len(shell.points)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ref_export_json(poly, path):
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
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _assert_same_files(poly, ref, tmp_path):
    writers = [(export_json, _ref_export_json, "json")]
    if poly.group.rank <= 3:
        writers.append((export_obj, _ref_export_obj, "obj"))
    for write, ref_write, suffix in writers:
        write(poly, tmp_path / f"new.{suffix}")
        ref_write(ref, tmp_path / f"ref.{suffix}")
        assert (tmp_path / f"new.{suffix}").read_bytes() == (tmp_path / f"ref.{suffix}").read_bytes()


_REFERENCE_SEEDS = [
    (H2, "3,5"),
    (H3, "1,0,0"), (H3, "0,0,1"), (H3, "2,2,0"), (H3, "3,1,0"), (H3, "2,1t,1"),
    # one shell of 12 points, least coordinate tau**-30 with parts near 1.3e6
    (H3, "1346269-832040t,0,0"),
    (H4, "0,0,0,1"), (H4, "1,0,0,1"),
    # coordinates past the packed keys: the orbit search keys raw row bytes
    (H4, "110000001+110000000t,0,0,0"),
]


@pytest.mark.parametrize("group, text", _REFERENCE_SEEDS, ids=lambda v: getattr(v, "tag", v))
def test_nested_polyhedra_match_the_per_point_reference(group, text, tmp_path):
    seed = group.parse_weight(text)
    poly = nested_polyhedra(group, seed)
    ref = _ref_nested_polyhedra(group, seed)
    assert len(poly.shells) == len(ref.shells)
    for shell, want in zip(poly.shells, ref.shells):
        assert shell.dominant == want.dominant
        assert shell.radius == want.radius
        assert shell.points_exact == want.points_exact
        assert shell.points_exact[0] == shell.dominant  # each shell lists its dominant first
        assert shell.edges == want.edges
        # bit for bit: repr tells 0.0 from -0.0 and shows every digit
        assert repr(shell.points) == repr(want.points)
    _assert_same_files(poly, ref, tmp_path)


def test_export_keeps_signed_zeros_apart(tmp_path):
    # 0.0 == -0.0 as dict keys; each must keep its own text in both formats
    points_exact = tuple(H3.parse_weight(t) for t in ("0,0,1", "0,0,-1", "1,0,0"))
    shell = Shell(
        dominant=points_exact[0],
        radius=1.5,
        points=((0.0, -0.0, 1.5), (-0.0, 0.0, -1.5), (-0.0, -0.0, 0.0)),
        points_exact=points_exact,
        edges=((0, 1), (1, 2)),
    )
    poly = NestedPolyhedra(H3, points_exact[0], (shell,))
    _assert_same_files(poly, poly, tmp_path)
    obj = (tmp_path / "new.obj").read_text().splitlines()
    assert obj[2:5] == ["v 0 -0 1.5", "v -0 0 -1.5", "v -0 -0 0"]
    assert json.loads((tmp_path / "new.json").read_text())["shells"][0]["points"][2] == [-0.0, -0.0, 0.0]
    assert "-0.0,\n          -0.0,\n          0.0\n" in (tmp_path / "new.json").read_text()


# -- shells on arrays ---------------------------------------------------------


def _written(poly, tmp_path, name):
    """The bytes of the JSON file of ``poly``, and of its OBJ file up to rank 3."""
    files = {"json": export_json}
    if poly.group.rank <= 3:
        files["obj"] = export_obj
    out = {}
    for suffix, write in files.items():
        write(poly, tmp_path / f"{name}.{suffix}")
        out[suffix] = (tmp_path / f"{name}.{suffix}").read_bytes()
    return out


def _plain(shells):
    """Copies of shells whose point fields are tuples."""
    return tuple(dataclasses.replace(s, points=tuple(s.points), points_exact=tuple(s.points_exact))
                 for s in shells)


def test_nested_polyhedra_build_a_weight_per_dominant_only(monkeypatch, tmp_path):
    seed = H3.weight(2, 2, 0)
    built = _count_weights(monkeypatch)
    poly = nested_polyhedra(H3, seed)
    assert len(poly.shells) == 35 and len(built) == 35
    assert [s.dominant for s in poly.shells] == built
    assert sum(len(s.points) + len(s.points_exact) for s in poly.shells) == 2 * 1675
    # both writers read the arrays
    _written(poly, tmp_path, "held")
    assert len(built) == 35
    # the first read of a shell's exact points builds that shell's weights
    shell = poly.shells[3]
    assert isinstance(shell.points_exact, _RecordList)
    first = shell.points_exact[0]
    assert len(built) == 35 + len(shell.points_exact) == 35 + 60
    assert first == generate_orbit(H3, shell.dominant).elements[0]


@pytest.mark.parametrize("group, text", _REFERENCE_SEEDS, ids=lambda v: getattr(v, "tag", v))
def test_shells_of_tuples_write_the_same_files(group, text, tmp_path):
    poly = nested_polyhedra(group, group.parse_weight(text))
    want = _written(poly, tmp_path, "held")
    plain = dataclasses.replace(poly, shells=_plain(poly.shells))
    assert all(type(s.points) is tuple and type(s.points_exact) is tuple for s in plain.shells)
    assert plain == poly
    assert _written(plain, tmp_path, "plain") == want
    # one shell of tuples, or held views of some shells or in another order:
    # read from records
    mixed = dataclasses.replace(poly, shells=plain.shells[:1] + poly.shells[1:])
    assert _written(mixed, tmp_path, "mixed") == want
    for part in (slice(1, None), slice(None, None, -1)):
        views = dataclasses.replace(poly, shells=poly.shells[part])
        assert (_written(views, tmp_path, "views")
                == _written(dataclasses.replace(poly, shells=plain.shells[part]), tmp_path, "want"))


@pytest.mark.parametrize("group, text", [(H2, "3,5"), (H3, "2,1,0"), (H4, "0,0,0,1")],
                         ids=lambda v: getattr(v, "tag", v))
def test_only_a_built_result_carries_its_arrays(group, text, tmp_path):
    # a result rebuilt by hand from a built one's shells, or a replace copy,
    # carries no arrays and is written from its records, to the same bytes
    poly = nested_polyhedra(group, group.parse_weight(text))
    want = _written(poly, tmp_path, "built")
    assert poly._arrays is poly.shells[0].points._source.arrays
    for other in (NestedPolyhedra(group, poly.seed, poly.shells), dataclasses.replace(poly)):
        assert other._arrays is None and other == poly
        assert _written(other, tmp_path, "other") == want


def test_shells_of_tuples_are_checked_before_they_are_written(tmp_path):
    poly = nested_polyhedra(H3, H3.weight(1, 0, 0))
    (shell,) = _plain(poly.shells)
    thin = dataclasses.replace(poly, shells=(dataclasses.replace(shell, points=shell.points[:-1]),))
    with pytest.raises(DomainError, match="as many points as exact points"):
        export_json(thin, tmp_path / "thin.json")
    # 2**62 over the denominator 3: parts past the exact int64 range of the rows
    for part in (2 ** 62, 2 ** 62 - 1):
        far = H3.weight(Fraction(part, 3), 0, Fraction(-1, 3))
        big = dataclasses.replace(poly, shells=(dataclasses.replace(
            shell, points=shell.points[:1], points_exact=(far,)),))
        if part == 2 ** 62:
            with pytest.raises(SizeLimitError, match="int64 range"):
                export_json(big, tmp_path / "big.json")
        else:
            export_json(big, tmp_path / "big.json")
            payload = json.loads((tmp_path / "big.json").read_text())
            assert payload["shells"][0]["points_exact"] == [[str(c) for c in far.coords]]


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy,
                                   copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_nested_result_pickles_and_copies(clone, tmp_path):
    seed = H3.weight(2, 1, 0)
    want = _written(nested_polyhedra(H3, seed), tmp_path, "want")
    for read in (False, True):
        poly = nested_polyhedra(H3, seed)
        if read:
            for shell in poly.shells:
                shell.points[0], shell.points_exact[0]
        copied = clone(poly)
        # the copy still holds one set of arrays behind all its views
        assert geometry._shell_arrays(copied) is copied.shells[0].points._source.arrays
        assert _written(copied, tmp_path, f"copy{read}") == want
        assert copied == poly and copied.group is H3
        assert copied.shells[0].points_exact[0].group is H3


def test_point_guard_trips_before_the_orbit_search(monkeypatch):
    # the 35 shells of H3 (2,2,0) have 1,675 points
    calls = []
    orbit_rows = geometry._orbit_rows

    def spy(*args):
        calls.append(args)
        return orbit_rows(*args)

    monkeypatch.setattr(geometry, "_orbit_rows", spy)
    monkeypatch.setattr(geometry, "MAX_MATERIALIZED_POINTS", 1674)
    with pytest.raises(SizeLimitError, match=r"^nested polyhedra have 1675 points \(> 1674\)$"):
        nested_polyhedra(H3, H3.weight(2, 2, 0))
    assert not calls
    monkeypatch.setattr(geometry, "MAX_MATERIALIZED_POINTS", 1675)
    poly = nested_polyhedra(H3, H3.weight(2, 2, 0))
    assert len(calls) == 1 and sum(len(s.points) for s in poly.shells) == 1675
