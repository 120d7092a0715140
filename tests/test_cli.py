import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import horbits
from horbits.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orbit_text(capsys):
    code, out, _ = run(capsys, "orbit", "H2", "1,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# orbit H2 1,0 size=5"
    assert set(lines[1:]) == {"1t,-1t", "1,0", "0,-1", "-1,1t", "-1t,1"}


def test_orbit_json(capsys):
    code, out, _ = run(capsys, "orbit", "H3", "1,0,0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 12
    assert payload["group"] == "H3"
    assert len(payload["points"]) == 12
    assert len(payload["points_float"]) == 12


def test_orbit_csv(capsys):
    code, out, _ = run(capsys, "orbit", "H2", "1,0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 6
    assert lines[1] == "1.61803398874989,-1.61803398874989"


def test_index(capsys):
    code, out, _ = run(capsys, "index", "H2", "1,0", "--degree", "2")
    assert code == 0
    assert out == "4+2t (7.23606797749979)\n"


def test_index_degree_zero(capsys):
    code, out, _ = run(capsys, "index", "H4", "1,1,1,1", "--degree", "0")
    assert code == 0
    assert out == "14400 (14400.0)\n"


def test_index_odd_degree_usage_error(capsys):
    code, _, err = run(capsys, "index", "H2", "1,0", "--degree", "3")
    assert code == 2
    assert "even" in err


def test_product_decompose_worked_example(capsys):
    code, out, _ = run(capsys, "product", "H2", "1,0", "0,1t", "--decompose")
    assert code == 0
    assert out == "1,1t x1\n1t,0 x2\n0,-1+1t x1\n"


def test_product_listing(capsys):
    code, out, _ = run(capsys, "product", "H2", "1,0", "0,1t")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 20  # distinct sum points
    assert sum(int(l.rsplit("x", 1)[1]) for l in lines) == 25


def test_product_three_factors(capsys):
    code, out, _ = run(capsys, "product", "H2", "1,0", "1,0", "1,0", "--decompose")
    assert code == 0
    assert sum(int(l.rsplit("x", 1)[1]) for l in out.splitlines()) > 0
    assert out.splitlines()[0] == "3,0 x1"


def test_product_needs_two_orbits(capsys):
    code, _, err = run(capsys, "product", "H2", "1,0")
    assert code == 2


def test_anomaly_default_direction(capsys):
    code, out, _ = run(capsys, "anomaly", "H2", "1,2", "--degree", "3")
    assert code == 0
    assert out.startswith("0 ")


def test_anomaly_explicit_direction(capsys):
    code, out, _ = run(capsys, "anomaly", "H2", "1,2", "--degree", "5",
                       "--direction=-1t,1t")
    assert code == 0
    assert out == "2728/25+4444/25t (396.7417218401813)\n"


@pytest.mark.parametrize("argv,value,approx", [
    (("index", "H4", "1,1,1,1", "--degree", "300"),
     lambda: horbits.even_index(horbits.H4, horbits.H4.weight(1, 1, 1, 1), 150), "inf"),
    (("index", "H2", "2,1", "--degree", "600"),
     lambda: horbits.even_index(horbits.H2, horbits.H2.weight(2, 1), 300), "inf"),
    (("anomaly", "H2", "2,1", "--degree", "601"),
     lambda: horbits.anomaly_number(horbits.H2, horbits.H2.weight(2, 1),
                                    horbits.default_direction(horbits.H2), 601), "-inf"),
], ids=["index-H4-300", "index-H2-600", "anomaly-H2-601"])
def test_index_past_the_float_range_prints_inf(capsys, argv, value, approx):
    # the exact value in full, and the sign of its overflowing float
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == f"{value().value} ({approx})\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python has no int-to-str digit limit")
def test_index_past_the_digit_limit_exits_3(capsys):
    code, out, err = run(capsys, "index", "H2", "2,1", "--degree", "9000")
    assert (code, out) == (3, "")
    assert err == (f"error: cannot print a number with a part of more than "
                   f"{sys.get_int_max_str_digits()} digits (Python's int-to-str limit)\n")


def test_product_listing_guard_names_the_flag(capsys):
    code, out, err = run(capsys, "product", "H4", "1,1,0,0", "0,0,1,1")
    assert (code, out) == (3, "")
    assert err == "error: product has 3456000 points (> 100000); use --decompose\n"


def test_anomaly_even_degree_is_a_domain_error(capsys):
    # the library states the degree contract, and the CLI reports it like
    # every other DomainError
    code, _, err = run(capsys, "anomaly", "H2", "1,2", "--degree", "4")
    assert code == 3
    assert "degree must be odd, got 4" in err


def test_branch(capsys):
    code, out, _ = run(capsys, "branch", "H3", "H2", "1,1,0")
    assert code == 0
    assert out.splitlines() == [
        "2+3/2t 1,0 x5",
        "1+3/2t 2,0 x5",
        "3/2t 1,1t x10",
        "1/2t 2,1 x10",
        "-1/2t 1,2 x10",
        "-3/2t 1t,1 x10",
        "-1-3/2t 0,2 x5",
        "-2-3/2t 0,1 x5",
    ]


def test_branch_unknown_rule(capsys):
    code, _, err = run(capsys, "branch", "H4", "H3", "1,0,0,0")
    assert code == 3
    assert "branching" in err


def test_embed_index_by_rank(capsys):
    for args, expected in [
        (("embed-index", "H3", "H2"), "3/2\n"),
        (("embed-index", "H2", "A1"), "2\n"),
        (("embed-index", "H4", "A2xA2"), "1\n"),
        (("embed-index", "H4", "H3xA1"), "1\n"),
        (("embed-index", "H3", "A1xA1xA1"), "1\n"),
    ]:
        code, out, _ = run(capsys, *args)
        assert code == 0 and out == expected


def test_embed_index_computed_orbit(capsys):
    code, out, _ = run(capsys, "embed-index", "H3", "A2", "--orbit", "1,1,0")
    assert code == 0
    assert out == "3/2\n"


def test_lower_orbits(capsys):
    code, out, _ = run(capsys, "lower-orbits", "H3", "2,0,0")
    assert code == 0
    assert out == "2,0,0 x1\n0,1,0 x1\n0,-1+1t,0 x1\n0,0,0 x6\n"


def test_lower_orbits_files(capsys, tmp_path):
    dot = tmp_path / "tree.dot"
    js = tmp_path / "tree.json"
    code, out, _ = run(capsys, "lower-orbits", "H2", "1t,1",
                       "--dot", str(dot), "--json", str(js))
    assert code == 0
    assert out == "1t,1 x1\n0,1t x1\n"
    assert dot.read_text().startswith("digraph")
    payload = json.loads(js.read_text())
    assert payload["seed"] == ["1t", "1"]


def test_lower_orbits_max_nodes(capsys, tmp_path):
    # the closure of H3 (2,0,0) has more than three points, in the tree and
    # in the root cone
    code, _, err = run(capsys, "lower-orbits", "H3", "2,0,0", "--max-nodes", "3")
    assert code == 3
    assert "exceeds 3 nodes" in err
    code, _, err = run(capsys, "lower-orbits", "H3", "2,0,0", "--max-nodes", "3",
                       "--json", str(tmp_path / "tree.json"))
    assert code == 3
    assert "exceeds 3 nodes" in err
    assert not (tmp_path / "tree.json").exists()
    assert run(capsys, "lower-orbits", "H3", "2,0,0")[0] == 0
    assert run(capsys, "lower-orbits", "H3", "2,0,0", "--max-nodes", "0")[0] == 2


def test_node_guards_name_the_flag(capsys, tmp_path):
    # node guard of the tree and of the closure, and the level-budget guard
    # (the seed alone has 100 children, over 8 * 5 - 1); the children of
    # 268435456+268435457t,0,0 are also past the int64 range, and the node
    # guard of their level reports before the range test of the next frontier
    for argv in (("lower-orbits", "H3", "2,0,0", "--max-nodes", "3"),
                 ("lower-orbits", "H3", "2,0,0", "--max-nodes", "3",
                  "--json", str(tmp_path / "tree.json")),
                 ("lower-orbits", "H3", "268435456+268435457t,0,0", "--max-nodes", "2"),
                 ("lower-orbits", "H3", "268435456+268435457t,0,0", "--max-nodes", "2",
                  "--json", str(tmp_path / "tree.json")),
                 ("lower-orbits", "H3", "100,0,0", "--max-nodes", "5"),
                 ("export", "H3", "100,0,0", "--nested", "--format", "obj",
                  "--out", str(tmp_path / "shells.obj"), "--max-nodes", "5")):
        code, _, err = run(capsys, *argv)
        assert code == 3, argv
        assert err.endswith("; raise --max-nodes\n"), err
        assert "max_nodes" not in err


def test_export_max_nodes(capsys, tmp_path):
    path = tmp_path / "shells.obj"
    args = ("export", "H3", "2,0,0", "--nested", "--format", "obj", "--out", str(path))
    code, _, err = run(capsys, *args, "--max-nodes", "3")
    assert code == 3
    assert "exceeds 3 nodes" in err
    assert not path.exists()
    assert run(capsys, *args)[0] == 0
    assert path.exists()


def test_export_obj(capsys, tmp_path):
    path = tmp_path / "ico.obj"
    code, out, _ = run(capsys, "export", "H3", "1,0,0", "--nested",
                       "--format", "obj", "--out", str(path))
    assert code == 0
    assert out == f"wrote {path}: 1 shells, 12 points, 30 edges\n"
    assert path.exists()


def test_export_json(capsys, tmp_path):
    path = tmp_path / "shells.json"
    code, out, _ = run(capsys, "export", "H3", "2,0,0", "--nested",
                       "--format", "json", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["group"] == "H3"


def test_export_h4_obj_domain_error(capsys, tmp_path):
    code, _, err = run(capsys, "export", "H4", "1,0,0,0", "--nested",
                       "--format", "obj", "--out", str(tmp_path / "x.obj"))
    assert code == 3
    assert "JSON" in err


def test_unknown_verb_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_unknown_group_exits_3(capsys):
    code, _, err = run(capsys, "orbit", "ZZ", "1,0")
    assert code == 3
    assert "unknown group" in err


def test_non_dominant_seed_exits_3(capsys):
    code, _, err = run(capsys, "orbit", "H3", "--", "-1,0,0")
    assert code == 3
    assert "not dominant" in err


def test_bad_coords_exit_2(capsys):
    for coords in ("x,y", "1/0,0"):
        code, _, err = run(capsys, "orbit", "H2", coords)
        assert code == 2
        assert "bad coordinates" in err


def test_wrong_coordinate_count_exits_3(capsys):
    code, _, err = run(capsys, "orbit", "H3", "1,0")
    assert code == 3


def test_determinism(capsys):
    first = run(capsys, "branch", "H3", "A2", "2,0,1t")
    second = run(capsys, "branch", "H3", "A2", "2,0,1t")
    assert first == second
    third = run(capsys, "product", "H3", "1,0,0", "0,0,1", "--decompose")
    fourth = run(capsys, "product", "H3", "1,0,0", "0,0,1", "--decompose")
    assert third == fourth and third[0] == 0


def test_closed_pipe_exits_without_traceback():
    # `horbits orbit H4 1,1,1,1 | head -1`: the 14,400 lines overflow the pipe
    # buffer, so the writer meets a closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(horbits.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "horbits", "orbit", "H4", "1,1,1,1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert first == b"# orbit H4 1,1,1,1 size=14400\n"
    assert proc.returncode == 1
    assert err == b""


# the verbs that compute exactly in pure Python, and must run without numpy
SCALAR_VERBS = [
    ["orbit", "H3", "1,1,0"],
    ["orbit", "H3", "1,0,1t", "--format", "json"],
    ["orbit", "H3", "1,1,0", "--format", "csv"],
    ["index", "H3", "1,1,1", "--degree", "4"],
    ["product", "H3", "1,0,0", "0,0,1"],
    ["product", "H3", "1,0,0", "0,0,1", "--decompose"],
    ["anomaly", "H3", "1,1,0", "--degree", "3"],
    ["branch", "H3", "A2", "2,0,1t"],
    ["embed-index", "H3", "A2", "--orbit", "1,1,0"],
]

_FRESH_RUN = """
import contextlib, io, json, sys
import horbits
from horbits.cli import main
results = [[None, "", "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps(results))
"""


def test_scalar_verbs_never_import_numpy(capsys, tmp_path):
    # a fresh interpreter: this test process has imported numpy already
    numpy_verbs = [["lower-orbits", "H3", "3,1,0"],
                   ["export", "H3", "2,2,0", "--nested", "--format", "obj",
                    "--out", str(tmp_path / "n.obj")]]
    env = dict(os.environ, PYTHONPATH=str(Path(horbits.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN,
                           json.dumps(SCALAR_VERBS + numpy_verbs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (_, _, after_import), *results = json.loads(proc.stdout)
    assert not after_import
    for argv, (code, out, numpy_loaded) in zip(SCALAR_VERBS + numpy_verbs, results):
        assert (code, out) == run(capsys, *argv)[:2], argv
        if argv in SCALAR_VERBS:
            assert not numpy_loaded, argv


def test_lower_orbits_files_do_not_load_geometry(tmp_path):
    # a fresh interpreter: the tree writer must not pull in the nested-polyhedra module
    js = tmp_path / "tree.json"
    script = ("import sys\nfrom horbits.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, 'horbits.geometry' in sys.modules, file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(horbits.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script,
                           "lower-orbits", "H3", "3,1,0", "--json", str(js)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stderr.split() == ["0", "False"], proc.stderr
    assert json.loads(js.read_text())["seed"] == ["3", "1", "0"]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from horbits import *", namespace)
    namespace.pop("__builtins__")
    expected = {
        "A1", "A2", "BranchLayer", "BranchingRule", "CartesianEmbedding",
        "Decomposition", "DomainError", "GROUPS", "GoldenNumber", "Group",
        "GroupMismatchError", "H2", "H3", "H4", "IndexValue",
        "MalformedMultisetError", "NestedPolyhedra", "NonDominantError", "ONE",
        "Orbit", "Shell", "SizeLimitError", "SubtractionEdge", "SubtractionNode",
        "SubtractionTree", "TAU", "TAU_PRIME", "Weight", "WeightMultiset", "ZERO",
        "anomaly_number", "anomaly_number_normalized", "axis_directions",
        "branch_decompose", "branch_layers", "branching_rule", "build_tree",
        "closed_form_lower_orbits", "decompose", "decompose_product",
        "default_direction", "direct_product_index", "embed", "embedding_index",
        "embedding_index_by_rank", "errors", "even_index", "export_json",
        "export_obj", "generate_orbit", "geometry", "get_group", "golden",
        "groups", "indices", "multiset_even_index", "nested_polyhedra",
        "orbit_product", "orbit_sum", "orbits", "parse_golden", "subgroup_rank",
        "subtraction_children", "tree_to_dot", "tree_to_json",
        "weight_system_dominants", "weightsys",
    }
    assert set(namespace) == expected
    assert expected <= set(dir(horbits))
    assert namespace["build_tree"] is horbits.weightsys.build_tree
    assert horbits.weightsys.MAX_TREE_NODES == horbits.errors.MAX_TREE_NODES
    with pytest.raises(AttributeError):
        getattr(horbits, "no_such_name")
