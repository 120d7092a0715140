"""The benchmark's own tests: correct results pass its checks, and a corrupted
result is counted as a failed operation.

    python3 -m pytest -q bench/test_checks.py
"""
import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import checks as C  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from horbits import GoldenNumber  # noqa: E402


@pytest.fixture
def runner(tmp_path):
    return run.Runner("products", 1, False, str(tmp_path))


def _h2_product():
    return W._product_job("H2 (1,0)x(0,t)", "H2", [(1, 0), (0, "1t")], worked=True)


def _small_jobs(tmp_path):
    """One small job for every kind of job the workloads hold."""
    batch = W._dominant_batch(random.Random(0), "H3", 4)
    return [
        W.golden_job(random.Random(0), n=200),
        _h2_product(),
        W._index_pair_job("H2", ("1", "1t"), ("1", "0")),
        W._even_job(("1", "1t"), ("1", "1", "0"), ("1", "0", "0", "1")),
        W._anomaly_job(2, 3, (1, 1, 0)),
        W._branch_job((1, 0, 0)),
        W._embedding_job(("1", "1"), ("1", "1", "0")),
        W._to_dominant_job("H3", batch),
        W._inner_job("H3", batch),
        W._lower_orbits_job("H3", (1, 0, 0), "(a,0,0)", 1, own_closure=True),
        W._tree_job("H2", ("1t", 1)),
        W._nested_job("H3", (1, 0, 0), str(tmp_path), ("obj", "json")),
    ]


def _corrupted(job, corrupt):
    return dataclasses.replace(job, run=lambda tr: corrupt(job.run(tr)))


def _failed_count(runner, jobs):
    runner.jobs = jobs
    runner.failed = runner.attempted = 0
    runner.run_pass(0)
    return runner.failed, runner.attempted


def test_small_jobs_pass(tmp_path, runner):
    jobs = _small_jobs(tmp_path)
    assert _failed_count(runner, jobs) == (0, len(jobs))


def _bump_first_multiplicity(result):
    ordered, rendered = result
    (w, m), rest = ordered[0], ordered[1:]
    return [(w, m + 1)] + rest, rendered


def test_multiplicity_off_by_one_fails(runner):
    job = _h2_product()
    bad = _corrupted(job, _bump_first_multiplicity)
    assert _failed_count(runner, [job, bad]) == (1, 2)


def test_corruption_after_a_passing_pass_fails(runner):
    job = _h2_product()
    assert _failed_count(runner, [job]) == (0, 1)
    runner.jobs = [_corrupted(job, _bump_first_multiplicity)]
    runner.run_pass(1)
    assert runner.failed == 1
    runner.jobs = [job]
    runner.run_pass(2)
    assert (runner.failed, runner.attempted) == (1, 3)


def test_rendered_line_must_match_parts():
    job = _h2_product()
    ordered, rendered = job.run(spans.NullTracer())
    with pytest.raises(C.CheckError):
        job.check((ordered, rendered[:-1] + ["0,0 x1"]))


def test_product_index_off_fails():
    job = W._index_pair_job("H2", ("1", "1t"), ("1", "0"))
    size_a, size_b, total, i2, i4 = job.run(spans.NullTracer())
    job.check((size_a, size_b, total, i2, i4))
    with pytest.raises(C.CheckError):
        job.check((size_a, size_b, total, i2, i4 + GoldenNumber(0, 1)))


def test_nonzero_odd_index_fails():
    job = W._anomaly_job(2, 3, (1, 1, 0))
    values = job.run(spans.NullTracer())
    with pytest.raises(C.CheckError):
        job.check(values[:-1] + [GoldenNumber(1)])


def test_lower_orbit_count_off_fails():
    job = W._lower_orbits_job("H3", (2, 0, 0), "(a,0,0)", 2, own_closure=True)
    dominants, rendered = job.run(spans.NullTracer())
    job.check((dominants, rendered))
    w, n = dominants[-1]
    with pytest.raises(C.CheckError):
        job.check((dominants[:-1] + [(w, n + 1)], rendered))
    with pytest.raises(C.CheckError):  # a catalogue row dropped
        job.check((dominants[:-1], rendered[:-1]))


def test_tree_edge_off_fails():
    job = W._tree_job("H2", ("1t", 1))
    tree, as_json, as_dot = job.run(spans.NullTracer())
    job.check((tree, as_json, as_dot))
    edge = tree.edges[3]
    bad = dataclasses.replace(edge, multiple=edge.multiple + 1)
    broken = dataclasses.replace(tree, edges=tree.edges[:3] + [bad] + tree.edges[4:])
    with pytest.raises(C.CheckError):
        job.check((broken, as_json, as_dot))
    with pytest.raises(C.CheckError):  # one DOT edge lost
        job.check((tree, as_json, as_dot.replace(" -> ", " -x ", 1)))


def test_shell_point_lost_fails(tmp_path):
    job = W._nested_job("H3", (1, 0, 0), str(tmp_path), ("json",))
    poly = job.run(spans.NullTracer())
    job.check(poly)
    shell = poly.shells[0]
    thin = dataclasses.replace(shell, points=shell.points[:-1])
    with pytest.raises(C.CheckError):
        job.check(dataclasses.replace(poly, shells=(thin,) + poly.shells[1:]))


def test_to_dominant_must_keep_norm():
    job = W._to_dominant_job("H3", W._dominant_batch(random.Random(0), "H3", 4))
    out = job.run(spans.NullTracer())
    job.check(out)
    (dom, steps), rest = out[0], out[1:]
    with pytest.raises(C.CheckError):
        job.check([(dom.group.weight(*[c + 1 for c in dom.coords]), steps)] + rest)


def test_cli_listing_checked():
    good = "1,1,1,1 x1\n"
    with pytest.raises(C.CheckError):
        W.check_cli("products", {"stdout": [good]})
    with pytest.raises(C.CheckError):
        W.check_cli("indices", {"stdout": ["1+1t (2.6)\n"]})
    W.check_cli("indices", {"stdout": ["0 (0.0)\n"]})


def test_own_tables():
    assert C.orbit_size("H4", ((1, 0),) * 4) == 14400
    assert C.orbit_size("H4", ((0, 0), (0, 0), (1, 0), (1, 0))) == 14400 // 6
    assert C.orbit_size("H3", ((0, 0), (1, 0), (0, 0))) == 30
    assert C.parse_q("-1+2/3t") == (Fraction(-1), Fraction(2, 3))
    assert C.text_of(((1, 1), (0, 1), (2, 0), (-1, -2))) == "1+1t,1t,2,-1-2t"
