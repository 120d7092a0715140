import itertools
import random
from fractions import Fraction

import pytest

from horbits.errors import DomainError, GroupMismatchError
from horbits.golden import GoldenNumber, TAU, _sign_pair, golden, parse_golden
from horbits.groups import (A1, A2, GROUPS, H2, H3, H4, _invert, _pair_dot, _path_order,
                            _reflect_flat, get_group)

ALL_GROUPS = (H2, H3, H4, A1, A2)


def test_cartan_matrices_exact_entries():
    t = TAU
    assert H2.cartan == ((golden(2), -t), (-t, golden(2)))
    assert H3.cartan == (
        (golden(2), golden(-1), golden(0)),
        (golden(-1), golden(2), -t),
        (golden(0), -t, golden(2)),
    )
    assert H4.cartan[2] == (golden(0), golden(-1), golden(2), -t)
    assert H4.cartan[3] == (golden(0), golden(0), -t, golden(2))
    assert A1.cartan == ((golden(2),),)
    assert A2.cartan == ((golden(2), golden(-1)), (golden(-1), golden(2)))


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.tag)
def test_gram_times_cartan_is_identity(group):
    n = group.rank
    for i in range(n):
        for j in range(n):
            acc = golden(0)
            for k in range(n):
                acc = acc + group.gram[i][k] * group.cartan[k][j]
            assert acc == (1 if i == j else 0)


@pytest.mark.parametrize("matrix,inverse,det", [
    # a permutation matrix: the elimination swaps rows once
    (((0, 1), (1, 0)), ((0, 1), (1, 0)), -1),
    # a Q(tau) matrix with leading entry 0: one swap, pivots 2 and tau
    (((0, "1t"), (2, 1)), (("1/2-1/2t", "1/2"), ("-1+1t", 0)), "-2t"),
], ids=["permutation", "golden"])
def test_invert_returns_inverse_and_determinant(matrix, inverse, det):
    def as_golden(rows):
        return tuple(tuple(parse_golden(str(v)) for v in row) for row in rows)
    assert _invert(as_golden(matrix)) == (as_golden(inverse), parse_golden(str(det)))


def test_cartan_determinants_exact():
    assert [g.cartan_det for g in ALL_GROUPS] == [
        golden(3, -1), golden(4, -2), golden(5, -3), golden(2), golden(3)]


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.tag)
def test_cartan_symmetric(group):
    for i in range(group.rank):
        for j in range(group.rank):
            assert group.cartan[i][j] == group.cartan[j][i]


def test_group_orders():
    assert [g.order for g in ALL_GROUPS] == [10, 120, 14400, 2, 6]


def test_get_group_case_insensitive():
    assert get_group("h3") is H3
    assert get_group("H4") is H4
    with pytest.raises(DomainError):
        get_group("E8")


def _h2_form(a, b):
    return (golden(2) * (a * a + TAU * a * b + b * b)) / (golden(3) - TAU)


def _h3_form(a, b, c):
    t = TAU
    num = ((golden(3) - t) * a * a + golden(4) * b * b + golden(3) * c * c
           + golden(4) * a * b + golden(2) * t * a * c + golden(4) * t * b * c)
    return num / (golden(4) - golden(2) * t)


def _h4_form(a, b, c, d):
    t = TAU
    num = golden(2) * ((golden(2) - t) * a * a + (golden(3) - t) * b * b
                       + golden(3) * c * c + golden(2) * d * d
                       + (golden(3) - t) * a * b + golden(2) * a * c
                       + t * a * d + golden(4) * b * c + golden(2) * t * b * d
                       + golden(3) * t * c * d)
    return num / (golden(5) - golden(3) * t)


@pytest.mark.parametrize("group,form", [
    (H2, _h2_form), (H3, _h3_form), (H4, _h4_form),
], ids=lambda v: getattr(v, "tag", "form"))
def test_norm_matches_quadratic_form(group, form):
    rng = random.Random(11)
    for _ in range(100):
        coords = [golden(rng.randint(-9, 9)) for _ in range(group.rank)]
        w = group.weight(coords)
        assert group.inner(w, w) == form(*coords)


@pytest.mark.parametrize("group", list(GROUPS.values()), ids=lambda g: g.tag)
def test_det_norm_pair_matches_det_inner_pair(group):
    # the symmetric form behind the listing norms equals the bilinear kernel
    rng = random.Random(23)
    for span in (3, 1000, 10**12):
        for _ in range(300):
            flat = tuple(rng.randint(-span, span) for _ in range(2 * group.rank))
            assert group._det_norm_pair(flat) == _pair_dot(flat, group._adj_flat(flat))


def test_inner_worked_value_h2():
    w = H2.weight(1, 0)
    assert H2.inner(w, w) == golden(2) / (golden(3) - TAU)


def test_inner_of_zero():
    w = H3.weight(2, 1, 0)
    assert H3.inner(w, H3.zero_weight()) == golden(0)


def test_inner_group_mismatch():
    with pytest.raises(GroupMismatchError):
        H2.inner(H2.weight(1, 0), A2.weight(1, 0))


def test_inner_symmetric_bilinear(rng):
    for _ in range(30):
        x = H3.weight(*[rng.randint(-4, 4) for _ in range(3)])
        y = H3.weight(*[rng.randint(-4, 4) for _ in range(3)])
        z = H3.weight(*[rng.randint(-4, 4) for _ in range(3)])
        assert H3.inner(x, y) == H3.inner(y, x)
        assert H3.inner(x + y, z) == H3.inner(x, z) + H3.inner(y, z)


def test_reflect_examples():
    assert H3.reflect(1, H3.weight(1, 0, 0)) == H3.weight(-1, 1, 0)
    assert H2.reflect(2, H2.weight("2t", -1)) == H2.weight("1t", 1)


def test_reflect_is_isometric_involution(rng):
    for _ in range(30):
        x = H3.weight(*[rng.randint(-4, 4) for _ in range(3)])
        y = H3.weight(*[rng.randint(-4, 4) for _ in range(3)])
        i = rng.randint(1, 3)
        assert H3.reflect(i, H3.reflect(i, x)) == x
        assert H3.inner(H3.reflect(i, x), H3.reflect(i, y)) == H3.inner(x, y)


def test_reflect_bad_index():
    with pytest.raises(DomainError):
        H2.reflect(3, H2.weight(1, 0))


def test_to_dominant_examples():
    dom, steps = H3.to_dominant(H3.weight(-1, 1, 0))
    assert dom == H3.weight(1, 0, 0) and steps == 1
    dom, steps = H2.to_dominant(H2.weight(1, 1))
    assert dom == H2.weight(1, 1) and steps == 0
    dom, _ = H2.to_dominant(H2.weight(-1, "-1t"))
    assert dom == H2.weight("1t", 1)


def test_to_dominant_constant_on_orbit(rng):
    for _ in range(25):
        x = H3.weight(*[rng.randint(-3, 3) for _ in range(3)])
        dom, _ = H3.to_dominant(x)
        assert dom.is_dominant
        y = x
        for _ in range(rng.randint(1, 8)):
            y = H3.reflect(rng.randint(1, 3), y)
        assert H3.to_dominant(y)[0] == dom
        assert H3.to_dominant(dom) == (dom, 0)


def _reference_to_dominant(group, x):
    """Lowest-index negative coordinate first, one ``Group.reflect`` at a time."""
    steps = 0
    while True:
        for i, c in enumerate(x.coords):
            if c < 0:
                x = group.reflect(i + 1, x)
                steps += 1
                break
        else:
            return x, steps


def test_to_dominant_matches_reflect_loop(rng):
    def part():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))

    for group in ALL_GROUPS:
        for _ in range(20):
            x = group.weight(*[golden(part(), part() if rng.random() < 0.5 else 0)
                               for _ in range(group.rank)])
            assert group.to_dominant(x) == _reference_to_dominant(group, x)


def _reference_reduce_flat(group, flat, indices):
    """Reflect at the lowest index of ``indices`` with a negative coordinate,
    one ``_reflect_flat`` tuple at a time, re-scanning from the lowest index
    after each reflection."""
    steps = 0
    while True:
        for i in indices:
            if _sign_pair(flat[2 * i], flat[2 * i + 1]) < 0:
                flat = _reflect_flat(flat, i, group._int_rows[i])
                steps += 1
                break
        else:
            return flat, steps


def _random_flat(group, rng):
    """A flat row whose coordinate pairs are zero, small integers of mixed
    signs, or Fibonacci-sized pairs ``±(F_{k+1}, -F_k)``, of value
    ``±tau**-k``, whose sign only the exact test tells."""
    fib = [0, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    flat = []
    for _ in range(group.rank):
        kind = rng.randrange(3)
        if kind == 0:
            pair = (0, 0)
        elif kind == 1:
            pair = (rng.randint(-6, 6), rng.randint(-6, 6))
        else:
            k = rng.randrange(2, 38)
            sign = rng.choice((1, -1))
            pair = (sign * fib[k + 1], -sign * fib[k])
        flat += pair
    return tuple(flat)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.tag)
def test_reduce_flat_matches_the_rescan_loop(group):
    # the reduction kernel _to_dominant_flat resumes at the previous wall;
    # the J-reductions of the reference are tested against the product rule
    # in test_orbits.py
    rng = random.Random(31 * group.rank + len(group.edge_labels))
    for _ in range(60):
        flat = _random_flat(group, rng)
        x, steps = group._to_dominant_flat(flat)
        assert (x, steps) == _reference_reduce_flat(group, flat, range(group.rank))
        assert isinstance(x, tuple) and (steps == 0) == (x == flat)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.tag)
def test_orbit_size_table_is_the_path_order_product(group):
    # the stabilizer of a dominant weight is a product over the runs of its
    # zero coordinates, each the group of a path
    assert len(group._orbit_sizes) == 2 ** group.rank
    for zeros in itertools.product((False, True), repeat=group.rank):
        runs: list[list[int]] = []
        for i, zero in enumerate(zeros):
            if zero and runs and i == runs[-1][-1] + 1:
                runs[-1].append(i)
            elif zero:
                runs.append([i])
        stab = 1
        for run in runs:
            stab *= _path_order(len(run), group.edge_labels[run[0]:run[-1]])
        assert group._orbit_sizes[zeros] == group.order // stab
        coords = [0 if zero else 1 for zero in zeros]
        assert group.orbit_size(group.weight(*coords)) == group.order // stab


def test_orbit_size_rejects_non_dominant():
    with pytest.raises(DomainError):
        H3.orbit_size(H3.weight(-1, 0, 0))


def test_weight_text_round_trip():
    w = H3.parse_weight("1+1t,0,-1/2t")
    assert w.text() == "1+1t,0,-1/2t"


def test_weight_length_checked():
    with pytest.raises(DomainError):
        H3.weight(1, 0)
