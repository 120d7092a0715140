"""Independent correctness checks for the benchmark's jobs.

Nothing here calls into ``horbits``: results are read through their public
fields (``GoldenNumber.rat``/``.tau``, ``Weight.coords``, ...) or parsed from
text, and every reference value is computed with the benchmark's own Q(tau)
arithmetic, its own table of stabilizer orders and its own float Gram
matrix.  A check that finds a wrong result raises :class:`CheckError`; the
runner counts the job as a failed operation.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np


class CheckError(AssertionError):
    """A job's result contradicts an independent computation."""


def require(condition, message) -> None:
    """Raise :class:`CheckError` unless ``condition``; ``message`` may be a
    callable, so hot loops build no text unless a check fails."""
    if not condition:
        raise CheckError(message() if callable(message) else message)


# ---------------------------------------------------------------------------
# Q(tau) as pairs (a, b) = a + b*tau of ints or Fractions; tau**2 = tau + 1

Q0 = (0, 0)
Q1 = (1, 0)
TAU = (0, 1)


def qadd(x, y):
    return x[0] + y[0], x[1] + y[1]


def qsub(x, y):
    return x[0] - y[0], x[1] - y[1]


def qneg(x):
    return -x[0], -x[1]


def qmul(x, y):
    a, b = x
    c, d = y
    return a * c + b * d, a * d + b * c + b * d


def qpow(x, n: int):
    out = Q1
    for _ in range(n):
        out = qmul(out, x)
    return out


def qinv(x):
    a, b = x
    norm = Fraction(a * a + a * b - b * b)
    if norm == 0:
        raise ZeroDivisionError("inverse of zero in Q(tau)")
    return (a + b) / norm, -b / norm


def qsign(x) -> int:
    """Exact sign of the real number a + b*tau = ((2a + b) + b*sqrt5) / 2."""
    s = 2 * x[0] + x[1]
    t = x[1]
    if s >= 0 and t >= 0:
        return 1 if (s or t) else 0
    if s <= 0 and t <= 0:
        return -1
    if s > 0:
        return 1 if s * s > 5 * t * t else -1
    return 1 if 5 * t * t > s * s else -1


def qfloat(x) -> float:
    return float(x[0]) + float(x[1]) * (1 + math.sqrt(5)) / 2


def q_of(number):
    """A ``horbits`` GoldenNumber as an exact pair, through its public parts."""
    return number.rat, number.tau


def qvec(weight):
    return tuple(q_of(c) for c in weight.coords)


def ivec(weight):
    """A Z[tau] weight as integer pairs, through the public parts."""
    out = []
    for c in weight.coords:
        r, t = c.rat, c.tau
        if r.denominator != 1 or t.denominator != 1:
            raise CheckError(f"coordinate {r}+{t}t is not in Z[tau]")
        out.append((r.numerator, t.numerator))
    return tuple(out)


_RATIONAL = r"[+-]?\d+(?:/\d+)?"


def parse_q(text: str):
    """Parse the printed form ``R``, ``Rt`` or ``R(+|-)Rt`` into a pair."""
    m = re.fullmatch(rf"({_RATIONAL})", text)
    if m:
        return Fraction(m.group(1)), Fraction(0)
    m = re.fullmatch(rf"({_RATIONAL})t", text)
    if m:
        return Fraction(0), Fraction(m.group(1))
    m = re.fullmatch(rf"({_RATIONAL})([+-])(\d+(?:/\d+)?)t", text)
    require(m is not None, f"unparsable golden number {text!r}")
    tau = Fraction(m.group(3))
    return Fraction(m.group(1)), -tau if m.group(2) == "-" else tau


def parse_qvec(text: str):
    return tuple(parse_q(part) for part in text.split(","))


# ---------------------------------------------------------------------------
# group data, written out here rather than read from horbits

_M = (0, -1)  # -tau
CARTAN = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "H2": ((2, _M), (_M, 2)),
    "H3": ((2, -1, 0), (-1, 2, _M), (0, _M, 2)),
    "H4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, _M), (0, 0, _M, 2)),
}

# Order of the parabolic subgroup generated by the consecutive simple
# reflections i..j (0-based, inclusive) of each path diagram.
STABILIZER_ORDERS = {
    "A1": {(0, 0): 2},
    "A2": {(0, 0): 2, (1, 1): 2, (0, 1): 6},
    "H2": {(0, 0): 2, (1, 1): 2, (0, 1): 10},
    "H3": {(0, 0): 2, (1, 1): 2, (2, 2): 2,
           (0, 1): 6, (1, 2): 10, (0, 2): 120},
    "H4": {(0, 0): 2, (1, 1): 2, (2, 2): 2, (3, 3): 2,
           (0, 1): 6, (1, 2): 6, (2, 3): 10,
           (0, 2): 24, (1, 3): 120, (0, 3): 14400},
}

RANKS = {tag: len(rows) for tag, rows in CARTAN.items()}


def _as_q(entry):
    return entry if isinstance(entry, tuple) else (entry, 0)


def cartan_q(tag):
    return tuple(tuple(_as_q(v) for v in row) for row in CARTAN[tag])


def orbit_size(tag: str, coords) -> int:
    """|W| / |stabilizer|; the stabilizer is a product over runs of zeros."""
    table = STABILIZER_ORDERS[tag]
    rank = RANKS[tag]
    stab = 1
    i = 0
    while i < rank:
        if qsign(coords[i]) != 0:
            i += 1
            continue
        j = i
        while j + 1 < rank and qsign(coords[j + 1]) == 0:
            j += 1
        stab *= table[(i, j)]
        i = j + 1
    order = table[(0, rank - 1)]
    require(order % stab == 0, f"{tag}: stabilizer order {stab} does not divide {order}")
    return order // stab


def _invert_q(matrix):
    """Gauss-Jordan inverse over Q(tau), and the determinant."""
    n = len(matrix)
    aug = [[(Fraction(a), Fraction(b)) for a, b in row]
           + [Q1 if i == j else Q0 for j in range(n)]
           for i, row in enumerate(matrix)]
    det = (Fraction(1), Fraction(0))
    for col in range(n):
        pivot = next(r for r in range(col, n) if qsign(aug[r][col]) != 0)
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = qneg(det)
        det = qmul(det, aug[col][col])
        inv = qinv(aug[col][col])
        aug[col] = [qmul(v, inv) for v in aug[col]]
        for r in range(n):
            if r != col and qsign(aug[r][col]) != 0:
                f = aug[r][col]
                aug[r] = [qsub(v, qmul(f, p)) for v, p in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug), det


class GroupData:
    """Exact and float Gram matrices of one group, computed here."""

    def __init__(self, tag):
        self.tag = tag
        self.rank = RANKS[tag]
        self.cartan = cartan_q(tag)
        self.gram, self.det = _invert_q(self.cartan)
        require(qsign(self.det) > 0, f"{tag}: Cartan determinant not positive")
        # det * gram has Z[tau] entries; integer root coordinates times det
        adj = [[qmul(self.det, g) for g in row] for row in self.gram]
        require(all(v[0].denominator == 1 and v[1].denominator == 1
                    for row in adj for v in row), f"{tag}: adjugate not in Z[tau]")
        self.adj = tuple(tuple((int(v[0]), int(v[1])) for v in row) for row in adj)
        self.cartan_int = tuple(tuple((int(v[0]), int(v[1])) for v in row)
                                for row in self.cartan)
        cart_f = np.array([[qfloat(v) for v in row] for row in self.cartan])
        self.gram_float = np.linalg.inv(cart_f)

    def inner(self, x, y):
        total = Q0
        for i, xi in enumerate(x):
            if xi == Q0:
                continue
            acc = Q0
            for j, yj in enumerate(y):
                acc = qadd(acc, qmul(self.gram[i][j], yj))
            total = qadd(total, qmul(xi, acc))
        return total

    def norm_float(self, x) -> float:
        v = np.array([qfloat(c) for c in x])
        return float(v @ self.gram_float @ v)

    def root_coords_times_det(self, x):
        """``det * gram . x`` for an integer-pair vector x (exact)."""
        out = []
        for row in self.adj:
            acc = Q0
            for g, xj in zip(row, x):
                acc = qadd(acc, qmul(g, xj))
            out.append(acc)
        return out


_GROUPS: dict[str, GroupData] = {}


def group_data(tag) -> GroupData:
    data = _GROUPS.get(tag)
    if data is None:
        data = _GROUPS[tag] = GroupData(tag)
    return data


def is_dominant(x) -> bool:
    return all(qsign(c) >= 0 for c in x)


def int_pairs(x):
    """Exact pairs as integer pairs; the vector must lie in Z[tau]."""
    out = []
    for a, b in x:
        if isinstance(a, Fraction) or isinstance(b, Fraction):
            a, b = Fraction(a), Fraction(b)
            if a.denominator != 1 or b.denominator != 1:
                raise CheckError(f"coordinate {a}+{b}t is not in Z[tau]")
            a, b = a.numerator, b.numerator
        out.append((a, b))
    return tuple(out)


def number_text(a, b) -> str:
    """The printed form of one number, as the benchmark renders it itself."""
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}t"
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}t"


def texts_of(x) -> list[str]:
    return [number_text(a, b) for a, b in x]


def text_of(x) -> str:
    return ",".join(texts_of(x))


# ---------------------------------------------------------------------------
# products


def check_product(tag, factors, parts, rendered=None):
    """``parts``: list of (vector, multiplicity) of a decomposed product.

    Checks the point count, the top orbit, the second-moment identity with
    the float Gram matrix, and (if given) that the rendered lines say the
    same as the parts.
    """
    data = group_data(tag)
    total = 1
    for f in factors:
        total *= orbit_size(tag, f)
    covered = 0
    for w, m in parts:
        require(m >= 1 and is_dominant(w),
                lambda: f"{tag}: part {text_of(w)} x{m} is not a dominant part")
        covered += m * orbit_size(tag, w)
    require(covered == total, f"{tag}: parts cover {covered} of {total} points")
    top = factors[0]
    for f in factors[1:]:
        top = tuple(qadd(a, b) for a, b in zip(top, f))
    mults = {w: m for w, m in parts}
    require(mults.get(top) == 1,
            f"{tag}: top orbit {text_of(top)} has multiplicity {mults.get(top)}")
    left = sum(m * orbit_size(tag, w) * data.norm_float(w) for w, m in parts)
    right = total * sum(data.norm_float(f) for f in factors)
    require(math.isclose(left, right, rel_tol=1e-9),
            f"{tag}: second moment {left!r} != {right!r}")
    if rendered is not None:
        require(len(rendered) == len(parts),
                f"{tag}: {len(rendered)} rendered lines for {len(parts)} parts")
        for line, (w, m) in zip(rendered, parts):
            require(line == f"{text_of(w)} x{m}",
                    lambda: f"{tag}: line {line!r} != part {text_of(w)} x{m}")


H2_WORKED = ["1,1t x1", "1t,0 x2", "0,-1+1t x1"]


def check_h2_worked(rendered):
    require(list(rendered) == H2_WORKED,
            f"H2 worked product {' / '.join(rendered)} != {' / '.join(H2_WORKED)}")


# ---------------------------------------------------------------------------
# indices


def even_index_ref(tag, lam, p):
    size = orbit_size(tag, lam)
    norm = group_data(tag).inner(lam, lam)
    value = qpow(norm, p)
    return size * value[0], size * value[1]


def check_equal_q(got, expected, what):
    require(Fraction(got[0]) == Fraction(expected[0])
            and Fraction(got[1]) == Fraction(expected[1]),
            f"{what}: {got} != {expected}")


def check_product_indices(tag, lam, mu, n_points, i2, i4):
    """I2/I4 of a product of two orbits, against the product identities."""
    require(n_points == orbit_size(tag, lam) * orbit_size(tag, mu),
            f"{tag}: product has {n_points} points")
    n = RANKS[tag]
    coeff = (Fraction(2 * (n + 2), n), 0)
    a = [even_index_ref(tag, lam, p) for p in (0, 1, 2)]
    b = [even_index_ref(tag, mu, p) for p in (0, 1, 2)]
    want2 = qadd(qmul(a[1], b[0]), qmul(a[0], b[1]))
    want4 = qadd(qadd(qmul(a[2], b[0]), qmul(a[0], b[2])),
                 qmul(coeff, qmul(a[1], b[1])))
    check_equal_q(i2, want2, f"{tag} I2 of product")
    check_equal_q(i4, want4, f"{tag} I4 of product")


def check_direct_product_index(factors, p, value):
    sizes = 1
    norms = Q0
    for tag, lam in factors:
        sizes *= orbit_size(tag, lam)
        norms = qadd(norms, qpow(group_data(tag).inner(lam, lam), p))
    check_equal_q(value, qmul((sizes, 0), norms), "direct product index")


def h2_odd_index(a, b, degree):
    """Closed form of the H2 odd index along (-tau, tau) for the orbit (a, b).

    Five mirror-paired heights, scaled by tau/(2+tau), doubled.
    """
    t = TAU
    terms = [
        qsub(b, a),
        qadd(qadd(a, qmul(a, t)), b),
        qneg(qadd(qadd(a, b), qmul(b, t))),
        qneg(qadd(qadd(qmul((2, 0), qmul(a, t)), b), qmul(b, t))),
        qadd(qadd(a, qmul(a, t)), qmul((2, 0), qmul(b, t))),
    ]
    total = Q0
    for term in terms:
        total = qadd(total, qpow(term, degree))
    factor = qmul(t, qinv((2, 1)))
    return qmul((2, 0), qmul(qpow(factor, degree), total))


def check_branch_layers(parent, child, lam, layers):
    """``layers``: list of (height, child dominant, points in the layer)."""
    size = orbit_size(parent, lam)
    covered = 0
    by_height: dict = {}
    for height, dom, count in layers:
        require(is_dominant(dom) and count % orbit_size(child, dom) == 0,
                lambda: f"branch {parent}->{child}: {count} points of the orbit of "
                f"{text_of(dom)} do not make whole dominant orbits")
        covered += count
        key = (Fraction(height[0]), Fraction(height[1]))
        by_height[key] = by_height.get(key, 0) + count
    require(covered == size, f"branch {parent}->{child}: layers cover {covered} of {size}")
    for h, points in by_height.items():
        mirror = (-h[0], -h[1])
        require(by_height.get(mirror) == points,
                f"branch {parent}->{child}: height {h} holds {points} points, "
                f"its mirror {by_height.get(mirror)}")


def check_to_dominant(tag, x, dom, steps):
    require(is_dominant(dom), f"{tag}: to_dominant gave {text_of(dom)}, not dominant")
    require(steps >= (0 if is_dominant(x) else 1), f"{tag}: {steps} reflections")
    data = group_data(tag)
    check_equal_q(data.inner(dom, dom), data.inner(x, x), f"{tag} norm under to_dominant")


# ---------------------------------------------------------------------------
# weight systems


def subtraction_closure(tag, seed):
    """Dominants and arrival counts of the root-subtraction closure.

    Integer pairs throughout: a point with a positive coordinate
    ``l = a + b*tau`` steps to ``point - k*(l/g)*alpha_i`` for ``k = 1..g``,
    ``g = gcd(|a|, |b|)``.  Every distinct point is expanded once; the count
    of a dominant point is its number of arrivals (the seed keeps at least 1).
    """
    cartan = group_data(tag).cartan_int
    rank = len(seed)
    arrivals = {seed: 0}
    queue = [seed]
    for point in queue:
        for i, (a, b) in enumerate(point):
            if qsign((a, b)) <= 0:
                continue
            g = math.gcd(abs(a), abs(b))
            step = (a // g, b // g)
            for k in range(1, g + 1):
                m = (k * step[0], k * step[1])
                child = tuple(qsub(point[j], qmul(m, cartan[i][j]))
                              for j in range(rank))
                if child in arrivals:
                    arrivals[child] += 1
                else:
                    arrivals[child] = 1
                    queue.append(child)
    return {p: max(1, n) for p, n in arrivals.items() if is_dominant(p)}


def check_lower_orbits(tag, seed, dominants, catalogue=None, closure=None):
    """``dominants``: list of (integer-pair vector, count) in output order."""
    require(dominants and dominants[0] == (seed, 1),
            f"{tag} {text_of(seed)}: first entry {dominants[:1]} is not the seed x1")
    data = group_data(tag)
    seen = set()
    for w, count in dominants:
        diff = tuple(qsub(s, x) for s, x in zip(seed, w))
        require(count >= 1 and is_dominant(w) and w not in seen
                and all(qsign(r) >= 0 for r in data.root_coords_times_det(diff)),
                lambda: f"{tag} {text_of(seed)}: {text_of(w)} x{count} is not a new "
                f"dominant point with seed - point in the root cone")
        seen.add(w)
    if catalogue is not None:
        missing = catalogue - seen
        require(not missing, f"{tag} {text_of(seed)}: catalogue rows missing: "
                f"{sorted(text_of(w) for w in missing)}")
    if closure is not None:
        require(dict(dominants) == closure,
                f"{tag} {text_of(seed)}: dominants differ from the own closure")


def check_tree_edges(tag, edges):
    """``edges``: (source, target, multiple, 1-based root index), integer pairs."""
    cartan = group_data(tag).cartan_int
    for source, target, m, i in edges:
        want = tuple(qsub(s, qmul(m, c)) for s, c in zip(source, cartan[i - 1]))
        if want != target:
            raise CheckError(f"{tag}: edge {text_of(source)} -{text_of([m])}a{i}"
                             f"-> {text_of(target)}, expected {text_of(want)}")


def check_shell(tag, dominant, radius, points):
    require(len(points) == orbit_size(tag, dominant),
            f"{tag} shell {text_of(dominant)}: {len(points)} points")
    want = math.sqrt(group_data(tag).norm_float(dominant))
    require(math.isclose(radius, want, rel_tol=1e-9),
            f"{tag} shell {text_of(dominant)}: radius {radius} != {want}")
    r = np.sqrt((np.asarray(points) ** 2).sum(axis=1))
    require(np.allclose(r, want, rtol=1e-9, atol=0),
            f"{tag} shell {text_of(dominant)}: points off radius {want}")


def count_records(text: str, *prefixes):
    """Number of lines starting with each prefix."""
    counts = dict.fromkeys(prefixes, 0)
    for line in text.splitlines():
        for p in prefixes:
            if line.startswith(p):
                counts[p] += 1
    return counts
