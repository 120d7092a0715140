"""Group data for the reflection groups H2, H3, H4 and the helpers A1, A2.

Weights are always given in the omega-basis (the basis of fundamental
weights).  In that basis simple root ``alpha_i`` is row ``i`` of the Cartan
matrix, the matrix of the inner product is the inverse Cartan matrix, and
reflection ``i`` subtracts ``x_i * alpha_i`` from a weight ``x``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .errors import DomainError, GroupMismatchError
from .golden import GoldenNumber, TAU, ZERO, _pair_pow, _sign_pair, parse_golden

__all__ = [
    "Group",
    "Weight",
    "H2",
    "H3",
    "H4",
    "A1",
    "A2",
    "GROUPS",
    "get_group",
]


@dataclass(frozen=True)
class Weight:
    """A weight vector of a specific group, in omega-basis coordinates."""

    group: "Group"
    coords: tuple[GoldenNumber, ...]

    def __post_init__(self):
        if len(self.coords) != self.group.rank:
            raise DomainError(
                f"{self.group.tag} weight needs {self.group.rank} coordinates, "
                f"got {len(self.coords)}"
            )

    def _check_group(self, other: "Weight"):
        if self.group is not other.group:
            raise GroupMismatchError(
                f"weights belong to {self.group.tag} and {other.group.tag}"
            )

    def __add__(self, other: "Weight") -> "Weight":
        self._check_group(other)
        return Weight(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_group(other)
        return Weight(self.group, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(self.group, tuple(-c for c in self.coords))

    def scaled(self, factor) -> "Weight":
        return Weight(self.group, tuple(c * factor for c in self.coords))

    @property
    def is_dominant(self) -> bool:
        return all(c.sign() >= 0 for c in self.coords)

    @property
    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    @property
    def is_ztau(self) -> bool:
        return all(c.is_ztau for c in self.coords)

    def floats(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.coords)

    def texts(self) -> tuple[str, ...]:
        return tuple(str(c) for c in self.coords)

    def text(self) -> str:
        """Comma-joined canonical coordinate text, e.g. ``1+1t,0,3``."""
        return ",".join(str(c) for c in self.coords)

    def __str__(self):
        return "(" + self.text() + ")"


# ---------------------------------------------------------------------------
# flat integer representation
#
# Internally a weight is flattened to a tuple of integers: the numerators
# (a_1, b_1, ..., a_r, b_r) of its coordinates a_i + b_i*tau over one shared
# denominator.  Reflections only ever multiply coordinates by Cartan entries,
# which keeps that representation closed and makes hashing cheap.


def _flatten(weights) -> tuple[list[tuple[int, ...]], int]:
    """Scale weights to a common denominator and flatten to integer tuples.

    Each coordinate object is converted once: weights built from flat rows
    share one ``GoldenNumber`` per distinct coordinate.
    """
    numbers = {id(c): c for w in weights for c in w.coords}
    denom = 1
    for c in numbers.values():
        denom = math.lcm(denom, c.rat.denominator, c.tau.denominator)
    # denom is a multiple of both denominators: integer math is exact
    parts = {key: (c.rat.numerator * (denom // c.rat.denominator),
                   c.tau.numerator * (denom // c.tau.denominator))
             for key, c in numbers.items()}
    flats = [tuple(chain.from_iterable([parts[id(c)] for c in w.coords]))
             for w in weights]
    return flats, denom


def _unflatten(group: "Group", flats, denom: int) -> list[Weight]:
    """Weights of flat rows over ``denom``.

    Each distinct coordinate pair becomes one ``GoldenNumber``, shared by
    every weight of the call that has it.
    """
    numbers: dict[tuple[int, int], GoldenNumber] = {}
    weights = []
    for flat in flats:
        coords = []
        for i in range(0, len(flat), 2):
            pair = flat[i], flat[i + 1]
            number = numbers.get(pair)
            if number is None:
                number = numbers[pair] = GoldenNumber(
                    Fraction(pair[0], denom), Fraction(pair[1], denom))
            coords.append(number)
        weights.append(Weight(group, tuple(coords)))
    return weights


def _pair_dot(fx, fy) -> tuple[int, int]:
    """``sum_i x_i * y_i`` over Z[tau] for flat integer rows, as a pair."""
    na = nb = 0
    for i in range(0, len(fx), 2):
        a, b, c, d = fx[i], fx[i + 1], fy[i], fy[i + 1]
        bd = b * d  # tau**2 = 1 + tau
        na += a * c + bd
        nb += a * d + b * c + bd
    return na, nb


def _reflect_flat(flat, i, int_row):
    """Simple reflection ``i`` of a flat weight; ``int_row`` is ``_int_rows[i]``."""
    xa = flat[2 * i]
    xb = flat[2 * i + 1]
    if xa == 0 and xb == 0:
        return flat
    out = list(flat)
    for j, ca, cb in int_row:
        out[2 * j] -= xa * ca + xb * cb
        out[2 * j + 1] -= xa * cb + xb * ca + xb * cb
    return tuple(out)


def _as_golden(value) -> GoldenNumber:
    converted = GoldenNumber._coerce(value)
    if converted is None:
        raise TypeError(f"cannot interpret {value!r} as a golden number")
    return converted


def _determinant(matrix) -> GoldenNumber:
    """Exact determinant by cofactor expansion (rank <= 4 here)."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = ZERO
    for j in range(n):
        if not matrix[0][j]:
            continue
        minor = tuple(
            tuple(row[k] for k in range(n) if k != j) for row in matrix[1:]
        )
        term = matrix[0][j] * _determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _invert(matrix: tuple[tuple[GoldenNumber, ...], ...]):
    """Exact Gauss-Jordan inverse over Q(tau)."""
    n = len(matrix)
    aug = [list(row) + [ONEC if i == j else ZERO for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv_pivot = aug[col][col].inverse()
        aug[col] = [v * inv_pivot for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


ONEC = GoldenNumber(1)


def _path_order(length: int, labels: tuple[int, ...]) -> int:
    """Order of the reflection group whose diagram is a path.

    ``labels`` are the consecutive edge labels (3 or 5).  Covers every
    connected sub-diagram arising inside H2, H3, H4, A1, A2.
    """
    if length == 0:
        return 1
    if length == 1:
        return 2
    if 5 in labels:
        if length == 2:
            return 10
        if length == 3:
            return 120
        if length == 4:
            return 14400
        raise DomainError("no path group of this shape")
    return math.factorial(length + 1)


class Group:
    """Immutable data for one reflection group (Cartan/Gram matrices)."""

    def __init__(self, tag: str, cartan_rows, edge_labels: tuple[int, ...]):
        self.tag = tag
        self.rank = len(cartan_rows)
        self.cartan = tuple(tuple(_as_golden(v) for v in row) for row in cartan_rows)
        self.gram = _invert(self.cartan)
        self.edge_labels = edge_labels
        self.order = _path_order(self.rank, edge_labels)
        # sparse forms of the cartan rows, for the reflection kernels:
        # row i -> ((j, a, b), ...) over nonzero entries a + b*tau
        self._int_rows = tuple(
            tuple((j, int(v.rat), int(v.tau))
                  for j, v in enumerate(row) if v)
            for row in self.cartan
        )
        self.cartan_det = _determinant(self.cartan)
        # adjugate of the Cartan matrix: cartan_det * gram, entries in Z[tau];
        # gives exact integer-pair sign tests for root coordinates
        adj = tuple(tuple(v * self.cartan_det for v in row) for row in self.gram)
        assert all(v.is_ztau for row in adj for v in row)
        self._adjugate_int = tuple(
            tuple((int(v.rat), int(v.tau)) for v in row) for row in adj
        )
        # cartan_det * conj(cartan_det) is the integer field norm N(cartan_det)
        conj = self.cartan_det.conjugate()
        self._det_conj = (int(conj.rat), int(conj.tau))
        self._det_field_norm = int((self.cartan_det * conj).rat)

    def __repr__(self):
        return f"Group({self.tag})"

    def __str__(self):
        return self.tag

    def __reduce__(self):
        # groups are singletons: weights compare and add by ``group is``
        return get_group, (self.tag,)

    # -- weights ----------------------------------------------------------

    def weight(self, *coords) -> Weight:
        """Build a weight from rationals, GoldenNumbers or literal strings."""
        if len(coords) == 1 and isinstance(coords[0], (list, tuple)):
            coords = tuple(coords[0])
        return Weight(self, tuple(
            parse_golden(c) if isinstance(c, str) else _as_golden(c)
            for c in coords
        ))

    def parse_weight(self, text: str) -> Weight:
        """Parse comma-separated golden literals, e.g. ``1+1t,0,3``."""
        parts = text.split(",")
        return Weight(self, tuple(parse_golden(p) for p in parts))

    def zero_weight(self) -> Weight:
        return Weight(self, (ZERO,) * self.rank)

    @property
    def simple_roots(self) -> tuple[Weight, ...]:
        return tuple(Weight(self, row) for row in self.cartan)

    # -- inner product and reflections -------------------------------------

    def inner(self, x: Weight, y: Weight) -> GoldenNumber:
        """Exact scalar product x^T . gram . y in the weight space.

        Computed on integer pairs: ``x`` and ``y`` over one denominator
        ``D``, then ``cartan_det * D**2 * <x,y>`` through the integer
        adjugate, then one division.
        """
        self._own(x)
        self._own(y)
        (fx, fy), denom = _flatten([x, y])
        return self._over_det(self._det_inner_pair(fx, fy), 1, denom * denom)

    def norm(self, x: Weight) -> GoldenNumber:
        return self.inner(x, x)

    def _adj_flat(self, flat) -> tuple[int, ...]:
        """The flat row of ``adjugate @ y`` for a flat row ``y``: its root
        coordinates times ``cartan_det``."""
        out = []
        for row in self._adjugate_int:
            ta = tb = 0
            for j, (ca, cb) in enumerate(row):
                aj = flat[2 * j]
                bj = flat[2 * j + 1]
                ta += ca * aj + cb * bj
                tb += ca * bj + cb * aj + cb * bj
            out += (ta, tb)
        return tuple(out)

    def _det_inner_pair(self, fx, fy) -> tuple[int, int]:
        """``cartan_det * <x,y>`` as an integer pair ``(a, b)`` = ``a + b*tau``.

        ``fx`` and ``fy`` hold the integer parts ``(a_1, b_1, ..., a_r, b_r)``
        of Z[tau] vectors; the product runs through the integer adjugate, so
        no Fraction is built.  Rows over a denominator ``D`` give
        ``cartan_det * D**2 * <x,y>``.
        """
        return _pair_dot(fx, self._adj_flat(fy))

    def _over_det(self, pair, power: int, scale: int) -> GoldenNumber:
        """``(a + b*tau) / (cartan_det**power * scale)`` for an integer pair.

        Multiplying by the Galois conjugate of ``cartan_det`` turns the
        divisor into the integer ``N(cartan_det)**power * scale``, so the
        result takes one exact division per part.
        """
        a, b = pair
        ca, cb = _pair_pow(*self._det_conj, power)
        divisor = self._det_field_norm ** power * scale
        return GoldenNumber(Fraction(a * ca + b * cb, divisor),
                            Fraction(a * cb + b * ca + b * cb, divisor))

    def reflect(self, i: int, x: Weight) -> Weight:
        """Apply the i-th simple reflection (1-based index)."""
        self._own(x)
        if not 1 <= i <= self.rank:
            raise DomainError(f"root index {i} out of range for {self.tag}")
        xi = x.coords[i - 1]
        if not xi:
            return x
        row = self.cartan[i - 1]
        return Weight(self, tuple(c - xi * row[j] for j, c in enumerate(x.coords)))

    def to_dominant(self, x: Weight) -> tuple[Weight, int]:
        """Reflect into the dominant chamber.

        Repeatedly applies the lowest-index reflection whose coordinate is
        negative.  Returns the dominant representative and the number of
        reflections used; the representative does not depend on the policy.
        """
        self._own(x)
        flats, denom = _flatten([x])
        flat, steps = self._to_dominant_flat(flats[0])
        return _unflatten(self, [flat], denom)[0], steps

    def _to_dominant_flat(self, flat) -> tuple[tuple[int, ...], int]:
        """:meth:`to_dominant` on a flat weight; the denominator is unchanged."""
        rows = self._int_rows
        rank = self.rank
        steps = 0
        while True:
            for i in range(rank):
                if _sign_pair(flat[2 * i], flat[2 * i + 1]) < 0:
                    flat = _reflect_flat(flat, i, rows[i])
                    steps += 1
                    break
            else:
                return flat, steps

    # -- orbit sizes --------------------------------------------------------

    def orbit_size(self, dominant: Weight) -> int:
        """Size of the orbit of a dominant weight, from its zero pattern.

        The stabilizer of a dominant weight is the parabolic subgroup
        generated by the reflections fixing it, i.e. those of its zero
        coordinates; the diagram being a path, the stabilizer order is a
        product over consecutive runs of zeros.
        """
        self._own(dominant)
        if not dominant.is_dominant:
            raise DomainError(f"{dominant} is not dominant")
        return self._orbit_size_of_zeros([not c for c in dominant.coords])

    def _orbit_size_of_zeros(self, zeros) -> int:
        """Orbit size of a dominant weight whose coordinate i is zero iff ``zeros[i]``."""
        runs: list[list[int]] = []
        for i, zero in enumerate(zeros):
            if not zero:
                continue
            if runs and i == runs[-1][-1] + 1:
                runs[-1].append(i)
            else:
                runs.append([i])
        stab = 1
        for run in runs:
            stab *= _path_order(len(run), self.edge_labels[run[0]:run[-1]])
        return self.order // stab

    def _own(self, w: Weight):
        if w.group is not self:
            raise GroupMismatchError(f"weight of {w.group.tag} passed to {self.tag}")


_T = TAU
H2 = Group("H2", [[2, -_T], [-_T, 2]], (5,))
H3 = Group("H3", [[2, -1, 0], [-1, 2, -_T], [0, -_T, 2]], (3, 5))
H4 = Group(
    "H4",
    [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -_T], [0, 0, -_T, 2]],
    (3, 3, 5),
)
A1 = Group("A1", [[2]], ())
A2 = Group("A2", [[2, -1], [-1, 2]], (3,))

GROUPS = {g.tag: g for g in (H2, H3, H4, A1, A2)}


@lru_cache(maxsize=None)
def get_group(name: str) -> Group:
    """Look up a group by (case-insensitive) name."""
    group = GROUPS.get(name.upper())
    if group is None:
        raise DomainError(f"unknown group {name!r}; choose from {sorted(GROUPS)}")
    return group
