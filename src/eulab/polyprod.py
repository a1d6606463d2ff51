"""Sparse two-variable polynomials lifted to integer vector sets.

f(x, y) = sum_{i=1}^{n-1} r_i x^{m_i} y^{i-1} + r_n y^{n-1} factors through
a dot product: the row for x carries the coefficient-weighted powers of x
and a trailing 1, the row for y carries the powers of y with r_n folded
into the last slot.  Linear independence of any n rows drawn from the
y-side (plus the last standard basis vector) is what makes lower bounds on
the prime support of the product of all f(a, b) values possible, so it is
checked exactly over the integers, never in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from eulab.factor import INT64_MAX, factor_rational

# check_independence refuses more than this many subsets times n^3 before
# any determinant.  Bareiss takes about n^3/3 steps per determinant, and a
# fixed cost per subset weighs most at n = 2: at the line, with entries
# near 2^63, n = 2 (|B| = 3535) took 9.2 to 9.7 s, n = 3 (|B| = 223)
# 5 s and n = 10 (|B| = 17) 1.8 s (2 vCPUs, Python 3.11.7).  From n = 11
# on even the smallest |B| = 2n - 2 is past it: n = 11 took 19 s there.
_MAX_INDEPENDENCE_WORK = 5 * 10**7

# omega_product refuses more than this many values of f, |A| * |B| after
# duplicates are dropped, before any is factored.  A value just below
# 2^63 takes about 0.8 ms to factor: at the line, |A| = 120 and |B| = 100,
# f = x + y over random values just below 2^62 took 9.5 to 10.9 s, and
# x^2 + x*y + y^2 over values just below 1.753e9 11.1 s (2 vCPUs,
# Python 3.11.7).
_MAX_PRODUCT_VALUES = 12_000


@dataclass(frozen=True)
class SparsePolySpec:
    n: int
    r: tuple[int, ...]
    m: tuple[int, ...]

    def __post_init__(self) -> None:
        # exact types: a float such as 2.0, a numeric string or a bool
        # (an int subclass) is refused, not coerced
        if type(self.n) is not int:
            raise ValueError("n must be an integer")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        object.__setattr__(self, "r", tuple(self.r))
        object.__setattr__(self, "m", tuple(self.m))
        if any(type(v) is not int for v in self.r + self.m):
            raise ValueError("coefficients and exponents must be integers")
        if len(self.r) != self.n:
            raise ValueError(f"expected {self.n} coefficients")
        if len(self.m) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} exponents")
        if any(v <= 0 for v in self.r):
            raise ValueError("coefficients must be positive")
        if any(v < 0 for v in self.m):
            raise ValueError("exponents must be nonnegative")

    def evaluate(self, x: int, y: int) -> int:
        total = self.r[self.n - 1] * y ** (self.n - 1)
        for i in range(self.n - 1):
            total += self.r[i] * x ** self.m[i] * y ** i
        return total


@dataclass(frozen=True)
class VectorSet:
    dimension: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for v in self.vectors:
            if len(v) != self.dimension:
                raise ValueError("vector length differs from the dimension")

    def __len__(self) -> int:
        return len(self.vectors)


def _positive_elements(values: Iterable[int], label: str) -> tuple[int, ...]:
    values = tuple(values)
    if any(type(v) is not int or v < 1 for v in values):
        raise ValueError(f"{label} must contain positive integers")
    return tuple(sorted(set(values)))


def build_vectors(spec: SparsePolySpec, a_set: Iterable[int],
                  b_set: Iterable[int]) -> tuple[VectorSet, VectorSet]:
    """Lift element sets to the paired vector families.

    Row for x: (r_1 x^{m_1}, ..., r_{n-1} x^{m_{n-1}}, 1).
    Row for y: (1, y, ..., y^{n-2}, r_n y^{n-1}).
    Their dot product is exactly f(x, y).
    """
    a_elems = _positive_elements(a_set, "A")
    b_elems = _positive_elements(b_set, "B")
    if not len(a_elems) >= len(b_elems) >= 2 * spec.n - 2:
        raise ValueError(
            f"need |A| >= |B| >= {2 * spec.n - 2}, "
            f"got |A| = {len(a_elems)}, |B| = {len(b_elems)}")
    n = spec.n
    a_rows = tuple(
        tuple(spec.r[i] * x ** spec.m[i] for i in range(n - 1)) + (1,)
        for x in a_elems)
    b_rows = tuple(
        tuple(y ** j for j in range(n - 1)) + (spec.r[n - 1] * y ** (n - 1),)
        for y in b_elems)
    return VectorSet(n, a_rows), VectorSet(n, b_rows)


def integer_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Every division is by a previous pivot and provably exact, so the
    computation stays in the integers throughout.
    """
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            below = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - below * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class IndependenceReport:
    independent: bool
    dimension: int
    subsets_checked: int
    singular_subset: tuple[tuple[int, ...], ...] | None

    def __bool__(self) -> bool:
        return self.independent


def check_independence(b_vectors: VectorSet) -> IndependenceReport:
    """Whether every n-subset of B' together with e_n is nonsingular.

    All subsets are checked by exact determinant; the first singular one,
    if any, is returned as the certificate.  For rows built from distinct
    positive y with r_n >= 1 this always succeeds: the all-B' determinant
    is r_n times a Vandermonde, and subsets containing e_n expand along
    the last column into a smaller Vandermonde.  A check of more than
    _MAX_INDEPENDENCE_WORK subsets times n^3 raises ValueError first.
    """
    n = b_vectors.dimension
    e_n = (0,) * (n - 1) + (1,)
    candidates = list(b_vectors.vectors) + [e_n]
    subsets = math.comb(len(candidates), n)
    if subsets * n ** 3 > _MAX_INDEPENDENCE_WORK:
        raise ValueError(
            f"independence check of {subsets} subsets of {n} rows is past "
            f"the line of {_MAX_INDEPENDENCE_WORK} subsets times n^3")
    checked = 0
    for subset in combinations(candidates, n):
        checked += 1
        if integer_determinant(subset) == 0:
            return IndependenceReport(False, n, checked, subset)
    return IndependenceReport(True, n, checked, None)


def _product_sets(a_set: Iterable[int], b_set: Iterable[int]) -> tuple:
    """The sets omega_product reads, without duplicates, or ValueError
    for an empty set or past the line of _MAX_PRODUCT_VALUES values."""
    a_elems = _positive_elements(a_set, "A")
    b_elems = _positive_elements(b_set, "B")
    if not a_elems or not b_elems:
        raise ValueError("both sets must be nonempty")
    values = len(a_elems) * len(b_elems)
    if values > _MAX_PRODUCT_VALUES:
        raise ValueError(
            f"omega of {values} values of f is past the line of "
            f"{_MAX_PRODUCT_VALUES} values")
    return a_elems, b_elems


def omega_product(spec: SparsePolySpec, a_set: Iterable[int],
                  b_set: Iterable[int]) -> int:
    """Distinct rational primes dividing the product of f(a, b) over A x B.

    Each value is factored separately and the prime supports are united.
    Values are positive by construction; any value beyond the 64-bit
    factorization range raises with the offending pair named.  Every term
    is positive, so f(x, y) >= x^m for the largest exponent m; once
    m * (bit_length(x) - 1) >= 63 the pair is refused before x^m is built.
    More than _MAX_PRODUCT_VALUES values raise ValueError before any is
    factored.
    """
    a_elems, b_elems = _product_sets(a_set, b_set)
    top = max(spec.m)
    primes: set[int] = set()
    for x in a_elems:
        for y in b_elems:
            if (top * (x.bit_length() - 1) >= 63
                    or (v := spec.evaluate(x, y)) > INT64_MAX):
                raise ValueError(
                    f"f({x},{y}) exceeds the 64-bit factoring range")
            for p, _ in factor_rational(v).factors:
                primes.add(p)
    return len(primes)


__all__ = ["SparsePolySpec", "VectorSet", "build_vectors",
           "integer_determinant", "IndependenceReport",
           "check_independence", "omega_product"]
