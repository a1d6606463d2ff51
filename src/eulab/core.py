"""Exact arithmetic in the ring E = Z[omega], omega^2 + omega + 1 = 0.

Elements are stored on the basis (1, omega) as integer pairs (a, b), so
omega = (0, 1) and the complex embedding sends (a, b) to a + b*omega with
omega = (-1 + sqrt(-3))/2.  The norm a^2 - a*b + b^2 is multiplicative and
the six units are the powers of 1 + omega, which rotates the plane by 60
degrees.  Every nonzero element has exactly one associate whose argument
lies in [0, 60) degrees; that associate is the canonical choice used for
gcds and prime factorizations.
"""

from __future__ import annotations

import math

# Coordinates are declared 64-bit signed.  Python integers never wrap, so
# the contract "overflow is detected and reported" is an explicit range
# check at construction; intermediates (norms, products) stay exact.
COORD_BOUND = 2**63 - 1


def _round_half_down(n: int, d: int) -> int:
    """Nearest integer to n/d with ties rounded toward -infinity (d > 0)."""
    return -((d - 2 * n) // (2 * d))


class EInt:
    """An element a + b*omega; immutable, hashed and compared as (a, b).

    A plain slotted class rather than a frozen dataclass: construction is
    the hot path of every ring operation, and this __init__ does the range
    check and two slot writes with no further dispatch.
    """

    __slots__ = ("a", "b")
    a: int
    b: int

    def __init__(self, a: int, b: int) -> None:
        if not (-COORD_BOUND <= a <= COORD_BOUND
                and -COORD_BOUND <= b <= COORD_BOUND):
            raise OverflowError(f"coordinate out of 64-bit range: ({a},{b})")
        _set_a(self, a)
        _set_b(self, b)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is EInt:
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __reduce__(self) -> tuple[type, tuple[int, int]]:
        return EInt, (self.a, self.b)

    @classmethod
    def parse(cls, text: str) -> EInt:
        """Inverse of str(): 'a,b' with optional signs and whitespace."""
        parts = text.strip().split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'a,b', got {text!r}")
        try:
            return cls(int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ValueError(f"expected 'a,b', got {text!r}") from exc

    def __str__(self) -> str:
        return f"{self.a},{self.b}"

    def __repr__(self) -> str:
        return f"EInt({self.a}, {self.b})"

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def norm(self) -> int:
        a, b = self.a, self.b
        return a * a - a * b + b * b

    def conj(self) -> EInt:
        return EInt(self.a - self.b, -self.b)

    def is_unit(self) -> bool:
        return self.norm() == 1

    def __add__(self, other: object) -> EInt:
        if other.__class__ is not EInt:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return EInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> EInt:
        if other.__class__ is not EInt:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return EInt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: object) -> EInt:
        if other.__class__ is not EInt:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return EInt(other.a - self.a, other.b - self.b)

    def __neg__(self) -> EInt:
        return EInt(-self.a, -self.b)

    def __mul__(self, other: object) -> EInt:
        if other.__class__ is not EInt:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        # (a1 + b1 w)(a2 + b2 w) with w^2 = -1 - w.
        return EInt(a1 * a2 - b1 * b2, a1 * b2 + a2 * b1 - b1 * b2)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> EInt:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __divmod__(self, other: object) -> tuple[EInt, EInt]:
        """Euclidean division: q, r with self = q*other + r, N(r) <= 3/4 N(other).

        The exact quotient self/other has omega-coordinates n_a/N and n_b/N;
        rounding each to the nearest integer leaves a fractional error of at
        most 1/2 per coordinate, and N(x + y*omega) <= 3/4 on that square.
        Ties round toward -infinity so the result is a single-valued map.
        """
        if other.__class__ is not EInt:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero in E")
        sa, sb, oa, ob = self.a, self.b, other.a, other.b
        na, nb, n = _quotient(sa, sb, oa, ob)
        qa, qb = _round_half_down(na, n), _round_half_down(nb, n)
        # self - q*other on plain ints too: q*other may leave the range
        # when q and the remainder both fit.
        q = EInt(qa, qb)
        return q, EInt(sa - (qa * oa - qb * ob),
                       sb - (qa * ob + oa * qb - qb * ob))

    def __floordiv__(self, other: object) -> EInt:
        return divmod(self, other)[0]

    def __mod__(self, other: object) -> EInt:
        return divmod(self, other)[1]

    def is_canonical(self) -> bool:
        """True when the argument lies in [0, 60) degrees.

        On the (1, omega) basis that halfplane condition is exactly the
        integer predicate b >= 0 and a > b: the embedding has imaginary
        part b*sqrt(3)/2 and the 60-degree ray is the line a = b.
        """
        return self.b >= 0 and self.a > self.b

    def canonical_associate(self) -> tuple[EInt, EInt]:
        """The unique canonical associate y and the unit u with y = u * x.
        (a, b) -> (a - b, a) is the product by 1 + omega, a 60-degree turn,
        so t turns give u = UNITS[t].  A turn that leaves the coordinate
        range ends the loop, and EInt raises as that product would."""
        if self.is_zero():
            raise ValueError("zero has no canonical associate")
        a, b, t = self.a, self.b, 0
        while (b < 0 or a <= b) and -COORD_BOUND <= a <= COORD_BOUND:
            a, b, t = a - b, a, t + 1
        return (EInt(a, b) if t else self), UNITS[t]

    def sector_index(self) -> int:
        """Index k in 0..5 of the 60-degree sector containing the argument."""
        if self.is_zero():
            raise ValueError("zero has no sector")
        # UNITS[-k % 6] turns an element of sector k into [0, 60) degrees
        return -UNITS.index(self.canonical_associate()[1]) % 6


# Slot writers that bypass EInt.__setattr__, for __init__ only.
_set_a = EInt.a.__set__
_set_b = EInt.b.__set__


def _coerce(value: object) -> EInt | None:
    if isinstance(value, EInt):
        return value
    if isinstance(value, int):
        return EInt(value, 0)
    return None


def _ekey(x: EInt) -> tuple[int, int, int]:
    """The element order: by norm, then by the coordinates (a, b)."""
    return x.norm(), x.a, x.b


ZERO = EInt(0, 0)
ONE = EInt(1, 0)
OMEGA = EInt(0, 1)
# Powers of 1 + omega in rotation order: UNITS[k] has argument 60k degrees.
UNITS = (EInt(1, 0), EInt(1, 1), EInt(0, 1), EInt(-1, 0), EInt(-1, -1), EInt(0, -1))
# The ramified prime above 3, already canonical: (2 + omega)^2 is associated to 3.
LAMBDA = EInt(2, 1)


def gcd(x: EInt, y: EInt) -> EInt:
    """Greatest common divisor, returned as its canonical associate."""
    if x.is_zero() and y.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not y.is_zero():
        x, y = y, x % y
    return x.canonical_associate()[0]


def _xgcd(x: EInt, y: EInt) -> tuple[EInt, EInt, EInt]:
    """(g, s, t) with s*x + t*y = g; g is not normalized."""
    r0, r1 = x, y
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def _quotient(xa: int, xb: int, da: int, db: int) -> tuple[int, int, int]:
    """(na, nb, n) with x/d = (na + nb*omega)/n: x * conj(d) over N(d),
    on raw integers that may leave the coordinate range."""
    return (xa * da - xa * db + xb * db, xb * da - xa * db,
            da * da - da * db + db * db)


def divides(d: EInt, x: EInt) -> bool:
    """Whether d | x in E (d nonzero)."""
    if d.is_zero():
        raise ZeroDivisionError("divisibility by zero")
    na, nb, n = _quotient(x.a, x.b, d.a, d.b)
    return na % n == 0 and nb % n == 0


def exact_div(x: EInt, d: EInt) -> EInt:
    """The quotient x/d when d | x; raises ValueError otherwise."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero")
    na, nb, n = _quotient(x.a, x.b, d.a, d.b)
    if na % n or nb % n:
        raise ValueError(f"{d} does not divide {x}")
    return EInt(na // n, nb // n)


def _strip(pi: EInt, x: EInt) -> tuple[int, EInt]:
    """(v, x / pi^v) for the largest v with pi^v | x, for nonzero x and
    non-unit nonzero pi.  pi | x forces N(pi) | N(x), so a norm test opens
    each step.  No quotient has a coordinate larger than x's largest, so
    only the last is built as an EInt."""
    a, b, pa, pb, v = x.a, x.b, pi.a, pi.b, 0
    m, npi = a * a - a * b + b * b, pa * pa - pa * pb + pb * pb
    if not m:
        raise ValueError("valuation of zero is undefined")
    if npi <= 1:
        raise ValueError("valuation needs a non-unit modulus")
    while m % npi == 0:
        na, nb, n = _quotient(a, b, pa, pb)
        if na % n or nb % n:
            break
        a, b, m, v = na // n, nb // n, m // npi, v + 1
    return v, (EInt(a, b) if v else x)


def valuation(pi: EInt, x: EInt) -> int:
    """Largest v with pi^v | x, for nonzero x and non-unit nonzero pi."""
    return _strip(pi, x)[0]


class ResidueRing:
    """The quotient E/(mu) on an explicit rectangular transversal.

    The ideal (mu) is the integer column span of mu and omega*mu, i.e. of
    the matrix [[a, -b], [b, a-b]].  Column reduction to Hermite form
    [[d1, 0], [c, d2]] turns the quotient into the box {0..d1-1} x
    {0..d2-1}, which has exactly norm(mu) = d1*d2 points.  Representatives
    are the points of that box, enumerated in lexicographic (i, j) order,
    and reduce() is the idempotent map onto them.
    """

    __slots__ = ("modulus", "d1", "d2", "c", "size")

    def __init__(self, modulus: EInt) -> None:
        if modulus.is_zero():
            raise ValueError("modulus must be nonzero")
        self.modulus = modulus
        a, b = modulus.a, modulus.b
        g, s, t = _xgcd_int(a, -b)
        n = modulus.norm()
        c = (s * b + t * (a - b)) % (n // g)
        self.d1 = g
        self.d2 = n // g
        self.c = c
        self.size = n

    def reduce(self, x: EInt) -> EInt:
        return EInt(*self.reduce_pair(x.a, x.b))

    def reduce_pair(self, u: int, v: int) -> tuple[int, int]:
        """The reduced (a, b) of u + v*omega.  Works on raw coordinates
        and builds no EInt, so u and v may leave the 64-bit range."""
        k = u // self.d1
        return u - k * self.d1, (v - k * self.c) % self.d2

    def inverse(self, x: EInt) -> EInt:
        """The reduced inverse of x mod mu.

        When N(x) is prime to N(mu), x * conj(x) = N(x) is invertible mod
        N(mu) and so mod mu (mu divides N(mu)); conj(x) * N(x)^-1, the
        rational inverse taken mod N(mu), is then an inverse, and a reduced
        inverse is unique.  It is reduced on raw coordinates, since the
        product may leave the 64-bit coordinate range.  Any other x goes
        through the extended Euclidean gcd in E, which also rejects a
        non-invertible x.
        """
        a, b = x.a, x.b
        n = a * a - a * b + b * b
        if math.gcd(n, self.size) == 1:
            t = pow(n, -1, self.size)
            return EInt(*self.reduce_pair((a - b) * t, -b * t))
        g, s, _ = _xgcd(x, self.modulus)
        if not g.is_unit():
            raise ValueError(f"{x} is not invertible mod {self.modulus}")
        return self.reduce(s * g.conj())

    def __repr__(self) -> str:
        return f"ResidueRing({self.modulus!r})"


def _xgcd_int(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) over Z with s*a + t*b = g >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


__all__ = [
    "COORD_BOUND", "EInt", "ZERO", "ONE", "OMEGA", "UNITS", "LAMBDA",
    "gcd", "divides", "exact_div", "valuation", "ResidueRing",
]
