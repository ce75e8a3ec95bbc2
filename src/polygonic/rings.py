"""Exact coefficient rings and integer/field linear algebra.

Everything here is exact: integers are Python big ints, a rational is a
Python int when it is integral and a ``fractions.Fraction`` otherwise,
residues are canonical representatives.  No floating point is used anywhere
in the package.
"""

from __future__ import annotations

import heapq
import json
from fractions import Fraction
from math import isqrt, lcm

from .cyclic import SizeGuard


# Miller-Rabin with the first 13 primes as bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster, Math.
# Comp. 86 (2017)).
PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin; a SizeGuard at or above PRIME_TEST_BOUND."""
    if n < 2:
        return False
    if n >= PRIME_TEST_BOUND:
        raise SizeGuard(f"primality is decided below {PRIME_TEST_BOUND}; {n} requested")
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:  # no prime factor up to 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Coefficient rings.
#
# A ring object is a context: elements are plain Python values (int, Fraction,
# tuple of base-ring values) and the ring provides the arithmetic.


class CoefficientRing:
    kind = "abstract"
    is_field = False

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a):
        return a == self.zero()

    def add_multiple(self, target, c, vec):
        """target += c * vec, in place, on sparse vectors (dicts index ->
        entry; c nonzero); an entry that becomes 0 leaves target.  vec may
        hold explicit zeros."""
        add, mul, is_zero = self.add, self.mul, self.is_zero
        for i, v in vec.items():
            w = target.get(i)
            w = mul(c, v) if w is None else add(w, mul(c, v))
            if is_zero(w):
                target.pop(i, None)  # c * v can be 0: zero divisors, or a zero in vec
            else:
                target[i] = w

    def unit_walk_pass(self, s, x, t, steps):
        """s[i] += x * s[i - t] for i in steps, in that order, in place: one
        pass of the unit walk of witt.series_times_factor."""
        add, mul, is_zero = self.add, self.mul, self.is_zero
        for i in steps:
            y = s[i - t]
            if not is_zero(y):
                s[i] = add(s[i], mul(x, y))

    def binomial_walk_pass(self, s, terms, t):
        """s[i] += the sum of c * s[i - shift] over the terms (shift, c) with
        shift <= i, for i from the top degree down to t, in place: the
        binomial walk of witt.series_times_factor.  The shifts increase."""
        add, mul, is_zero = self.add, self.mul, self.is_zero
        for i in range(len(s) - 1, t - 1, -1):
            acc = s[i]
            for shift, c in terms:
                if shift > i:
                    break
                y = s[i - shift]
                if not is_zero(y):
                    acc = add(acc, mul(c, y))
            s[i] = acc

    def pow(self, a, n):
        if n < 0:
            return self.inv(self.pow(a, -n))
        result = self.one()
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def inv(self, a):
        raise ValueError(f"no division in {self}")

    def elements(self):
        """Iterate all elements (finite rings only)."""
        raise NotImplementedError(f"{self} is not enumerable")

    # serialization ---------------------------------------------------------

    def show(self, a):
        return str(a)

    def parse(self, s):
        """An integer literal, through from_int."""
        try:
            return self.from_int(int(s))
        except ValueError:
            raise ValueError(f"{s!r} is not an element of {self}") from None

    def to_json(self):
        return {"kind": self.kind}

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, CoefficientRing) and self.to_json() == other.to_json()

    def __hash__(self):
        return hash(json.dumps(self.to_json(), sort_keys=True))

    def __repr__(self):
        return ring_to_string(self)


class IntegerRing(CoefficientRing):
    kind = "integers"

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, k):
        return k

    def is_zero(self, a):
        return not a

    def add_multiple(self, target, c, vec):
        for i, v in vec.items():
            if w := target.get(i, 0) + c * v:
                target[i] = w
            else:
                target.pop(i, None)

    def unit_walk_pass(self, s, x, t, steps):
        for i in steps:
            if y := s[i - t]:
                s[i] += x * y

    def binomial_walk_pass(self, s, terms, t):
        for i in range(len(s) - 1, t - 1, -1):
            acc = s[i]
            for shift, c in terms:
                if shift > i:
                    break
                if y := s[i - shift]:
                    acc += c * y
            s[i] = acc

    def pow(self, a, n):
        # a ** 0 of a Fraction is Fraction(1), and a ** -n of an int a float
        return a ** n if n > 0 else CoefficientRing.pow(self, a, n)


def _integral(f):
    """A Fraction with denominator 1 as the int it equals."""
    return f.numerator if f.denominator == 1 else f


class RationalField(CoefficientRing):
    """Q.  An element is an int when integral, a Fraction otherwise: mixed
    int/Fraction arithmetic is exact, and Fraction(k) == k hashes alike, so
    sums and products need no normalising."""

    kind = "rationals"
    is_field = True

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, k):
        return k

    def is_zero(self, a):
        return not a

    add_multiple = IntegerRing.add_multiple
    unit_walk_pass = IntegerRing.unit_walk_pass
    binomial_walk_pass = IntegerRing.binomial_walk_pass
    pow = IntegerRing.pow

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return _integral(1 / Fraction(a))

    def parse(self, s):
        try:
            return _integral(Fraction(s))
        except ZeroDivisionError:
            raise ValueError(f"{s!r} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"{s!r} is not an element of {self}") from None


class ModularRing(CoefficientRing):
    """Integers mod m, m >= 2, canonical representatives 0..m-1."""

    kind = "integers-mod-m"

    def __init__(self, m):
        if not isinstance(m, int) or m < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {m!r}")
        self.modulus = m

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def from_int(self, k):
        return k % self.modulus

    def is_zero(self, a):
        return not a

    def add_multiple(self, target, c, vec):
        m = self.modulus
        for i, v in vec.items():
            if w := (target.get(i, 0) + c * v) % m:
                target[i] = w
            else:
                target.pop(i, None)

    def unit_walk_pass(self, s, x, t, steps):
        m = self.modulus
        for i in steps:
            if y := s[i - t]:
                s[i] = (s[i] + x * y) % m

    def binomial_walk_pass(self, s, terms, t):
        m = self.modulus
        for i in range(len(s) - 1, t - 1, -1):
            acc = s[i]
            for shift, c in terms:
                if shift > i:
                    break
                if y := s[i - shift]:
                    acc += c * y
            s[i] = acc % m

    def pow(self, a, n):
        return pow(a, n, self.modulus) if n >= 0 else CoefficientRing.pow(self, a, n)

    def elements(self):
        return range(self.modulus)

    def to_json(self):
        return {"kind": self.kind, "modulus": self.modulus}


class PrimeField(ModularRing):
    kind = "prime-field"
    is_field = True

    def __init__(self, p):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"{p!r} is not prime")
        super().__init__(p)

    def inv(self, a):
        a %= self.modulus
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.modulus)

    def to_json(self):
        return {"kind": self.kind, "p": self.modulus}


def monic(base, modulus):
    """modulus as a coefficient tuple, lowest degree first; ValueError unless
    it is monic of degree >= 1."""
    modulus = tuple(modulus)
    if len(modulus) < 2 or modulus[-1] != base.one():
        raise ValueError("modulus must be monic of degree >= 1")
    return modulus


def poly_reduce(base, modulus, coeffs):
    """A coefficient list (lowest degree first, any length) modulo a monic
    modulus of degree d, as a tuple of d coefficients."""
    d = len(modulus) - 1
    coeffs = list(coeffs) + [base.zero()] * (d - len(coeffs))
    for i in range(len(coeffs) - 1, d - 1, -1):
        lead = coeffs[i]
        if base.is_zero(lead):
            continue
        for j in range(d + 1):
            coeffs[i - d + j] = base.sub(coeffs[i - d + j], base.mul(lead, modulus[j]))
    return tuple(coeffs[:d])


def _rational_root(modulus):
    """Has the monic quadratic or cubic over Q, lowest degree first, a rational root?"""
    if len(modulus) == 3:  # iff its discriminant is a rational square
        disc = Fraction(modulus[1] ** 2 - 4 * modulus[0])
        return disc >= 0 and all(isqrt(k) ** 2 == k for k in (disc.numerator, disc.denominator))
    # x = y / m makes it a monic integer cubic f, whose rational roots are
    # integers within the Cauchy bound.  Bisect each stretch where f is
    # monotone, cut at the floors of the roots (-A -+ sqrt(D)) / 3 of f'.
    m = lcm(*(Fraction(a).denominator for a in modulus))
    C, B, A = (int(a * m ** k) for a, k in zip(modulus, (3, 2, 1)))
    bound, D = 1 + max(abs(A), abs(B), abs(C)), A * A - 3 * B
    s = isqrt(max(D, 0))
    cuts = [(-A - s - (s * s != D)) // 3, (-A + s) // 3] if D > 0 else []
    ends = [-bound - 1, *cuts, bound]
    for k, (lo, hi) in enumerate(zip(ends, ends[1:])):
        sign, lo = (-1 if k == 1 else 1), lo + 1  # the middle stretch falls
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if sign * (((mid + A) * mid + B) * mid + C) < 0 else (lo, mid)
        if lo == hi and ((lo + A) * lo + B) * lo + C == 0:
            return True
    return False


class QuotientPolynomialRing(CoefficientRing):
    """base[x] / (modulus), modulus monic; elements are coefficient tuples.

    The tuple has length deg(modulus), lowest degree first.  Division is by
    extended Euclid over a field base and raises on a non-unit.  is_field is
    decided for degree 1, and for degree 2 and 3 over F_p (by gcd(modulus,
    x^p - x), for every p) and Q (by a rational root); the rest read False.
    """

    kind = "univariate-polynomial-quotient"

    def __init__(self, base, modulus, var="x"):
        if not isinstance(base, CoefficientRing):
            raise TypeError("base must be a CoefficientRing")
        self.base = base
        self.modulus = modulus = monic(base, modulus)
        self.deg = len(modulus) - 1
        self.var = var
        self.is_field = base.is_field and (self.deg == 1 or self._irreducible())

    def _irreducible(self):
        # Degree 2 and 3 polynomials are irreducible iff they have no root.
        if self.deg > 3 or not isinstance(self.base, (PrimeField, RationalField)):
            return False
        if isinstance(self.base, RationalField):
            return not _rational_root(self.modulus)
        # x^p - x is the product of x - r over all residues r, so the modulus
        # has a root iff gcd(modulus, x^p - x) != 1: iff x^p - x is no unit.
        x = self.gen()
        try:
            self.inv(self.sub(self.pow(x, self.base.modulus), x))
            return True
        except ZeroDivisionError:
            return False

    def from_int(self, k):
        return (self.base.from_int(k),) + (self.base.zero(),) * (self.deg - 1)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        raw = [self.base.zero()] * (2 * self.deg)
        for i, x in enumerate(a):
            if self.base.is_zero(x):
                continue
            for j, y in enumerate(b):
                raw[i + j] = self.base.add(raw[i + j], self.base.mul(x, y))
        return poly_reduce(self.base, self.modulus, raw)

    def gen(self):
        """The class of the variable."""
        return poly_reduce(self.base, self.modulus, [self.base.zero(), self.base.one()])

    def inv(self, a):
        if not self.base.is_field:
            raise ValueError("inversion needs a field base")
        # Extended Euclid in base[x] against the modulus.
        r0, r1 = list(self.modulus), list(a)
        s0, s1 = [self.base.zero()], [self.base.one()]

        def degree(poly):
            for i in range(len(poly) - 1, -1, -1):
                if not self.base.is_zero(poly[i]):
                    return i
            return -1

        while degree(r1) > 0:
            d0, d1 = degree(r0), degree(r1)
            if d0 < d1:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            factor = self.base.mul(r0[degree(r0)], self.base.inv(r1[degree(r1)]))
            shift = degree(r0) - degree(r1)
            for i in range(degree(r1) + 1):
                r0[i + shift] = self.base.sub(r0[i + shift], self.base.mul(factor, r1[i]))
            s0 = s0 + [self.base.zero()] * (shift + len(s1) - len(s0) + 1)
            for i in range(len(s1)):
                s0[i + shift] = self.base.sub(s0[i + shift], self.base.mul(factor, s1[i]))
        if degree(r1) < 0:
            raise ZeroDivisionError("element is not invertible")
        c = self.base.inv(r1[degree(r1)])
        return poly_reduce(self.base, self.modulus, [self.base.mul(c, x) for x in s1])

    def elements(self):
        from itertools import product

        base_elts = list(self.base.elements())
        for combo in product(base_elts, repeat=self.deg):
            yield tuple(combo)

    def show(self, a):
        return ",".join(self.base.show(x) for x in a)

    def parse(self, s):
        parts = s.split(",")
        if len(parts) != self.deg:
            raise ValueError(f"expected {self.deg} coefficients")
        return tuple(self.base.parse(p) for p in parts)

    def to_json(self):
        return {
            "kind": self.kind,
            "base": self.base.to_json(),
            "modulus": [self.base.show(c) for c in self.modulus],
            "var": self.var,
        }


ZZ = IntegerRing()
QQ = RationalField()


def ring_from_string(s):
    """Parse ring names: Z, Q, Z/8, F5 (or F_5, GF(5))."""
    s = s.strip()
    if s in ("Z", "ZZ"):
        return ZZ
    if s in ("Q", "QQ"):
        return QQ
    if s.startswith("Z/"):
        return ModularRing(int(s[2:]))
    if s.startswith("GF(") and s.endswith(")"):
        return PrimeField(int(s[3:-1]))
    if s.startswith("F_"):
        return PrimeField(int(s[2:]))
    if s.startswith("F") and s[1:].isdigit():
        return PrimeField(int(s[1:]))
    raise ValueError(f"unknown ring {s!r}")


def ring_to_string(ring):
    if ring.kind == "integers":
        return "Z"
    if ring.kind == "rationals":
        return "Q"
    if ring.kind == "integers-mod-m":
        return f"Z/{ring.modulus}"
    if ring.kind == "prime-field":
        return f"F{ring.modulus}"
    if ring.kind == "univariate-polynomial-quotient":
        return f"{ring_to_string(ring.base)}[{ring.var}]/(...)"
    return ring.kind


def _json_fields(data, what, keys):
    """The values at keys of a JSON object.  A ValueError says what was
    being read, and which key is missing, if data is not such an object."""
    message = f"{what} is an object with {', '.join(map(repr, keys))}"
    if not isinstance(data, dict):
        raise ValueError(message)
    for k in keys:
        if k not in data:
            raise ValueError(f"{message}; {k!r} is missing")
    return [data[k] for k in keys]


def ring_from_json(data):
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "integers":
        return ZZ
    if kind == "rationals":
        return QQ
    if kind == "integers-mod-m":
        return ModularRing(*_json_fields(data, "a ring of integers mod m", ("modulus",)))
    if kind == "prime-field":
        return PrimeField(*_json_fields(data, "a prime field", ("p",)))
    if kind == "univariate-polynomial-quotient":
        base, modulus = _json_fields(data, "a polynomial quotient ring", ("base", "modulus"))
        base = ring_from_json(base)
        if not isinstance(modulus, list):
            raise ValueError("a polynomial quotient ring lists the coefficients of its 'modulus'")
        return QuotientPolynomialRing(base, tuple(base.parse(str(c)) for c in modulus), data.get("var", "x"))
    raise ValueError(f"unknown ring kind {kind!r}")


# ---------------------------------------------------------------------------
# Matrices.

class IntMatrix:
    """Immutable-by-convention sparse matrix over a CoefficientRing.

    The nonzero entries are kept as sparse columns: _cols[j] is a dict
    row -> nonzero entry.  apply is the product with a sparse vector; mul
    and scale apply it to columns.
    """

    def __init__(self, ring, rows, cols, entries=None):
        columns = [{} for _ in range(cols)]
        if entries is None:
            entries = {}
        if isinstance(entries, dict):
            items = entries.items()
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise ValueError("entry grid does not match shape")
            items = (((i, j), v) for i, r in enumerate(entries) for j, v in enumerate(r))
        for (i, j), v in items:
            if ring.is_zero(v):
                continue
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry index ({i},{j}) out of range")
            columns[j][i] = v
        self.ring, self.rows, self.cols, self._cols = ring, rows, cols, columns

    @classmethod
    def from_columns(cls, ring, rows, columns):
        """The matrix with the given sparse columns, dicts row -> nonzero
        entry, which it keeps: the caller must not change them after."""
        matrix = cls.__new__(cls)
        matrix.ring, matrix.rows, matrix.cols, matrix._cols = ring, rows, len(columns), list(columns)
        return matrix

    @classmethod
    def zeros(cls, ring, rows, cols):
        return cls(ring, rows, cols, {})

    @classmethod
    def identity(cls, ring, n):
        return cls.from_columns(ring, n, [{i: ring.one()} for i in range(n)])

    @classmethod
    def from_rows(cls, ring, row_list):
        rows = len(row_list)
        cols = len(row_list[0]) if row_list else 0
        return cls(ring, rows, cols, [list(r) for r in row_list])

    def get(self, i, j):
        return self._cols[j].get(i, self.ring.zero())

    def items(self):
        """The nonzero entries as ((i, j), entry) pairs, column by column."""
        return (((i, j), v) for j, col in enumerate(self._cols) for i, v in col.items())

    def row(self, i):
        return [self.get(i, j) for j in range(self.cols)]

    def col(self, j):
        return [self.get(i, j) for i in range(self.rows)]

    def columns(self):
        """The columns as sparse vectors (dicts row -> entry); not to be changed."""
        return self._cols

    def to_lists(self):
        return [self.row(i) for i in range(self.rows)]

    def transpose(self):
        out = [{} for _ in range(self.rows)]
        for (i, j), v in self.items():
            out[i][j] = v
        return IntMatrix.from_columns(self.ring, self.cols, out)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self.ring is not other.ring and self.ring != other.ring:
            return False
        return self._cols == other._cols

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.items()))))

    def apply(self, vec):
        """The image of a sparse vector (dict column -> entry), as a sparse vector."""
        out = {}
        for j, c in vec.items():
            self.ring.add_multiple(out, c, self._cols[j])
        return out

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        one = self.ring.one()
        out = [dict(col) for col in self._cols]
        for col, other_col in zip(out, other._cols):
            self.ring.add_multiple(col, one, other_col)
        return IntMatrix.from_columns(self.ring, self.rows, out)

    def neg(self):
        return self.scale(self.ring.neg(self.ring.one()))

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        return IntMatrix.from_columns(self.ring, self.rows, [self.apply({j: c}) for j in range(self.cols)])

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        return IntMatrix.from_columns(self.ring, self.rows, [self.apply(col) for col in other._cols])

    def mul_vec(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        ring = self.ring
        out = [ring.zero()] * self.rows
        for x, col in zip(vec, self._cols):
            for i, v in col.items():
                out[i] = ring.add(out[i], ring.mul(v, x))
        return out

    def is_zero(self):
        return not any(self._cols)

    def __repr__(self):
        return f"IntMatrix({self.ring!r}, {self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# Smith normal form over the integers.


def _smith_eliminate(rows, U=None, V=None):
    """Bring the sparse integer rows to Smith form in place.

    Returns the pivots (row, col), each the only entry of its row and of its
    column, ordered so that their entries d_1 | d_2 | ... are positive; all
    other rows end empty.  The pivot is the entry of least absolute value,
    ties going to the shortest row, then the lowest index, so that the unit
    entries of a sparse boundary go first and fill in least.  Euclid with
    row operations clears its column first; the column operations that then
    clear its row change only the pivot row (with no V, a unit pivot just
    drops the rest of it).  When U (rows) and V (columns) are given, as
    sparse identity matrices, each row operation is applied to U and each
    column operation to V, so that U*A*V is the final matrix.
    """
    add, heappush = ZZ.add_multiple, heapq.heappush
    holders = {}  # col -> the rows that may have an entry there
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    # An entry (least |entry|, length, row, stamp) is current while its stamp
    # is the row's.  A row operation bumps it, and the row is queued afresh;
    # a pivot row has no current entry, so column operations need no bump.
    stamp, queue, pivots = [0] * len(rows), [], []
    dirty = range(len(rows))
    while True:
        for i in dirty:
            if row := rows[i]:
                heappush(queue, (min(map(abs, row.values())), len(row), i, stamp[i]))
        dirty = ()
        if not queue:
            # While d_a does not divide the next pivot d_b, add b's column
            # to a's and eliminate the two rows again.  Column a then holds
            # d_a and d_b, so a pivot below d_a comes out and this stops.
            pivots.sort(key=lambda p: rows[p[0]][p[1]])
            bad = next(((a, b) for a, b in zip(pivots, pivots[1:])
                        if rows[b[0]][b[1]] % rows[a[0]][a[1]]), None)
            if bad is None:
                return pivots
            (ra, ca), (rb, cb) = bad
            pivots = [p for p in pivots if p not in bad]
            rows[rb][ca] = rows[rb][cb]
            holders[ca].add(rb)
            if V is not None:
                add(V[ca], 1, V[cb])
            dirty = (ra, rb)
            continue
        _, _, r, s = heapq.heappop(queue)
        if s != stamp[r]:
            continue
        row, dirty = rows[r], {r}
        while True:  # column steps leave entries below |row[c]|, so c moves on
            c = min(row, key=lambda j: (abs(row[j]), j))
            below = [i for i in holders[c] if i != r and c in rows[i]]
            while below:
                p = row[c]
                for i in below:
                    other = rows[i]
                    q = -(other[c] // p)
                    if not row.keys() <= other.keys():  # fill-in
                        for j in row:
                            holders[j].add(i)
                    add(other, q, row)
                    stamp[i] += 1
                    if U is not None:
                        add(U[i], q, U[r])
                dirty.update(below)
                below = [i for i in below if c in rows[i]]
                if below:  # a smaller remainder takes over as pivot
                    i = min(below, key=lambda i: (abs(rows[i][c]), len(rows[i]), i))
                    below[below.index(i)] = r  # the rows that still hold c
                    r, row = i, rows[i]
            p = row[c]
            if V is None and abs(p) == 1:
                rows[r] = row = {c: p}
                break
            for j in [j for j in row if j != c]:
                q = row[j] // p
                if w := row[j] - q * p:
                    row[j] = w
                else:
                    del row[j]
                if V is not None:
                    add(V[j], -q, V[c])
            if len(row) == 1:
                break
        if row[c] < 0:
            rows[r] = {c: -row[c]}
            if U is not None:
                U[r] = {k: -v for k, v in U[r].items()}
        pivots.append((r, c))
        dirty.discard(r)


def _int_rows(A):
    """The rows of A as sparse dicts col -> entry."""
    if A.ring.kind != "integers":
        raise ValueError("Smith normal form requires integer entries")
    rows = [{} for _ in range(A.rows)]
    for j, col in enumerate(A.columns()):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def smith_normal_form(A):
    """Return (D, U, V) with U*A*V = D diagonal, d_1 | d_2 | ..., d_i >= 0.

    A must be an IntMatrix over the integers; U and V are unimodular.  No
    library route calls it; the tests and perfbench/ do.
    """
    m, n = A.rows, A.cols
    rows = _int_rows(A)
    U = [{i: 1} for i in range(m)]
    V = [{j: 1} for j in range(n)]
    pivots = _smith_eliminate(rows, U, V)
    # Permute once: pivot t goes to (t, t), the empty rows and columns after.
    row_order = [r for r, _ in pivots] + [i for i in range(m) if not rows[i]]
    col_order = [c for _, c in pivots]
    col_order += sorted(set(range(n)).difference(col_order))
    D = {(t, t): rows[r][c] for t, (r, c) in enumerate(pivots)}
    Um = {(t, k): v for t, r in enumerate(row_order) for k, v in U[r].items()}
    Vm = {(k, t): v for t, c in enumerate(col_order) for k, v in V[c].items()}
    return IntMatrix(ZZ, m, n, D), IntMatrix(ZZ, m, m, Um), IntMatrix(ZZ, n, n, Vm)


# ---------------------------------------------------------------------------
# Elimination over a field.


class Echelon:
    """A subspace of k^dim, held as sparse rows in reduced echelon form.

    A row is a dict index -> coefficient.  Its pivot is its least index and
    carries 1, and every row is zero at every other row's pivot.  The reduced
    echelon form of a subspace is unique, so whatever is read off it does not
    depend on the order in which the vectors went in.
    """

    def __init__(self, field, dim, vectors=()):
        if not field.is_field:
            raise ValueError(f"{field} is not a field")
        self.field = field
        self.dim = dim
        self.rows = {}  # pivot -> row
        for vec in vectors:
            self.insert(vec)

    @property
    def rank(self):
        return len(self.rows)

    def free(self):
        """The indices that are no row's pivot, in increasing order."""
        return [j for j in range(self.dim) if j not in self.rows]

    def reduce(self, vec):
        """Normal form of the sparse vector vec modulo the span.

        The result is zero at every pivot.  Rows vanish at each other's
        pivots, so the multiple of a row to subtract is vec's own entry at
        its pivot, and one pass over those entries suffices.
        """
        field = self.field
        out = {i: v for i, v in vec.items() if not field.is_zero(v)}
        for p in [p for p in out if p in self.rows]:
            field.add_multiple(out, field.neg(out[p]), self.rows[p])
        return out

    def insert(self, vec):
        """Add vec to the span; return True when the rank grew."""
        field = self.field
        vec = self.reduce(vec)
        if not vec:
            return False
        p = min(vec)
        inv = field.inv(vec[p])
        new = {i: field.mul(inv, v) for i, v in vec.items()}
        for row in self.rows.values():
            if p in row:
                field.add_multiple(row, field.neg(row[p]), new)
        self.rows[p] = new
        return True


def kernel_basis(A):
    """Basis of the kernel of a matrix over a field, read off the reduced
    echelon form of its rows.

    There is one kernel vector per free column j (a column in the span of the
    ones before it), with 1 at j and 0 at every other free column, in
    increasing order of j; its entry at a pivot column p is minus the entry
    at j of the row with pivot p.
    """
    echelon = Echelon(A.ring, A.cols, A.transpose().columns())
    kernel = {j: {j: A.ring.one()} for j in echelon.free()}
    for p, row in echelon.rows.items():
        for j, v in row.items():
            if j != p:  # rows vanish at the other pivots, so j is free
                kernel[j][p] = A.ring.neg(v)
    return list(kernel.values())


def invariant_factors(P):
    """Invariant factors (d_1 | d_2 | ...) > 1 and free rank of Z^cols / rows(P)."""
    return invariant_factors_of_rows(_int_rows(P), P.cols)


def invariant_factors_of_rows(rows, ngens):
    """invariant_factors of Z^ngens modulo the sparse rows (dicts generator ->
    nonzero int), which are eliminated in place."""
    diag = [rows[r][c] for r, c in _smith_eliminate(rows)]
    return [d for d in diag if d > 1], ngens - len(diag)
