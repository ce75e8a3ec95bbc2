"""Big Witt vectors over a commutative coefficient ring.

The additive model is the group of power series with constant term 1 under
multiplication: a coefficient family (a_t) on a truncation set T stands for
the series prod (1 - a_t tau^t)^(-1), so addition is a series product,
the n-th Verschiebung substitutes tau -> tau^n, and the Teichmueller lift of
r is the geometric series of r.  Ghost coordinates are w_n = sum over d | n
of d * a_d^(n/d).

Every operation that changes coordinates is one series: the product of a
factor (1 - x tau^t)^(-g) for each g * V_t[x] it sums (_vector).
Multiplication and Frobenius find their factors through a = sum_t V_t[a_t]
and the universal identities

    V_s[x] * V_t[y] = gcd(s,t) * V_lcm(s,t)[x^(l/s) y^(l/t)]
    F_n V_t [x]     = gcd(n,t) * V_{t/g}[x^(n/g)]

which hold over the integers by a ghost computation and therefore over every
commutative ring.  This keeps all arithmetic exact on torsion coefficients
without materializing the universal polynomials.
"""

from __future__ import annotations

from math import gcd, prod

from .cyclic import SizeGuard, Value
from .mackey import FPGroup, MackeyWindow
from .qfin import _check_tail
from .rings import ZZ, IntMatrix, _json_fields, ring_from_json
from .truncation import TruncationSet


class SupportMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# Truncated series with constant term 1 (lists of ring elements, index = degree).


def series_one(ring, n):
    return [ring.one()] + [ring.zero()] * n


def series_times_factor(ring, s, x, t, g):
    """s <- s * (1 - x tau^t)^(-g) in place, truncated at degree n = len(s) - 1.

    Of two exact walks the one with fewer steps runs.  The unit walk makes
    |g| passes: s_i += x s_(i-t) bottom-up divides by 1 - x tau^t, and
    s_i -= x s_(i-t) top-down multiplies by it.  The binomial walk makes one
    top-down pass with the k terms a_j x^j tau^(jt) of (1 - x tau^t)^(-g) up
    to degree n, a_j = a_(j-1) (g + j - 1) / j, exact integers; k = n/t, or
    min(|g|, n/t) when g < 0, as a_j = 0 from j = 1 - g on.  The cost is
    O((n - t + 1) min(|g|, n/t)) ring steps.  The ring runs either walk:
    unit_walk_pass is one pass, binomial_walk_pass the whole binomial walk.
    """
    n = len(s) - 1
    if t > n or g == 0 or ring.is_zero(x):
        return
    k = n // t if g > 0 else min(n // t, -g)
    if abs(g) * (n - t + 1) <= k * (n + 1) - t * k * (k + 1) // 2:
        # g = 1 or -1 always walks here
        if g < 0:
            x, steps = ring.neg(x), range(n, t - 1, -1)
        else:
            steps = range(t, n + 1)
        for _ in range(abs(g)):
            ring.unit_walk_pass(s, x, t, steps)
        return
    terms = []
    a, power = 1, ring.one()
    for j in range(1, k + 1):
        a = a * (g + j - 1) // j
        power = ring.mul(power, x)
        c = ring.mul(ring.from_int(a), power)
        if not ring.is_zero(c):
            terms.append((j * t, c))
    ring.binomial_walk_pass(s, terms, t)


# ---------------------------------------------------------------------------
# Witt vectors.


class WittVector(Value):
    __slots__ = ("ring", "support", "coeffs")

    def __init__(self, ring, support, coeffs):
        if len(coeffs) != len(support):
            raise SupportMismatch("coefficient count must match the support")
        self.ring, self.support, self.coeffs = ring, support, coeffs

    @classmethod
    def from_dict(cls, ring, support, values):
        outside = sorted(set(values).difference(support.elements))
        if outside:
            raise SupportMismatch(f"indices {outside} lie outside the support {list(support.elements)}")
        return cls(ring, support, tuple(values.get(t, ring.zero()) for t in support))

    def as_dict(self):
        return dict(zip(self.support.elements, self.coeffs))

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "support": self.support.to_json(),
            "coeffs": {str(t): self.ring.show(c) for t, c in self.as_dict().items()},
        }

    @classmethod
    def from_json(cls, data):
        ring, support, coeffs = _json_fields(data, "a Witt vector", ("ring", "support", "coeffs"))
        if not (
            isinstance(support, list) and all(isinstance(t, int) for t in support)
            and isinstance(coeffs, dict) and all(isinstance(v, (str, int)) for v in coeffs.values())
        ):
            raise ValueError("a Witt vector lists integer degrees in 'support' and maps degrees to 'coeffs'")
        ring = ring_from_json(ring)
        values = {int(k): ring.parse(str(v)) for k, v in coeffs.items()}
        return cls.from_dict(ring, TruncationSet(tuple(support)), values)

    def __repr__(self):
        body = ", ".join(f"{t}: {self.ring.show(c)}" for t, c in self.as_dict().items())
        return f"W({body})"


def teichmuller(ring, r, support):
    """[r]: coefficient r in degree 1, zero elsewhere; multiplicative lift."""
    return WittVector.from_dict(ring, support, {1: r} if 1 in support else {})


def _factors(a: WittVector, g=1, n=1):
    """The factors (a_t, n t, g) of g * V_n(a)."""
    return [(c, n * t, g) for t, c in zip(a.support.elements, a.coeffs)]


def _product(ring, n, factors):
    """prod (1 - x tau^t)^(-g) over the factors (x, t, g), mod tau^(n+1)."""
    s = series_one(ring, n)
    for x, t, g in factors:
        series_times_factor(ring, s, x, t, g)
    return s


def _read(ring, s, target):
    """The vector on target whose series is s, peeling s in place; degrees
    off the target are peeled too, as they feed the higher ones."""
    coeffs = []
    for t in range(1, len(s)):
        c = s[t]
        if t in target:
            coeffs.append(c)
        series_times_factor(ring, s, c, t, -1)
    return WittVector(ring, target, tuple(coeffs))


def _vector(ring, target, factors):
    """The vector on target whose series is prod (1 - x tau^t)^(-g) over the
    factors (x, t, g): the one kernel of the operations below."""
    return _read(ring, _product(ring, target.max(), factors), target)


def to_series(a: WittVector):
    """prod (1 - a_t tau^t)^(-1) mod tau^(N+1); interval supports only.
    No command reaches it; acceptance criterion 6 round-trips through it."""
    if not a.support.is_interval():
        raise ValueError(f"{a.support} is not an interval")
    return _product(a.ring, a.support.max(), _factors(a))


def from_series(ring, s):
    """Invert to_series by peeling one coefficient per degree.  No command
    reaches it; acceptance criterion 6 round-trips through it."""
    n = len(s) - 1
    if n < 1 or s[0] != ring.one():
        raise ValueError("series must have constant term 1 and positive length")
    return _read(ring, list(s), TruncationSet.interval(n))


def add(a: WittVector, b: WittVector):
    if a.ring != b.ring or a.support != b.support:
        raise SupportMismatch("addition needs matching ring and support")
    return _vector(a.ring, a.support, _factors(a) + _factors(b))


def neg(a: WittVector):
    return int_multiple(-1, a)


def sub(a, b):
    if a.ring != b.ring or a.support != b.support:
        raise SupportMismatch("addition needs matching ring and support")
    return _vector(a.ring, a.support, _factors(a) + _factors(b, -1))


def int_multiple(c, a: WittVector):
    return _vector(a.ring, a.support, _factors(a, c))


def ghost(a: WittVector):
    """w_t = sum over d | t of d * a_d^(t/d), on the same support."""
    ring = a.ring
    values = []
    d = a.as_dict()
    for t in a.support:
        acc = ring.zero()
        for u, c in d.items():
            if t % u == 0:
                acc = ring.add(acc, ring.mul(ring.from_int(u), ring.pow(c, t // u)))
        values.append(acc)
    return GhostVector(a.support, tuple(values))


class GhostVector(Value):
    __slots__ = ("support", "values")

    def __init__(self, support, values):
        self.support, self.values = support, values

    def as_dict(self):
        return dict(zip(self.support.elements, self.values))


def multiply(a: WittVector, b: WittVector):
    """Witt product via the pairwise Verschiebung expansion."""
    if a.ring != b.ring or a.support != b.support:
        raise SupportMismatch("multiplication needs matching ring and support")
    ring, n = a.ring, a.support.max()
    xs, ys = ([(t, c) for t, c in zip(v.support.elements, v.coeffs) if not ring.is_zero(c)] for v in (a, b))
    factors = []
    for s, x in xs:
        for t, y in ys:
            g = gcd(s, t)
            l = s * t // g
            if l <= n:
                factors.append((ring.mul(ring.pow(x, l // s), ring.pow(y, l // t)), l, g))
    return _vector(ring, a.support, factors)


def default_verschiebung_support(support, n):
    scaled = set()
    for t in support:
        for d in range(1, n * t + 1):
            if (n * t) % d == 0:
                scaled.add(d)
    return TruncationSet(tuple(sorted(scaled)))


def verschiebung(a: WittVector, n, support=None):
    """Place coefficient a_t at n*t; on series, tau -> tau^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if support is None:
        support = default_verschiebung_support(a.support, n) if a.support.elements else a.support
    if support.divide(n) != a.support:
        raise SupportMismatch(
            f"support {a.support} is not the n-division of the target {support}"
        )
    values = {n * t: c for t, c in a.as_dict().items()}
    return WittVector.from_dict(a.ring, support, values)


def frobenius(a: WittVector, n):
    """Ghost rule w_t(F_n a) = w_{nt}(a); lands on the n-division of the support."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ring = a.ring
    target = a.support.divide(n)
    factors = []
    for t, x in zip(a.support.elements, a.coeffs):
        g = gcd(n, t)
        if t // g <= target.max() and not ring.is_zero(x):
            factors.append((ring.pow(x, n // g), t // g, g))
    return _vector(ring, target, factors)


def infinite_verschiebung(ring, family, support, tail=None):
    """Sum of V_{n_i}(x_i) on the given support.

    Entries with n_i above the support bound contribute nothing (the series
    product converges tau-adically); a declared infinitely-repeated size at
    or below the bound is not summable.
    """
    bound = support.max()
    _check_tail(tail, bound)
    factors = []
    for n, x in family:
        if n < 2:
            raise ValueError("summable families need sizes >= 2")
        if n > bound:
            continue
        if x.support != support.divide(n):
            raise SupportMismatch(f"summand at size {n} has support {x.support}")
        if x.ring != ring:
            raise SupportMismatch("addition needs matching ring and support")
        factors += _factors(x, 1, n)
    return _vector(ring, support, factors)


# ---------------------------------------------------------------------------
# The additive group of W as a finitely presented group, base recovery, and
# the bridge to Mackey windows.


def _lift_modulus(ring):
    """m over Z/m (a prime field included), 0 over Z, None over other rings."""
    if ring.kind in ("integers-mod-m", "prime-field"):
        return ring.modulus
    return 0 if ring.kind == "integers" else None


def _peel(ring, s, support):
    """Integer coordinates, in the generators V_t[1], of the vector on
    support whose series is s; peels s in place.

    One pass, degree by degree, as in from_series.  At a degree t of the
    support the coefficient lifts to an integer k, and the factor (1, t, -k),
    subtracting k * V_t[1], clears it; at any other degree the factor
    (c, t, -1) clears the coefficient c, as V_t[c] is zero on the support.
    Exact for integer and modular coefficients.
    """
    m = _lift_modulus(ring)
    coords = []
    for t in range(1, len(s)):
        c = s[t]
        if t in support:
            k = c % m if m else c
            coords.append(k)
            series_times_factor(ring, s, ring.one(), t, -k)
        else:
            series_times_factor(ring, s, c, t, -1)
    if not all(ring.is_zero(c) for c in s[1:]):
        raise AssertionError("peeling did not terminate at zero")
    return coords


def peel_coordinates(a: WittVector):
    """Integer coordinates of a in the generating set {V_t[1]}.  No command
    reaches it; test_witt checks the presentations against it."""
    ring = a.ring
    if _lift_modulus(ring) is None:
        raise ValueError(f"{ring} has no canonical integer lifts")
    return _peel(ring, _product(ring, a.support.max(), _factors(a)), a.support)


def witt_group_presentation(ring, support):
    """Presentation of (W_support(ring), +) on the generators V_t[1]; the
    relation of t peels the series of m * V_t[1]."""
    ngens, m = len(support), _lift_modulus(ring)
    if m is None:
        raise ValueError(f"{ring} is not finitely presented over Z")
    if m == 0:
        return FPGroup.free(ngens)
    rows = []
    for i, t in enumerate(support.elements):
        coords = _peel(ring, _product(ring, support.max(), [(ring.one(), t, m)]), support)
        row = [-c for c in coords]
        row[i] += m
        rows.append(row)
    return FPGroup(ngens, IntMatrix.from_rows(ZZ, rows))


def recover_base(ring, n):
    """Quotient W_[n](ring) by the images of V_2, ..., V_n and compare to ring.

    Returns a report with the invariant factors of the quotient and whether
    they match the additive group of the coefficient ring; the comparison
    map is the first-coordinate projection, additive since a_1 = w_1.
    """
    if n < 1:
        raise ValueError("N must be >= 1")
    support = TruncationSet.interval(n)
    group = witt_group_presentation(ring, support)
    killed = [{i: 1} for i, t in enumerate(support.elements) if t >= 2]
    torsion, free = group.quotient_by(killed).invariants()
    m = _lift_modulus(ring)
    expected = ([m], 0) if m else ([], 1)
    return {
        "ring": repr(ring),
        "N": n,
        "invariant_factors": torsion,
        "free_rank": free,
        "matches_base": (torsion, free) == expected,
    }


def witt_as_mackey(ring, n):
    """The Witt functor as a Mackey window on the interval [n].

    Level k carries W on the k-division of [n]; restriction is Frobenius,
    transfer is Verschiebung, and the level actions are trivial.  On the
    generators V_t[1] both maps are integral:

        F_j V_t [1] = gcd(j,t) V_{t/gcd}[1]        (dropped if out of support)
        V_j V_t [1] = V_{jt}[1]
    """
    window = TruncationSet.interval(n)
    supports = {k: window.divide(k) for k in window}
    groups = {k: witt_group_presentation(ring, supports[k]) for k in window}
    weyl = {k: IntMatrix.identity(ZZ, groups[k].ngens) for k in window}
    res = {}
    tr = {}
    for k in window:
        for m in window:
            if m % k != 0 or m == k:
                continue
            j = m // k
            src = supports[k].elements
            dst = supports[m].elements
            entries = {}
            for col, t in enumerate(src):
                g = gcd(j, t)
                image = t // g
                if image in dst:
                    entries[(dst.index(image), col)] = g
            res[(k, m)] = IntMatrix(ZZ, len(dst), len(src), entries)
            entries = {}
            for col, t in enumerate(dst):
                entries[(src.index(j * t), col)] = 1
            tr[(k, m)] = IntMatrix(ZZ, len(src), len(dst), entries)
    return MackeyWindow(window, groups, weyl, res, tr)


# ---------------------------------------------------------------------------
# The equalizer of the identity Frobenius lifts, against the ghost image.


EQUALIZER_GUARD = 2 ** 20


def _prime_powers(t):
    """[(p, p^v_p(t))] for the primes p dividing t, in increasing order."""
    out, p = [], 2
    while t > 1:
        q = 1
        while t % p == 0:
            t, q = t // p, q * p
        if q > 1:
            out.append((p, q))
        p += 1
    return out


def _listed_range(ring, box):
    """(m, low, size): m = 0 over Z and the modulus over Z/m, and the
    integers listed, [-box, box] over Z and [0, m) over Z/m."""
    m = _lift_modulus(ring)
    if m is None:
        raise ValueError(f"cannot enumerate over {ring}")
    return (m, 0, m) if m else (0, -box, 2 * box + 1)


def _crt(conditions):
    """x = w_j mod n_j for each (j, n_j), the n_j pairwise coprime, as one
    class: its modulus N and weights (j, e_j), e_j = 1 mod n_j and 0 mod the
    other n_i, so that x = sum e_j w_j mod N."""
    modulus = prod(n for _, n in conditions)
    return modulus, [(j, modulus // n * pow(modulus // n, -1, n)) for j, n in conditions]


def equalizer_report(ring, support, box):
    """List the equalizer in a box and compare it with the ghost image.

    With identity Frobenius lifts a member is a family (w_t) with
    w_t = w_{t/p} mod gcd(p, m) for each prime p | t (m = 0 over Z), so once
    the earlier coordinates are fixed, w_t runs through one residue class
    modulo M_t, the product of the primes p | t with p | m.  The members
    form a subgroup.  By Dwork's lemma a family of integers is a ghost
    vector of W(Z) exactly when w_t = w_{t/p} mod p^v_p(t) throughout, one
    class modulo t; over Z/m that is asked of the representatives in
    [0, m).  Members are listed in lexicographic order and counted, not
    stored.  The product over t of ceil(size / M_t) bounds the count (over
    Z/m it is the count); past EQUALIZER_GUARD it raises SizeGuard before
    any member is listed.  The box is read over Z only and must be >= 0.
    """
    if box < 0:
        raise ValueError(f"--box must be >= 0, got {box}")
    m, low, size = _listed_range(ring, box)
    levels = []
    bound = 1
    for t in support:
        conditions = [(support.elements.index(t // p), p, q) for p, q in _prime_powers(t)]
        member = _crt([(j, p) for j, p, _ in conditions if m % p == 0])
        levels.append((member, _crt([(j, q) for j, _, q in conditions])))
        bound *= -(-size // member[0])
    if bound > EQUALIZER_GUARD:
        raise SizeGuard(
            f"equalizer listing is limited to {EQUALIZER_GUARD} members; "
            f"support {support.to_json()} and box {box} allow up to {bound}"
        )
    w = [0] * len(levels)
    members = ghosts = 0
    strict = []

    def walk(i, ghostly):
        nonlocal members, ghosts
        if i == len(levels):
            members += 1
            if ghostly:
                ghosts += 1
            elif len(strict) < 5:
                strict.append(list(w))
            return
        (modulus, weights), (t, ghost_weights) = levels[i]
        r = sum(w[j] * e for j, e in weights)
        g = sum(w[j] * e for j, e in ghost_weights)
        for v in range(low + (r - low) % modulus, low + size, modulus):
            w[i] = v
            walk(i + 1, ghostly and (v - g) % t == 0)

    walk(0, True)
    return {
        "support": support.to_json(),
        "box": box,
        "lift_validation": [],
        "is_subgroup": True,
        "equalizer_size": members,
        "ghost_image_size": ghosts,
        "equals_ghost_image": not strict,
        "first_strict_members": strict,
    }
