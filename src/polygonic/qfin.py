"""Quasifinite Z-sets: orbit multisets, equivariant maps, spans, pullbacks.

A Z-set with finite orbits is a multiset of orbit sizes; quasifiniteness
means each size occurs finitely often, so any window-bounded computation
touches finitely many orbits.  Conceptually infinite families are carried as
declared tails (lists of size generators) that certify quasifiniteness but
never materialize; all computations here are on the finite part.
"""

from math import gcd, lcm

from .cyclic import SizeGuard, Value
from .rings import is_prime


PULLBACK_GUARD = 2 ** 20


class QFinSet(Value):
    """orbits[i] is the size of the i-th orbit; tail declares conceptual
    infinite families (arithmetic generators, all beyond any active window)."""

    __slots__ = ("orbits", "tail")

    def __init__(self, orbits, tail=None):
        if any(m < 1 for m in orbits):
            raise ValueError("orbit sizes must be positive")
        self.orbits, self.tail = orbits, tail

    @classmethod
    def orbit(cls, m):
        return cls((m,))

    @property
    def size(self):
        return len(self.orbits)

    def element_count(self):
        return sum(self.orbits)

    def canonical(self):
        return QFinSet(tuple(sorted(self.orbits)), self.tail)

    def check_tail_window(self, window_bound):
        """_check_tail on this set's tail; no command reaches it, test_qfin does."""
        _check_tail(self.tail, window_bound)


def _check_tail(tail, window_bound):
    """A declared infinite family must lie past the window bound."""
    if tail is not None and any(g <= window_bound for g in tail):
        raise ValueError(f"declared infinite family reaches into the window (bound {window_bound})")


class QFinMap(Value):
    """Equivariant map: orbit i of the source lands on orbit assign[i][0] of
    the target, composed with the shift assign[i][1] (an element of the
    target orbit).  Needs the target orbit size to divide the source's."""

    __slots__ = ("source", "target", "assign")

    def __init__(self, source, target, assign):
        if len(assign) != source.size:
            raise ValueError("assignment length != number of source orbits")
        normal = []
        for i, (j, s) in enumerate(assign):
            if not 0 <= j < target.size:
                raise ValueError("target orbit index out of range")
            m, n = source.orbits[i], target.orbits[j]
            if m % n != 0:
                raise ValueError(f"orbit size {n} does not divide {m}")
            normal.append((j, s % n))
        self.source, self.target, self.assign = source, target, tuple(normal)

    @classmethod
    def identity(cls, S):
        return cls(S, S, tuple((i, 0) for i in range(S.size)))

    def after(self, other):
        """self composed after other."""
        if other.target.orbits != self.source.orbits:
            raise ValueError("maps are not composable")
        assign = []
        for i, (j, s) in enumerate(other.assign):
            k, t = self.assign[j]
            assign.append((k, (s + t) % self.target.orbits[k]))
        return QFinMap(other.source, self.target, tuple(assign))

    def apply(self, orbit_index, element):
        """Image of the element (orbit index, residue) under the map."""
        j, s = self.assign[orbit_index]
        n = self.target.orbits[j]
        return j, (element + s) % n

    def is_proper(self):
        """True iff the isotropy strictly grows on every orbit."""
        return all(
            self.target.orbits[j] < self.source.orbits[i]
            for i, (j, _) in enumerate(self.assign)
        )

    def to_json(self):
        return {"assign": [[i, j, s] for i, (j, s) in enumerate(self.assign)]}


def fixed_points(S, k):
    """Sub-multiset of orbits whose points are fixed by the index-k subgroup."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return QFinSet(tuple(m for m in S.orbits if k % m == 0))


def scale(S, n):
    """Multiply every orbit size, and every declared-tail generator, by n
    (restriction along multiplication by n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return QFinSet(tuple(n * m for m in S.orbits), None if S.tail is None else tuple(n * g for g in S.tail))


def pullback(f, g):
    """Pullback of f : S -> U against g : T -> U.

    Over each orbit Z/u of U, a pair of preimage orbits of sizes a and b
    contributes gcd(a, b)/u orbits of size lcm(a, b), so a*b/u elements; above
    PULLBACK_GUARD elements in all it raises SizeGuard before listing any.
    Returns (W, p, q) with the two projections.
    """
    if f.target.orbits != g.target.orbits:
        raise ValueError("pullback needs a common target")
    U = f.target
    # the matched orbit pairs (i, j, u), by U's orbit, then i, then j
    pairs = [
        (i, j, U.orbits[u_idx])
        for u_idx in range(U.size)
        for i, (fi, _) in enumerate(f.assign) if fi == u_idx
        for j, (gj, _) in enumerate(g.assign) if gj == u_idx
    ]
    elements = sum(f.source.orbits[i] * g.source.orbits[j] // u for i, j, u in pairs)
    if elements > PULLBACK_GUARD:
        raise SizeGuard(f"pullback is limited to {PULLBACK_GUARD} elements; {elements} requested")
    orbits, p_assign, q_assign = [], [], []
    for i, j, u in pairs:
        a, b = f.source.orbits[i], g.source.orbits[j]
        size = lcm(a, b)
        # Solutions (x, y) of x + sf = y + sg mod u with x = 0:
        # y = (sf - sg) + u*r; orbit reps are distinct mod gcd(a, b).
        y0 = (f.assign[i][1] - g.assign[j][1]) % u
        for r in range(gcd(a, b) // u):
            orbits.append(size)
            p_assign.append((i, 0))
            q_assign.append((j, (y0 + u * r) % b))
    W = QFinSet(tuple(orbits))
    return W, QFinMap(W, f.source, tuple(p_assign)), QFinMap(W, g.source, tuple(q_assign))


def pullback_elementwise(f, g):
    """Brute-force oracle for pullback: enumerate element pairs and split
    into diagonal orbits.  Returns the orbit multiset only.  No library route
    calls it; acceptance criterion 4 and perfbench/ do."""
    if f.target.orbits != g.target.orbits:
        raise ValueError("pullback needs a common target")
    pairs = set()
    for i, a in enumerate(f.source.orbits):
        for x in range(a):
            for j, b in enumerate(g.source.orbits):
                for y in range(b):
                    if f.apply(i, x) == g.apply(j, y):
                        pairs.add((i, x, j, y))
    orbits = []
    seen = set()
    for start in sorted(pairs):
        if start in seen:
            continue
        i, x, j, y = start
        a, b = f.source.orbits[i], g.source.orbits[j]
        length = 0
        cx, cy = x, y
        while True:
            seen.add((i, cx, j, cy))
            length += 1
            cx, cy = (cx + 1) % a, (cy + 1) % b
            if (cx, cy) == (x, y):
                break
        orbits.append(length)
    return tuple(sorted(orbits))


class SpanMorphism(Value):
    """A span source <- apex -> target of equivariant maps."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        if left.source.orbits != right.source.orbits:
            raise ValueError("the two legs must share the apex")
        self.left, self.right = left, right

    @property
    def apex(self):
        return self.left.source

    @property
    def source(self):
        return self.left.target

    @property
    def target(self):
        return self.right.target

    @classmethod
    def identity(cls, S):
        return cls(QFinMap.identity(S), QFinMap.identity(S))

    @classmethod
    def single(cls, a, l, b, left_shift=0, right_shift=0):
        """Span Z/a <- Z/l -> Z/b between single orbits."""
        apex = QFinSet.orbit(l)
        left = QFinMap(apex, QFinSet.orbit(a), ((0, left_shift),))
        right = QFinMap(apex, QFinSet.orbit(b), ((0, right_shift),))
        return cls(left, right)

    def orbit_data(self):
        """(apex size, left orbit, left shift, right orbit, right shift) rows."""
        out = []
        for k in range(self.apex.size):
            j1, s1 = self.left.assign[k]
            j2, s2 = self.right.assign[k]
            out.append((self.apex.orbits[k], j1, s1, j2, s2))
        return out

    def canonical(self):
        """Normalize apex orbits up to automorphism, sort, for comparison.

        An apex orbit Z/l shifts both legs by the same c; as a and b divide
        l, the least pair of leg shifts is (0, (s2 - s1) mod gcd(a, b))."""
        rows = []
        for (l, j1, s1, j2, s2) in self.orbit_data():
            a = self.source.orbits[j1]
            b = self.target.orbits[j2]
            rows.append((l, j1, 0, j2, (s2 - s1) % gcd(a, b)))
        return tuple(sorted(rows)), self.source.canonical().orbits, self.target.canonical().orbits


def compose_spans(s2, s1):
    """Composite span s2 after s1, apex formed by pullback."""
    if s1.target.orbits != s2.source.orbits:
        raise ValueError("middle objects of the spans differ")
    W, p, q = pullback(s1.right, s2.left)
    return SpanMorphism(s1.left.after(p), s2.right.after(q))


def weakly_terminal_map(S, prime_window):
    """Map each orbit Z/m (m >= 2) to Z/p for its least prime divisor.

    The target is the windowed coproduct of one orbit per prime; an orbit
    whose prime factors all miss the window is an error, and so is a window
    entry that is not a prime.
    """
    primes = sorted(set(prime_window))
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"window entry {p} is not a prime")
    target = QFinSet(tuple(primes))
    assign = []
    for m in S.orbits:
        choice = None
        for p in primes:
            if m % p == 0:
                choice = p
                break
        if choice is None:
            raise ValueError(f"orbit size {m} has no prime divisor in {primes}")
        assign.append((primes.index(choice), 0))
    return QFinMap(S, target, tuple(assign))
