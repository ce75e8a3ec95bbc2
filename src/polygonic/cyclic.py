"""Cyclic-category combinatorics: paths, admissible sequences, cut sets.

Conventions.  The standard cyclic object of index n is the subdivided circle
with n vertices; its ambient set is (1/n)Z, which we handle through integer
numerators ("positions"): position a stands for the point a/n.  A map between
such objects is stored by its values on one period; everything extends by
f(x + 1) = f(x) + 1.

Hom classes are taken modulo the simultaneous shift f -> f + 1; the canonical
representative has f(0) in [0, 1).

A path is a class of pairs (x, y) with x <= y <= x + 1 modulo the diagonal
shift; vertices are the classes with x = y, edges have length 1..n measured
in position steps.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import attrgetter


class SizeGuard(Exception):
    """A request beyond a size limit; the message names the limit.  Bad
    input raises a plain ValueError; the one subclass is witt.SupportMismatch,
    which the command line catches by type."""


class Value:
    """Base of the value types: a value equals another of its own class
    whose fields agree, and hashes as its fields.  The fields are the
    __slots__ not starting with "_", in slot order; the others are caches."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*(s for s in cls.__slots__ if not s.startswith("_")))

    def __eq__(self, other):
        return type(other) is type(self) and self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(type(self)._fields(self))  # faster than self._fields on 3.11


def _check_sizes(*sizes):
    if min(sizes) < 1:
        raise ValueError(f"cycle sizes must be >= 1, got {', '.join(map(str, sizes))}")


# ---------------------------------------------------------------------------
# Paths.


class Path(Value):
    """Class of (start/n, (start+length)/n); length 0 means a vertex.  Paths
    compare, hash and sort as (n, start, length)."""

    __slots__ = ("n", "start", "length")

    def __init__(self, n, start, length):
        if not (1 <= n and 0 <= start < n and 0 <= length <= n):
            raise ValueError(f"bad path ({n}, {start}, {length})")
        self.n, self.start, self.length = n, start, length

    def __lt__(self, other):
        return (self.n, self.start, self.length) < (other.n, other.start, other.length)

    @classmethod
    def vertex(cls, n, a):
        _check_sizes(n)
        return cls(n, a % n, 0)

    @classmethod
    def edge(cls, n, a, b):
        """e_[a,b]: from vertex a forward to vertex b (one full loop if a = b)."""
        _check_sizes(n)
        a %= n
        b %= n
        length = (b - a) % n
        if length == 0:
            length = n
        return cls(n, a, length)

    @classmethod
    def from_pair(cls, n, x, y):
        """Class of the pair of positions (x, y), 0 <= y - x <= n."""
        _check_sizes(n)
        if not 0 <= y - x <= n:
            raise ValueError(f"({x}, {y}) is not a path pair")
        return cls(n, x % n, y - x)

    @property
    def is_vertex(self):
        return self.length == 0

    @property
    def end(self):
        return (self.start + self.length) % self.n

    def serialize(self):
        if self.is_vertex:
            return f"v:{self.start}"
        return f"e:{self.start}:{self.end}"

    @classmethod
    def deserialize(cls, n, s):
        """Read v:<a> (vertex a) or e:<a>:<b> (edge from a forward to b)."""
        match = re.fullmatch(r"v:(-?[0-9]+)|e:(-?[0-9]+):(-?[0-9]+)", s)
        if match is None:
            raise ValueError(f"{s!r} is not a path: expected v:<a> or e:<a>:<b>")
        a, start, end = match.groups()
        if a is not None:
            return cls.vertex(n, int(a))
        return cls.edge(n, int(start), int(end))

    def __repr__(self):
        return self.serialize()


def path_set(n):
    """All n + n^2 paths: n vertices and an edge for each start and length."""
    _check_sizes(n)
    paths = [Path.vertex(n, a) for a in range(n)]
    paths += [Path(n, a, l) for a in range(n) for l in range(1, n + 1)]
    return paths


def is_admissible(seq, target):
    """Is seq target-admissible?

    That is, is there a chain x_0 <= ... <= x_k <= x_0 + 1 with (x_0, x_k)
    in the class of target and (x_{i-1}, x_i) in the class of seq[i]?
    Normalizing x_0 to target's start makes each subsequent lift forced, so
    the search is a single deterministic propagation.
    """
    n = target.n
    if any(p.n != n for p in seq):
        raise ValueError("paths live on different objects")
    x = target.start
    for p in seq:
        if p.start != x % n:
            return False
        x += p.length
    return x == target.start + target.length


def path_label(path, vertices, edges, fuse):
    """The label of a vertex (vertices[a]), an edge (edges[a]) or two edges
    fused across the vertex between them (fuse(a)), a the path's start."""
    a = path.start
    if path.is_vertex:
        return vertices[a]
    if path.length == 1:
        return edges[a]
    if path.length == 2:
        return fuse(a)
    raise ValueError(f"labels cover at most two edges, not {path.length}")


# ---------------------------------------------------------------------------
# Cyclic maps.


class CyclicMap(Value):
    """Nondecreasing equivariant map between subdivided circles.

    vals[a] is the image position of a for 0 <= a < source_n, over the target
    subdivision; canonical form has 0 <= vals[0] < target_n.
    """

    __slots__ = ("source_n", "target_n", "vals")

    def __init__(self, source_n, target_n, vals):
        _check_sizes(source_n, target_n)
        vals = tuple(vals)
        if len(vals) != source_n:
            raise ValueError("vals length must equal source_n")
        shift = vals[0] // target_n
        if shift:
            vals = tuple(v - shift * target_n for v in vals)
        for a in range(len(vals) - 1):
            if vals[a] > vals[a + 1]:
                raise ValueError("map is not nondecreasing")
        if vals[-1] > vals[0] + target_n:
            raise ValueError("map exceeds one period")
        self.source_n, self.target_n, self.vals = source_n, target_n, vals

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(range(n)))

    @classmethod
    def rotation(cls, n, k):
        """x -> x + k/n."""
        k %= n
        return cls(n, n, tuple(a + k for a in range(n)))

    @classmethod
    def contraction(cls, n, a):
        """The injection [n-1] -> [n] whose image skips vertex a+1 (mod n):
        it fuses edges a and a+1 into one path of length 2."""
        if n < 2:
            raise ValueError("cannot contract a 1-cycle")
        drop = (a + 1) % n
        return cls(n - 1, n, tuple(i for i in range(n) if i != drop))

    def __call__(self, a):
        """Image position of source position a (any integer)."""
        q, r = divmod(a, self.source_n)
        return self.vals[r] + q * self.target_n

    def is_injective(self):
        return len(set(v % self.target_n for v in self.vals)) == self.source_n

    def after(self, other):
        """self composed after other (other first)."""
        if other.target_n != self.source_n:
            raise ValueError("maps are not composable")
        return CyclicMap(other.source_n, self.target_n, tuple(self(v) for v in other.vals))

    def dual(self):
        """The map b -> min{a : self(a) >= b}, canonicalized."""
        out = [None] * self.target_n
        for a, p in _walk(self):
            q, b = divmod(p, self.target_n)
            out[b] = a - q * self.source_n
        return CyclicMap(self.target_n, self.source_n, out)

    def serialize(self):
        return list(self.vals)

    def __repr__(self):
        return f"CyclicMap({self.source_n}->{self.target_n}, {list(self.vals)})"


def _walk(g):
    """The pairs (a, p) with 0 <= a < g.source_n and g(a-1) < p <= g(a), in
    increasing p: each class of target positions once, and a = min{a : g(a)
    >= p}, since g is nondecreasing within one period."""
    lo = g.vals[-1] - g.target_n
    for a, hi in enumerate(g.vals):
        for p in range(lo + 1, hi + 1):
            yield a, p
        lo = hi


def path_pushforward(f, p):
    """Image class of (x, y) -> (f(x), f(y))."""
    if p.n != f.source_n:
        raise ValueError("path does not live on the source of the map")
    x = f(p.start)
    y = f(p.start + p.length)
    return Path.from_pair(f.target_n, x, y)


def pull_back_labels(f, label):
    """Vertex and edge labels of f's source, read off f's target: vertex j
    takes the label of vertex f(j), edge j that of path_pushforward(f, edge j).

    label maps a path on f's target to its label.  Along a rotation this
    rotates the labels; along a contraction the fused edge takes the label
    of a path of length 2.
    """
    return tuple(
        tuple(label(path_pushforward(f, Path(f.source_n, j, length))) for j in range(f.source_n))
        for length in (0, 1)
    )


HOM_GUARD = 6


def hom_set(n, m):
    """All canonical maps [n] -> [m]; brute-force enumeration, guarded."""
    _check_sizes(n, m)
    if n > HOM_GUARD or m > HOM_GUARD:
        raise SizeGuard(f"hom_set enumeration is guarded at {HOM_GUARD}")
    out = []

    def extend(vals):
        if len(vals) == n:
            out.append(CyclicMap(n, m, tuple(vals)))
            return
        lo = vals[-1] if vals else 0
        hi = vals[0] + m if vals else m - 1
        for v in range(lo, hi + 1):
            extend(vals + [v])

    extend([])
    return out


def automorphisms(n):
    """The n rotations: an injective map [n] -> [n] is a bijection.  No
    command reaches it; test_cyclic checks it past hom_set's guard."""
    _check_sizes(n)
    return [CyclicMap.rotation(n, k) for k in range(n)]


# ---------------------------------------------------------------------------
# Cut sets.
#
# The level-q piece of the cyclic bar object of the n-cycle is a set of
# (q+1)*n elements, each a class of the product circle order:  element (j, a)
# with 0 <= j <= q and 0 <= a < n sits at linear position a*(q+1) + j, and one
# full turn adds n*(q+1) positions.  Elements are gaps of the circular order;
# the gap (0, a) at the block boundary is coloured by the edge a-1 -> a, the
# gaps (j, a) with j >= 1 inside a block by the vertex a.  This is the unique
# block-consistent colouring for which every structure-map fiber, read in
# increasing position order, is an admissible sequence.


class CutSet(Value):
    """Coloured cut set of the q-simplex level over the n-cycle.

    With the prime p set, the underlying cycle is the p-fold cover (index
    p*n) and the set carries a free action of order p over the plain set.
    """

    __slots__ = ("q", "n", "p")

    def __init__(self, q, n, p=None):
        if q < 0:
            raise ValueError("the indexing order must be nonempty")
        if n < 1:
            raise ValueError("n must be >= 1")
        if p is not None and p < 1:
            raise ValueError("p must be >= 1")
        self.q, self.n, self.p = q, n, p

    @property
    def cycle_n(self):
        return self.n * (self.p or 1)

    @property
    def size(self):
        return (self.q + 1) * self.cycle_n

    def element(self, j, a):
        return (a % self.cycle_n) * (self.q + 1) + j

    def coords(self, e):
        return e % (self.q + 1), e // (self.q + 1)

    def colour(self, e):
        j, a = self.coords(e)
        if j == 0:
            return Path(self.cycle_n, (a - 1) % self.cycle_n, 1)
        return Path.vertex(self.cycle_n, a)

    def colours(self):
        """The colour of each element, as one tuple shared by every cut set
        of this shape (_colours)."""
        return _colours(self.q, self.n, self.p)

    def action(self, e):
        """Generator of the free order-p action (p-fold cover only)."""
        if self.p is None:
            raise ValueError("no action on an unprimed cut set")
        j, a = self.coords(e)
        return self.element(j, a + self.n)

    def quotient_element(self, e):
        """Image of an element of the p-fold cover in the plain cut set."""
        if self.p is None:
            raise ValueError("quotient map needs the p-fold cover")
        j, a = self.coords(e)
        return CutSet(self.q, self.n).element(j, a % self.n)

    def position_map(self, alpha, f, q_hi):
        """The product order map (alpha x f) from this level to level q_hi
        over f's target circle: (j, a) goes to f(a)*(q_hi+1) + alpha[j]."""
        if f.source_n != self.cycle_n:
            raise ValueError("cycle size mismatch")
        if not f.is_injective():
            raise ValueError("only injective circle maps induce order maps")
        vals = [f(a) * (q_hi + 1) + alpha[j] for j, a in map(self.coords, range(self.size))]
        return CyclicMap(self.size, (q_hi + 1) * f.target_n, vals)


# Entries kept in each cache of shape data: cut-set colours here, faces,
# comparisons, level layouts and assembly plans in hochschild.py.  A
# benchmark pass uses 27 to 35 faces.
_FACE_CACHE = 128


@lru_cache(maxsize=_FACE_CACHE)
def _colours(q, n, p):
    """CutSet(q, n, p).colours(), built once per shape.  Every level takes
    its paths from level 1, so memo keys holding colours of several levels
    compare by identity."""
    cut = CutSet(q, n, p)
    if q == 1:
        return tuple(cut.colour(e) for e in range(cut.size))
    ones = _colours(1, n, p)
    return tuple(ones[2 * a + (j > 0)] for j, a in map(cut.coords, range(cut.size)))


def dual_fibers(g):
    """Underlying class map and fibers of the dual of an order map.

    For a nondecreasing equivariant g on positions, the dual sends a class b
    to min{a : g(a) >= b}.  The fiber over a is the class set of the interval
    (g(a-1), g(a)], listed in increasing position order; with the cut-set
    colouring that order is the one whose colour sequences are admissible.
    """
    underlying, fibers = [None] * g.target_n, [[] for _ in range(g.source_n)]
    for a, p in _walk(g):
        underlying[p % g.target_n] = a
        fibers[a].append(p % g.target_n)
    return tuple(underlying), tuple(map(tuple, fibers))


def delta_face(q, i):
    """delta_i : [q-1] -> [q], skipping i."""
    return tuple(j if j < i else j + 1 for j in range(q))


def delta_degeneracy(q, i):
    """sigma_i : [q+1] -> [q], repeating i."""
    return tuple(j if j <= i else j - 1 for j in range(q + 2))
