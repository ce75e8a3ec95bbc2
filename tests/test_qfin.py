import itertools
import random
from math import gcd, lcm

import pytest

from polygonic.qfin import (
    QFinMap,
    QFinSet,
    SpanMorphism,
    compose_spans,
    fixed_points,
    pullback,
    pullback_elementwise,
    scale,
    weakly_terminal_map,
)


def test_fixed_points_examples():
    S = QFinSet(tuple(range(1, 13)))
    assert sorted(fixed_points(S, 6).orbits) == [1, 2, 3, 6]
    assert sorted(fixed_points(S, 1).orbits) == [1]
    assert fixed_points(QFinSet((4,)), 2).orbits == ()


def test_pullback_examples():
    pt = QFinSet.orbit(1)
    f = QFinMap(QFinSet.orbit(2), pt, ((0, 0),))
    g = QFinMap(QFinSet.orbit(3), pt, ((0, 0),))
    W, _, _ = pullback(f, g)
    assert sorted(W.orbits) == [6]

    U = QFinSet.orbit(2)
    f = QFinMap(QFinSet.orbit(4), U, ((0, 0),))
    g = QFinMap(QFinSet.orbit(6), U, ((0, 0),))
    W, _, _ = pullback(f, g)
    assert sorted(W.orbits) == [12]

    S = QFinSet((2, 3))
    ident = QFinMap.identity(S)
    W, p, q = pullback(ident, ident)
    assert sorted(W.orbits) == [2, 3]


def test_pullback_element_count_law():
    # gcd(a,b)/u orbits of size lcm(a,b), against element-level brute force
    for u in (1, 2, 3, 4):
        for a in range(1, 13):
            if a % u:
                continue
            for b in range(1, 13):
                if b % u:
                    continue
                U = QFinSet.orbit(u)
                f = QFinMap(QFinSet.orbit(a), U, ((0, 1 % u),))
                g = QFinMap(QFinSet.orbit(b), U, ((0, 0),))
                W, p, q = pullback(f, g)
                expected = tuple(sorted([lcm(a, b)] * (gcd(a, b) // u)))
                assert tuple(sorted(W.orbits)) == expected
                assert W.element_count() == a * b // u
                assert pullback_elementwise(f, g) == expected
                # the projections are genuine maps over U
                for k in range(W.size):
                    x = p.apply(k, 0)
                    y = q.apply(k, 0)
                    assert f.apply(*x) == g.apply(*y)


def test_pullback_of_multi_orbit_maps_with_shifts():
    # Sources of several orbits over a two-orbit U, shifts nonzero: the
    # orbits against the element-level oracle, and every element of W lands
    # on a matching pair.
    rng = random.Random(30)
    U = QFinSet((2, 3))

    def rand_map():
        assign = [(rng.randrange(U.size), 0) for _ in range(rng.randrange(1, 4))]
        orbits = tuple(U.orbits[j] * rng.randrange(1, 4) for j, _ in assign)
        return QFinMap(QFinSet(orbits), U, tuple((j, rng.randrange(1, U.orbits[j] + 1)) for j, _ in assign))

    for _ in range(100):
        f, g = rand_map(), rand_map()
        W, p, q = pullback(f, g)
        assert tuple(sorted(W.orbits)) == pullback_elementwise(f, g)
        for k, size in enumerate(W.orbits):
            for e in range(size):
                assert f.apply(*p.apply(k, e)) == g.apply(*q.apply(k, e))
    # The listing order: by U's orbit, then f's orbit, then g's orbit.
    f = QFinMap(QFinSet((6, 4, 3)), U, ((1, 2), (0, 1), (1, 1)))
    g = QFinMap(QFinSet((2, 6, 12)), U, ((0, 1), (1, 0), (0, 0)))
    W, p, q = pullback(f, g)
    assert W.orbits == (4, 12, 12, 6, 6, 6)
    assert p.assign == ((1, 0), (1, 0), (1, 0), (0, 0), (0, 0), (2, 0))
    assert q.assign == ((0, 0), (2, 1), (2, 3), (1, 2), (1, 5), (1, 1))


def test_pullback_target_mismatch():
    f = QFinMap(QFinSet.orbit(2), QFinSet.orbit(1), ((0, 0),))
    g = QFinMap.identity(QFinSet.orbit(2))
    with pytest.raises(ValueError, match="^pullback needs a common target$"):
        pullback(f, g)


def test_compose_spans_examples():
    s = SpanMorphism.single(1, 2, 1)
    ident = SpanMorphism.identity(QFinSet.orbit(1))
    assert compose_spans(s, ident).canonical() == s.canonical()
    assert compose_spans(ident, s).canonical() == s.canonical()

    s2 = SpanMorphism.single(1, 3, 1)
    comp = compose_spans(s2, s)
    assert sorted(comp.apex.orbits) == [6]

    comp = compose_spans(s, s)
    assert sorted(comp.apex.orbits) == [2, 2]


def test_span_composition_associative():
    rng = random.Random(6)
    for _ in range(200):
        sizes = [rng.randrange(1, 7) for _ in range(4)]
        a, b, c, d = sizes

        def rand_span(x, y):
            l = x * y // gcd(x, y) * rng.randrange(1, 3)
            if l > 36:
                l = lcm(x, y)
            return SpanMorphism.single(x, l, y, rng.randrange(x), rng.randrange(y))

        s1 = rand_span(a, b)
        s2 = rand_span(b, c)
        s3 = rand_span(c, d)
        lhs = compose_spans(s3, compose_spans(s2, s1))
        rhs = compose_spans(compose_spans(s3, s2), s1)
        assert lhs.canonical() == rhs.canonical()


def test_scale():
    assert scale(QFinSet.orbit(3), 2).orbits == (6,)
    S = QFinSet((2, 5))
    assert scale(S, 1) == S
    assert scale(scale(S, 2), 3) == scale(S, 6)
    # a declared tail scales with the orbits: 3 * 100 lies past the bound 150
    tailed = scale(QFinSet((2,), tail=(100,)), 3)
    assert tailed == QFinSet((6,), tail=(300,))
    tailed.check_tail_window(150)


def test_scale_commutes_with_pullback():
    rng = random.Random(8)
    for _ in range(60):
        u = rng.randrange(1, 4)
        a = u * rng.randrange(1, 9 // u + 1)
        b = u * rng.randrange(1, 9 // u + 1)
        n = rng.randrange(1, 4)
        U = QFinSet.orbit(u)
        f = QFinMap(QFinSet.orbit(a), U, ((0, rng.randrange(u)),))
        g = QFinMap(QFinSet.orbit(b), U, ((0, rng.randrange(u)),))
        W, _, _ = pullback(f, g)
        fs = QFinMap(QFinSet.orbit(n * a), QFinSet.orbit(n * u), ((0, 0),))
        gs = QFinMap(QFinSet.orbit(n * b), QFinSet.orbit(n * u), ((0, 0),))
        Ws, _, _ = pullback(fs, gs)
        assert scale(W, n).canonical().orbits == Ws.canonical().orbits


def test_is_proper():
    assert QFinMap(QFinSet.orbit(4), QFinSet.orbit(2), ((0, 0),)).is_proper()
    assert not QFinMap.identity(QFinSet.orbit(2)).is_proper()
    S = QFinSet((2, 6))
    T = QFinSet((1, 6))
    f = QFinMap(S, T, ((0, 0), (1, 0)))
    assert not f.is_proper()


def test_proper_composition():
    f = QFinMap(QFinSet.orbit(12), QFinSet.orbit(4), ((0, 1),))
    g = QFinMap(QFinSet.orbit(4), QFinSet.orbit(2), ((0, 0),))
    assert f.is_proper() and g.is_proper()
    assert g.after(f).is_proper()


def test_weakly_terminal():
    f = weakly_terminal_map(QFinSet((6,)), [2, 3, 5])
    assert f.target.orbits[f.assign[0][0]] == 2
    f = weakly_terminal_map(QFinSet((9,)), [2, 3, 5])
    assert f.target.orbits[f.assign[0][0]] == 3
    for m in (1, 49):
        with pytest.raises(ValueError, match=rf"^orbit size {m} has no prime divisor in \[2, 3, 5\]$"):
            weakly_terminal_map(QFinSet((m,)), [2, 3, 5])
    with pytest.raises(ValueError, match="^window entry 4 is not a prime$"):
        weakly_terminal_map(QFinSet((12,)), [4, 6])


def test_tail_markers():
    S = QFinSet((2, 3), tail=(100, 101))
    S.check_tail_window(50)
    S.check_tail_window(99)
    for bound in (100, 150):
        with pytest.raises(ValueError, match=rf"^declared infinite family reaches into the window \(bound {bound}\)$"):
            S.check_tail_window(bound)


def test_canonical_is_the_least_pair_of_leg_shifts():
    # canonical() reads the least (left, right) leg shifts over the apex
    # orbit off a closed form; here the least is found by trying every shift
    # of every composite of single-orbit spans Z/a <- Z/l -> Z/b -> ... Z/c
    # with a, b, c <= 8 and apexes up to 24
    sizes = range(1, 9)

    def apexes(a, b):
        return range(lcm(a, b), 25, lcm(a, b))

    for a, b, c in itertools.product(sizes, sizes, sizes):
        for l1, l2 in itertools.product(apexes(a, b), apexes(b, c)):
            for t in range(b):
                composite = compose_spans(SpanMorphism.single(b, l2, c, 0, 1), SpanMorphism.single(a, l1, b, 1, t))
                rows = []
                for l, j1, s1, j2, s2 in composite.orbit_data():
                    least = min(((s1 + x) % a, (s2 + x) % c) for x in range(l))
                    rows.append((l, j1, least[0], j2, least[1]))
                assert composite.canonical()[0] == tuple(sorted(rows)), (a, l1, b, l2, c, t)
