import random
from itertools import combinations
from math import prod

import pytest

from polygonic import witt
from polygonic.cyclic import SizeGuard
from polygonic.mackey import check_mackey_axioms, evaluate_span
from polygonic.qfin import SpanMorphism, compose_spans
from polygonic.rings import QQ, ZZ, CoefficientRing, ModularRing, PrimeField, QuotientPolynomialRing
from polygonic.truncation import TruncationSet, is_truncation_set
from polygonic.witt import (
    SupportMismatch,
    WittVector,
    add,
    equalizer_report,
    frobenius,
    from_series,
    ghost,
    infinite_verschiebung,
    int_multiple,
    multiply,
    neg,
    peel_coordinates,
    recover_base,
    series_one,
    series_times_factor,
    sub,
    teichmuller,
    to_series,
    verschiebung,
    witt_as_mackey,
    witt_group_presentation,
)

from equalizer_oracle import equalizer_membership, ghost_section, oracle_report, trial_members
from ghost_oracle import ghost_oracle, series_inv, series_mul

T2 = TruncationSet.interval(2)
T3 = TruncationSet.interval(3)
T4 = TruncationSet.interval(4)
T6 = TruncationSet.interval(6)


def rand_vec(rng, ring, support, lo=-9, hi=9):
    return WittVector(ring, support, tuple(ring.from_int(rng.randrange(lo, hi + 1)) for _ in support))


# Dense reference series: the factor (1 - c tau^step)^(-1) written out, and
# integer powers by binary powering of dense products.


def series_geometric(ring, c, step, n):
    """(1 - c tau^step)^(-1) truncated at degree n."""
    out = [ring.zero()] * (n + 1)
    out[0] = ring.one()
    power = ring.one()
    k = step
    while k <= n:
        power = ring.mul(power, c)
        out[k] = power
        k += step
    return out


def series_int_power(ring, s, c):
    """s^c for an integer c (c may be negative)."""
    if c < 0:
        return series_int_power(ring, series_inv(ring, s), -c)
    out = series_one(ring, len(s) - 1)
    base = s
    while c:
        if c & 1:
            out = series_mul(ring, out, base)
        base = series_mul(ring, base, base)
        c >>= 1
    return out


def test_series_times_factor_matches_dense_product():
    # n = 36 with every t and |g| up to 6 crosses the step count at which the
    # kernel leaves the unit walk for the binomial walk; +-100003 is past it.
    rng = random.Random(4)
    gaussian = QuotientPolynomialRing(ZZ, (1, 0, 1))  # Z[i]
    cases = (
        (ZZ, lambda: rng.randrange(-4, 5)),
        (QQ, lambda: QQ.parse(f"{rng.randrange(-4, 5)}/{rng.randrange(1, 4)}")),
        (ModularRing(8), lambda: rng.randrange(8)),
        (PrimeField(5), lambda: rng.randrange(5)),
        (gaussian, lambda: (rng.randrange(-3, 4), rng.randrange(-3, 4))),
    )
    n = 36
    for ring, draw in cases:
        for t in range(1, n + 1):
            for g in list(range(-6, 7)) + [100003, -100003]:
                s = [ring.one()] + [draw() for _ in range(n)]
                x = draw()
                want = series_mul(ring, s, series_int_power(ring, series_geometric(ring, x, t, n), g))
                got = list(s)
                series_times_factor(ring, got, x, t, g)
                assert all(p == q for p, q in zip(got, want)), (ring, t, g)
    # Degrees above the truncation leave the series alone.
    s = [1, 2, 3]
    series_times_factor(ZZ, s, 5, 3, 2)
    assert s == [1, 2, 3]


class _CountingRing:
    """A ring that counts its multiplications.  Its series walks are the
    base class's, run through its own mul, so every product the walks take
    is counted too."""

    def __init__(self, ring):
        self.ring, self.muls = ring, 0

    def __getattr__(self, name):
        return getattr(self.ring, name)

    def mul(self, a, b):
        self.muls += 1
        return self.ring.mul(a, b)

    unit_walk_pass = CoefficientRing.unit_walk_pass
    binomial_walk_pass = CoefficientRing.binomial_walk_pass


def test_series_times_factor_takes_the_shorter_walk():
    n = 36
    for base in (ZZ, ModularRing(9)):
        def dense():
            return [base.one()] + [base.from_int(k % 7 + 1) for k in range(n)]

        # (1 - x tau)^(-+1): one pass, one product per degree.
        for g in (1, -1):
            ring = _CountingRing(base)
            series_times_factor(ring, dense(), base.from_int(2), 1, g)
            assert 0 < ring.muls <= n, (base, g, ring.muls)
        # A large multiplicity: no more products than the binomial walk's n/t
        # terms (two products each) and its steps.
        for t in (1, 2, 5, 36):
            ring = _CountingRing(base)
            series_times_factor(ring, dense(), base.from_int(2), t, 100003)
            k = n // t
            assert ring.muls <= 2 * k + sum(n + 1 - j * t for j in range(1, k + 1)), (base, t, ring.muls)


def test_largest_workload_supports_against_the_ghost_oracle():
    # divisors(36) is no interval, so the oracle reads each vector padded
    # with zeros to [max]: w_t for t | 36 sees only the degrees dividing t.
    D = TruncationSet.divisors(36)

    def oracle(v):
        padded = WittVector.from_dict(ZZ, TruncationSet.interval(v.support.max()), v.as_dict())
        return dict(zip(v.support.elements, (ghost_oracle(padded).as_dict()[t] for t in v.support)))

    rng = random.Random(36)
    for _ in range(3):
        a, b = rand_vec(rng, ZZ, D), rand_vec(rng, ZZ, D)
        wa, wb = oracle(a), oracle(b)
        assert oracle(add(a, b)) == {t: wa[t] + wb[t] for t in D}
        assert oracle(multiply(a, b)) == {t: wa[t] * wb[t] for t in D}
        for n in (2, 3):
            f = frobenius(a, n)
            assert f.support == D.divide(n)
            assert oracle(f) == {t: wa[n * t] for t in f.support}


def test_multiples_of_the_characteristic_over_z_mod_p():
    # Over Z/p, (1 - y)^(-p) = (1 - y^p)^(-1) truncates to 1 below degree p,
    # so a p-fold multiple on [6] is zero and its neighbours are a + a and -a.
    p = 1000003
    ring = ModularRing(p)
    a = rand_vec(random.Random(6), ring, T6)
    assert int_multiple(p, a) == WittVector.from_dict(ring, T6, {})
    assert int_multiple(p + 2, a) == add(a, a)
    assert int_multiple(-p - 1, a) == neg(a)


def test_teichmuller_series_and_ghost():
    a = teichmuller(ZZ, 3, T4)
    assert to_series(a) == [1, 3, 9, 27, 81]
    assert ghost(a).values == (3, 9, 27, 81)
    assert ghost_oracle(a).values == (3, 9, 27, 81)
    assert to_series(WittVector.from_dict(ZZ, T4, {})) == [1, 0, 0, 0, 0]
    assert teichmuller(ZZ, 0, T4) == WittVector.from_dict(ZZ, T4, {})
    assert ghost(WittVector.from_dict(ZZ, T4, {})).values == (0, 0, 0, 0)


def test_from_series_product_of_teichmullers():
    # (1 - r t)^-1 (1 - s t)^-1 -> a_1 = r + s, a_2 = -rs
    r, s = 5, -3
    prod = series_mul(ZZ, series_geometric(ZZ, r, 1, 2), series_geometric(ZZ, s, 1, 2))
    v = from_series(ZZ, prod)
    assert v.as_dict() == {1: r + s, 2: -r * s}


def test_round_trip_random():
    rng = random.Random(0)
    for ring in (ZZ, ModularRing(9)):
        for n in (1, 2, 4, 6, 8):
            T = TruncationSet.interval(n)
            for _ in range(25):
                v = rand_vec(rng, ring, T)
                assert from_series(ring, to_series(v)) == v


def test_addition():
    a = teichmuller(ZZ, 1, T2)
    b = teichmuller(ZZ, -1, T2)
    assert add(a, WittVector.from_dict(ZZ, T2, {})) == a
    s = add(a, b)
    assert s.as_dict() == {1: 0, 2: 1}
    assert sub(a, a) == WittVector.from_dict(ZZ, T2, {})
    with pytest.raises(SupportMismatch):
        add(a, teichmuller(ZZ, 1, T3))


def test_ghost_additive_multiplicative():
    rng = random.Random(1)
    for _ in range(100):
        v = rand_vec(rng, ZZ, T6, -5, 5)
        w = rand_vec(rng, ZZ, T6, -5, 5)
        gv, gw = ghost(v).values, ghost(w).values
        assert ghost(add(v, w)).values == tuple(x + y for x, y in zip(gv, gw))
        assert ghost(multiply(v, w)).values == tuple(x * y for x, y in zip(gv, gw))
        assert ghost_oracle(v).values == gv


def test_ring_operations_through_the_ghost_map():
    rng = random.Random(8)
    for support in (TruncationSet.divisors(36), TruncationSet.interval(20)):
        for _ in range(3):
            v = rand_vec(rng, ZZ, support, -3, 3)
            w = rand_vec(rng, ZZ, support, -3, 3)
            gv, gw = ghost(v).values, ghost(w).values
            assert ghost(multiply(v, w)).values == tuple(x * y for x, y in zip(gv, gw))
            assert ghost(add(v, w)).values == tuple(x + y for x, y in zip(gv, gw))
            for c in (-3, -1, 0, 2, 7):
                assert ghost(int_multiple(c, v)).values == tuple(c * x for x in gv)
            for n in (2, 3, 5):
                target = support.divide(n)
                assert ghost(frobenius(v, n)).values == tuple(gv[support.elements.index(n * t)] for t in target)


def test_ghost_injective_over_Z():
    rng = random.Random(2)
    for _ in range(30):
        v = rand_vec(rng, ZZ, T6)
        section = ghost_section(list(ghost(v).values), T6)
        assert section == v.as_dict()


def test_multiplicative_unit_and_teichmuller():
    rng = random.Random(3)
    one = teichmuller(ZZ, 1, T4)
    for _ in range(20):
        v = rand_vec(rng, ZZ, T4)
        assert multiply(v, one) == v
    R9 = ModularRing(9)
    for _ in range(20):
        r, s = rng.randrange(9), rng.randrange(9)
        lhs = multiply(teichmuller(R9, r, T4), teichmuller(R9, s, T4))
        assert lhs == teichmuller(R9, (r * s) % 9, T4)


def test_verschiebung_defaults_to_the_least_support_that_divides_back():
    # without a support, V_n lands on the divisors of n*t for t in the
    # support: the least truncation set whose n-division is the support
    rng = random.Random(11)
    for ring in (ZZ, ModularRing(8)):
        for support, n, expected in (
            (T4, 2, (1, 2, 3, 4, 6, 8)),
            (T3, 3, (1, 2, 3, 6, 9)),
            (TruncationSet((1, 2, 4)), 1, (1, 2, 4)),
            (TruncationSet(()), 5, ()),
        ):
            x = rand_vec(rng, ring, support) if support.elements else WittVector.from_dict(ring, support, {})
            v = verschiebung(x, n)
            assert v.support.elements == expected
            assert v.support.divide(n) == support
            assert v == verschiebung(x, n, v.support)
            coeffs = x.as_dict()
            assert v.as_dict() == {u: coeffs[u // n] if u % n == 0 else ring.zero() for u in expected}


def test_verschiebung_frobenius_identities():
    rng = random.Random(4)
    # V_1 = id, F_1 = id
    v = rand_vec(rng, ZZ, T4)
    assert verschiebung(v, 1, T4) == v
    assert frobenius(v, 1) == v
    # ghost of V_2[1] in W_[4]
    v21 = verschiebung(teichmuller(ZZ, 1, T4.divide(2)), 2, T4)
    assert ghost(v21).values == (0, 2, 0, 2)
    # F_2 V_2 = 2 on W_[3]
    for _ in range(50):
        x = rand_vec(rng, ZZ, T3)
        big = TruncationSet.interval(6)
        assert frobenius(verschiebung(x, 2, big), 2) == int_multiple(2, x)
    # F_2 V_3 = V_3 F_2 through W_[6]
    for _ in range(30):
        x = rand_vec(rng, ZZ, T6.divide(3), -4, 4)
        lhs = frobenius(verschiebung(x, 3, T6), 2)
        rhs = verschiebung(frobenius(x, 2), 3, T6.divide(2))
        assert lhs == rhs
    # V_n V_m = V_nm
    T12 = TruncationSet.interval(12)
    x = rand_vec(rng, ZZ, T12.divide(6))
    assert verschiebung(verschiebung(x, 2, T12.divide(3)), 3, T12) == (
        verschiebung(x, 6, T12)
    )
    # F_n F_m = F_nm
    y = rand_vec(rng, ZZ, T12)
    assert frobenius(frobenius(y, 2), 3) == frobenius(y, 6)


def test_frobenius_ring_hom_ghost_level():
    rng = random.Random(5)
    for _ in range(30):
        v = rand_vec(rng, ZZ, T6, -4, 4)
        w = rand_vec(rng, ZZ, T6, -4, 4)
        for n in (2, 3):
            lhs = ghost(frobenius(multiply(v, w), n)).values
            rhs = ghost(multiply(frobenius(v, n), frobenius(w, n))).values
            assert lhs == rhs
            assert ghost(frobenius(add(v, w), n)).values == ghost(
                add(frobenius(v, n), frobenius(w, n))
            ).values


def test_fv_gcd_identity():
    # F_n V_m = gcd * V_{m/g} F_{n/g} at ghost level, n, m <= 6
    rng = random.Random(6)
    from math import gcd
    N = 36
    T = TruncationSet.interval(N)
    for n in range(1, 7):
        for m in range(1, 7):
            g = gcd(n, m)
            x = rand_vec(rng, ZZ, T.divide(m), -3, 3)
            lhs = frobenius(verschiebung(x, m, T), n)
            inner = frobenius(x, n // g)
            rhs_inner = verschiebung(inner, m // g, T.divide(n))
            rhs = int_multiple(g, rhs_inner)
            assert ghost(lhs).values == ghost(rhs).values


def test_verschiebung_additive():
    rng = random.Random(7)
    for _ in range(30):
        x = rand_vec(rng, ZZ, T6.divide(2))
        y = rand_vec(rng, ZZ, T6.divide(2))
        assert verschiebung(add(x, y), 2, T6) == (
            add(verschiebung(x, 2, T6), verschiebung(y, 2, T6))
        )


def test_infinite_verschiebung():
    assert infinite_verschiebung(ZZ, [], T4) == WittVector.from_dict(ZZ, T4, {})
    x = teichmuller(ZZ, 1, T4.divide(2))
    single = infinite_verschiebung(ZZ, [(2, x)], T4)
    assert single == verschiebung(x, 2, T4)
    family = [(k, teichmuller(ZZ, 1, T4.divide(k))) for k in (2, 3, 4)]
    got = infinite_verschiebung(ZZ, family, T4)
    oracle = series_one(ZZ, 4)
    for k in (2, 3, 4):
        oracle = series_mul(ZZ, oracle, series_geometric(ZZ, 1, k, 4))
    assert to_series(got) == oracle
    # sizes beyond the bound contribute nothing
    widened = family + [(9, teichmuller(ZZ, 7, T4.divide(9)))]
    assert infinite_verschiebung(ZZ, widened, T4) == got
    # the support bound is 4: a declared tail must start past it
    assert infinite_verschiebung(ZZ, family, T4, tail=(5,)) == got
    for tail in ((3,), (4,)):
        with pytest.raises(ValueError, match=r"^declared infinite family reaches into the window \(bound 4\)$"):
            infinite_verschiebung(ZZ, family, T4, tail=tail)


def test_partial_sums_stabilize():
    family = [(k, teichmuller(ZZ, 1, T4.divide(k))) for k in (2, 3, 4, 5, 6, 7)]
    partial = WittVector.from_dict(ZZ, T4, {})
    values = []
    for n, x in family:
        partial = add(partial, verschiebung(x, n, T4) if n <= 4 else WittVector.from_dict(ZZ, T4, {}))
        values.append(partial.as_dict())
    assert values[2] == values[3] == values[4] == values[5]


def test_peel_coordinates():
    rng = random.Random(8)
    for ring in (ZZ, ModularRing(8)):
        for _ in range(20):
            v = rand_vec(rng, ring, T4)
            coords = peel_coordinates(v)
            rebuilt = WittVector.from_dict(ring, T4, {})
            for t, c in zip(T4, coords):
                gen = verschiebung(teichmuller(ring, ring.one(), T4.divide(t)), t, T4)
                rebuilt = add(rebuilt, int_multiple(c, gen))
            assert rebuilt == v


def _reduce(v, ring):
    return WittVector(ring, v.support, tuple(ring.from_int(c) for c in v.coeffs))


def test_every_operation_commutes_with_reduction_mod_m():
    # W(Z) -> W(Z/m) is a ring map that commutes with F_n and V_n, so each
    # operation over Z/m must give the reduction of its result over Z.
    rng = random.Random(23)
    rings = (ModularRing(8), ModularRing(9), PrimeField(5))
    checks = 0
    for support in (TruncationSet.interval(12), TruncationSet.divisors(36)):
        bound = support.max()
        for _ in range(3):
            a, b = rand_vec(rng, ZZ, support), rand_vec(rng, ZZ, support)
            # a repeated size, and a size past the bound that adds nothing
            family = [(n, rand_vec(rng, ZZ, support.divide(n))) for n in (2, 3, 2, bound + 1)]

            def results(lift):
                x, y = lift(a), lift(b)
                out = [add(x, y), sub(x, y), neg(x), int_multiple(-3, x), multiply(x, y)]
                out += [frobenius(x, n) for n in (2, 3, 5)]
                out.append(infinite_verschiebung(x.ring, [(n, lift(v)) for n, v in family], support))
                return out

            over_z = results(lambda v: v)
            for ring in rings:
                assert results(lambda v: _reduce(v, ring)) == [_reduce(v, ring) for v in over_z], ring
                checks += len(over_z)
    assert checks == 162


def test_presentations_have_m_to_the_size_elements():
    # W_T(Z/m) has m^|T| elements: no free part, torsion of that order.
    sets = _truncation_sets(12, 6)
    assert len(sets) == 110
    for ring in (ModularRing(4), ModularRing(6), ModularRing(8), ModularRing(9), PrimeField(5)):
        for T in sets:
            torsion, free = witt_group_presentation(ring, T).invariants()
            assert free == 0 and prod(torsion) == ring.modulus ** len(T), (ring, T)


def test_presentation_peels_the_series_it_builds():
    # The relation of t peels the series of m * V_t[1] as built; reading it
    # into a vector first and rebuilding the series took 188 products here.
    ring = _CountingRing(ModularRing(8))
    witt_group_presentation(ring, TruncationSet.interval(12))
    assert 0 < ring.muls <= 136, ring.muls


def test_recover_base():
    report = recover_base(ModularRing(8), 4)
    assert report["matches_base"] and report["invariant_factors"] == [8]
    report = recover_base(ZZ, 2)
    assert report["matches_base"] and report["free_rank"] == 1
    report = recover_base(interval_n := PrimeField(5), 6)
    assert report["matches_base"] and report["invariant_factors"] == [5]
    report = recover_base(ZZ, 1)
    assert report["matches_base"]
    with pytest.raises(ValueError, match="^Q is not finitely presented over Z$"):
        recover_base(QQ, 3)


def test_witt_as_mackey_small():
    M = witt_as_mackey(ZZ, 1)
    assert M.group(1).invariants() == ([], 1)
    from polygonic.mackey import geometric_fixed_points
    assert geometric_fixed_points(M, 1).group.invariants() == ([], 1)


def test_witt_as_mackey_gfp():
    from polygonic.mackey import geometric_fixed_points
    M = witt_as_mackey(ModularRing(4), 6)
    for n in M.window:
        assert geometric_fixed_points(M, n).group.invariants() == ([4], 0)
    M = witt_as_mackey(PrimeField(3), 6)
    for n in M.window:
        assert geometric_fixed_points(M, n).group.invariants() == ([3], 0)


def test_witt_window_matches_span_evaluation():
    # the F/V double-coset data of the window agrees with direct Witt
    # computations on generators
    M = witt_as_mackey(ZZ, 6)
    from math import gcd, lcm
    for n in (2, 3):
        for m in (2, 3, 4):
            if lcm(n, m) > 6:
                continue
            # evaluate F_n V_m : A(m) -> A(n) through the span machinery
            span = compose_spans(
                SpanMorphism.single(1, m, m),
                SpanMorphism.single(n, n, 1),
            )
            h = evaluate_span(M, span)
            # oracle: F_n(V_m(V_t[1])) computed in W and peeled
            support_m = M.window.divide(m)
            support_n = M.window.divide(n)
            for col, t in enumerate(support_m.elements):
                x = verschiebung(
                    teichmuller(ZZ, 1, support_m.divide(t)), t, support_m
                )
                image = frobenius(verschiebung(x, m, M.window), n)
                assert image.support == support_n
                expected = peel_coordinates(image)
                assert h.matrix.col(col) == expected


def test_witt_window_axioms():
    M = witt_as_mackey(ModularRing(8), 6)
    assert check_mackey_axioms(M, trials=60, seed=9).ok


def test_equalizer_examples():
    assert equalizer_membership(ZZ, TruncationSet((1,)), (17,))
    assert equalizer_report(ZZ, TruncationSet((1,)), 3)["equalizer_size"] == 7
    assert equalizer_report(ZZ, TruncationSet((1,)), 0)["equalizer_size"] == 1
    # an empty box would list no member, and the empty set is no subgroup
    for ring in (ZZ, ModularRing(4)):
        with pytest.raises(ValueError, match="^--box must be >= 0, got -1$"):
            equalizer_report(ring, TruncationSet((1,)), -1)

    report = equalizer_report(ZZ, TruncationSet.divisors(6), 6)
    assert report["equals_ghost_image"]

    report4 = equalizer_report(ZZ, T4, 4)
    assert not report4["equals_ghost_image"]
    assert equalizer_membership(ZZ, T4, (0, 0, 0, 2))
    assert ghost_section([0, 0, 0, 2], T4) is None
    # every ghost vector is in the equalizer
    rng = random.Random(10)
    for _ in range(30):
        v = rand_vec(rng, ZZ, T4, -3, 3)
        assert equalizer_membership(ZZ, T4, ghost(v).values)


def test_equalizer_modular():
    members = trial_members(ModularRing(4), T4, 0)
    assert equalizer_report(ModularRing(4), T4, 0)["equalizer_size"] == len(members) > 0
    for w in members:
        assert equalizer_membership(ModularRing(4), T4, w)
    with pytest.raises(ValueError, match="^cannot enumerate over Q$"):
        equalizer_report(QQ, T4, 2)
    with pytest.raises(ValueError, match=r"^cannot enumerate over Z\[x\]/\(\.\.\.\)$"):
        equalizer_report(QuotientPolynomialRing(ZZ, (1, 0, 1)), T4, 2)


def _truncation_sets(top, size):
    return [TruncationSet(c) for k in range(1, size + 1) for c in combinations(range(1, top + 1), k)
            if is_truncation_set(c)]


def test_equalizer_matches_trial_enumeration_and_back_substitution():
    # The residue classes and Dwork's congruences against the old trial
    # enumeration and ghost_section: every truncation set in {1..12} with at
    # most 6 elements, at boxes 0-4 over Z, and over Z/4, Z/6 and Z/8 (over
    # Z/8 the sets with at most 8^4 residue tuples; the other 15 hold 2.8
    # million members between them).
    sets = _truncation_sets(12, 6)
    assert len(sets) == 110
    cases = [(ZZ, T, box) for T in sets for box in range(5)]
    cases += [(ModularRing(m), T, 0) for m in (4, 6) for T in sets]
    cases += [(ModularRing(8), T, 0) for T in sets
              if 8 ** len(T) // 2 ** sum(t % 2 == 0 for t in T) <= 8 ** 4]
    assert len(cases) == 550 + 220 + 45
    for ring, T, box in cases:
        assert equalizer_report(ring, T, box) == oracle_report(ring, T, box), (ring, T, box)


def test_json_roundtrip():
    v = WittVector.from_dict(ModularRing(8), T4, {1: 3, 4: 5})
    assert WittVector.from_json(v.to_json()) == v


def test_from_dict_rejects_indices_outside_the_support():
    with pytest.raises(SupportMismatch, match=r"\[5\]"):
        WittVector.from_dict(ZZ, TruncationSet((1, 2, 3)), {1: 1, 5: 1})
    data = WittVector.from_dict(ZZ, T4, {1: 3}).to_json()
    data["coeffs"]["6"] = "1"
    with pytest.raises(SupportMismatch):
        WittVector.from_json(data)


def test_equalizer_enumeration_limit_edge(monkeypatch):
    # On {1, 2, 3, 6} at box 5 each w_t runs through one class modulo
    # rad(t) = 1, 2, 3, 6 among 11 integers, so at most 11 * 6 * 4 * 2 = 528
    # members are listed: a limit of exactly that many passes.
    support = TruncationSet.divisors(6)
    report = equalizer_report(ZZ, support, 5)
    assert report == oracle_report(ZZ, support, 5)
    assert report["equalizer_size"] == 425 <= 528
    monkeypatch.setattr(witt, "EQUALIZER_GUARD", 528)
    assert equalizer_report(ZZ, support, 5) == report
    monkeypatch.setattr(witt, "EQUALIZER_GUARD", 527)
    with pytest.raises(SizeGuard, match=r"limited to 527 members; support \[1, 2, 3, 6\] and box 5 allow up to 528$"):
        equalizer_report(ZZ, support, 5)


def test_equalizer_refuses_a_huge_modulus_before_listing_its_residues():
    # Over Z/2^64 the one index of {1} runs through all 2^64 residues; the
    # refusal comes before the walk, which would not end.
    with pytest.raises(SizeGuard, match=f"allow up to {2 ** 64}$"):
        equalizer_report(ModularRing(2 ** 64), TruncationSet((1,)), 0)


def test_equalizer_guard_opens_where_classes_are_listed():
    # The old limit of 2^20 tests per index refused {1, 2, 3, 6} at box 30:
    # its last index tested the 37861 members on {1, 2, 3} with 61 values
    # each.  At most 61 * 31 * 21 * 11 = 436821 members are listed now.  The
    # support is squarefree, so the equalizer is the ghost image.
    report = equalizer_report(ZZ, TruncationSet.divisors(6), 30)
    assert report["equalizer_size"] == report["ghost_image_size"] == 385241
    assert report["equals_ghost_image"] and report["first_strict_members"] == []
    assert len(trial_members(ZZ, TruncationSet((1, 2, 3)), 30)) * 61 > 2 ** 20
