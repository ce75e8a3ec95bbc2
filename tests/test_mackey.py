import random
from itertools import product
from math import lcm

import pytest

from polygonic.mackey import (
    FPGroup,
    GroupWithAction,
    Hom,
    MackeyWindow,
    burnside_basis,
    burnside_representable,
    check_conservativity,
    check_mackey_axioms,
    coinvariants,
    evaluate_span,
    geometric_fixed_points,
    infinite_transfer_sum,
    proper_transfer_core,
    scale_restrict,
)
from polygonic.qfin import QFinSet, SpanMorphism, compose_spans
from polygonic.rings import ZZ, IntMatrix, invariant_factors
from polygonic.truncation import TruncationSet
from polygonic.witt import witt_as_mackey
from polygonic.rings import ModularRing, PrimeField

from lattice_oracle import lattice_contains


def sparse(x):
    """The dense coordinate list x as a group element (dict index -> entry)."""
    return {i: v for i, v in enumerate(x) if v}


W6 = TruncationSet.divisors(6)
W12 = TruncationSet.divisors(12)


def test_burnside_ranks():
    B = burnside_representable(1, TruncationSet((1,)))
    assert B.group(1).invariants() == ([], 1)
    B = burnside_representable(1, W6)
    assert B.group(1).invariants() == ([], 4)


def test_span_iso_classes_count():
    # spans Z/n <- Z/l -> Z/m for fixed l with lcm | l: gcd(n, m) classes,
    # verified by brute-force orbit counting under apex translations
    for n in (1, 2, 3, 4):
        for m in (1, 2, 3, 4):
            for l in range(1, 13):
                if l % n or l % m:
                    continue
                classes = {
                    frozenset(((s + c) % n, (t + c) % m) for c in range(l))
                    for s in range(n)
                    for t in range(m)
                }
                count = len([k for (ll, _) in burnside_basis(n, m, TruncationSet.divisors(12 if l % 12 == 0 else l))
                             for k in [0] if ll == l]) or None
                from math import gcd
                assert len(classes) == gcd(n, m)


def test_evaluate_span_identity():
    B = burnside_representable(1, W6)
    s = SpanMorphism.identity(QFinSet.orbit(2))
    h = evaluate_span(B, s)
    assert h.equal(Hom.identity(B.group(2)))


def test_norm_span_on_trivial_module():
    # pt <- Z/n -> pt on a trivial-action module is multiplication by n
    window = W6
    triv = FPGroup.free(1)
    ident = IntMatrix.identity(ZZ, 1)
    M = MackeyWindow(
        window,
        {n: triv for n in window},
        {n: ident for n in window},
        {(n, m): ident for n in window for m in window if m % n == 0 and m != n},
        {(n, m): ident.scale(m // n) for n in window for m in window if m % n == 0 and m != n},
    )
    assert check_mackey_axioms(M, trials=50, seed=0).ok
    for n in (2, 3, 6):
        s = SpanMorphism.single(1, n, 1)
        h = evaluate_span(M, s)
        assert h.matrix.get(0, 0) == n


def test_coprime_commutation_span():
    B = burnside_representable(1, W6)
    f2 = SpanMorphism.single(2, 2, 1)      # F_2 as a span Z/2 -> pt
    v3 = SpanMorphism.single(1, 3, 3)      # V_3 as a span pt -> Z/3
    comp = compose_spans(v3, f2)           # F_2 after V_3 : A(3) -> A(2)
    assert sorted(comp.apex.orbits) == [6]
    lhs = evaluate_span(B, comp)
    rhs = evaluate_span(B, f2).after(evaluate_span(B, v3))
    assert lhs.equal(rhs)


def test_axioms_burnside_12():
    B = burnside_representable(1, W12)
    report = check_mackey_axioms(B, trials=100, seed=1)
    assert report.ok, report.failures[:3]


def test_axioms_detect_corruption():
    # The clean window is checked first, so that its memoized span legs are
    # filled; the corrupted window shares every matrix but one and must not
    # read them.
    B = burnside_representable(1, W6)
    assert check_mackey_axioms(B, trials=60, seed=3).ok
    tr = dict(B.tr)
    bad = tr[(1, 2)]
    tr[(1, 2)] = bad.add(IntMatrix(ZZ, bad.rows, bad.cols, {(0, 0): 1}))
    corrupted = MackeyWindow(B.window, B.groups, B.weyl, B.res, tr)
    report = check_mackey_axioms(corrupted, trials=60, seed=3)
    assert not report.ok
    # the messages, built only for the failing trials, name both spans
    assert report.failures == [
        "span composition fails on [(6, 0, 4, 0, 0)] ; [(2, 0, 0, 0, 0)]",
        "span composition fails on [(3, 0, 0, 0, 0)] ; [(2, 0, 0, 0, 1)]",
        "span composition fails on [(6, 0, 5, 0, 0)] ; [(2, 0, 0, 0, 0)]",
        "span composition fails on [(6, 0, 0, 0, 0)] ; [(2, 0, 0, 0, 1)]",
        "span composition fails on [(2, 0, 1, 0, 0)] ; [(2, 0, 0, 0, 0)]",
    ]


def test_axioms_witt_window():
    M = witt_as_mackey(ModularRing(8), 6)
    report = check_mackey_axioms(M, trials=60, seed=5)
    assert report.ok, report.failures[:3]


def test_evaluate_span_functor_random():
    B = burnside_representable(1, W12)
    rng = random.Random(17)
    levels = list(W12)
    checked = 0
    while checked < 100:
        a, b, c = (rng.choice(levels) for _ in range(3))
        l1 = [l for l in levels if l % lcm(a, b) == 0]
        l2 = [l for l in levels if l % lcm(b, c) == 0]
        if not l1 or not l2:
            continue
        s1 = SpanMorphism.single(a, rng.choice(l1), b, rng.randrange(a), rng.randrange(b))
        s2 = SpanMorphism.single(b, rng.choice(l2), c, rng.randrange(b), rng.randrange(c))
        composite = compose_spans(s2, s1)
        if any(l not in B.window for l in composite.apex.orbits):
            continue
        lhs = evaluate_span(B, composite)
        rhs = evaluate_span(B, s1).after(evaluate_span(B, s2))
        assert lhs.equal(rhs)
        checked += 1


def test_actions_of_higher_order_respect_apex_automorphisms():
    # On B_3, B_4 and B_6 the level actions have orders 3, 4 and 6, so
    # untwisting by W_a^s in place of W_a^(-s) gives another map.  A shift
    # of the apex Z/l by c sends the leg shifts (s, t) to (s + c, t + c)
    # and must leave the span's map alone: 28596 pairs (c = 1, ..., l - 1),
    # each span evaluated once.
    pairs = 0
    for m in (3, 4, 6):
        M = burnside_representable(m, W12)
        for a, b, l in product(W12, W12, W12):
            if l % lcm(a, b):
                continue
            h = {(s, t): evaluate_span(M, SpanMorphism.single(a, l, b, s, t)).matrix
                 for s in range(a) for t in range(b)}
            for (s, t), matrix in h.items():
                for c in range(1, l):
                    assert h[((s + c) % a, (t + c) % b)] == matrix, (m, a, l, b, s, t, c)
                    pairs += 1
        report = check_mackey_axioms(M, trials=100, seed=m)
        assert report.ok, report.failures[:3]
    assert pairs == 28596


def _four_factor(powers, M, a, l, b, s, t):
    """weyl_a^(-s) V_{l->a} F_{b->l} weyl_b^t, each factor built afresh."""
    return powers[a][(-s) % a].after(M.tr_hom(l, a)).after(M.res_hom(b, l)).after(powers[b][t])


def test_evaluate_span_matches_the_four_factor_product():
    # Every single-orbit span Z/a <- Z/l -> Z/b, on a window with a cold
    # memo (a new window on the same data each time) and on one whose memo
    # fills as it goes, then again once it is warm.
    windows = (
        burnside_representable(1, W12),
        burnside_representable(4, W12),
        witt_as_mackey(ModularRing(8), 12),
        witt_as_mackey(ZZ, 12),
    )
    for M in windows:
        powers = {}
        for n in M.window:
            w, power = Hom(M.group(n), M.group(n), M.weyl[n]), Hom.identity(M.group(n))
            powers[n] = []
            for _ in range(n):
                powers[n].append(power)
                power = w.after(power)
        expected = {}
        for a, b, l in product(M.window, M.window, M.window):
            if l % lcm(a, b) == 0:
                for s, t in product(range(a), range(b)):
                    expected[(a, l, b, s, t)] = _four_factor(powers, M, a, l, b, s, t)
        warm = MackeyWindow(M.window, M.groups, M.weyl, M.res, M.tr)
        for key, h in expected.items():
            cold = MackeyWindow(M.window, M.groups, M.weyl, M.res, M.tr)
            assert evaluate_span(cold, SpanMorphism.single(*key)) == h, key
            assert evaluate_span(warm, SpanMorphism.single(*key)) == h, key
        for key, h in expected.items():
            assert evaluate_span(warm, SpanMorphism.single(*key)) == h, key


def test_are_zero_matches_lattice_contains():
    # Seeded groups, 32 of the 60 with torsion, each asked several times,
    # so that its memoized invariants are read warm; half the vectors are
    # combinations of the relations plus a small perturbation.
    rng = random.Random(24)
    outcomes, torsion_groups = [], 0
    for _ in range(60):
        ngens = rng.randrange(1, 5)
        relations = [[rng.randrange(-6, 7) for _ in range(ngens)] for _ in range(rng.randrange(1, 5))]
        G = FPGroup(ngens, IntMatrix.from_rows(ZZ, relations))
        for _ in range(5):
            elements = []
            for _ in range(rng.randrange(0, 4)):
                x = [sum(rng.randrange(-3, 4) * r[j] for r in relations) for j in range(ngens)]
                if rng.random() < 0.5:
                    x[rng.randrange(ngens)] += rng.randrange(-2, 3)
                elements.append(x)
            expected = lattice_contains(G.relations.to_lists(), elements, ngens)
            assert G.are_zero([sparse(x) for x in elements]) == expected, (relations, elements)
            outcomes.append(expected)
        torsion, free = G.invariants()
        torsion_groups += bool(torsion)
        torsion.append(0)
        assert G.invariants() == invariant_factors(G.relations)
    assert torsion_groups == 32 and outcomes.count(True) > 100 and outcomes.count(False) > 100
    G = FPGroup(2, IntMatrix.from_rows(ZZ, [[0, 4]]))
    for elements, index in (([{2: 1}], 2), ([{}, {0: 1, -1: 3}], -1), ([{1: 1}, {5: 0}], 5)):
        for ask in (G.are_zero, G.quotient_by):
            with pytest.raises(ValueError, match=rf"^element index {index} is outside range\(2\)$"):
                ask(elements)


def test_infinite_transfer_sum():
    M = witt_as_mackey(ZZ, 4)
    assert infinite_transfer_sum(M, []) == [0, 0, 0, 0]
    x = [1, 0]
    single = infinite_transfer_sum(M, [(2, x)])
    assert sparse(single) == M.tr_hom(2, 1).matrix.apply(sparse(x))
    with pytest.raises(ValueError, match="^family level 5 is outside the window$"):
        infinite_transfer_sum(M, [(5, [1])])
    # the window bound is 4: a declared tail must start past it
    assert infinite_transfer_sum(M, [(2, x)], tail=(5,)) == single
    for tail in ((3,), (4,)):
        with pytest.raises(ValueError, match=r"^declared infinite family reaches into the window \(bound 4\)$"):
            infinite_transfer_sum(M, [(2, x)], tail=tail)


def test_gfp_burnside_point():
    B = burnside_representable(1, W12)
    g = geometric_fixed_points(B, 1)
    assert g.group.invariants() == ([], 1)
    assert g.validate()


def test_gfp_representable_pattern():
    B = burnside_representable(2, W12)
    for k in W12:
        inv = geometric_fixed_points(B, k).group.invariants()
        assert inv == (([], 2) if k % 2 == 0 else ([], 0)), (k, inv)
    B3 = burnside_representable(3, W12)
    for k in W12:
        inv = geometric_fixed_points(B3, k).group.invariants()
        assert inv == (([], 3) if k % 3 == 0 else ([], 0)), (k, inv)


def test_gfp_witt_window():
    M = witt_as_mackey(ModularRing(4), 6)
    for n in M.window:
        assert geometric_fixed_points(M, n).group.invariants() == ([4], 0)


def test_gfp_outside_window():
    B = burnside_representable(1, W6)
    with pytest.raises(ValueError, match="^level 5 is outside the window$"):
        geometric_fixed_points(B, 5)


def test_scale_restriction_identity():
    M = witt_as_mackey(ModularRing(4), 6)
    for n in (2, 3):
        restricted = scale_restrict(M, n)
        lhs = geometric_fixed_points(restricted, 1).group.invariants()
        rhs = geometric_fixed_points(M, n).group.invariants()
        assert lhs == rhs


def test_witt_transfer_sum_dies_in_gfp():
    M = witt_as_mackey(ZZ, 6)
    family = [(i, [1] + [0] * (M.group(i).ngens - 1)) for i in range(2, 7)]
    total = infinite_transfer_sum(M, family)
    assert geometric_fixed_points(M, 1).group.are_zero([sparse(total)])
    assert not M.group(1).are_zero([sparse(total)])


def test_hom_checks_compare_modulo_the_relations():
    # Z + Z/4: generators a (free) and b (order 4)
    G = FPGroup(2, IntMatrix.from_rows(ZZ, [[0, 4]]))

    def hom(rows, dom=G, cod=G):
        return Hom(dom, cod, IntMatrix.from_rows(ZZ, rows))

    identity = Hom.identity(G)
    assert identity.is_well_defined()
    # b -> 5b is b -> b, as the two matrices differ by the relation 4b = 0
    assert hom([[1, 0], [0, 5]]).equal(identity)
    assert hom([[1, 0], [4, -3]]).equal(identity)
    assert not hom([[1, 0], [0, 3]]).equal(identity)
    assert not hom([[1, 0], [2, 1]]).equal(identity)
    # the swap a <-> b sends the relation 4b to 4a, which is not zero
    assert not hom([[0, 1], [1, 0]]).is_well_defined()
    assert hom([[1, 0], [1, 2]]).is_well_defined()
    # on Z/4 + Z/4 the swap is well defined, of order 2
    H = FPGroup(2, IntMatrix.from_rows(ZZ, [[4, 0], [0, 4]]))
    swap = hom([[0, 1], [1, 0]], H, H)
    assert swap.is_well_defined()
    assert swap.power(2).equal(Hom.identity(H)) and not swap.equal(Hom.identity(H))
    # Z/4 -> Z/2 by 1 is well defined; Z/2 -> Z/4 by 1 is not, by 2 it is
    Z2, Z4 = (FPGroup(1, IntMatrix.from_rows(ZZ, [[m]])) for m in (2, 4))
    assert hom([[1]], Z4, Z2).is_well_defined()
    assert not hom([[1]], Z2, Z4).is_well_defined()
    assert hom([[2]], Z2, Z4).is_well_defined()
    assert hom([[3]], Z4, Z2).equal(hom([[1]], Z4, Z2))
    # maps into the zero group and out of a free group
    assert hom([[5, -2]], G, FPGroup(1, IntMatrix.from_rows(ZZ, [[1]]))).is_well_defined()
    assert Hom(FPGroup.free(2), G, IntMatrix.zeros(ZZ, G.ngens, 2)).is_well_defined()


def test_group_elements_are_zero_modulo_the_relations():
    G = FPGroup(2, IntMatrix.from_rows(ZZ, [[0, 4], [6, 2]]))
    assert G.are_zero([{}, {1: 8}, {0: 6, 1: -2}, {0: 6, 1: 6}])
    assert not G.are_zero([{1: 4}, {1: 2}])
    assert not G.are_zero([{0: 3, 1: 1}])
    # an entry given as 0 is no entry
    assert G.are_zero([{0: 0, 1: 8}]) and not G.are_zero([{0: 3, 1: 0}])
    assert G.are_zero([])
    assert FPGroup.zero().are_zero([{}]) and FPGroup.zero().is_zero_group()
    assert not FPGroup.free(1).are_zero([{0: 1}])


def test_conservativity_zero_module():
    window = W6
    zero = FPGroup.zero()
    zmat = IntMatrix.zeros(ZZ, 0, 0)
    M = MackeyWindow(
        window,
        {n: zero for n in window},
        {n: zmat for n in window},
        {(n, m): zmat for n in window for m in window if m % n == 0 and m != n},
        {(n, m): zmat for n in window for m in window if m % n == 0 and m != n},
    )
    report = check_conservativity(M)
    assert report["applicable"] and report["transfer_generated"]


def test_conservativity_witt_not_applicable():
    M = witt_as_mackey(ModularRing(4), 4)
    report = check_conservativity(M)
    assert not report["applicable"]
    assert report["nonzero_levels"] == [1, 2, 3, 4]


def test_proper_transfer_core_collapses():
    B = burnside_representable(1, W12)
    core, trace = proper_transfer_core(B)
    assert all(core.group(n).is_zero_group() for n in core.window)
    assert trace[-1] == {n: 0 for n in core.window}
    report = check_conservativity(core)
    assert report["applicable"] and report["transfer_generated"]


def test_proper_transfer_core_on_witt_windows():
    # Witt windows carry relations over Z/m, unlike the free Burnside ones.
    # The core ranks over Z, by level, per pass; every pass over a finite
    # ring reads 0, as the levels there have free rank 0.
    over_z = {
        4: [[3, 1, 0, 0], [1, 0, 0, 0], [0] * 4, [0] * 4],
        6: [[5, 2, 1, 0, 0, 0], [2, 0, 0, 0, 0, 0], [0] * 6, [0] * 6],
        12: [[11, 5, 3, 2, 1, 1] + [0] * 6, [6, 2, 1] + [0] * 9, [2] + [0] * 11, [0] * 12, [0] * 12],
    }
    for ring in (ZZ, ModularRing(4), ModularRing(8), ModularRing(9), PrimeField(5)):
        for n, ranks in over_z.items():
            M = witt_as_mackey(ring, n)
            core, trace = proper_transfer_core(M)
            if ring != ZZ:
                ranks = [[0] * n for _ in ranks]
            assert trace == [dict(zip(M.window, row)) for row in ranks], (ring, n)
            assert all(core.group(k).is_zero_group() for k in core.window)


def test_lattice_questions_leave_their_elements_alone():
    # are_zero and quotient_by eliminate copies: handed a window's own
    # transfer columns into a level, they leave the window's matrices as
    # they were.  Transfers from several levels hit the same generator, so
    # an elimination of the columns themselves would empty some of them.
    for M in (witt_as_mackey(ModularRing(8), 12), burnside_representable(1, W12)):
        fresh = {key: IntMatrix.from_rows(ZZ, mat.to_lists()) for key, mat in M.tr.items()}
        for n in M.window:
            columns = [x for m in M.proper_multiples(n) for x in M.tr[(n, m)].columns()]
            M.group(n).are_zero(columns)
            M.group(n).quotient_by(columns).invariants()
            geometric_fixed_points(M, n).group.invariants()
            assert M.tr == fresh, n


def test_coinvariants_examples():
    triv = GroupWithAction(FPGroup.free(1), IntMatrix.identity(ZZ, 1), 1)
    assert coinvariants(triv).invariants() == ([], 1)
    # regular representation of the 2-element group: swap on Z^2
    swap = IntMatrix.from_rows(ZZ, [[0, 1], [1, 0]])
    reg = GroupWithAction(FPGroup.free(2), swap, 2)
    assert reg.validate()
    assert coinvariants(reg).invariants() == ([], 1)
    # sign-swap (x, y) -> (-y, -x)
    sign_swap = IntMatrix.from_rows(ZZ, [[0, -1], [-1, 0]])
    A = GroupWithAction(FPGroup.free(2), sign_swap, 2)
    assert coinvariants(A).invariants() == ([], 1)


def test_weyl_powers_match_repeated_products():
    # Two windows on the same levels with different actions: each keeps its
    # own table of powers, read here out of order.
    windows = (burnside_representable(1, W12), burnside_representable(2, W12))
    for M in windows:
        for n in W12:
            w = Hom(M.group(n), M.group(n), M.weyl[n])
            ks = list(range(2 * n + 1))
            random.Random(n).shuffle(ks)
            for k in ks:
                expected = Hom.identity(M.group(n))
                for _ in range(k):
                    expected = w.after(expected)
                assert M.weyl_hom(n, k).matrix == expected.matrix, (n, k)
    assert windows[0].weyl[4] != windows[1].weyl[4]
    assert windows[0].weyl_hom(4).matrix == windows[0].weyl[4]
    assert windows[1].weyl_hom(4).matrix == windows[1].weyl[4]


def test_axioms_report_a_weyl_action_of_the_wrong_order():
    # Level 2 acts on Z^2 by an element of order 3.
    window = TruncationSet.divisors(2)
    groups = {1: FPGroup.zero(), 2: FPGroup.free(2)}
    weyl = {1: IntMatrix.zeros(ZZ, 0, 0), 2: IntMatrix.from_rows(ZZ, [[0, -1], [1, -1]])}
    res = {(1, 2): IntMatrix.zeros(ZZ, 2, 0)}
    tr = {(1, 2): IntMatrix.zeros(ZZ, 0, 2)}
    M = MackeyWindow(window, groups, weyl, res, tr)
    report = check_mackey_axioms(M, trials=10, seed=0)
    assert not report.ok
    assert "weyl at level 2 does not have order dividing 2" in report.failures


def test_axioms_check_the_level_one_action_itself():
    # weyl[1] must be the identity (Z/1 acts trivially); [[-1]] is reported
    # on a one-level window and on a two-level one.
    minus = IntMatrix.from_rows(ZZ, [[-1]])
    one = IntMatrix.from_rows(ZZ, [[1]])
    windows = [
        MackeyWindow(TruncationSet((1,)), {1: FPGroup.free(1)}, {1: minus}, {}, {}),
        MackeyWindow(
            TruncationSet.divisors(2), {1: FPGroup.free(1), 2: FPGroup.free(1)},
            {1: minus, 2: one}, {(1, 2): one}, {(1, 2): IntMatrix.from_rows(ZZ, [[2]])},
        ),
    ]
    for M in windows:
        report = check_mackey_axioms(M, trials=10, seed=0)
        assert not report.ok
        assert "weyl at level 1 does not have order dividing 1" in report.failures
    fixed = MackeyWindow(TruncationSet((1,)), {1: FPGroup.free(1)}, {1: one}, {}, {})
    assert check_mackey_axioms(fixed, trials=10, seed=0).ok
