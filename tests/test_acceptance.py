"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its runtime; every assertion is
exact (no tolerances other than the stated runtime budgets).  Run directly
(python tests/test_acceptance.py) or through pytest -s to see the lines.
"""

import random
import time
from itertools import product
from math import gcd, lcm

from polygonic.cyclic import CutSet, Path, path_set
from polygonic.hochschild import (
    FiniteAlgebra,
    FiniteBimodule,
    LabelledCycle,
    contraction_comparison,
    rotation_action,
)
from polygonic.mackey import (
    Hom,
    burnside_representable,
    check_conservativity,
    check_mackey_axioms,
    evaluate_span,
    geometric_fixed_points,
    proper_transfer_core,
)
from polygonic.operad import (
    ColouredSet,
    EnvelopeMorphism,
    cut_face,
    cut_quotient_check,
    envelope_compose,
    mul_set,
)
from polygonic.qfin import QFinMap, QFinSet, SpanMorphism, compose_spans, pullback, pullback_elementwise
from polygonic.rings import QQ, ZZ, IntMatrix, ModularRing, PrimeField
from polygonic.truncation import TruncationSet
from polygonic.witt import (
    WittVector,
    add,
    equalizer_report,
    frobenius,
    from_series,
    ghost,
    int_multiple,
    multiply,
    recover_base,
    to_series,
    verschiebung,
    witt_as_mackey,
)

from equalizer_oracle import equalizer_membership, ghost_section, oracle_report

BUDGETS = {}


def criterion(number, budget, description):
    def wrap(fn):
        def inner():
            start = time.time()
            fn()
            elapsed = time.time() - start
            assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s >= {budget}s"
            print(f"criterion {number:02d} PASS {elapsed:6.2f}s (< {budget}s): {description}")

        inner.__name__ = f"test_criterion_{number:02d}"
        BUDGETS[number] = inner
        return inner

    return wrap


@criterion(1, 1, "path combinatorics: sizes n+n^2 and the explicit small lists")
def c01():
    for n in range(1, 9):
        assert len(path_set(n)) == n + n * n
    assert sorted(p.serialize() for p in path_set(1)) == sorted(["v:0", "e:0:0"])
    assert sorted(p.serialize() for p in path_set(2)) == sorted(
        ["v:0", "v:1", "e:0:1", "e:1:0", "e:0:0", "e:1:1"]
    )
    assert sorted(p.serialize() for p in path_set(3)) == sorted(
        ["v:0", "v:1", "v:2", "e:0:1", "e:1:2", "e:2:0",
         "e:0:2", "e:1:0", "e:2:1", "e:0:0", "e:1:1", "e:2:2"]
    )


@criterion(2, 10, "operad soundness: substitution closure and envelope associativity")
def c02():
    paths = path_set(2)

    def tuples(arity):
        if arity == 0:
            return [()]
        return [t + (p,) for t in tuples(arity - 1) for p in paths]

    ops = [
        (seq, target)
        for arity in (1, 2)
        for seq in tuples(arity)
        for target in paths
        if mul_set(list(seq), target)
    ]
    checked = 0
    for outer_seq, outer_target in ops:
        outer_perms = mul_set(list(outer_seq), outer_target)
        for slot, gamma in enumerate(outer_seq):
            for inner_seq, inner_target in ops:
                if inner_target != gamma or len(outer_seq) + len(inner_seq) - 1 > 4:
                    continue
                inner_perms = mul_set(list(inner_seq), inner_target)
                composite = list(outer_seq[:slot]) + list(inner_seq) + list(outer_seq[slot + 1:])
                comp_perms = mul_set(composite, outer_target)
                for sigma in outer_perms:
                    for rho in inner_perms:
                        expanded = []
                        for i in sigma:
                            if i < slot:
                                expanded.append(i)
                            elif i == slot:
                                expanded.extend(slot + r for r in rho)
                            else:
                                expanded.append(i + len(inner_seq) - 1)
                        assert tuple(expanded) in comp_perms
                        checked += 1
    assert checked > 100

    # envelope associativity on 200 random composable triples over the 3-cycle
    rng = random.Random(11)
    pool = path_set(3)

    def random_admissible(target):
        pos, remaining, seq = target.start, target.length, []
        while True:
            if remaining == 0 and seq and rng.random() < 0.6:
                break
            if len(seq) >= 4:
                break
            if rng.random() < 0.45 or remaining == 0:
                seq.append(Path.vertex(3, pos % 3))
            else:
                step = rng.randrange(1, remaining + 1)
                seq.append(Path(3, pos % 3, step))
                pos += step
                remaining -= step
        if remaining:
            seq.append(Path(3, pos % 3, remaining))
        if not seq:
            seq.append(Path.vertex(3, target.start))
        return seq

    def random_envelope(target_set):
        fibers = [random_admissible(c) for c in target_set.colours]
        colours = [p for fib in fibers for p in fib]
        source = ColouredSet(3, tuple(colours))
        f, orders, idx = [], [], 0
        for y, fib in enumerate(fibers):
            orders.append(tuple(range(idx, idx + len(fib))))
            f.extend([y] * len(fib))
            idx += len(fib)
        return EnvelopeMorphism(source, target_set, tuple(f), tuple(orders))

    done = 0
    while done < 200:
        Z = ColouredSet(3, tuple(rng.choice(pool) for _ in range(rng.randrange(1, 3))))
        h = random_envelope(Z)
        if h.source.size > 6:
            continue
        g = random_envelope(h.source)
        if g.source.size > 6:
            continue
        f = random_envelope(g.source)
        if f.source.size > 6:
            continue
        assert envelope_compose(envelope_compose(h, g), f) == envelope_compose(
            h, envelope_compose(g, f)
        )
        done += 1


@criterion(3, 10, "cut sets: simplicial identities and the free-cover square")
def c03():
    for n in (1, 2, 3):
        for q in (2, 3, 4):
            cut = CutSet(q, n)
            lower = CutSet(q - 1, n)
            for j in range(1, q + 1):
                for i in range(j):
                    lhs = envelope_compose(cut_face(lower, i), cut_face(cut, j))
                    rhs = envelope_compose(cut_face(lower, j - 1), cut_face(cut, i))
                    assert lhs == rhs
    for p in (2, 3):
        for n in (1, 2):
            for q in (0, 1, 2):
                report = cut_quotient_check(CutSet(q, n, p))
                assert all(report.values())


@criterion(4, 5, "quasifinite pullback law against element-level brute force")
def c04():
    for a in range(1, 13):
        for b in range(1, 13):
            for u in range(1, gcd(a, b) + 1):
                if gcd(a, b) % u:
                    continue
                U = QFinSet.orbit(u)
                f = QFinMap(QFinSet.orbit(a), U, ((0, 1 % u),))
                g = QFinMap(QFinSet.orbit(b), U, ((0, 0),))
                W, _, _ = pullback(f, g)
                expected = tuple(sorted([lcm(a, b)] * (gcd(a, b) // u)))
                assert tuple(sorted(W.orbits)) == expected
                assert pullback_elementwise(f, g) == expected


@criterion(5, 30, "Mackey axioms on the Burnside window and double-coset identities")
def c05():
    W12 = TruncationSet.divisors(12)
    B = burnside_representable(1, W12)
    report = check_mackey_axioms(B, trials=500, seed=5)
    assert report.ok, report.failures[:3]

    # F_m V_n as a composite span = sum over gcd classes of V F twisted
    witt_window = witt_as_mackey(ModularRing(8), 6)
    for module, window in ((B, W12), (witt_window, witt_window.window)):
        for n in range(1, 7):
            for m in range(1, 7):
                l = lcm(n, m)
                if l not in window:
                    continue
                composite = compose_spans(
                    SpanMorphism.single(1, n, n), SpanMorphism.single(m, m, 1)
                )
                lhs = evaluate_span(module, composite)
                g = gcd(n, m)
                dom, cod = module.group(n), module.group(m)
                rhs = Hom(dom, cod, IntMatrix.zeros(ZZ, cod.ngens, dom.ngens))
                for c in range(g):
                    term = module.weyl_hom(n, c)
                    term = module.res_hom(n, l).after(term)
                    term = module.tr_hom(l, m).after(term)
                    rhs = rhs.add(term)
                assert lhs.equal(rhs), (n, m)


@criterion(6, 30, "Witt identities: series round trip, ghost, V/F relations")
def c06():
    rng = random.Random(6)
    T6 = TruncationSet.interval(6)
    for ring in (ZZ, ModularRing(9)):
        for _ in range(100):
            v = WittVector(ring, T6, tuple(ring.from_int(rng.randrange(-9, 10)) for _ in T6))
            assert from_series(ring, to_series(v)) == v
    for _ in range(100):
        v = WittVector(ZZ, T6, tuple(rng.randrange(-5, 6) for _ in T6))
        w = WittVector(ZZ, T6, tuple(rng.randrange(-5, 6) for _ in T6))
        gv, gw = ghost(v).values, ghost(w).values
        assert ghost(add(v, w)).values == tuple(x + y for x, y in zip(gv, gw))
        assert ghost(multiply(v, w)).values == tuple(x * y for x, y in zip(gv, gw))
    T12 = TruncationSet.interval(12)
    x = WittVector(ZZ, T12.divide(6), (3, -2))
    assert verschiebung(verschiebung(x, 2, T12.divide(3)), 3, T12) == (
        verschiebung(x, 6, T12)
    )
    T3 = TruncationSet.interval(3)
    for _ in range(50):
        x = WittVector(ZZ, T3, tuple(rng.randrange(-9, 10) for _ in T3))
        assert frobenius(verschiebung(x, 2, TruncationSet.interval(6)), 2) == int_multiple(2, x)
    for _ in range(30):
        x = WittVector(ZZ, T6.divide(3), tuple(rng.randrange(-4, 5) for _ in T6.divide(3)))
        assert frobenius(verschiebung(x, 3, T6), 2) == (
            verschiebung(frobenius(x, 2), 3, T6.divide(2))
        )


@criterion(7, 10, "base recovery through invariant factors")
def c07():
    for ring, expected in ((ZZ, ([], 1)), (ModularRing(8), ([8], 0)), (PrimeField(5), ([5], 0))):
        for n in range(2, 7):
            report = recover_base(ring, n)
            assert report["matches_base"], (ring, n, report)
            assert (report["invariant_factors"], report["free_rank"]) == expected
        # the comparison map a -> a_1 is additive: a_1 = w_1, and the ghost
        # map is additive
        support = TruncationSet.interval(6)
        rng = random.Random(11)
        for _ in range(20):
            a, b = (WittVector(ring, support, tuple(ring.from_int(rng.randrange(-9, 10)) for _ in support))
                    for _ in range(2))
            assert add(a, b).as_dict()[1] == ring.add(a.as_dict()[1], b.as_dict()[1])


@criterion(8, 30, "geometric fixed points: Witt windows recover R, representables")
def c08():
    for ring, expected in ((ModularRing(4), ([4], 0)), (PrimeField(3), ([3], 0))):
        M = witt_as_mackey(ring, 6)
        for n in M.window:
            assert geometric_fixed_points(M, n).group.invariants() == expected
    W12 = TruncationSet.divisors(12)
    for m in W12:
        B = burnside_representable(m, W12)
        for k in W12:
            inv = geometric_fixed_points(B, k).group.invariants()
            assert inv == (([], m) if k % m == 0 else ([], 0)), (m, k, inv)


@criterion(9, 60, "equalizer model: squarefree equality and strict containment")
def c09():
    report = equalizer_report(ZZ, TruncationSet.divisors(6), 20)
    assert report["equals_ghost_image"]
    assert report["equalizer_size"] == report["ghost_image_size"] > 0

    T4 = TruncationSet.interval(4)
    report4 = equalizer_report(ZZ, T4, 4)
    assert report4 == oracle_report(ZZ, T4, 4)
    assert not report4["equals_ghost_image"]
    assert equalizer_membership(ZZ, T4, (0, 0, 0, 2))
    assert ghost_section([0, 0, 0, 2], T4) is None


@criterion(10, 120, "trace property: contraction quasi-isos and Morita invariance")
def c10():
    F2, F3 = PrimeField(2), PrimeField(3)
    rows = FiniteBimodule.row_vectors(F2, 2)
    cols = FiniteBimodule.column_vectors(F2, 2)
    X = LabelledCycle((FiniteAlgebra.ground(F2), FiniteAlgebra.matrix_algebra(F2, 2)), (rows, cols))
    for edge in (0, 1):
        report = contraction_comparison(X, edge, 3)
        assert report["chain_map"] and report["quasi_iso"]
        assert report["target_homology"][:3] == [1, 0, 0]
        assert report["source_homology"][:3] == [1, 0, 0]

    rng = random.Random(42)
    pool = [
        FiniteAlgebra.ground(F3),
        FiniteAlgebra.poly_quotient(F3, (F3.zero(), F3.zero(), F3.one()), name="k[e]"),
        FiniteAlgebra.poly_quotient(F3, (F3.from_int(-1), F3.zero(), F3.one()), name="k[C2]"),
    ]

    def algebra_maps(A, B):
        if A.dim == 1:
            return [[tuple(B.unit)]]
        out = []
        for img in product(*[list(F3.elements())] * B.dim):
            fx2 = B.mul_vec(img, img)
            x2 = A.mult[1][1]
            target = [
                F3.add(F3.mul(x2[0], u), F3.mul(x2[1], v)) for u, v in zip(B.unit, img)
            ]
            if list(fx2) == list(target):
                out.append([tuple(B.unit), tuple(img)])
        return out

    done = 0
    while done < 20:
        A, B = rng.choice(pool), rng.choice(pool)
        maps_ab, maps_ba = algebra_maps(A, B), algebra_maps(B, A)
        if not maps_ab or not maps_ba:
            continue
        M = FiniteBimodule.through_hom(A, B, rng.choice(maps_ab))
        N = FiniteBimodule.through_hom(B, A, rng.choice(maps_ba))
        report = contraction_comparison(LabelledCycle((A, B), (M, N)), rng.randrange(2), 3)
        assert report["chain_map"] and report["quasi_iso"]
        done += 1


@criterion(11, 30, "rotation action: boundary commutation and exact order")
def c11():
    Rg = FiniteAlgebra.poly_quotient(QQ, (QQ.from_int(-1), QQ.zero(), QQ.one()), name="k[C2]")
    M = FiniteBimodule.regular(Rg)
    for n in (2, 3):
        report = rotation_action(Rg, M, n, 3)
        assert report["commutes_with_boundary"], n
        assert report["order_exact"], n


@criterion(12, 10, "conservativity shadow: transfer core vanishes, Witt does not")
def c12():
    W12 = TruncationSet.divisors(12)
    B = burnside_representable(1, W12)
    core, trace = proper_transfer_core(B)
    assert trace[-1] == {n: 0 for n in core.window}
    report = check_conservativity(core)
    assert report["all_gfp_zero"] and report["applicable"] and report["transfer_generated"]
    wreport = check_conservativity(witt_as_mackey(ModularRing(4), 6))
    assert not wreport["applicable"]
    assert wreport["nonzero_levels"] == [1, 2, 3, 4, 5, 6]


test_criterion_01 = BUDGETS[1]
test_criterion_02 = BUDGETS[2]
test_criterion_03 = BUDGETS[3]
test_criterion_04 = BUDGETS[4]
test_criterion_05 = BUDGETS[5]
test_criterion_06 = BUDGETS[6]
test_criterion_07 = BUDGETS[7]
test_criterion_08 = BUDGETS[8]
test_criterion_09 = BUDGETS[9]
test_criterion_10 = BUDGETS[10]
test_criterion_11 = BUDGETS[11]
test_criterion_12 = BUDGETS[12]


if __name__ == "__main__":
    for number in sorted(BUDGETS):
        BUDGETS[number]()
