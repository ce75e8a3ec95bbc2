import json
import random
import tracemalloc
from fractions import Fraction
from functools import partial, reduce
from itertools import product
from math import prod

import pytest
from click.testing import CliRunner

from polygonic import cyclic, hochschild, rings
from polygonic.cli import main
from polygonic.cyclic import CutSet, CyclicMap, Path, SizeGuard
from polygonic.hochschild import (
    ChainComplex,
    FiniteAlgebra,
    FiniteBimodule,
    LabelledCycle,
    bar_complex,
    bar_dims,
    contract_free,
    contraction_comparison,
    envelope_matrix,
    hh_complex,
    homology,
    homology_map_is_iso,
    induced_homology_matrix,
    integral_homology_one_cycle,
    is_chain_map,
    normalized_bar_complex,
    normalized_positions,
    relative_tensor,
    rotation_action,
    rotation_matrices,
    thh_pi0,
)
from polygonic.operad import cut_degeneracy, cut_envelope_cyclic, cut_face
from polygonic.rings import QQ, Echelon, IntMatrix, ModularRing, PrimeField

F2 = PrimeField(2)
F3 = PrimeField(3)


def ground(field=QQ):
    return FiniteAlgebra.ground(field)


def group_algebra_c2(field=QQ):
    # field[g]/(g^2 - 1)
    return FiniteAlgebra.poly_quotient(
        field, (field.from_int(-1), field.zero(), field.one()), name="k[C2]"
    )


def dual_numbers(field):
    return FiniteAlgebra.poly_quotient(field, (field.zero(), field.zero(), field.one()), name="k[e]")


def quarter_algebra():
    # Q[x]/(x^2 - 1/4), isomorphic to Q[C2] by g = 2x
    return FiniteAlgebra.poly_quotient(QQ, (Fraction(-1, 4), QQ.zero(), QQ.one()), name="Q[x]/(x^2-1/4)")


def morita_cycle():
    # (F2, M2(F2); row vectors, column vectors)
    rows = FiniteBimodule.row_vectors(F2, 2)
    cols = FiniteBimodule.column_vectors(F2, 2)
    return LabelledCycle((ground(F2), FiniteAlgebra.matrix_algebra(F2, 2)), (rows, cols))


def twisted_cycle():
    # (A, A; A, A twisted by e -> -e) over A = F3[e]/(e^2)
    A = dual_numbers(F3)
    twisted = FiniteBimodule.through_hom(A, A, [(F3.one(), F3.zero()), (F3.zero(), F3.from_int(-1))])
    return LabelledCycle((A, A), (FiniteBimodule.regular(A), twisted))


def level_matrix(X, env, target_cut):
    """envelope_matrix of env into the labels of target_cut."""
    paths = [target_cut.colour(e) for e in range(target_cut.size)]
    return envelope_matrix(X, env, paths, [X.label_dim(p) for p in paths])


# ---------------------------------------------------------------- algebras


def test_algebra_validation():
    M2 = FiniteAlgebra.matrix_algebra(QQ, 2)
    assert M2.dim == 4
    bad_mult = tuple(tuple((QQ.one(),) for _ in range(1)) for _ in range(1))
    with pytest.raises(ValueError):
        FiniteAlgebra(QQ, 1, bad_mult, (QQ.from_int(2),))
    # tables of the wrong shape are rejected before any axiom is checked
    A = group_algebra_c2(QQ)
    for dim, mult, unit in (
        (2, A.mult, A.unit[:1]),
        (2, A.mult[:1], A.unit),
        (3, A.mult, A.unit),
        ("2", A.mult, A.unit),
        (0, (), ()),
    ):
        with pytest.raises(ValueError):
            FiniteAlgebra(QQ, dim, mult, unit)
    with pytest.raises(ValueError):
        FiniteBimodule(A, A, 2, A.mult, A.mult[:1])
    with pytest.raises(ValueError, match="^algebras need field coefficients$"):
        from polygonic.rings import ZZ
        FiniteAlgebra.ground(ZZ)


def test_bimodule_validation():
    rows = FiniteBimodule.row_vectors(QQ, 2)
    cols = FiniteBimodule.column_vectors(QQ, 2)
    assert rows.dim == 2 and cols.dim == 2
    reg = FiniteBimodule.regular(FiniteAlgebra.matrix_algebra(F2, 2))
    assert reg.dim == 4


def test_bimodule_over_its_own_algebra_still_checks_a_foreign_action():
    # only the regular bimodule (both actions the multiplication table)
    # skips the associativity checks.  Here g acts on one side by a shear:
    # unital, but not associative, as the shear squared is not 1 = g^2.
    A = group_algebra_c2(QQ)
    one, zero = QQ.one(), QQ.zero()
    shear = ((one, one), (zero, one))
    left = (A.mult[0], shear)                               # left[i][m] = e_i . f_m
    right = tuple((A.mult[0][m], shear[m]) for m in range(2))  # right[m][j] = f_m . e_j
    with pytest.raises(ValueError, match="left associativity"):
        FiniteBimodule(A, A, 2, left, A.mult)
    with pytest.raises(ValueError, match="right associativity"):
        FiniteBimodule(A, A, 2, A.mult, right)


def test_each_associativity_law_is_checked():
    one, zero = QQ.one(), QQ.zero()
    e0, e1, nil = (one, zero), (zero, one), (zero, zero)
    # not unital either, but associativity is checked first:
    # (e0 e0) e0 = e1 e0 = e0, while e0 (e0 e0) = e0 e1 = 0
    with pytest.raises(ValueError, match=r"^associativity fails at basis \(0,0,0\)$"):
        FiniteAlgebra(QQ, 2, ((e1, nil), (e0, nil)), e0)
    k, C2 = ground(QQ), group_algebra_c2(QQ)
    # g acts on the right of Q^2 by a shear, whose square is not 1 = g^2
    with pytest.raises(ValueError, match="right associativity"):
        FiniteBimodule(k, C2, 2, ((e0, e1),), ((e0, e0), (e1, (one, one))))
    # g swaps the basis on the left and acts by diag(1, -1) on the right:
    # each action is one of C2, but they do not commute
    with pytest.raises(ValueError, match="actions do not commute"):
        FiniteBimodule(C2, C2, 2, ((e0, e1), (e1, e0)), ((e0, e0), (e1, (zero, QQ.from_int(-1)))))


def test_cycle_file_validates_each_distinct_algebra_once(monkeypatch):
    cycles = {
        "morita": (morita_cycle(), 2),
        "twisted": (twisted_cycle(), 1),
        "uniform": (LabelledCycle.uniform(group_algebra_c2(F3), None, 3), 1),
    }
    validate = FiniteAlgebra.__init__
    checked = []

    def counting(self, *args, **kwargs):
        checked.append(args)
        validate(self, *args, **kwargs)

    monkeypatch.setattr(FiniteAlgebra, "__init__", counting)
    for name, (X, distinct) in cycles.items():
        data = X.to_json()
        checked.clear()
        assert LabelledCycle.from_json(data) == X
        assert len(checked) == distinct, name


def test_algebra_json_roundtrip():
    A = group_algebra_c2(F3)
    assert FiniteAlgebra.from_json(A.to_json()) == A
    M = FiniteBimodule.regular(A)
    assert FiniteBimodule.from_json(M.to_json()) == M


# ---------------------------------------------------------- relative tensor


def test_relative_tensor_over_ground_field():
    # B = k: no relations beyond scalars
    A = group_algebra_c2(QQ)
    M = FiniteBimodule.through_hom(A, ground(QQ), [(QQ.one(),), (QQ.one(),)])
    N = FiniteBimodule.through_hom(ground(QQ), A, [tuple(A.unit)])
    P, _ = relative_tensor(M, N)
    assert P.dim == M.dim * N.dim


def test_relative_tensor_morita():
    rows = FiniteBimodule.row_vectors(QQ, 2)
    cols = FiniteBimodule.column_vectors(QQ, 2)
    P, _ = relative_tensor(rows, cols)
    assert P.dim == 1
    Q, _ = relative_tensor(cols, rows)
    assert Q.dim == 4
    # dimension count: rank of the 8 -> 4 relation map is 3
    assert rows.dim * cols.dim - P.dim == 3
    with pytest.raises(ValueError, match="^middle algebras differ$"):
        relative_tensor(rows, rows)


def test_relative_tensor_action():
    # cols (x)_k rows = M_2 as a bimodule: the left action is matrix mult
    cols = FiniteBimodule.column_vectors(QQ, 2)
    rows = FiniteBimodule.row_vectors(QQ, 2)
    Q, quot = relative_tensor(cols, rows)
    M2 = FiniteAlgebra.matrix_algebra(QQ, 2)
    assert Q.left_algebra == M2 and Q.right_algebra == M2
    for i in range(4):
        for q in range(4):
            base = Q._basis(q)
            lhs = Q.left_act(M2._basis(i), base)
            assert len(lhs) == 4


# -------------------------------------------------------------- bar complex


def test_bar_ground_field():
    C = bar_complex(LabelledCycle.one_cycle(ground(), FiniteBimodule.regular(ground())), 4)
    assert C.dims == (1, 1, 1, 1, 1)
    assert C.validate()
    assert homology(C) == [1, 0, 0, 0]


def test_bar_degree_one_faces_match_displayed_formulas():
    # two 2-dimensional algebras with distinguishable actions
    R0 = dual_numbers(F3)
    R1 = group_algebra_c2(F3)
    # algebra map R0 -> R1 must send e to a square-zero element: only 0
    M0 = FiniteBimodule.through_hom(R0, R1, [tuple(R1.unit), (F3.zero(), F3.zero())], name="M0")
    # algebra map R1 -> R0 must send g to a square root of 1: +-1
    M1 = FiniteBimodule.through_hom(R1, R0, [tuple(R0.unit), (F3.from_int(-1), F3.zero())], name="M1")
    X = LabelledCycle((R0, R1), (M0, M1))
    C = bar_complex(X, 2)
    assert C.validate()
    # basis order at level 1 follows the cut positions:
    #   slot0 = M1, slot1 = R0-copy, slot2 = M0, slot3 = R1-copy
    # level 0: slot0 = M1, slot1 = M0
    dims1 = [M1.dim, R0.dim, M0.dim, R1.dim]
    d_right = {}
    d_left = {}
    for combo in product(*[range(d) for d in dims1]):
        m1, r0, m0, r1 = combo
        col = combo[0] * (2 * 2 * 2) + combo[1] * (2 * 2) + combo[2] * 2 + combo[3]
        # right-action face: m1 r0 (x) m0 r1
        left_part = M1.right_act(M1._basis(m1), R0._basis(r0))
        right_part = M0.right_act(M0._basis(m0), R1._basis(r1))
        for i, a in enumerate(left_part):
            for j, b in enumerate(right_part):
                v = F3.mul(a, b)
                if not F3.is_zero(v):
                    d_right[(i * 2 + j, col)] = v
        # left-action face: r1 m1 (x) r0 m0  (vertex copies act on the edges
        # they precede: R1 precedes M1, R0 precedes M0)
        left_part = M1.left_act(R1._basis(r1), M1._basis(m1))
        right_part = M0.left_act(R0._basis(r0), M0._basis(m0))
        for i, a in enumerate(left_part):
            for j, b in enumerate(right_part):
                v = F3.mul(a, b)
                if not F3.is_zero(v):
                    d_left[(i * 2 + j, col)] = v
    expected_right = IntMatrix(F3, 4, 16, d_right)
    expected_left = IntMatrix(F3, 4, 16, d_left)
    cut = CutSet(1, 2)
    lo = CutSet(0, 2)
    target_paths = [lo.colour(e) for e in range(lo.size)]
    target_dims = [X.label_dim(p) for p in target_paths]
    d0 = envelope_matrix(X, cut_face(cut, 0), target_paths, target_dims)
    d1 = envelope_matrix(X, cut_face(cut, 1), target_paths, target_dims)
    assert d0 == expected_right
    assert d1 == expected_left


def test_envelope_matrix_takes_the_target_colours_only():
    # the target paths and dims are the morphism's own; any others are refused
    X = twisted_cycle()
    env = cut_face(CutSet(1, 2), 0)
    paths = list(env.target.colours)
    dims = [X.label_dim(p) for p in paths]
    assert envelope_matrix(X, env, tuple(paths), tuple(dims)) == envelope_matrix(X, env, paths, dims)
    with pytest.raises(ValueError, match="^target paths are not the colours of the morphism's target$"):
        envelope_matrix(X, env, paths[::-1], dims)
    with pytest.raises(ValueError, match="^target paths are not the colours of the morphism's target$"):
        envelope_matrix(X, env, paths[:-1], dims[:-1])
    with pytest.raises(ValueError, match="^target dims are not the label dimensions of the target paths$"):
        envelope_matrix(X, env, paths, [d + 1 for d in dims])


def test_bar_group_algebra():
    Rg = group_algebra_c2(QQ)
    C = bar_complex(LabelledCycle.one_cycle(Rg, FiniteBimodule.regular(Rg)), 3)
    assert C.validate()
    assert homology(C)[0] == 2


def test_bar_guards():
    with pytest.raises(ValueError, match="^degree bound must be >= 0$"):
        bar_complex(LabelledCycle.one_cycle(ground(), FiniteBimodule.regular(ground())), -1)
    M4 = FiniteAlgebra.matrix_algebra(F2, 4)
    with pytest.raises(SizeGuard):
        bar_complex(LabelledCycle.one_cycle(M4, FiniteBimodule.regular(M4)), 3)


def test_face_after_degeneracy_is_identity():
    # d_j s_i = id for j in {i, i+1}, matrix by matrix.  The degeneracy
    # inserts units, through fibers with no source elements.
    cycles = [LabelledCycle.uniform(group_algebra_c2(QQ), None, n) for n in (1, 2, 3)]
    cycles += [morita_cycle(), twisted_cycle()]
    checks = 0
    for X in cycles:
        for q in range(3):
            lo, hi = CutSet(q, X.n), CutSet(q + 1, X.n)
            faces = [level_matrix(X, cut_face(hi, j), lo) for j in range(q + 2)]
            identity = IntMatrix.identity(X.field, faces[0].rows)
            for i in range(q + 1):
                s = level_matrix(X, cut_degeneracy(lo, i), hi)
                for j in (i, i + 1):
                    assert faces[j].mul(s) == identity, (X.to_json(), q, i, j)
                    checks += 1
    assert checks == 60


def test_boundary_squared_zero_random():
    rng = random.Random(12)
    algebras = [ground(F2), dual_numbers(F2), group_algebra_c2(F2)]
    for _ in range(10):
        A = rng.choice(algebras)
        C = bar_complex(LabelledCycle.one_cycle(A, FiniteBimodule.regular(A)), 3)
        assert C.validate()


# ----------------------------------------------------------------- homology


def test_homology_edge_cases():
    zero = ChainComplex(QQ, (0, 0, 0), {1: IntMatrix.zeros(QQ, 0, 0), 2: IntMatrix.zeros(QQ, 0, 0)})
    assert homology(zero) == [0, 0]
    two_term = ChainComplex(
        QQ, (1, 1), {1: IntMatrix.identity(QQ, 1)}
    )
    assert homology(two_term) == [0]
    from polygonic.rings import ZZ
    bad = ChainComplex(ZZ, (1, 1), {1: IntMatrix.identity(ZZ, 1)})
    with pytest.raises(ValueError, match="^homology needs field coefficients$"):
        homology(bad)


def test_checks_over_a_ring_with_zero_divisors():
    # over Z/4, 2 * 2 = 0: d_1 d_2 = 0 although no entry is zero
    Z4 = ModularRing(4)
    two, one = IntMatrix(Z4, 1, 1, {(0, 0): 2}), IntMatrix.identity(Z4, 1)
    complex_ = ChainComplex(Z4, (1, 1, 1), {1: two, 2: two})
    assert complex_.validate()
    assert is_chain_map(complex_, complex_, {q: one for q in range(3)})
    assert not ChainComplex(Z4, (1, 1, 1), {1: two, 2: one}).validate()


def test_thh_pi0():
    Rg = group_algebra_c2(QQ)
    dim, _ = thh_pi0(Rg, FiniteBimodule.regular(Rg))
    assert dim == 2
    M2 = FiniteAlgebra.matrix_algebra(QQ, 2)
    dim, _ = thh_pi0(M2, FiniteBimodule.regular(M2))
    assert dim == 1
    k = ground()
    dim, _ = thh_pi0(k, FiniteBimodule.regular(k))
    assert dim == 1


def _random_commutative_algebra(rng, field, max_dim=3):
    d = rng.randrange(1, max_dim + 1)
    if d == 1:
        return ground(field)
    # k[x]/(monic of degree d)
    coeffs = [field.from_int(rng.randrange(0, 2)) for _ in range(d)] + [field.one()]
    return FiniteAlgebra.poly_quotient(field, tuple(coeffs), name=f"k[x]/deg{d}")


def test_h0_equals_thh_pi0_random():
    rng = random.Random(13)
    for _ in range(20):
        A = _random_commutative_algebra(rng, F2)
        M = FiniteBimodule.regular(A)
        C = bar_complex(LabelledCycle.one_cycle(A, M), 2)
        assert C.validate()
        dim, _ = thh_pi0(A, M)
        assert homology(C)[0] == dim


# -------------------------------------------------------------- contraction


def test_contraction_ground():
    k = ground()
    X = LabelledCycle((k, k), (FiniteBimodule.regular(k),) * 2)
    report = contraction_comparison(X, 0, 3)
    assert report["chain_map"] and report["quasi_iso"]
    assert report["source_homology"][:3] == [1, 0, 0]
    assert report["target_homology"][:3] == [1, 0, 0]


def test_contraction_morita():
    X = morita_cycle()
    for edge in (0, 1):
        report = contraction_comparison(X, edge, 3)
        assert report["chain_map"] and report["quasi_iso"], report
        assert report["source_homology"][:3] == [1, 0, 0]
        assert report["target_homology"][:3] == [1, 0, 0]


def _algebra_maps(A, B):
    """All unital algebra maps A -> B for small cyclic generated algebras."""
    field = A.field
    if A.dim == 1:
        return [[tuple(B.unit)]]
    out = []
    for img in product(*[list(field.elements())] * B.dim):
        ok = True
        # generator x satisfies its minimal relation: x^d = sum c_i x^i
        x_power = list(B.unit)
        images = {0: tuple(B.unit), 1: img}
        # check f(x)^k = f(x^k) for k up to dim
        fx = img
        current = tuple(B.unit)
        powers = [current]
        for _ in range(A.dim):
            current = tuple(B.mul_vec(current, fx))
            powers.append(current)
        for k in range(A.dim + 1):
            xk = _poly_power_in(A, k)
            expected = [field.zero()] * B.dim
            for i, c in enumerate(xk):
                term = powers[i] if i < len(powers) else None
                if term is None:
                    ok = False
                    break
                expected = [field.add(u, field.mul(c, v)) for u, v in zip(expected, term)]
            if not ok or list(powers[k]) != list(expected):
                ok = False
                break
        if ok:
            out.append([tuple(B.unit)] + [tuple(powers[k]) for k in range(1, A.dim)])
    return out


def _poly_power_in(A, k):
    """Coordinates of x^k in the basis 1, x, ..., x^{d-1}."""
    vec = [A.field.zero()] * A.dim
    vec[0] = A.field.one()
    x = [A.field.zero()] * A.dim
    if A.dim > 1:
        x[1] = A.field.one()
    for _ in range(k):
        vec = A.mul_vec(vec, x)
    return vec


def test_contraction_random_2cycles():
    rng = random.Random(42)
    pool = [ground(F3), dual_numbers(F3), group_algebra_c2(F3)]
    done = 0
    while done < 20:
        A = rng.choice(pool)
        B = rng.choice(pool)
        maps_ab = _algebra_maps(A, B)
        maps_ba = _algebra_maps(B, A)
        if not maps_ab or not maps_ba:
            continue
        M = FiniteBimodule.through_hom(A, B, rng.choice(maps_ab))
        N = FiniteBimodule.through_hom(B, A, rng.choice(maps_ba))
        X = LabelledCycle((A, B), (M, N))
        report = contraction_comparison(X, rng.randrange(2), 3)
        assert report["chain_map"] and report["quasi_iso"], (A.name, B.name)
        done += 1


def test_double_contraction_cycle_lemma():
    # contracting a 3-cycle twice in either order gives 1-cycles whose
    # bimodules agree in dimension and action traces
    kQ = ground()
    M2 = FiniteAlgebra.matrix_algebra(QQ, 2)
    rows = FiniteBimodule.row_vectors(QQ, 2)
    cols = FiniteBimodule.column_vectors(QQ, 2)
    X = LabelledCycle((kQ, M2, kQ), (rows, cols, FiniteBimodule.regular(kQ)))
    Z1 = X.contract(0).contract(0)
    Z2 = X.contract(1).contract(0)
    assert Z1.n == 1 and Z2.n == 1
    assert Z1.bimodules[0].dim == Z2.bimodules[0].dim == 1
    assert Z1.algebras[0] == Z2.algebras[0] == kQ
    # action traces agree under any identification of the 1-dim modules
    for i in range(kQ.dim):
        t1 = sum(Z1.bimodules[0].left[i][m][m] for m in range(Z1.bimodules[0].dim))
        t2 = sum(Z2.bimodules[0].left[i][m][m] for m in range(Z2.bimodules[0].dim))
        assert t1 == t2


def test_a_contraction_and_its_chain_map_share_one_fused_label(monkeypatch):
    mixed = LabelledCycle(
        (ground(), FiniteAlgebra.matrix_algebra(QQ, 2), ground()),
        (FiniteBimodule.row_vectors(QQ, 2), FiniteBimodule.column_vectors(QQ, 2), FiniteBimodule.regular(ground())),
    )
    for X in (morita_cycle(), twisted_cycle(), mixed):
        for a in range(X.n):
            module, _ = X.fused(a)
            assert sum(M is module for M in X.contract(a).bimodules) == 1
            assert X.label_dim(Path(X.n, a, 2)) == module.dim
    # contraction_comparison builds the fused label once, for both sides
    built = []
    tensor = hochschild.relative_tensor
    monkeypatch.setattr(hochschild, "relative_tensor", lambda M, N: built.append(1) or tensor(M, N))
    assert contraction_comparison(morita_cycle(), 0, 2)["quasi_iso"]
    assert len(built) == 1


def test_labels_cover_at_most_two_edges():
    X = LabelledCycle.uniform(ground(), None, 3)
    assert [X.label_dim(Path(3, 0, k)) for k in range(3)] == [1, 1, 1]
    with pytest.raises(ValueError, match="at most two edges, not 3"):
        X.label_dim(Path(3, 0, 3))
    with pytest.raises(ValueError, match="at most two edges, not 3"):
        hochschild._fiber_table(X, Path(3, 0, 3), tuple(Path(3, a, 1) for a in range(3)), {})


def test_pull_back_is_functorial_on_labelled_cycles():
    # contract(a) is the cycle built index by index: vertex a + 1 dropped, and
    # edges a and a + 1 fused across it.  Pulling back along f and then g is
    # pulling back along f after g, wherever that takes each edge to at most
    # two edges; f and g run over the rotations and contractions.
    def maps_into(n):
        return [CyclicMap.rotation(n, k) for k in range(n)] + [CyclicMap.contraction(n, a) for a in range(n) if n > 1]

    checked = expected = 0
    for X, _ in labelled_cycles():
        n = X.n
        if n < 2:
            continue
        expected += 3 * n * n - n  # the pairs with at most one contraction, at n <= 3
        for a in range(n):
            keep = [i for i in range(n) if i != (a + 1) % n]
            by_index = LabelledCycle(
                tuple(X.algebras[i] for i in keep),
                tuple(X.fused(i)[0] if i == a else X.bimodules[i] for i in keep),
            )
            assert X.contract(a) == by_index, (X.to_json(), a)
        for f in maps_into(n):
            for g in maps_into(f.source_n):
                h = f.after(g)
                if all(h(j + 1) - h(j) <= 2 for j in range(h.source_n)):
                    assert X.pull_back(f).pull_back(g) == X.pull_back(h), (X.to_json(), f, g)
                    checked += 1
    assert checked == expected


def test_integral_homology_one_cycle():
    k_int = ground(QQ)
    result = integral_homology_one_cycle(k_int, FiniteBimodule.regular(k_int), 3)
    assert result == [([], 1), ([], 0), ([], 0)]
    Rg = group_algebra_c2(QQ)
    result = integral_homology_one_cycle(Rg, FiniteBimodule.regular(Rg), 3)
    assert result[0] == ([], 2)
    # odd integral Hochschild homology of the order-2 group ring is
    # two-torsion of rank two (group homology of C_2 twice over)
    assert result[1] == ([2, 2], 0)
    assert result[2] == ([], 0)


def test_integral_homology_needs_integral_rationals():
    # F3[x]/(x^2 - 1): residues are not integers, so there is no integral
    # homology to read off (treated as integers they gave a free rank of -2)
    R = group_algebra_c2(F3)
    with pytest.raises(ValueError):
        integral_homology_one_cycle(R, FiniteBimodule.regular(R), 3)
    R = quarter_algebra()
    with pytest.raises(ValueError):
        integral_homology_one_cycle(R, FiniteBimodule.regular(R), 3)


def _integral_closed_form(n, group, degree_bound):
    """HH_q over Z of Z[x]/(x^n) (group=False) or Z[C_n] (group=True)."""
    out = [([], n)]
    for q in range(1, degree_bound):
        if q % 2:
            out.append(([n] * n, 0) if group else ([n], n - 1))
        else:
            out.append(([], 0) if group else ([], n - 1))
    return out


@pytest.mark.parametrize("n, group, degree_bound", [
    (2, False, 7), (2, False, 10), (2, False, 12), (3, False, 4), (3, False, 6),
    (2, True, 6), (3, True, 4), (3, True, 6),
])
def test_integral_homology_closed_forms(n, group, degree_bound):
    modulus = [QQ.zero()] * n + [QQ.one()]
    if group:
        modulus[0] = QQ.from_int(-1)
    R = FiniteAlgebra.poly_quotient(QQ, tuple(modulus))
    M = FiniteBimodule.regular(R)
    result = integral_homology_one_cycle(R, M, degree_bound)
    assert result == _integral_closed_form(n, group, degree_bound)
    # free ranks are the rational Betti numbers of the same bar complex
    rational = homology(bar_complex(LabelledCycle.one_cycle(R, M), degree_bound))
    assert [free for _, free in result] == rational


# ----------------------------------------------------------------- rotation


def test_rotation_identity_for_one_cycle():
    k = ground()
    report = rotation_action(k, FiniteBimodule.regular(k), 1, 2)
    assert report["commutes_with_boundary"] and report["order_exact"]
    assert report["homology_action"][0] == [[QQ.one()]]


def test_rotation_trivial_on_ground_2cycle():
    k = ground()
    report = rotation_action(k, FiniteBimodule.regular(k), 2, 3)
    assert report["commutes_with_boundary"] and report["order_exact"]
    assert report["homology_dims"][0] == 1
    assert report["homology_action"][0] == [[QQ.one()]]


def test_rotation_group_algebra():
    Rg = group_algebra_c2(QQ)
    M = FiniteBimodule.regular(Rg)
    for n in (2, 3):
        report = rotation_action(Rg, M, n, 3 if n == 2 else 2)
        assert report["commutes_with_boundary"]
        assert report["order_exact"]
    rep2 = rotation_action(Rg, M, 2, 3)
    assert rep2["homology_dims"][0] == 2
    act = rep2["homology_action"][0]
    assert len(act) == 2
    sq = [[sum(act[i][k] * act[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert sq == [[1, 0], [0, 1]]


def _order(matrix):
    n = len(matrix)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    power, k = matrix, 1
    while power != identity:
        power = [[sum(power[i][l] * matrix[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        k += 1
    return k


def test_fractional_structure_constants_match_the_group_algebra():
    # Q[x]/(x^2 - 1/4) has entries 1/4 in its table: elimination and chain
    # maps mix int and Fraction entries, and must agree with Q[C2].
    Q4, C2 = quarter_algebra(), group_algebra_c2(QQ)
    assert Q4.mult[1][1] == (Fraction(1, 4), 0) and type(Q4.mult[1][1][0]) is Fraction
    for n, degree in ((1, 4), (2, 3), (3, 3)):
        complexes = [bar_complex(LabelledCycle.uniform(A, None, n), degree) for A in (Q4, C2)]
        assert homology(complexes[0]) == homology(complexes[1])
        reports = [rotation_action(A, FiniteBimodule.regular(A), n, degree) for A in (Q4, C2)]
        for report in reports:
            assert report["commutes_with_boundary"] and report["order_exact"]
        assert reports[0]["homology_dims"] == reports[1]["homology_dims"]
        orders = [[_order(m) for m in report["homology_action"] if m] for report in reports]
        assert orders[0] == orders[1]


def test_rotation_rejects_nonuniform():
    k = ground()
    M2 = FiniteAlgebra.matrix_algebra(QQ, 2)
    X = LabelledCycle(
        (k, M2), (FiniteBimodule.row_vectors(QQ, 2), FiniteBimodule.column_vectors(QQ, 2))
    )
    with pytest.raises(ValueError):
        rotation_matrices(X, 1, 2)


def _tensor_power(phi, k):
    """phi (x) ... (x) phi with k factors, indices in row-major order."""
    out = IntMatrix.identity(phi.ring, 1)
    for _ in range(k):
        out = IntMatrix(phi.ring, out.rows * phi.rows, out.cols * phi.cols, {
            (i * phi.rows + a, j * phi.cols + b): phi.ring.mul(x, y)
            for (i, j), x in out.items()
            for (a, b), y in phi.items()
        })
    return out


def test_induced_map_of_an_algebra_automorphism():
    # An algebra map phi acts on the one-cycle complex of (A, A) as
    # phi (x) ... (x) phi.  Here x -> 2x on Q[x]/(x^3).
    A = FiniteAlgebra.poly_quotient(QQ, (QQ.zero(),) * 3 + (QQ.one(),))
    complex_ = bar_complex(LabelledCycle.one_cycle(A, FiniteBimodule.regular(A)), 3)
    phi = IntMatrix.from_rows(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 4]])
    maps = {q: _tensor_power(phi, q + 1) for q in range(4)}
    assert is_chain_map(complex_, complex_, maps)
    assert homology(complex_) == [3, 2, 2]
    # H_0 = A, as A is commutative; H_1 = A dx / (x^2 dx), weights 2 and 4.
    assert induced_homology_matrix(complex_, maps[0], 0) == phi
    (a, b), (c, d) = induced_homology_matrix(complex_, maps[1], 1).to_lists()
    assert (a + d, a * d - b * c) == (6, 8)
    assert all(homology_map_is_iso(complex_, complex_, maps, q) for q in range(3))
    # x -> 0 is an algebra map too; on H_0 it keeps only the unit.
    augmentation = IntMatrix.from_rows(QQ, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    collapse = {q: _tensor_power(augmentation, q + 1) for q in range(4)}
    assert is_chain_map(complex_, complex_, collapse)
    assert not homology_map_is_iso(complex_, complex_, collapse, 0)


def _signature(dim, vectors):
    return dim, tuple(tuple(sorted(v.items())) for v in vectors)


def test_each_boundary_eliminated_once(monkeypatch):
    # The image of d_q is eliminated once, as an Echelon of its columns; its
    # kernel at most once, as an Echelon of its rows, and only where
    # homology lives: on the Q[C2] 2-cycle (H = [2, 0, 0]) never above
    # degree 0.
    built = []

    class Counted(Echelon):
        def __init__(self, field, dim, vectors=()):
            vectors = list(vectors)
            built.append(_signature(dim, vectors))
            super().__init__(field, dim, vectors)

    monkeypatch.setattr(rings, "Echelon", Counted)
    monkeypatch.setattr(hochschild, "Echelon", Counted)
    for cycle, dims, kernels in (
        (LabelledCycle.uniform(dual_numbers(F3), None, 2), [2, 1, 1], {1: 1, 2: 1, 3: 0}),
        (LabelledCycle.uniform(group_algebra_c2(QQ), None, 2), [2, 0, 0], {1: 0, 2: 0, 3: 0}),
    ):
        built.clear()
        complex_ = bar_complex(cycle, 3)
        maps = rotation_matrices(cycle, 1, 3)
        for q in range(3):
            assert homology(complex_) == dims
            assert induced_homology_matrix(complex_, maps[q], q).rows == dims[q]
            assert homology_map_is_iso(complex_, complex_, maps, q)
        for q, d in complex_.boundaries.items():
            assert built.count(_signature(d.rows, d.columns())) == 1
            assert built.count(_signature(d.cols, d.transpose().columns())) == kernels[q]


def test_chain_checks_fail_on_broken_input(monkeypatch):
    # Each check answers False when what it checks is broken, on the Q[C2]
    # 2-cycle at degree 3.  Column i of d_1 is nonzero, so adding 1 at
    # (i, 0) of f_1 or of d_2 adds d_1 e_i to one side of the identity.
    C2 = group_algebra_c2(QQ)
    cycle = LabelledCycle.uniform(C2, None, 2)
    complex_ = bar_complex(cycle, 3)
    maps = rotation_matrices(cycle, 1, 3)
    i = min(i for (_, i), _ in complex_.boundary(1).items())

    def bumped(matrix):
        entries = dict(matrix.items())
        entries[(i, 0)] = QQ.add(matrix.get(i, 0), QQ.one())
        return IntMatrix(QQ, matrix.rows, matrix.cols, entries)

    assert is_chain_map(complex_, complex_, maps)
    assert not is_chain_map(complex_, complex_, {**maps, 1: bumped(maps[1])})

    assert complex_.validate()
    boundaries = {**complex_.boundaries, 2: bumped(complex_.boundary(2))}
    assert not ChainComplex(QQ, complex_.dims, boundaries).validate()

    # The rotation is a permutation of basis tensors, so it is broken as
    # one: swapping two images at level 1 breaks the commutation with d_1
    # or d_2, and a 3-cycle of images is not of order 2.
    images = hochschild._rotation_images

    def broken(q, change):
        def patched(*args):
            out = images(*args)
            out[q] = change(out[q])
            return out
        return patched

    for q, change, key in (
        (1, lambda image: [image[1], image[0]] + image[2:], "commutes_with_boundary"),
        (2, lambda image: [image[1], image[2], image[0]] + image[3:], "order_exact"),
    ):
        monkeypatch.setattr(hochschild, "_rotation_images", broken(q, change))
        assert not rotation_action(C2, FiniteBimodule.regular(C2), 2, 3)[key], key
    monkeypatch.setattr(hochschild, "_rotation_images", images)
    report = rotation_action(C2, FiniteBimodule.regular(C2), 2, 3)
    assert report["commutes_with_boundary"] and report["order_exact"]


def _count_fold(monkeypatch):
    """Record the fiber tables built and the prefix states extended."""
    tables, steps = [], []
    table, extend = hochschild._fiber_table, hochschild._extend

    def counted_table(cycle, path, colours, memo):
        tables.append((path, colours))
        return table(cycle, path, colours, memo)

    def counted_extend(cycle, path, colour, state):
        steps.append((state, colour))
        return extend(cycle, path, colour, state)

    monkeypatch.setattr(hochschild, "_fiber_table", counted_table)
    monkeypatch.setattr(hochschild, "_extend", counted_extend)
    return tables, steps


def _extended_once(steps):
    """Did the fold extend no prefix whose product is 0 (an edge value or the
    pending product vanishes), and no prefix twice by the same colour?"""
    nonzero = all(pending != {} and all(value for _, value in edges) for (edges, pending), _ in steps)
    return nonzero and len({(id(state), colour) for state, colour in steps}) == len(steps)


def test_envelope_matrix_multiplies_each_fiber_once(monkeypatch):
    # The matrix is the Kronecker product of the fiber tables: each merged
    # fiber's table is built once per build, and a fiber of one element
    # (of its target's colour, by admissibility) builds none.  A fold step
    # extends a prefix whose product is not 0 by one factor, and no prefix
    # twice by the same one, so on the Morita cycle, where most products of
    # matrix units vanish, the steps are far fewer than the digit keys of
    # the merged fibers.
    tables, steps = _count_fold(monkeypatch)
    X = morita_cycle()
    cut = CutSet(2, 2)
    envs = [cut_face(cut, i) for i in range(3)]
    envs += [cut_envelope_cyclic(cut, CyclicMap.contraction(2, a))[0] for a in (0, 1)]
    for env in envs:
        tables.clear(), steps.clear()
        target_paths = list(env.target.colours)
        envelope_matrix(X, env, target_paths, [X.label_dim(p) for p in target_paths])
        colours = env.source.colours
        merged = [
            (path, tuple(colours[x] for x in fiber)) for fiber, path in zip(env.fiber_orders, target_paths)
            if len(fiber) != 1
        ]
        assert merged and len(merged) < env.target.size
        assert sorted(tables) == sorted(merged)
        assert _extended_once(steps)
    # One build of the comparison maps along the contraction of edge 0.  The
    # fused edge's fiber (rows, M2^q, cols) at degree q starts from the
    # prefix states of degree q - 1.  Its nonzero prefixes (rows, M2^k) number
    # 2 and 4 * 2^k (k >= 1): a product of matrix units is 0 unless they
    # chain.  Each is extended by M2 for the next degree and by cols for its
    # own, the last (k = 4) by cols alone; the empty prefix by rows, once.
    tables.clear(), steps.clear()
    hochschild._cyclic_maps(X, CyclicMap.contraction(2, 0), 4)
    assert len(set(tables)) == len(tables) == 5
    assert _extended_once(steps) and len(steps) == 1 + 2 * (2 + 8 + 16 + 32) + 64
    assert len(steps) < sum(prod(map(X.label_dim, colours)) for _, colours in tables) == 1364
    # and in a whole complex each merged fiber's table is built once
    tables.clear(), steps.clear()
    bar_complex(X, 4)
    assert tables and len(set(tables)) == len(tables) and _extended_once(steps)


def test_cycle_json_roundtrip():
    rows = FiniteBimodule.row_vectors(F2, 2)
    cols = FiniteBimodule.column_vectors(F2, 2)
    X = LabelledCycle((ground(F2), FiniteAlgebra.matrix_algebra(F2, 2)), (rows, cols))
    assert LabelledCycle.from_json(X.to_json()) == X


# ------------------------------------------- trace route and normalization


def augmentation_cycle():
    # (R, R; k, k) with R = Q[e]/(e^2) and k = R/(e) on both sides: Tor over
    # R does not vanish, and contracting loses homology (target [1, 1, 1, 1])
    R = dual_numbers(QQ)
    k = FiniteBimodule(R, R, 1, (((1,),), ((0,),)), (((1,), (0,)),), name="k")
    return LabelledCycle((R, R), (k, k))


def augmentation_cycle_unit_last():
    # augmentation_cycle() with R on the basis (e, 1), so its unit is basis
    # vector 1
    R = FiniteAlgebra(QQ, 2, (((0, 0), (1, 0)), ((1, 0), (0, 1))), (0, 1), name="k[e]")
    k = FiniteBimodule(R, R, 1, (((0,),), ((1,),)), (((0,), (1,)),), name="k")
    return LabelledCycle((R, R), (k, k))


def through_hom_cycles():
    """Seeded (A, B; M, N) over F3 with both edges through algebra maps."""
    rng = random.Random(7)
    pool = [ground(F3), dual_numbers(F3), group_algebra_c2(F3)]
    out = []
    for A, B in product(pool, pool):
        M = FiniteBimodule.through_hom(A, B, rng.choice(_algebra_maps(A, B)))
        N = FiniteBimodule.through_hom(B, A, rng.choice(_algebra_maps(B, A)))
        out.append(LabelledCycle((A, B), (M, N)))
    return out


def labelled_cycles():
    """(cycle, degree) for each kind of labelled cycle built in these tests."""
    M2 = FiniteAlgebra.matrix_algebra(QQ, 2)
    kQ = ground()
    x3 = FiniteAlgebra.poly_quotient(QQ, (QQ.zero(),) * 3 + (QQ.one(),))
    mixed = LabelledCycle(
        (kQ, M2, kQ),
        (FiniteBimodule.row_vectors(QQ, 2), FiniteBimodule.column_vectors(QQ, 2), FiniteBimodule.regular(kQ)),
    )
    return [
        (LabelledCycle.uniform(ground(), None, 1), 3),
        (LabelledCycle.uniform(ground(), None, 2), 3),
        (LabelledCycle.uniform(group_algebra_c2(QQ), None, 1), 4),
        (LabelledCycle.uniform(group_algebra_c2(QQ), None, 2), 3),
        (LabelledCycle.uniform(group_algebra_c2(QQ), None, 3), 3),
        (LabelledCycle.uniform(group_algebra_c2(F3), None, 2), 3),
        (LabelledCycle.uniform(dual_numbers(F3), None, 1), 4),
        (LabelledCycle.uniform(dual_numbers(F3), None, 2), 3),
        (LabelledCycle.uniform(dual_numbers(F3), None, 3), 3),
        (LabelledCycle.uniform(quarter_algebra(), None, 2), 3),
        (LabelledCycle.uniform(x3, None, 1), 4),
        (LabelledCycle.uniform(x3, None, 2), 3),
        (LabelledCycle.uniform(M2, None, 1), 3),
        (LabelledCycle.uniform(M2, None, 2), 2),
        (LabelledCycle.uniform(FiniteAlgebra.matrix_algebra(F2, 2), None, 2), 2),
        (twisted_cycle(), 3),
        (morita_cycle(), 3),
        (mixed, 3),
        (augmentation_cycle(), 4),
    ] + [(X, 3) for X in through_hom_cycles()]


def _projections(cycle, degree):
    """The quotient maps from bar_complex(cycle.unit_first()) onto
    normalized_bar_complex(cycle)."""
    field = cycle.field
    dims = bar_dims(cycle, degree)
    out = {}
    for q in range(degree + 1):
        positions = normalized_positions(cycle, q)
        out[q] = IntMatrix(field, len(positions), dims[q], {(i, p): field.one() for i, p in enumerate(positions)})
    return out


def _trace(matrix):
    return sum(matrix[i][i] for i in range(len(matrix)))


def test_trace_normalized_and_direct_routes_agree():
    for cycle, degree in labelled_cycles():
        direct = bar_complex(cycle, degree)
        expected = homology(direct)
        contracted = contract_free(cycle)
        assert homology(bar_complex(contracted, degree)) == expected
        assert homology(hh_complex(cycle, degree)) == expected
        normal = normalized_bar_complex(cycle, degree)
        assert normal.validate() and homology(normal) == expected
        vertices = prod(A.dim for A in cycle.algebras) - 1
        assert normal.dims == tuple(direct.dims[0] * vertices ** q for q in range(degree + 1))
        # the quotient map from the rebased complex is a chain map and an
        # isomorphism on homology
        rebased = bar_complex(cycle.unit_first(), degree)
        proj = _projections(cycle, degree)
        assert is_chain_map(rebased, normal, proj)
        assert all(homology_map_is_iso(rebased, normal, proj, q) for q in range(degree))


def _fiber_product(cycle, path, factors):
    """One fiber product by the definition, as sparse coordinates in the
    label of path: at a vertex the factors multiply in order, from the unit;
    along edges the algebra factors before the first edge act on it from
    the left, later ones on the edge before them from the right, and two
    edges are tensored and projected to their fused label."""
    field = cycle.field
    if path.is_vertex:
        A = cycle.label(path)
        value = list(A.unit)
        for _, i in factors:
            value = A.mul_vec(value, A._basis(i))
    else:
        before, edges = [], []
        for colour, i in factors:
            label = cycle.label(colour)
            if not colour.is_vertex:
                edges.append((label, label._basis(i)))
            elif edges:
                M, v = edges[-1]
                edges[-1] = M, M.right_act(v, label._basis(i))
            else:
                before.append(label._basis(i))
        M, value = edges[0]
        for x in reversed(before):
            value = M.left_act(x, value)
        if len(edges) == 2:
            (_, u), (N, v) = edges
            return cycle.fused(path.start)[1](
                {i * N.dim + j: field.mul(c, e) for i, c in enumerate(u) for j, e in enumerate(v)})
    return {k: c for k, c in enumerate(value) if not field.is_zero(c)}


def _reference_columns(cycle, env):
    """The columns of env's matrix by the definition: every fiber of each
    source basis tensor multiplied by _fiber_product (once per distinct
    product), the results tensored in target element order."""
    field, colours, paths = cycle.field, env.source.colours, env.target.colours
    dims, products, columns = [cycle.label_dim(p) for p in paths], {}, []
    for digits in product(*(range(cycle.label_dim(c)) for c in colours)):
        image = {0: field.one()}
        for path, d, fiber in zip(paths, dims, env.fiber_orders):
            factors = tuple((colours[x], digits[x]) for x in fiber)
            if (path, factors) not in products:
                products[path, factors] = _fiber_product(cycle, path, factors)
            image = {r * d + k: field.mul(a, e) for r, a in image.items() for k, e in products[path, factors].items()}
        columns.append(image)
    return columns


def _reference_boundary(cycle, q):
    """The alternating sum of the reference faces, and how many entries of the
    faces cancelled in it."""
    field, sums, entries = cycle.field, None, 0
    for i in range(q + 1):
        sign = field.from_int((-1) ** i)
        columns = _reference_columns(cycle, cut_face(CutSet(q, cycle.n), i))
        sums = sums or [{} for _ in columns]
        for total, column in zip(sums, columns):
            entries += len(column)
            for r, v in column.items():
                total[r] = field.add(total.get(r, field.zero()), field.mul(sign, v))
    sums = [{r: v for r, v in total.items() if not field.is_zero(v)} for total in sums]
    d = IntMatrix.from_columns(field, bar_dims(cycle, q)[q - 1], sums)
    return d, entries - sum(map(len, sums))


def _restricted(cycle, q, d):
    """The reference boundary d_q of cycle.unit_first() restricted to the
    normalized basis tensors of levels q and q - 1."""
    lo, hi = normalized_positions(cycle, q - 1), normalized_positions(cycle, q)
    rank = {p: i for i, p in enumerate(lo)}
    restricted = [{rank[r]: v for r, v in d.columns()[p].items() if r in rank} for p in hi]
    return IntMatrix.from_columns(cycle.field, len(lo), restricted)


def test_faces_and_comparisons_match_the_definition():
    # the pass-through and merged assembly against the fiber-by-fiber
    # definition: full and normalized boundaries, and every contraction
    cancelled = {}
    for cycle, degree in labelled_cycles():
        degree = min(degree, 3)
        full, normal = bar_complex(cycle, degree), normalized_bar_complex(cycle, degree)
        rebased = cycle.unit_first()
        for q in range(1, degree + 1):
            d, cancelled[cycle, q] = _reference_boundary(cycle, q)
            assert full.boundary(q) == d, (cycle, q)
            d = d if rebased is cycle else _reference_boundary(rebased, q)[0]
            assert normal.boundary(q) == _restricted(cycle, q, d), (cycle, q)
        for a in range(cycle.n if cycle.n > 1 else 0):
            f = CyclicMap.contraction(cycle.n, a)
            for q, m in hochschild._cyclic_maps(cycle, f, degree).items():
                env, _ = cut_envelope_cyclic(CutSet(q, cycle.n), f)
                assert m == IntMatrix.from_columns(cycle.field, m.rows, _reference_columns(cycle, env)), (cycle, a, q)
    # signed faces cancel, over Q and in characteristic 2 on M2(F2)
    M2F2 = LabelledCycle.uniform(FiniteAlgebra.matrix_algebra(F2, 2), None, 2)
    assert cancelled[M2F2, 2] and cancelled[LabelledCycle.uniform(ground(), None, 1), 1]


def test_where_most_products_vanish_the_tables_match_the_definition():
    # Matrix units multiply to 0 unless they chain, so most fiber products on
    # M2(F2) vanish and the fiber tables leave them out: the comparison maps
    # of the Morita cycle along both edges, and the boundaries of the M2(F2)
    # one-cycle, against the reference products one combination at a time
    X = morita_cycle()
    for a in (0, 1):
        f = CyclicMap.contraction(2, a)
        for q, m in hochschild._cyclic_maps(X, f, 5).items():
            env, _ = cut_envelope_cyclic(CutSet(q, 2), f)
            assert m == IntMatrix.from_columns(F2, m.rows, _reference_columns(X, env)), (a, q)
    M2 = LabelledCycle.uniform(FiniteAlgebra.matrix_algebra(F2, 2), None, 1)
    full = bar_complex(M2, 5)
    for q in range(1, 6):
        assert full.boundary(q) == _reference_boundary(M2, q)[0], q


def _degenerate(colours, digits):
    """Is the basis tensor with these digits, one per element of a cut set
    with these colours, degenerate: does some vertex column (counted from
    each block's edge) hold basis index 0 in every block?"""
    assert not colours[0].is_vertex
    columns, j = {}, 0
    for colour, digit in zip(colours, digits):
        j = j + 1 if colour.is_vertex else 0
        if j:
            columns.setdefault(j, []).append(digit)
    return any(not any(column) for column in columns.values())


def _nondegenerate_part(cycle, env, columns):
    """env's matrix, given by its columns, between the nondegenerate basis
    tensors of its source and target, each in bar order."""
    def kept(colours):
        tensors = product(*(range(cycle.label_dim(c)) for c in colours))
        return [i for i, digits in enumerate(tensors) if not _degenerate(colours, digits)]

    rows = {r: i for i, r in enumerate(kept(env.target.colours))}
    return IntMatrix.from_columns(cycle.field, len(rows), [
        {rows[r]: v for r, v in columns[p].items() if r in rows} for p in kept(env.source.colours)])


def test_contraction_maps_are_the_definition_between_nondegenerate_tensors(monkeypatch):
    # the maps contraction_comparison checks are those of the unit_first
    # rebase by the definition, kept at the nondegenerate tensors of both
    # sides; among the cycles are the Morita, M2 and mixed ones, whose units
    # are not basis vector 0
    seen, check = [], hochschild.is_chain_map
    monkeypatch.setattr(hochschild, "is_chain_map", lambda src, dst, maps: seen.append(maps) or check(src, dst, maps))
    rebased = []
    for cycle, degree in labelled_cycles():
        if cycle.n < 2:
            continue
        degree, X = min(degree, 3), cycle.unit_first()
        if X is not cycle:
            rebased.append(cycle)
        for a in range(cycle.n):
            contraction_comparison(cycle, a, degree)
            maps, f = seen.pop(), CyclicMap.contraction(cycle.n, a)
            for q in range(degree + 1):
                env, _ = cut_envelope_cyclic(CutSet(q, cycle.n), f)
                assert maps[q] == _nondegenerate_part(X, env, _reference_columns(X, env)), (cycle, a, q)
    assert len(rebased) == 4 and morita_cycle() in rebased


def _full_contraction_comparison(cycle, a, degree_bound):
    """contraction_comparison on the full bar complexes of the cycle as
    given and of its contraction."""
    f = CyclicMap.contraction(cycle.n, a)
    src, dst = bar_complex(cycle, degree_bound), bar_complex(cycle.pull_back(f), degree_bound)
    maps = hochschild._cyclic_maps(cycle, f, degree_bound)
    chain = is_chain_map(src, dst, maps)
    verdicts = [homology_map_is_iso(src, dst, maps, q) for q in range(degree_bound)]
    return {
        "chain_map": chain,
        "source_homology": homology(src),
        "target_homology": homology(dst),
        "iso_through": verdicts,
        "quasi_iso": chain and all(verdicts),
    }


def test_contraction_reports_match_the_full_route():
    # the normalized route reports what the full complexes give, also on the
    # augmentation cycle, which is no quasi-isomorphism, with its unit last
    cases = [(cycle, min(degree, 3)) for cycle, degree in labelled_cycles() if cycle.n > 1]
    cases += [(augmentation_cycle(), 4), (augmentation_cycle_unit_last(), 4)]
    for cycle, degree in cases:
        for a in range(cycle.n):
            assert contraction_comparison(cycle, a, degree) == _full_contraction_comparison(cycle, a, degree), (cycle, a)
    assert contraction_comparison(augmentation_cycle_unit_last(), 0, 4)["iso_through"] == [True, False, False, False]


def test_one_memo_tells_bases_apart():
    # A merged block is memoized by its radices and skips too.  On a
    # one-cycle a column of the normalized basis is one element, as in the
    # full basis, with the same fibers but without the unit's digit; faces
    # of both, built with one memo, each match the definition.
    X = LabelledCycle.uniform(dual_numbers(F3), None, 1)
    memo, full, normal = {}, bar_complex(X, 3), normalized_bar_complex(X, 3)
    for q in range(1, 4):
        lo, hi = normalized_positions(X, q - 1), normalized_positions(X, q)
        rank = {p: i for i, p in enumerate(lo)}
        for i in range(q + 1):
            env = cut_face(CutSet(q, 1), i)
            expected = _reference_columns(X, env)
            for complex_, positions in ((full, None), (normal, hi)):
                source, target = complex_.bases[q], complex_.bases[q - 1]
                columns = [{} for _ in source[1]]
                hochschild._add_envelope(X, hochschild._plan(env, source, target), F3.one(), columns, memo)
                if positions is not None:
                    expected = [{rank[r]: v for r, v in expected[p].items() if r in rank} for p in positions]
                assert columns == expected, (q, i, positions is None)


SHAPE_CACHES = (
    cyclic._colours,
    hochschild._face,
    hochschild._face_plan,
    hochschild._comparison,
    hochschild._comparison_plan,
    hochschild._full_layout,
    hochschild._normalized_layout,
)


def _clear_shape_caches():
    for cache in SHAPE_CACHES:
        cache.cache_clear()


def test_each_face_is_built_once(monkeypatch):
    # one cut face per (q, n, i), whichever complex asks for it; the
    # complexes are built once first, so plans cached by that build (or by
    # any earlier test) must not hide the faces from the count
    calls = []

    def counted(cut, i):
        calls.append((cut, i))
        return cut_face(cut, i)

    cycles = [LabelledCycle.uniform(group_algebra_c2(field), None, 3) for field in (QQ, F3)]
    for cycle in cycles:
        normalized_bar_complex(cycle, 3)
    monkeypatch.setattr(hochschild, "cut_face", counted)
    _clear_shape_caches()
    for cycle in cycles:
        normalized_bar_complex(cycle, 3)
    assert len(calls) == 2 + 3 + 4


def test_shape_data_is_shared_across_labels():
    # Layouts and plans are keyed by label dims, never by labels: cycles of
    # one shape with other labels share them in one process, and each build
    # equals one from empty shape caches, and the definition
    X, shared = morita_cycle(), []
    builds = [(normalized_bar_complex, LabelledCycle.uniform(A, None, 1), 4) for A in (dual_numbers(F3), group_algebra_c2(F3))]
    builds += [(normalized_bar_complex, LabelledCycle.uniform(group_algebra_c2(field), None, 3), 2) for field in (QQ, F3)]
    builds += [(partial(hochschild._cyclic_maps, f=CyclicMap.contraction(2, a)), X, 4) for a in (0, 1)]
    _clear_shape_caches()
    shared = [build(cycle, degree_bound=degree) for build, cycle, degree in builds]
    for (build, cycle, degree), result in zip(builds, shared):
        _clear_shape_caches()
        assert build(cycle, degree_bound=degree) == result, cycle
        if build is normalized_bar_complex:
            for q in range(1, degree + 1):
                d = _reference_boundary(cycle.unit_first(), q)[0]
                assert result.boundary(q) == _restricted(cycle, q, d), (cycle, q)
        else:
            for q, m in result.items():
                env = cut_envelope_cyclic(CutSet(q, 2), build.keywords["f"])[0]
                assert m == IntMatrix.from_columns(F2, m.rows, _reference_columns(X, env)), q


def test_each_layout_and_plan_is_built_once(monkeypatch):
    # Up a degree ladder each level layout and each face plan is built once,
    # as shape data; the fiber tables, label data, in every build
    calls = {"_basis": [], "_plan": [], "_fiber_table": []}
    for name, log in calls.items():
        def counted(*args, original=getattr(hochschild, name), log=log):
            log.append(args)
            return original(*args)

        monkeypatch.setattr(hochschild, name, counted)
    _clear_shape_caches()
    R = dual_numbers(QQ)
    for bound in range(3, 8):
        tables = len(calls["_fiber_table"])
        integral_homology_one_cycle(R, FiniteBimodule.regular(R), bound)
        assert len(calls["_fiber_table"]) > tables, bound
    assert len(calls["_basis"]) == 8  # levels 0 to 7
    assert len(calls["_plan"]) == sum(q + 1 for q in range(1, 8))


def _immutable(x):
    return isinstance(x, int) or isinstance(x, (tuple, range)) and all(map(_immutable, x))


def test_cached_layouts_are_immutable():
    # complexes of one shape share their level layouts, so no caller can
    # change another's through ChainComplex.bases
    for build in (bar_complex, normalized_bar_complex):
        first, second = (build(LabelledCycle.uniform(group_algebra_c2(field), None, 2), 3) for field in (QQ, F3))
        assert all(a is b for a, b in zip(first.bases, second.bases, strict=True))
        assert _immutable(first.bases)
        with pytest.raises(TypeError):
            first.bases[1][0][0] = first.bases[1][0][1]


def test_a_layout_holds_no_digit_of_a_one_dim_label():
    # a 256-cycle at degree 0: 1-dim vertices, 14 edges of dim 2 and 242 of
    # dim 1, so 2^14 tensors in one unit, which keeps its radices and no
    # digit tuple per tensor, let alone a digit for every 1-dim block
    edges = (2,) * 14 + (1,) * 242
    _clear_shape_caches()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        units, order = hochschild._normalized_layout(0, (1,) * 256, edges)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 2 * 2 ** 20, retained
    assert len(order) == 2 ** 14 and sorted(order) == list(range(2 ** 14))
    assert units == ((tuple(range(256)), edges[-1:] + edges[:-1], 0, 1),)


def test_rotation_action_on_the_normalized_complex():
    for cycle, degree in labelled_cycles():
        R, M, n = cycle.algebras[0], cycle.bimodules[0], cycle.n
        if cycle.algebras != (R,) * n or cycle.bimodules != (M,) * n:
            continue
        report = rotation_action(R, M, n, degree)
        assert report["commutes_with_boundary"] and report["order_exact"]
        direct = bar_complex(cycle, degree)
        assert report["homology_dims"] == homology(direct)
        assert report["complex"].dims == normalized_bar_complex(cycle, degree).dims
        # the quotient map intertwines the rotations of the rebased cycle
        rebased = rotation_matrices(cycle.unit_first(), 1, degree)
        proj = _projections(cycle, degree)
        for q in range(degree + 1):
            assert proj[q].mul(rebased[q]) == report["chain_maps"][q].mul(proj[q])
        # so the actions on homology are conjugate to the direct ones: same
        # traces
        full = rotation_matrices(cycle, 1, degree)
        for q in range(degree):
            action = induced_homology_matrix(direct, full[q], q).to_lists()
            assert _trace(report["homology_action"][q]) == _trace(action)


def test_normalized_rotation_is_the_restricted_full_rotation():
    # the permutation of nondegenerate basis tensors is the full rotation of
    # the rebased cycle, built from envelope maps, between them; for every
    # k, so a shift in the wrong direction shows on cycles with n > 2
    for cycle, degree in labelled_cycles():
        R, M, n = cycle.algebras[0], cycle.bimodules[0], cycle.n
        if cycle.algebras != (R,) * n or cycle.bimodules != (M,) * n:
            continue
        proj = _projections(cycle, degree)
        for k in range(-1, n + 1):
            _check_rotation_images(cycle, k, degree, proj)


def _check_rotation_images(cycle, k, degree, proj):
    full = rotation_matrices(cycle.unit_first(), k, degree)
    bases = normalized_bar_complex(cycle, degree).bases
    for q, image in hochschild._rotation_images(bases, cycle.n, k).items():
        normal = IntMatrix.from_columns(cycle.field, len(image), [{i: cycle.field.one()} for i in image])
        assert normal == proj[q].mul(full[q]).mul(proj[q].transpose()), (cycle, k, q)


def test_rotation_images_on_a_non_uniform_cycle():
    # blocks of two sizes: F3 and F3[C2] alternate, with M: F3 -> F3[C2]
    # through the unit and N: F3[C2] -> F3 through g -> -1; the rotation by 2
    # keeps the labels, so its digits move by whole pairs of blocks
    A, B = ground(F3), group_algebra_c2(F3)
    M = FiniteBimodule.through_hom(A, B, [B.unit])
    N = FiniteBimodule.through_hom(B, A, [(1,), (2,)])
    cycle = LabelledCycle((A, B, A, B), (M, N, M, N))
    proj = _projections(cycle, 2)
    for k in (-2, 0, 2, 4):
        _check_rotation_images(cycle, k, 2, proj)


def test_the_rotation_multiplies_nothing(monkeypatch):
    # the rotation permutes basis tensors: building it takes no fold step,
    # while the faces of the same complex do
    _, steps = _count_fold(monkeypatch)
    C2 = group_algebra_c2(QQ)
    complex_ = normalized_bar_complex(LabelledCycle.uniform(C2, None, 3), 3)
    assert steps
    steps.clear()
    hochschild._rotation_images(complex_.bases, 3, 1)
    assert steps == []


def test_rotation_eliminates_only_where_homology_lives(monkeypatch):
    # H = [2, 0, 0] on the Q[C2] 3-cycle: the dimensions come by the trace
    # route, and the rotated complex needs the image of d_1 alone
    built = []

    class Counted(Echelon):
        def __init__(self, field, dim, vectors=()):
            vectors = list(vectors)
            built.append(_signature(dim, vectors))
            super().__init__(field, dim, vectors)

    monkeypatch.setattr(rings, "Echelon", Counted)
    monkeypatch.setattr(hochschild, "Echelon", Counted)
    C2 = group_algebra_c2(QQ)
    report = rotation_action(C2, FiniteBimodule.regular(C2), 3, 3)
    assert report["homology_dims"] == [2, 0, 0]
    assert report["homology_action"][1:] == [[], []]
    complex_ = report["complex"]
    assert complex_.dims == (8, 56, 392, 2744)
    for q, d in complex_.boundaries.items():
        assert built.count(_signature(d.rows, d.columns())) == (q == 1), q


def test_rotation_by_the_trace_route_matches_the_direct_route(monkeypatch):
    # The augmentation module does not contract, so its rotated complex is
    # reused; the regular dual numbers have homology in every degree, so the
    # dimensions are cross-checked on the rotated complex above degree 0.
    X = augmentation_cycle()
    assert contract_free(X) is X
    built = []

    def counted(*args):
        built.append(args)
        return normalized_bar_complex(*args)

    monkeypatch.setattr(hochschild, "normalized_bar_complex", counted)
    rotation_action(X.algebras[0], X.bimodules[0], 2, 4)
    assert len(built) == 1
    for cycle, degree in (
        (augmentation_cycle(), 4),
        (LabelledCycle.uniform(dual_numbers(QQ), None, 2), 4),
        (LabelledCycle.uniform(dual_numbers(F3), None, 2), 4),
    ):
        R, M = cycle.algebras[0], cycle.bimodules[0]
        report = rotation_action(R, M, 2, degree)
        assert report["commutes_with_boundary"] and report["order_exact"]
        direct = bar_complex(cycle, degree)
        assert report["homology_dims"] == homology(direct)
        assert all(report["homology_dims"])
        if M.dim == 1:
            assert report["homology_dims"] == [1, 2, 3, 4]
        full = rotation_matrices(cycle, 1, degree)
        for q in range(degree):
            action = induced_homology_matrix(direct, full[q], q).to_lists()
            assert _trace(report["homology_action"][q]) == _trace(action)


def test_rotation_refuses_a_trace_route_that_disagrees(monkeypatch, tmp_path):
    # The Q[C2] 2-cycle has H = [2, 0, 0].  With contract_free patched to
    # give a wrong cycle, a trace route that gives [1, 0, 0] disagrees where
    # both are nonzero; one that gives [2, 1, 1] disagrees where only it is
    # nonzero.
    C2 = group_algebra_c2(QQ)
    cycle = LabelledCycle.uniform(C2, None, 2)
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(cycle.to_json()))
    for wrong in (LabelledCycle.uniform(ground(), None, 1), LabelledCycle.uniform(dual_numbers(QQ), None, 1)):
        monkeypatch.setattr(hochschild, "contract_free", lambda _, wrong=wrong: wrong)
        with pytest.raises(AssertionError, match="by the trace route"):
            rotation_action(C2, FiniteBimodule.regular(C2), 2, 3)
        result = CliRunner().invoke(main, ["hh", "rotate", "--cycle", str(path), "--degree", "3"])
        assert isinstance(result.exception, AssertionError) and result.output == ""


def _direct_integral_homology(R, M, degree_bound):
    """integral_homology_one_cycle on the full bar complex."""
    complex_ = bar_complex(LabelledCycle.one_cycle(R, M), degree_bound)
    out, rank_d = [], 0
    for q in range(degree_bound):
        relations = [{i: int(v) for i, v in col.items()} for col in complex_.boundary(q + 1).columns()]
        torsion, free = rings.invariant_factors_of_rows(relations, complex_.dims[q])
        out.append((torsion, free - rank_d))
        rank_d = complex_.dims[q] - free
    return out


def test_integral_homology_normalized_matches_the_full_complex():
    # Z[x]/(x^3), Z[C2], Z, and Q[x]/(x^2 - 2) with unit vector (1, 0)
    root2 = FiniteAlgebra.poly_quotient(QQ, (QQ.from_int(-2), QQ.zero(), QQ.one()))
    for R, degree_bound in (
        (FiniteAlgebra.poly_quotient(QQ, (QQ.zero(),) * 3 + (QQ.one(),)), 5),
        (group_algebra_c2(QQ), 6), (ground(QQ), 4), (root2, 6),
    ):
        M = FiniteBimodule.regular(R)
        assert integral_homology_one_cycle(R, M, degree_bound) == _direct_integral_homology(R, M, degree_bound)


def diagonal_pair(b0, b1):
    """Z x Z, multiplied componentwise, written over Q in the basis b0, b1."""
    (a, c), (b, d) = b0, b1
    det = a * d - b * c

    def coordinates(v):
        return tuple(Fraction(x, det) for x in (d * v[0] - b * v[1], a * v[1] - c * v[0]))
    mult = tuple(tuple(coordinates((x[0] * y[0], x[1] * y[1])) for y in (b0, b1)) for x in (b0, b1))
    return FiniteAlgebra(QQ, 2, mult, coordinates((1, 1)), name="ZxZ")


def test_unit_first_rebase_is_an_algebra_isomorphism():
    # The new basis is u, then e_j for j != i: i is the first coordinate at
    # which the unit u is +-1, else the first nonzero one.
    for R, pivot in (
        (FiniteAlgebra.matrix_algebra(F2, 2), 0),
        (FiniteAlgebra.matrix_algebra(QQ, 2), 0),
        (diagonal_pair((2, -1), (-1, 1)), 0),  # unit (2, 3)
        (diagonal_pair((1, 0), (-1, 1)), 1),  # unit (2, 1)
    ):
        field, X = R.field, LabelledCycle.uniform(R, None, 1)
        Y = X.unit_first()  # its labels are validated as they are built
        assert Y is X.unit_first() and Y != X
        S, N = Y.algebras[0], Y.bimodules[0]
        assert list(S.unit) == S._basis(0)
        # The edge keeps R's basis, so it reads each new basis vector s as
        # s . 1 in R's coordinates: that is the map from S to R.
        phi = [N.left_act(S._basis(s), list(R.unit)) for s in range(R.dim)]
        assert phi == [list(R.unit)] + [R._basis(j) for j in range(R.dim) if j != pivot]

        def image(w):
            return [reduce(field.add, (field.mul(c, v[k]) for c, v in zip(w, phi)), field.zero()) for k in range(R.dim)]
        for s, t in product(range(R.dim), repeat=2):
            assert image(S.mul_vec(S._basis(s), S._basis(t))) == R.mul_vec(phi[s], phi[t]), (R.name, s, t)
        normal = normalized_bar_complex(X, 3)
        assert normal.validate()
        assert homology(normal) == homology(bar_complex(X, 3))
    # Over Z the rebase keeps the lattice only with an integral unit that
    # has a coordinate +-1.
    R = diagonal_pair((1, 0), (-1, 1))
    M = FiniteBimodule.regular(R)
    assert integral_homology_one_cycle(R, M, 4) == _direct_integral_homology(R, M, 4)
    M2 = FiniteAlgebra.matrix_algebra(QQ, 2)
    M = FiniteBimodule.regular(M2)
    homology_z = integral_homology_one_cycle(M2, M, 3)
    assert homology_z == _direct_integral_homology(M2, M, 3) == [([], 1), ([], 0), ([], 0)]
    for R in (diagonal_pair((2, -1), (-1, 1)), diagonal_pair((1, 0), (0, 2))):  # units (2, 3) and (1, 1/2)
        with pytest.raises(ValueError, match="integral coordinates, one of them"):
            integral_homology_one_cycle(R, FiniteBimodule.regular(R), 3)


def test_rotation_is_the_identity_on_homology_for_regular_labels():
    # For M = R the C_n action on THH(R; R^(x)n) is restricted from the
    # circle action, so it is trivial on homology.  An identity matrix is
    # one in every basis, so this checks the rebased route as it is.
    checked = 0
    for cycle, degree in labelled_cycles():
        R, n = cycle.algebras[0], cycle.n
        if cycle != LabelledCycle.uniform(R, None, n):
            continue
        report = rotation_action(R, FiniteBimodule.regular(R), n, degree)
        for q, action in enumerate(report["homology_action"]):
            assert action == IntMatrix.identity(R.field, report["homology_dims"][q]).to_lists(), (R.name, n, q)
        checked += 1
    assert checked == 15


def _det(field, rows):
    """Determinant by expansion along the first row."""
    if not rows:
        return field.one()
    total, sign = field.zero(), field.one()
    for j, a in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total = field.add(total, field.mul(sign, field.mul(a, _det(field, minor))))
        sign = field.neg(sign)
    return total


def test_rotation_is_the_tensor_power_of_the_twist_for_twisted_labels():
    # For M = R_sigma, sigma an automorphism of order dividing n, the
    # n-cycle has the homology of HH(R; R) by the trace property, and the
    # rotation acts there as sigma^(x)(q+1) does on the one-cycle: the same
    # trace and determinant in each degree.  These actions are not the
    # identity, so a rotation by -1 in place of 1 (sigma^-1) would show.
    F7 = PrimeField(7)
    for field, d, c, n, degree in ((QQ, 2, -1, 2, 3), (QQ, 3, -1, 2, 3), (F7, 2, 2, 3, 3), (F7, 3, 2, 3, 2)):
        R = FiniteAlgebra.poly_quotient(field, (field.zero(),) * d + (field.one(),))
        sigma = IntMatrix(field, d, d, {(i, i): field.from_int(c ** i) for i in range(d)})
        M = FiniteBimodule.through_hom(R, R, sigma.transpose().to_lists())
        report = rotation_action(R, M, n, degree)
        assert report["commutes_with_boundary"] and report["order_exact"]
        one_cycle = bar_complex(LabelledCycle.one_cycle(R, FiniteBimodule.regular(R)), degree)
        assert report["homology_dims"] == homology(one_cycle)
        for q, action in enumerate(report["homology_action"]):
            expected = induced_homology_matrix(one_cycle, _tensor_power(sigma, q + 1), q).to_lists()
            for invariant in (
                lambda m: reduce(field.add, (row[i] for i, row in enumerate(m)), field.zero()),
                partial(_det, field),
            ):
                assert invariant(action) == invariant(expected), (field, d, n, q)
    # on H_0 = R the twist itself: x -> 2x on F7[x]/(x^2)
    R = FiniteAlgebra.poly_quotient(F7, (0, 0, 1))
    M = FiniteBimodule.through_hom(R, R, [(1, 0), (0, 2)])
    assert rotation_action(R, M, 3, 1)["homology_action"][0] == [[1, 0], [0, 2]]


def test_contraction_needs_a_free_edge():
    # No edge of the augmentation cycle is free, so it is not contracted.
    X = augmentation_cycle()
    assert contract_free(X) is X
    assert homology(hh_complex(X, 4)) == [1, 2, 3, 4]
    report = contraction_comparison(X, 0, 4)
    assert report["chain_map"] and not report["quasi_iso"]
    # Regular edges are free: the Q[C2] 3-cycle contracts to a one-cycle.
    C2 = group_algebra_c2(QQ)
    assert contract_free(LabelledCycle.uniform(C2, None, 3)).n == 1


def test_normalized_complex_rebases_the_unit_first():
    # The unit of M2(Q) is not basis vector 0: its cycle is rebased and
    # normalized to 4 * 3^q tensors, while the guard reads 4 * 4^q.
    X = LabelledCycle.uniform(FiniteAlgebra.matrix_algebra(QQ, 2), None, 1)
    assert X.unit_first() != X
    assert normalized_bar_complex(X, 6).dims == tuple(4 * 3 ** q for q in range(7))
    assert bar_dims(X, 6) == tuple(4 * 4 ** q for q in range(7))
    # so is the rotation action's complex, here over F2
    M2 = FiniteAlgebra.matrix_algebra(F2, 2)
    report = rotation_action(M2, FiniteBimodule.regular(M2), 1, 6)
    assert report["complex"].dims[-1] == 2916
    assert report["homology_dims"] == [1, 0, 0, 0, 0, 0]
    # the guard reads the full dimensions: 4 * 3^q fits, 4 * 4^q does not
    Y = LabelledCycle.uniform(FiniteAlgebra.poly_quotient(QQ, (QQ.zero(),) * 4 + (QQ.one(),)), None, 1)
    assert normalized_bar_complex(Y, 6).dims[-1] == 4 * 3 ** 6
    with pytest.raises(SizeGuard, match="bar complex dimension 65536 exceeds 20000"):
        normalized_bar_complex(Y, 7)


def _lists(table):
    return [_lists(row) for row in table] if isinstance(table, tuple) else table


def test_tables_given_as_lists_are_stored_as_tuples():
    # A table given as nested lists is frozen while its shape is checked:
    # the algebra hashes, equals its tuple twin (so the two mix in one
    # cycle), and its regular bimodule's actions are its own table, so the
    # free edges of a list-built cycle are found and contracted.
    M2 = FiniteAlgebra.matrix_algebra(F2, 2)
    listed = FiniteAlgebra(F2, 4, _lists(M2.mult), _lists(M2.unit), M2.name)
    assert listed == M2 and hash(listed) == hash(M2)
    assert FiniteBimodule.regular(listed).right == listed.mult
    one_cycle = LabelledCycle.one_cycle(listed, FiniteBimodule.regular(listed))
    assert hh_complex(one_cycle, 4) == hh_complex(LabelledCycle.uniform(M2, None, 1), 4)
    C2 = group_algebra_c2(F3)
    C2_listed = FiniteAlgebra(F3, 2, _lists(C2.mult), _lists(C2.unit), C2.name)
    regular = FiniteBimodule(C2_listed, C2_listed, 2, _lists(C2.mult), _lists(C2.mult), C2.name)
    assert regular == FiniteBimodule.regular(C2)
    assert contract_free(LabelledCycle.uniform(C2_listed, regular, 3)).n == 1
    mixed = LabelledCycle((C2, C2_listed), (FiniteBimodule.regular(C2_listed), FiniteBimodule.regular(C2)))
    assert homology(hh_complex(mixed, 3)) == homology(hh_complex(LabelledCycle.uniform(C2, None, 2), 3))
    with pytest.raises(ValueError, match="^multiplication table must be 2x2x2$"):
        FiniteAlgebra(F3, 2, _lists(C2.mult)[:1], _lists(C2.unit))
    with pytest.raises(ValueError, match="^right action must be 2x2x2$"):
        FiniteBimodule(C2, C2, 2, C2.mult, [[[1, 0]] * 2, [[0, 1]]])


def test_one_polynomial_reduction_serves_the_ring_and_the_algebra():
    # x^k modulo a monic f, by the recurrence x^d = -(f_0 + ... + f_{d-1}
    # x^{d-1}): the reduction itself, products in the quotient ring, and the
    # structure constants of the quotient algebra
    for base, modulus in ((PrimeField(5), (2, 0, 3, 1)), (QQ, (Fraction(-1, 4), 0, 1)), (QQ, (0, 0, 0, 1))):
        d = len(modulus) - 1
        powers, power = [], [base.one()] + [base.zero()] * (d - 1)
        for _ in range(2 * d - 1):
            powers.append(tuple(power))
            top, power = power[-1], [base.zero()] + power[:-1]
            power = [base.sub(c, base.mul(top, m)) for c, m in zip(power, modulus)]
        ring, algebra = rings.QuotientPolynomialRing(base, modulus), FiniteAlgebra.poly_quotient(base, modulus)
        for i, j in product(range(d), repeat=2):
            assert rings.poly_reduce(base, modulus, [base.zero()] * (i + j) + [base.one()]) == powers[i + j]
            assert ring.mul(powers[i], powers[j]) == powers[i + j]
            assert algebra.mult[i][j] == powers[i + j]
    for bad in ((), (1,), (1, 2), (0, 0, 2)):
        for make in (rings.QuotientPolynomialRing, FiniteAlgebra.poly_quotient):
            with pytest.raises(ValueError, match="^modulus must be monic of degree >= 1$"):
                make(QQ, bad)
