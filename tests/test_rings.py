import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import gcd

import pytest

from polygonic.cyclic import SizeGuard
from polygonic.rings import (
    PRIME_TEST_BOUND,
    QQ,
    ZZ,
    CoefficientRing,
    Echelon,
    IntegerRing,
    IntMatrix,
    ModularRing,
    PrimeField,
    QuotientPolynomialRing,
    invariant_factors,
    is_prime,
    kernel_basis,
    ring_from_string,
    smith_normal_form,
)

from polygonic.witt import series_times_factor

from lattice_oracle import lattice_contains


def mat(rows, ring=ZZ):
    return IntMatrix.from_rows(ring, rows)


def echelon_rank(A):
    """Rank over a field: the columns of A inserted into one echelon."""
    return Echelon(A.ring, A.rows, A.columns()).rank


def det_int(A):
    """Determinant over Z by fraction-free (Bareiss) elimination: an oracle
    that shares no code with the library's elimination."""
    assert A.rows == A.cols
    n = A.rows
    M = A.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def test_smith_examples():
    D, U, V = smith_normal_form(mat([[2, 4], [6, 8]]))
    assert [D.get(0, 0), D.get(1, 1)] == [2, 4]
    assert U.mul(mat([[2, 4], [6, 8]])).mul(V) == D

    D, _, _ = smith_normal_form(IntMatrix.zeros(ZZ, 2, 2))
    assert D.is_zero()

    D, _, _ = smith_normal_form(IntMatrix.identity(ZZ, 3))
    assert [D.get(i, i) for i in range(3)] == [1, 1, 1]


def test_smith_random_uav():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        A = mat([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)])
        D, U, V = smith_normal_form(A)
        assert U.mul(A).mul(V) == D
        assert det_int(U) in (1, -1)
        assert det_int(V) in (1, -1)
        diag = [D.get(i, i) for i in range(min(m, n))]
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # product of the first k invariant factors divides every k-th det
        if m == n and nonzero:
            assert abs(det_int(A)) == _prod(nonzero) * (0 if len(nonzero) < n else 1) or len(nonzero) < n


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def test_smith_determinant_equals_invariant_product():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(1, 5)
        A = mat([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
        D, _, _ = smith_normal_form(A)
        diag = [D.get(i, i) for i in range(n)]
        assert abs(det_int(A)) == _prod(diag)


def _determinantal_invariants(rows):
    """(factors > 1, free rank) of Z^n / rows from the gcds d_k of the k x k
    minors: the k-th invariant factor is d_k / d_(k-1)."""
    m, n = len(rows), len(rows[0])
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        d = 0
        for I in combinations(range(m), k):
            for J in combinations(range(n), k):
                d = gcd(d, det_int(mat([[rows[i][j] for j in J] for i in I])))
        if d == 0:
            break
        divisors.append(d)
    factors = [b // a for a, b in zip(divisors, divisors[1:])]
    return [f for f in factors if f > 1], n - (len(divisors) - 1)


def test_invariant_factors_match_determinantal_divisors():
    rng = random.Random(11)
    for n in (4, 5, 6):
        for k in range(8):
            rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            if k % 4 == 0:
                rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
            assert invariant_factors(mat(rows)) == _determinantal_invariants(rows)
    for m, n in ((4, 6), (6, 4)):
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        assert invariant_factors(mat(rows)) == _determinantal_invariants(rows)


def _sparse_unimodular(rng, n):
    """A signed permutation matrix followed by n elementary operations
    row i += (+-1) row j: sparse, with determinant +-1."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]
    return rows


def test_sparse_unit_matrices_with_a_planted_core():
    # A = P diag(1, ..., 1, C) Q with P, Q sparse unimodular: Z^n / rows(A)
    # is Z^3 / rows(C), whatever the elimination order.  Extra rows that are
    # sums of two rows of A leave the lattice unchanged.
    rng = random.Random(5)
    for k in range(12):
        n = rng.randrange(10, 31)
        core = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
        if k % 4 == 0:
            core[2] = [a + 2 * b for a, b in zip(core[0], core[1])]
        middle = mat([[int(i == j) for j in range(n)] for i in range(n - 3)]
                     + [[0] * (n - 3) + row for row in core])
        A = mat(_sparse_unimodular(rng, n)).mul(middle).mul(mat(_sparse_unimodular(rng, n)))
        rows = A.to_lists()
        for _ in range(k % 3):
            a, b = rng.sample(range(n), 2)
            rows.append([x + y for x, y in zip(rows[a], rows[b])])
        A = mat(rows)
        expected = _determinantal_invariants(core)
        assert invariant_factors(A) == expected
        D, U, V = smith_normal_form(A)
        assert U.mul(A).mul(V) == D
        assert det_int(U) in (1, -1) and det_int(V) in (1, -1)
        diag = [D.get(i, i) for i in range(n)]
        assert [d for d in diag if d > 1] == expected[0]
        assert diag.count(0) == expected[1]
        assert all(d >= 0 for d in diag) and diag == sorted(diag, key=lambda d: d == 0)


def test_smith_forms_are_pinned():
    # D, U and V pinned on three matrices: every pivot a unit; diag(2, 3),
    # which the divisibility fix-up takes to diag(1, 6); and a rank-2
    # matrix with two rows to spare
    for rows, D, U, V in (
        ([[1, 2, 0, 0], [0, 1, -1, 0], [1, 0, 1, 1], [0, -1, 1, 1]],
         [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
         [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 0, 1], [1, -1, -1, 1]],
         [[1, -2, 0, -2], [0, 1, 0, 1], [0, 0, 0, 1], [0, 0, 1, 0]]),
        ([[2, 0], [0, 3]], [[1, 0], [0, 6]], [[-1, 1], [-3, 2]], [[1, -3], [1, -2]]),
        ([[2, 4, 6], [1, 2, 3], [3, 6, 9], [0, 1, 1]],
         [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]],
         [[0, 0, 0, 1], [0, 1, 0, -2], [1, -2, 0, 0], [0, -3, 1, 0]],
         [[0, 1, -1], [1, 0, -1], [0, 0, 1]]),
    ):
        assert [M.to_lists() for M in smith_normal_form(mat(rows))] == [D, U, V]


def test_dense_invariant_factors_take_few_row_operations(monkeypatch):
    # the 60 dense inputs of the int-normal-form benchmark at seed 1; with
    # no V kept, a unit pivot drops the rest of its row without column steps
    rng = random.Random(1)
    matrices = [mat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]) for n in (5, 6, 7) for _ in range(20)]
    calls = []
    add_multiple = IntegerRing.add_multiple

    def counted(self, target, c, vec):
        calls.append(c)
        add_multiple(self, target, c, vec)

    monkeypatch.setattr(IntegerRing, "add_multiple", counted)
    for A in matrices:
        invariant_factors(A)
    assert len(calls) <= 2021


def _unimodular_rows(rng, n):
    # a sparse unimodular matrix made dense by steps row i += t row j
    rows = _sparse_unimodular(rng, n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        t = rng.randint(-2, 2)
        rows[i] = [a + t * b for a, b in zip(rows[i], rows[j])]
    return rows


def test_transforms_are_kept_on_unit_pivots():
    # with V kept, a unit pivot clears its row by column steps like any
    # other: U A V = D with U and V unimodular, and D agrees with the
    # invariant factors, which take the shortcut
    rng = random.Random(23)
    for k in range(16):
        n = rng.randrange(6, 16)
        if k % 2:
            rows = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n - k % 3)]
        else:
            core = [[rng.randrange(-6, 7) for _ in range(2)] for _ in range(2)]
            middle = mat([[int(i == j) for j in range(n)] for i in range(n - 2)]
                         + [[0] * (n - 2) + row for row in core])
            rows = mat(_sparse_unimodular(rng, n)).mul(middle).mul(mat(_sparse_unimodular(rng, n))).to_lists()
        A = mat(rows)
        D, U, V = smith_normal_form(A)
        assert U.mul(A).mul(V) == D
        assert det_int(U) in (1, -1) and det_int(V) in (1, -1)
        diag = [D.get(i, i) for i in range(min(A.rows, A.cols))]
        assert invariant_factors(A) == ([d for d in diag if d > 1], A.cols - sum(1 for d in diag if d))


def test_are_zero_with_and_without_unit_pivots():
    # The rows of a unimodular W are a basis of Z^n, and x W lies in the span
    # of d_i W_i (i < k) iff d_i | x_i for i < k and x_i = 0 for i >= k.
    # With every d_i = 1 the pivots are all units; with every d_i a multiple
    # of g = 2 or 3 every entry stays one, and no pivot is a unit.
    from polygonic.mackey import FPGroup

    rng = random.Random(31)
    for trial in range(24):
        n = rng.randrange(3, 9)
        k = rng.randrange(1, n + 1)
        W = _unimodular_rows(rng, n)
        g = 1 if trial % 2 else rng.choice((2, 3))
        d = [g * rng.choice((1, 1, 2, 3)) if g > 1 else 1 for _ in range(k)]
        gens = [[d[i] * w for w in W[i]] for i in range(k)]
        G = FPGroup(n, mat(gens))
        torsion, free = G.invariants()  # the quotient is Z^(n - k) + sum of Z/d_i
        assert free == n - k and _prod(torsion) == _prod(d)
        for _ in range(6):
            x = [d[i] * rng.randint(-3, 3) for i in range(k)] + [0] * (n - k)
            if rng.random() < 0.5:
                x[rng.randrange(n)] += rng.choice((1, -1))
            member = all(x[i] % d[i] == 0 for i in range(k)) and not any(x[k:])
            v = [sum(x[i] * W[i][j] for i in range(n)) for j in range(n)]
            assert G.are_zero([{j: a for j, a in enumerate(v) if a}]) == member
            assert lattice_contains(gens, [v], n) == member


def test_echelon_examples():
    F2 = PrimeField(2)
    A = mat([[1, 1], [1, 1]], F2)
    assert echelon_rank(A) == 1 and kernel_basis(A) == [{0: 1, 1: 1}]

    A = IntMatrix.identity(QQ, 4)
    assert echelon_rank(A) == 4 and kernel_basis(A) == []

    # one kernel vector per free column: 1 there, 0 at the other free column
    A = mat([[1, 2, 3]], QQ)
    assert echelon_rank(A) == 1 and kernel_basis(A) == [{1: 1, 0: -2}, {2: 1, 0: -3}]

    # rows are reduced: pivot 1, and zero at the other row's pivot
    E = Echelon(QQ, 3, [{0: 2, 1: 4}, {0: 1, 2: 1}])
    assert E.rows == {0: {0: 1, 2: 1}, 1: {1: 1, 2: Fraction(-1, 2)}}
    assert E.free() == [2]
    assert not E.insert({1: 2, 2: -1})
    assert E.reduce({2: 5}) == {2: 5}


def _random_matrix(rng, m, n, k):
    """Random m x n integer rows; every fourth k gives rank < min(m, n)."""
    if k % 4:
        return [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
    r = rng.randrange(min(m, n))
    left = [[rng.randrange(-2, 3) for _ in range(r)] for _ in range(m)]
    right = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(r)]
    return [[sum(row[t] * right[t][j] for t in range(r)) for j in range(n)] for row in left]


def _rank_by_minors(rows):
    """Largest k with a nonzero k x k minor."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for I in combinations(range(m), k):
            for J in combinations(range(n), k):
                if det_int(mat([[rows[i][j] for j in J] for i in I])):
                    return k
    return 0


def test_rank_over_q_matches_minors():
    rng = random.Random(3)
    deficient = 0
    for k in range(60):
        m, n = rng.randrange(1, 7), rng.randrange(1, 8)
        rows = _random_matrix(rng, m, n, k)
        expected = _rank_by_minors(rows)
        deficient += expected < min(m, n)
        A = mat(rows, QQ)
        assert echelon_rank(A) == expected and len(kernel_basis(A)) == n - expected
    assert deficient >= 15


def test_kernel_count_over_small_fields():
    rng = random.Random(1)
    for p in (2, 3):
        F = PrimeField(p)
        for k in range(30):
            m, n = rng.randrange(1, 5), rng.randrange(1, 6)
            rows = [[x % p for x in r] for r in _random_matrix(rng, m, n, k)]
            A = mat(rows, F)
            rank, kernel = echelon_rank(A), kernel_basis(A)
            zeros = sum(
                all(sum(a * x for a, x in zip(r, v)) % p == 0 for r in rows)
                for v in product(range(p), repeat=n)
            )
            assert zeros == p ** (n - rank)
            assert len(kernel) == n - rank
            for v in kernel:
                assert all(sum(r[j] * c for j, c in v.items()) % p == 0 for r in rows)
            # 1 at its own free column, 0 at every other one: independent
            free = [max(v) for v in kernel]
            assert free == sorted(set(free))
            assert all(v[j] == 1 and not any(f in v for f in free if f != j) for v, j in zip(kernel, free))


def test_kernel_basis_is_normalized_at_the_free_columns():
    # The free columns, found by inserting the columns one by one, are those
    # outside the span of the columns before them.  Kernel vector t belongs
    # to free column t: it is 1 there, 0 at every other free column, and
    # zero after it, as it writes column t in terms of the earlier ones.
    rng = random.Random(6)
    for F in (PrimeField(2), PrimeField(3), QQ):
        for k in range(30):
            m, n = rng.randrange(1, 6), rng.randrange(1, 7)
            A = mat([[F.from_int(x) for x in r] for r in _random_matrix(rng, m, n, k)], F)
            span = Echelon(F, m)
            free = [j for j, col in enumerate(A.columns()) if not span.insert(col)]
            kernel = kernel_basis(A)
            assert len(kernel) == len(free)
            for j, v in zip(free, kernel):
                assert {f: v.get(f, F.zero()) for f in free} == {f: F.one() if f == j else F.zero() for f in free}
                assert max(v) == j
                for i in range(m):
                    assert F.is_zero(reduce(F.add, (F.mul(A.get(i, t), c) for t, c in v.items()), F.zero()))


def test_reduce_is_zero_on_span_and_idempotent():
    rng = random.Random(4)
    for F in (QQ, PrimeField(3)):
        for _ in range(20):
            dim = rng.randrange(1, 8)
            vectors = [
                {i: F.from_int(rng.randrange(-3, 4)) for i in rng.sample(range(dim), rng.randrange(0, dim + 1))}
                for _ in range(rng.randrange(1, 6))
            ]
            E = Echelon(F, dim, vectors)
            for _ in range(5):
                combo = {}
                for v in vectors:
                    c = F.from_int(rng.randrange(-2, 3))
                    for i, x in v.items():
                        combo[i] = F.add(combo.get(i, F.zero()), F.mul(c, x))
                assert E.reduce(combo) == {}
                w = {i: F.from_int(rng.randrange(-3, 4)) for i in range(dim)}
                r = E.reduce(w)
                assert E.reduce(r) == r
                assert not set(r) & set(E.rows)
                diff = {i: F.sub(w.get(i, F.zero()), r.get(i, F.zero())) for i in range(dim)}
                assert E.reduce(diff) == {}


def test_rank_of_transpose():
    rng = random.Random(9)
    for F in (PrimeField(3), QQ):
        for _ in range(20):
            m, n = rng.randrange(1, 8), rng.randrange(1, 8)
            entries = {}
            for _ in range(rng.randrange(0, m * n // 2 + 1)):
                entries[(rng.randrange(m), rng.randrange(n))] = F.from_int(rng.randrange(1, 3))
            A = IntMatrix(F, m, n, entries)
            assert echelon_rank(A) == echelon_rank(A.transpose())


def test_rank_requires_field():
    with pytest.raises(ValueError, match="^Z is not a field$"):
        echelon_rank(mat([[2]]))
    with pytest.raises(ValueError, match="^Z is not a field$"):
        Echelon(ZZ, 1)


def test_presented_group_quotient():
    from polygonic.mackey import FPGroup

    # Z^2 / <(0,1)> = Z
    assert FPGroup.free(2).quotient_by([{1: 1}]).invariants() == ([], 1)
    # (Z/4) / <2> = Z/2
    Z4 = FPGroup(1, mat([[4]]))
    assert Z4.quotient_by([{0: 2}]).invariants() == ([2], 0)
    # Z / <> = Z
    assert FPGroup.free(1).quotient_by([]).invariants() == ([], 1)
    with pytest.raises(ValueError, match=r"^element index 1 is outside range\(1\)$"):
        Z4.quotient_by([{1: 1}])


def test_solve_and_membership():
    gens = [[2, 0], [0, 3]]
    assert lattice_contains(gens, [[4, 3]], 2)
    assert lattice_contains(gens, [[4, 9], [-2, 3], [0, 0]], 2)
    assert not lattice_contains(gens, [[1, 0]], 2)
    assert not lattice_contains(gens, [[4, 3], [1, 0]], 2)
    with pytest.raises(ValueError, match="^lattice vectors must have length 2$"):
        lattice_contains(gens, [[1, 0, 0]], 2)


def _adjugate(B):
    """adj(B) by cofactors through det_int, so adj(B) B = det(B) I."""
    n = len(B)
    if n == 1:
        return [[1]]

    def minor(i, j):
        return [[B[r][c] for c in range(n) if c != j] for r in range(n) if r != i]

    return [[(-1) ** (i + j) * det_int(mat(minor(j, i))) for j in range(n)] for i in range(n)]


def test_lattice_contains_matches_cramer():
    # The columns of a nonsingular B span L(B), and v = B c has the unique
    # rational solution c = adj(B) v / det B: v lies in L(B) exactly when
    # det B divides every entry of adj(B) v.
    rng = random.Random(13)
    seen = {True: 0, False: 0}
    for k in range(120):
        n = rng.randrange(1, 5)
        B = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        det = det_int(mat(B))
        if det == 0:
            continue
        adj = _adjugate(B)
        gens = [[B[i][j] for i in range(n)] for j in range(n)]
        if k % 3 == 0:  # a lattice point, most of the time with a remainder
            c = [rng.randrange(-4, 5) for _ in range(n)]
            v = [sum(B[i][j] * c[j] for j in range(n)) + (rng.randrange(2) and rng.randrange(-1, 2))
                 for i in range(n)]
        else:
            v = [rng.randrange(-9, 10) for _ in range(n)]
        expected = all(sum(adj[i][j] * v[j] for j in range(n)) % det == 0 for i in range(n))
        assert lattice_contains(gens, [v], n) == expected, (B, v)
        seen[expected] += 1
    assert min(seen.values()) >= 20


def test_lattice_contains_rank_deficient_and_empty():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(2, 6)
        r = rng.randrange(1, n)
        # generators inside the first r coordinates, some of them dependent
        gens = [[rng.randrange(-5, 6) for _ in range(r)] + [0] * (n - r) for _ in range(rng.randrange(1, n + 2))]
        c = [rng.randrange(-3, 4) for _ in gens]
        inside = [sum(a * g[i] for a, g in zip(c, gens)) for i in range(n)]
        assert lattice_contains(gens, [inside], n)
        outside = list(inside)
        outside[rng.randrange(r, n)] = rng.choice((1, -1, 2, 7))  # leaves the rational span
        assert not lattice_contains(gens, [outside], n)
        assert not lattice_contains(gens, [inside, outside], n)
    # in the rational span but not in the lattice
    assert not lattice_contains([[2, 0, 0], [0, 2, 2]], [[0, 1, 1]], 3)
    assert lattice_contains([[2, 0, 0], [0, 2, 2]], [[2, -4, -4]], 3)
    # no generators: the lattice is 0
    assert lattice_contains([], [], 2)
    assert lattice_contains([], [[0, 0]], 2)
    assert not lattice_contains([], [[0, 1]], 2)
    # ngens 0: Z^0 is 0
    assert lattice_contains([], [[]], 0)
    assert lattice_contains([[]], [[], []], 0)


def test_int_matrix_matches_dense_lists():
    """Each matrix operation against dense list arithmetic over the ring."""
    rng = random.Random(17)

    def draw(ring, rows, cols):
        if ring is QQ:
            entry = lambda: QQ.parse(f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}")
        else:
            entry = lambda: ring.from_int(rng.randint(-3, 3))
        return [[entry() if rng.random() < 0.6 else ring.zero() for _ in range(cols)] for _ in range(rows)]

    def entrywise(f, *grids):
        return [[f(*xs) for xs in zip(*rows)] for rows in zip(*grids)]

    for ring in (ZZ, ModularRing(4), QQ, PrimeField(3)):
        for _ in range(25):
            m, k, n = (rng.randint(1, 4) for _ in range(3))
            a, b, c = draw(ring, m, k), draw(ring, k, n), draw(ring, m, k)
            A, B, C = mat(a, ring), mat(b, ring), mat(c, ring)
            assert A.to_lists() == a and mat(A.to_lists(), ring) == A
            product_ab = [
                [reduce(ring.add, (ring.mul(a[i][t], b[t][j]) for t in range(k)), ring.zero()) for j in range(n)]
                for i in range(m)
            ]
            assert A.mul(B).to_lists() == product_ab
            assert A.add(C).to_lists() == entrywise(ring.add, a, c)
            assert A.sub(C).to_lists() == entrywise(ring.sub, a, c)
            assert A.neg().to_lists() == entrywise(ring.neg, a)
            scalar = ring.from_int(2)
            assert A.scale(scalar).to_lists() == entrywise(lambda x: ring.mul(scalar, x), a)
            assert A.transpose().to_lists() == [list(col) for col in zip(*a)]
            vec = draw(ring, 1, k)[0]
            image = [reduce(ring.add, (ring.mul(a[i][t], vec[t]) for t in range(k)), ring.zero()) for i in range(m)]
            assert A.mul_vec(vec) == image
            sparse = {t: x for t, x in enumerate(vec) if not ring.is_zero(x)}
            assert A.apply(sparse) == {i: x for i, x in enumerate(image) if not ring.is_zero(x)}
            assert A.is_zero() == all(ring.is_zero(x) for row in a for x in row)
            assert A.sub(A).is_zero() and IntMatrix.zeros(ring, m, k).is_zero()
            for same in (A.add(C).sub(C), A.transpose().transpose(), IntMatrix(ring, m, k, dict(A.items()))):
                assert same == A and hash(same) == hash(A)
            product_matrix = mat(product_ab, ring)
            assert A.mul(B) == product_matrix and hash(A.mul(B)) == hash(product_matrix)
            if ring.is_field:
                columns = [dict(col) for col in A.columns()]
                Echelon(ring, m, A.columns())
                assert A.columns() == columns and A.to_lists() == a
    # over Z/4, 2 * 2 vanishes: the scaled matrix keeps no zero entry
    A = mat([[2, 1], [0, 2]], ModularRing(4))
    assert A.scale(2) == mat([[0, 2], [0, 0]], ModularRing(4))
    assert [v for _, v in A.scale(2).items()] == [2]
    assert A.scale(2).columns() == [{}, {0: 2}]
    P = mat([[2, 4, 0], [6, 0, 3], [0, 0, 0]])
    columns, grid = [dict(col) for col in P.columns()], P.to_lists()
    assert invariant_factors(P) == ([6], 1)
    assert P.columns() == columns and P.to_lists() == grid


def test_add_multiple_matches_dense_lists():
    """target += c * vec on sparse vectors, by each ring's own kernel,
    against dense list arithmetic: vec holds explicit zeros, sums cancel, and
    over Z/4 and its quotient ring nonzero products vanish; no zero entry is
    kept."""
    rng = random.Random(31)
    Z4i = QuotientPolynomialRing(ModularRing(4), (1, 0, 1))  # Z/4[x]/(x^2 + 1)
    for ring in (ZZ, QQ, ModularRing(4), PrimeField(3), Z4i):
        def draw():
            if rng.random() < 0.4:
                return ring.zero()
            if ring is QQ:
                return QQ.parse(f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}")
            if ring is Z4i:
                return (rng.randrange(4), rng.randrange(4))
            return ring.from_int(rng.randint(-3, 3))

        for _ in range(60):
            dim = rng.randint(1, 6)
            target, vec = [draw() for _ in range(dim)], [draw() for _ in range(dim)]
            c = draw()
            while ring.is_zero(c):
                c = draw()
            sparse = {i: x for i, x in enumerate(target) if not ring.is_zero(x)}
            kept = {i: x for i, x in enumerate(vec) if rng.random() < 0.8}  # zeros included
            ring.add_multiple(sparse, c, kept)
            dense = [ring.add(t, ring.mul(c, v)) if i in kept else t for i, (t, v) in enumerate(zip(target, vec))]
            assert sparse == {i: x for i, x in enumerate(dense) if not ring.is_zero(x)}, ring
        one, zero = ring.one(), ring.zero()
        for target, c, vec in (({}, one, {0: zero}), ({0: one}, ring.neg(one), {0: one, 1: zero})):
            ring.add_multiple(target, c, vec)
            assert target == {}, ring
    two = ModularRing(4).from_int(2)
    target = {0: 1}
    ModularRing(4).add_multiple(target, two, {0: two, 1: two})
    assert target == {0: 1}


class _GenericWalks:
    """A ring whose series walks are the base class's generic loops."""

    def __init__(self, ring):
        self.ring = ring

    def __getattr__(self, name):
        return getattr(self.ring, name)

    unit_walk_pass = CoefficientRing.unit_walk_pass
    binomial_walk_pass = CoefficientRing.binomial_walk_pass


def _kernel_rings(rng):
    """(ring, draw) for every ring kind, draw giving a random element that
    is zero two times in five; QQ draws Fractions."""
    Zi = QuotientPolynomialRing(ZZ, (1, 0, 1))
    F4 = QuotientPolynomialRing(PrimeField(2), (1, 1, 1))
    values = {
        ZZ: lambda: rng.randint(-4, 4),
        QQ: lambda: QQ.parse(f"{rng.randint(-4, 4)}/{rng.randint(1, 4)}"),
        ModularRing(8): lambda: rng.randrange(8),
        ModularRing(9): lambda: rng.randrange(9),
        PrimeField(5): lambda: rng.randrange(5),
        Zi: lambda: (rng.randint(-3, 3), rng.randint(-3, 3)),
        F4: lambda: (rng.randrange(2), rng.randrange(2)),
    }
    return [(ring, lambda draw=draw, ring=ring: ring.zero() if rng.random() < 0.4 else draw())
            for ring, draw in values.items()]


def _outcome(f, *args):
    """f(*args) with its type, or the type of what it raised."""
    try:
        value = f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return "raises", type(exc)
    return value, type(value)


def test_each_rings_pow_matches_the_generic_pow():
    """A ring's own pow against CoefficientRing.pow: for n >= 0, and for
    n < 0 over fields (both invert) and other rings (both refuse).  No
    result is a float, and each has the generic result's type."""
    rng = random.Random(39)
    for ring, draw in _kernel_rings(rng):
        for a in [ring.zero(), ring.one()] + [draw() for _ in range(6)]:
            for n in range(-6, 41):
                got, want = _outcome(ring.pow, a, n), _outcome(CoefficientRing.pow, ring, a, n)
                assert got == want and got[1] is not float, (ring, a, n)


def test_each_rings_series_walks_match_the_generic_walks():
    """series_times_factor on a ring's own walk kernels against the base
    class's generic walks, for every step t <= 36 and multiplicities on
    both sides of the walk choice, on series holding explicit zeros."""
    rng = random.Random(39)
    n = 36
    for ring, draw in _kernel_rings(rng):
        generic = _GenericWalks(ring)
        for t in range(1, n + 1):
            for g in list(range(-6, 7)) + [100003, -100003]:
                s = [ring.one()] + [draw() for _ in range(n)]
                x = draw()
                while ring.is_zero(x):  # a zero factor leaves s alone
                    x = draw()
                got, want = list(s), list(s)
                series_times_factor(ring, got, x, t, g)
                series_times_factor(generic, want, x, t, g)
                assert got == want, (ring, t, g)
                assert [type(v) for v in got] == [type(v) for v in want], (ring, t, g)


def test_ring_parsing():
    assert ring_from_string("Z") is ZZ
    assert ring_from_string("Q") is QQ
    assert ring_from_string("Z/8").modulus == 8
    assert ring_from_string("F5").modulus == 5
    assert ring_from_string("F_7").modulus == 7
    assert ring_from_string("GF(3)").modulus == 3
    with pytest.raises(ValueError):
        ring_from_string("F4")
    with pytest.raises(ValueError):
        ModularRing(1)


def test_rationals_are_ints_when_integral():
    for value, expected in (
        (QQ.from_int(3), 3), (QQ.parse("4/2"), 2), (QQ.parse("-7"), -7),
        (QQ.inv(-1), -1), (QQ.inv(Fraction(1, 3)), 3),
    ):
        assert value == expected and type(value) is int
    for value, expected in (
        (QQ.parse("1/2"), Fraction(1, 2)), (QQ.inv(2), Fraction(1, 2)), (QQ.inv(Fraction(2, 3)), Fraction(3, 2)),
    ):
        assert value == expected and type(value) is Fraction
    # sums and products are not normalised: an integral Fraction equals,
    # hashes and prints as its int
    assert QQ.mul(QQ.parse("1/2"), 2) == 1 and hash(Fraction(2)) == hash(2)
    assert QQ.show(2) == QQ.show(Fraction(2)) == "2"
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero())


def test_modular_arithmetic():
    R = ModularRing(9)
    assert R.add(5, 7) == 3
    assert R.mul(5, 7) == 8
    assert R.pow(2, 10) == 2 ** 10 % 9
    F = PrimeField(7)
    assert F.mul(F.inv(3), 3) == 1


def test_poly_quotient_field():
    F2 = PrimeField(2)
    F4 = QuotientPolynomialRing(F2, (1, 1, 1))  # x^2 + x + 1
    assert F4.is_field
    x = F4.gen()
    assert F4.mul(x, x) == F4.add(x, F4.one())  # x^2 = x + 1
    inv = F4.inv(x)
    assert F4.mul(inv, x) == F4.one()
    elems = list(F4.elements())
    assert len(elems) == 4
    R = QuotientPolynomialRing(F2, (0, 0, 1))  # x^2, not a field
    assert not R.is_field


def test_miller_rabin_agrees_with_trial_division():
    small = [p for p in range(2, 317) if all(p % d for d in range(2, p))]
    for n in range(10 ** 5):
        expected = n >= 2 and all(n % p for p in small if p * p <= n)
        assert is_prime(n) == expected, n


def test_miller_rabin_rejects_pseudoprimes_and_accepts_large_primes():
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801)
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    strong = (3215031751, 3825123056546413051, 318665857834031151167461)
    for n in carmichael + strong:
        assert not is_prime(n), n
    for n in (2 ** 61 - 1, 2 ** 31 - 1, 11111111111111111111111, 10 ** 9 + 7):
        assert is_prime(n), n
    # at the bound the 13 bases stop deciding: it is composite and passes all of them
    with pytest.raises(SizeGuard, match=str(PRIME_TEST_BOUND)):
        is_prime(PRIME_TEST_BOUND)
    with pytest.raises(SizeGuard):
        PrimeField(2 ** 89 - 1)


def test_quadratic_and_cubic_quotients_of_fp_are_decided_for_every_prime():
    from polygonic.hochschild import FiniteAlgebra, LabelledCycle, hh_complex, homology

    # x^2 + 1 is irreducible exactly when p = 3 mod 4
    assert QuotientPolynomialRing(PrimeField(65519), (1, 0, 1)).is_field
    for p in (65521, 65537):
        assert not QuotientPolynomialRing(PrimeField(p), (1, 0, 1)).is_field
    K = QuotientPolynomialRing(PrimeField(10 ** 9 + 7), (1, 0, 1))
    assert K.is_field
    # the k[C2] 2-cycle over it: k[C2] is separable in odd characteristic
    C2 = FiniteAlgebra.poly_quotient(K, (K.from_int(-1), K.zero(), K.one()), name="k[C2]")
    assert homology(hh_complex(LabelledCycle.uniform(C2, None, 2), 3)) == [2, 0, 0]
    # degree 4 or more is not decided, so it reads as a non-field
    assert not QuotientPolynomialRing(PrimeField(10 ** 9 + 7), (1, 0, 0, 0, 1)).is_field


def test_gauss_counts_irreducible_quadratics_and_cubics():
    # Over F_p there are (p^2 - p)/2 monic irreducible quadratics and
    # (p^3 - p)/3 monic irreducible cubics, and each is one without a root,
    # found here by evaluating at every residue
    for p in (2, 3, 5, 7, 11, 13):
        F = PrimeField(p)
        for deg, count in ((2, (p * p - p) // 2), (3, (p ** 3 - p) // 3)):
            fields = 0
            for low in product(range(p), repeat=deg):
                modulus = low + (1,)
                rootless = all(sum(c * r ** k for k, c in enumerate(modulus)) % p for r in range(p))
                assert QuotientPolynomialRing(F, modulus).is_field == rootless, (p, modulus)
                fields += rootless
            assert fields == count, (p, deg)


def test_large_prime_quotients_follow_the_residue_criteria():
    # x^2 - a has a root iff a is a square: Euler's criterion.  x^3 - a
    # always has a root when p = 2 mod 3, since cubing is then a bijection;
    # when p = 1 mod 3 it has one iff a^((p - 1)/3) = 1
    rng = random.Random(34)
    for p in (65537, 10 ** 9 + 7, 2 ** 61 - 1):
        F = PrimeField(p)
        verdicts = set()
        for a in [2, 3, 5, 7] + [rng.randrange(1, p) for _ in range(12)]:
            square = pow(a, (p - 1) // 2, p) == 1
            cube = p % 3 == 2 or pow(a, (p - 1) // 3, p) == 1
            quadratic = QuotientPolynomialRing(F, (p - a, 0, 1)).is_field
            cubic = QuotientPolynomialRing(F, (p - a, 0, 0, 1)).is_field
            assert (quadratic, cubic) == (not square, not cube), (p, a)
            verdicts.add((quadratic, cubic))
        # both verdicts occur for each degree, cubes only where p = 1 mod 3
        assert {q for q, _ in verdicts} == {True, False}, p
        assert {c for _, c in verdicts} == ({False} if p % 3 == 2 else {True, False}), p


def test_small_extension_fields_invert_every_nonzero_element():
    for p, modulus in ((2, (1, 1, 0, 1)), (3, (1, 0, 1)), (5, (3, 0, 1)), (3, (1, 2, 0, 1))):
        R = QuotientPolynomialRing(PrimeField(p), modulus)  # F_8, F_9, F_25, F_27
        assert R.is_field
        nonzero = [a for a in R.elements() if not R.is_zero(a)]
        assert len(nonzero) == p ** R.deg - 1
        for a in nonzero:
            assert R.mul(a, R.inv(a)) == R.one(), (p, modulus, a)


def test_degree_one_quotient_of_a_field_is_a_field():
    from polygonic.hochschild import FiniteAlgebra, LabelledCycle, hh_complex, homology

    K = QuotientPolynomialRing(PrimeField(5), (2, 1))  # F5[x]/(x + 2)
    L = QuotientPolynomialRing(QQ, (Fraction(-3, 2), 1))  # Q[x]/(x - 3/2)
    assert K.is_field and L.is_field
    # a linear modulus has a root, yet the quotient is the base field: no
    # root search, so no guard
    assert QuotientPolynomialRing(PrimeField(10 ** 9 + 7), (1, 1)).is_field
    nonzero = [a for a in K.elements() if not K.is_zero(a)]
    assert len(nonzero) == 4
    for R, elements in ((K, nonzero), (L, [L.gen(), (Fraction(-7, 3),), L.from_int(5)])):
        for a in elements:
            assert R.mul(a, R.inv(a)) == R.one()
    # the k[C2] 2-cycle over it: k[C2] is separable in characteristic 5
    C2 = FiniteAlgebra.poly_quotient(K, (K.from_int(-1), K.zero(), K.one()), name="k[C2]")
    assert homology(hh_complex(LabelledCycle.uniform(C2, None, 2), 3)) == [2, 0, 0]


def test_quadratic_and_cubic_quotients_of_q_are_decided():
    from polygonic.hochschild import FiniteAlgebra, LabelledCycle, hh_complex, homology

    gaussian = QuotientPolynomialRing(QQ, (1, 0, 1))  # Q(i)
    cube_root = QuotientPolynomialRing(QQ, (-2, 0, 0, 1))  # Q(2^(1/3))
    rng = random.Random(13)
    for R in (gaussian, cube_root):
        assert R.is_field
        for _ in range(20):
            a = tuple(QQ.parse(f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}") for _ in range(R.deg))
            if any(a):
                assert R.mul(a, R.inv(a)) == R.one()
    # x^2 - 4/9 and x^3 - 8/27 have the root 2/3
    assert not QuotientPolynomialRing(QQ, (Fraction(-4, 9), 0, 1)).is_field
    assert not QuotientPolynomialRing(QQ, (Fraction(-8, 27), 0, 0, 1)).is_field
    # cubics with three real roots: none rational (x^3 - 3x + 1 and, by
    # Eisenstein at 7, x^3 - 7x + 7), one rational ((x - 1/2)(x^2 - 3)) or
    # a rational double root ((x - 1)^2 (x + 2))
    for modulus, field in (((1, -3, 0, 1), True), ((7, -7, 0, 1), True),
                           ((Fraction(3, 2), -3, Fraction(-1, 2), 1), False), ((2, -3, 0, 1), False)):
        assert QuotientPolynomialRing(QQ, modulus).is_field == field, modulus
    # from degree 4 on, a quotient of Q reads as a non-field
    assert not QuotientPolynomialRing(QQ, (1, 0, 0, 0, 1)).is_field
    # k[C3] over Q(w), w^2 + w + 1 = 0, is a product of three copies of Q(w)
    K = QuotientPolynomialRing(QQ, (1, 1, 1))
    C3 = FiniteAlgebra.poly_quotient(K, (K.from_int(-1), K.zero(), K.zero(), K.one()), name="k[C3]")
    assert homology(hh_complex(LabelledCycle.uniform(C3, None, 1), 3)) == [3, 0, 0]
