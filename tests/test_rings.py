import random
from itertools import combinations
from math import gcd

import pytest

from polygonic.rings import (
    QQ,
    ZZ,
    DimensionMismatch,
    IntMatrix,
    ModularRing,
    NonFieldRing,
    PrimeField,
    QuotientPolynomialRing,
    column_space_basis,
    det_int,
    in_column_span,
    invariant_factors,
    presented_group_quotient,
    rank_and_kernel,
    rank_of,
    ring_from_string,
    smith_normal_form,
    solve_int,
)


def mat(rows, ring=ZZ):
    return IntMatrix.from_rows(ring, rows)


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


def test_rank_and_kernel_examples():
    F2 = PrimeField(2)
    r, basis = rank_and_kernel(mat([[1, 1], [1, 1]], F2))
    assert r == 1 and len(basis) == 1
    assert basis[0] == [1, 1]

    r, basis = rank_and_kernel(IntMatrix.identity(QQ, 4))
    assert r == 4 and basis == []

    r, basis = rank_and_kernel(mat([[1, 2, 3]], QQ))
    assert r == 1 and len(basis) == 2


def test_rank_and_kernel_annihilates():
    rng = random.Random(1)
    for ring in (QQ, PrimeField(5)):
        for _ in range(25):
            m, n = rng.randrange(1, 5), rng.randrange(1, 6)
            A = mat([[ring.from_int(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(m)], ring)
            r, basis = rank_and_kernel(A)
            assert r + len(basis) == n
            assert r == rank_of(A)
            for v in basis:
                assert all(ring.is_zero(x) for x in A.mul_vec(v))


def test_rank_of_matches_dense_on_sparse_matrices():
    rng = random.Random(9)
    F3 = PrimeField(3)
    for _ in range(20):
        m, n = rng.randrange(1, 8), rng.randrange(1, 8)
        entries = {}
        for _ in range(rng.randrange(0, m * n // 2 + 1)):
            entries[(rng.randrange(m), rng.randrange(n))] = F3.from_int(rng.randrange(1, 3))
        A = IntMatrix(F3, m, n, entries)
        r, _ = rank_and_kernel(A)
        assert rank_of(A) == r
        assert len(column_space_basis(A)) == r


def test_rank_requires_field():
    with pytest.raises(NonFieldRing):
        rank_and_kernel(mat([[2]]))


def test_presented_group_quotient():
    # Z^2 / <(0,1)> = Z
    P = presented_group_quotient(IntMatrix.zeros(ZZ, 0, 2), [[0, 1]])
    assert invariant_factors(P) == ([], 1)
    # (Z/4) / <2> = Z/2
    P = presented_group_quotient(mat([[4]]), [[2]])
    assert invariant_factors(P) == ([2], 0)
    # Z / <> = Z
    P = presented_group_quotient(IntMatrix.zeros(ZZ, 0, 1), [])
    assert invariant_factors(P) == ([], 1)
    with pytest.raises(DimensionMismatch):
        presented_group_quotient(mat([[4]]), [[1, 0]])


def test_solve_and_membership():
    A = mat([[2, 0], [0, 3]])
    assert solve_int(A, [4, 9]) == [2, 3]
    assert solve_int(A, [1, 0]) is None
    assert in_column_span([[2, 0], [0, 3]], [4, 3])
    assert not in_column_span([[2, 0], [0, 3]], [1, 0])


def test_sparse_dense_agree():
    rng = random.Random(5)
    rows = [[rng.randrange(-3, 4) for _ in range(6)] for _ in range(6)]
    dense = IntMatrix(ZZ, 6, 6, rows, sparse=False)
    sparse = IntMatrix(ZZ, 6, 6, rows, sparse=True)
    assert dense == sparse
    assert dense.mul(sparse) == sparse.mul(dense)
    D1, _, _ = smith_normal_form(dense)
    D2, _, _ = smith_normal_form(sparse)
    assert D1 == D2


def test_matrix_json_roundtrip():
    A = mat([[1, 0, -2], [0, 5, 0]])
    B = IntMatrix.from_json(A.to_json())
    assert A == B
    assert A.to_json()["entries"] == [[0, 0, "1"], [0, 2, "-2"], [1, 1, "5"]]


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
