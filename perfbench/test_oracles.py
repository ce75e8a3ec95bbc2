"""Self-tests of the benchmark's oracles: each accepts the right answer and
rejects one deliberately corrupted answer, so no check is vacuous.

    python3 -m pytest -q perfbench/test_oracles.py

These tests import nothing from polygonic.
"""

from fractions import Fraction
from types import SimpleNamespace

import oracles
import workloads


def test_invariant_factors_from_determinantal_divisors():
    # U diag(2, 6, 0) V with unimodular U, V: factors [2, 6], free rank 1.
    rows = [[2, 0, 0], [0, 6, 0], [0, 0, 0]]
    mixed = [[2, 6, 0], [2, 12, 0], [4, 6, 0]]  # rows of U * diag, U = [[1,1,0],[1,2,0],[2,1,1]]
    assert oracles.invariant_factors(rows, 3) == ([2, 6], 1)
    assert oracles.invariant_factors(mixed, 3) == ([2, 6], 1)
    assert oracles.invariant_factors(mixed, 3) != ([4, 6], 1)  # one factor doubled
    assert oracles.invariant_factors([[1, 2], [3, 4]], 2) == ([2], 0)
    assert oracles.det_fraction_free([[0, 1], [1, 0]]) == -1


def test_dense_answer_rejects_doubled_factor():
    rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    expected = oracles.invariant_factors(rows, 3)
    assert workloads._factors_answer(expected) == expected
    torsion, free = expected
    corrupted = ([2 * torsion[0]] + torsion[1:] if torsion else [2], free)
    assert workloads._factors_answer(corrupted) != expected


def test_integral_hh_closed_forms():
    assert oracles.integral_hh_truncated_poly(2, 4) == [([], 2), ([2], 1), ([], 1), ([2], 1)]
    assert oracles.integral_hh_truncated_poly(3, 3) == [([], 3), ([3], 2), ([], 2)]
    assert oracles.integral_hh_cyclic_group(3, 3) == [([], 3), ([3, 3, 3], 0), ([], 0)]
    assert oracles.integral_hh_cyclic_group(2, 3) != [([], 2), ([2], 0), ([], 0)]


def test_rotation_answer_rejects_wrong_homology():
    report = {
        "commutes_with_boundary": True,
        "order_exact": True,
        "homology_dims": [2, 0, 0],
        "homology_action": [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], [], []],
    }
    expected = (True, True, [2, 0, 0], True)
    assert workloads._rotation_answer(3, None, report) == expected
    assert workloads._rotation_answer(3, None, dict(report, homology_dims=[2, 1, 0])) != expected
    swap = [[[0, 1], [1, 0]], [], []]
    assert workloads._rotation_answer(2, 3, dict(report, homology_action=swap)) == expected
    assert workloads._rotation_answer(3, 3, dict(report, homology_action=swap)) != expected


def test_uniform_bar_dims():
    assert oracles.uniform_bar_dims(2, 3, 3) == [8, 64, 512, 4096]
    assert oracles.uniform_bar_dims(2, 2, 3) == [4, 16, 64, 256]


def _regular(mult, dim):
    left = [[mult[i][m] for m in range(dim)] for i in range(dim)]
    right = [[mult[m][j] for j in range(dim)] for m in range(dim)]
    return left, right


def test_two_cycle_hh0():
    one = [[[1]]]
    left, right = _regular(one, 1)
    assert oracles.two_cycle_hh0_dim(3, 1, 1, left, right, 1, left, right, 1) == 1
    # F3[C2] with basis 1, x and x^2 = 1: commutative, so HH_0 of the
    # regular 2-cycle is the algebra itself.
    c2 = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    left, right = _regular(c2, 2)
    assert oracles.two_cycle_hh0_dim(3, 2, 2, left, right, 2, left, right, 2) == 2
    assert oracles.two_cycle_hh0_dim(3, 2, 2, left, right, 2, left, right, 2) != 1


def test_trace_property_answer_rejects_mismatch():
    report = {"chain_map": True, "quasi_iso": True, "source_homology": [1, 0, 0], "target_homology": [1, 0, 0]}
    assert workloads._trace_property_answer(report) == (True, True, True, 1)
    bad = dict(report, target_homology=[1, 1, 0])
    assert workloads._trace_property_answer(bad) != (True, True, True, 1)
    assert workloads._contraction_answer(report) == (True, True, [1, 0, 0], [1, 0, 0])
    assert workloads._contraction_answer(dict(report, source_homology=[2, 1, 0])) != (True, True, [1, 0, 0], [1, 0, 0])


def _witt(support, coeffs):
    return SimpleNamespace(support=SimpleNamespace(elements=tuple(support)), as_dict=lambda: dict(coeffs))


def test_ghost_oracles():
    support = [1, 2, 3, 4]
    assert oracles.ghost({1: 2, 2: 0, 3: 0, 4: 0}, support) == {1: 2, 2: 4, 3: 8, 4: 16}
    one = {1: 1, 2: 0, 3: 0, 4: 0}
    # [1] + [1] in W(Z) has ghost (2, 2, 2, 2), so coordinates (2, -1, -2, -4).
    two = oracles.witt_from_ghost(oracles.ghost_of_add(oracles.ghost(one, support), oracles.ghost(one, support)), support)
    assert two == {1: 2, 2: -1, 3: -2, 4: -4}
    assert oracles.ghost(two, support) != oracles.ghost({1: 2, 2: -1, 3: -2, 4: -3}, support)
    assert oracles.ghost_of_frobenius({1: 3, 2: 5, 3: 7, 4: 9}, 2, [1, 2]) == {1: 5, 2: 9}
    assert oracles.ghost_of_verschiebung({1: 5, 2: 7}, 2, [1, 2, 4]) == {1: 0, 2: 10, 4: 14}
    try:
        oracles.witt_from_ghost({1: 0, 2: 1}, [1, 2])
    except ValueError:
        pass
    else:
        raise AssertionError("(0, 1) is not a ghost vector over Z")


def test_witt_answer_rejects_changed_coordinate():
    support = [1, 2, 3, 4]
    a = {1: 1, 2: 3, 3: -2, 4: 5}
    b = {1: -4, 2: 0, 3: 7, 4: 1}
    for kind, n in (("add", None), ("multiply", None), ("frobenius", 2), ("verschiebung", 2)):
        for modulus in (None, 8, 9):
            target, coords = workloads._witt_expect(kind, modulus, (support, a), (support, b), n)
            assert workloads._witt_coords(modulus, _witt(target, coords)) == (target, coords)
            changed = dict(coords)
            changed[target[-1]] += 1
            assert workloads._witt_coords(modulus, _witt(target, changed)) != (target, coords)
    # Over Z/8, [1] + [1] is (2, -1, -2, -4) reduced mod 8.
    one = (support, {1: 1, 2: 0, 3: 0, 4: 0})
    assert workloads._witt_expect("add", 8, one, one, None) == (support, {1: 2, 2: 7, 3: 6, 4: 4})


def test_combinatorial_closed_forms():
    assert oracles.pullback_orbits(4, 6, 2) == [12]
    assert oracles.pullback_orbits(4, 6, 1) == [12, 12]
    assert oracles.hom_set_size(2, 2) == 6
    assert oracles.hom_set_size(1, 3) == 3
    assert oracles.is_canonical_map((0, 2), 2, 2) and not oracles.is_canonical_map((0, 3), 2, 2)
    assert oracles.divide_set([1, 2, 3, 4], 2) == [1, 2]
    assert oracles.divide_set([1, 2, 3, 6], 3) == [1, 2]
    assert oracles.verschiebung_support([1, 2], 2) == [1, 2, 4]


def test_double_coset_sum():
    # Free rank-1 levels, trivial action: the sum counts gcd(n, m) terms.
    one = [[1]]
    assert oracles.double_coset_sum(2, 4, one, one, one, 1, 1) == [[2]]
    assert oracles.double_coset_sum(3, 4, one, one, one, 1, 1) == [[1]]
    swap = [[0, 1], [1, 0]]
    ident = oracles.mat_identity(2)
    assert oracles.double_coset_sum(2, 2, swap, ident, ident, 2, 2) == [[1, 1], [1, 1]]
    assert oracles.double_coset_sum(2, 2, swap, ident, ident, 2, 2) != [[2, 0], [0, 2]]
