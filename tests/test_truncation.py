import pytest

from polygonic.cyclic import SizeGuard
from polygonic.truncation import TruncationSet, is_truncation_set


def test_is_truncation_set():
    assert is_truncation_set({1, 2, 4})
    assert not is_truncation_set({2, 4})
    assert is_truncation_set({1, 2, 3, 6})
    assert is_truncation_set(set())
    assert not is_truncation_set({0, 1})


def test_is_truncation_set_matches_the_definition():
    # every subset of [1..14] against "each element's divisors are in it";
    # with 0 or a negative entry no set is one
    for mask in range(1 << 14):
        s = {t for t in range(1, 15) if mask >> (t - 1) & 1}
        assert is_truncation_set(s) == all(d in s for t in s for d in range(1, t + 1) if t % d == 0), s
        for bad in (0, -1, -4):
            assert not is_truncation_set(s | {bad}), (s, bad)


def test_is_truncation_set_needs_no_walk_up_to_its_elements():
    assert is_truncation_set({1, 1000000007})
    assert is_truncation_set({1, 3, 1000000007, 3000000021})
    assert not is_truncation_set({1, 3, 3000000021})
    assert not is_truncation_set({1, 2, 4, 8, 2 ** 90})  # 2^89 is missing
    assert not is_truncation_set({1, 1000000007 ** 2})  # an atom that is no prime
    # a prime atom past the deterministic primality bound is refused
    with pytest.raises(SizeGuard):
        is_truncation_set({1, 2 ** 89 - 1})


def test_divide_examples():
    assert TruncationSet.interval(4).divide(2).elements == (1, 2)
    T = TruncationSet((1, 2, 3, 6))
    assert T.divide(1) == T
    assert TruncationSet.divisors(6).divide(2).elements == (1, 3)


def test_named_sets():
    assert TruncationSet.divisors(12).elements == (1, 2, 3, 4, 6, 12)
    assert TruncationSet.interval(1).elements == (1,)
    assert TruncationSet.divisors(1).elements == (1,)


def test_invalid_set_rejected():
    with pytest.raises(ValueError):
        TruncationSet((2, 4))


def all_truncation_sets(bound):
    """Every divisor-closed subset of {1..bound} (DFS over maxima)."""
    sets = [frozenset()]
    for n in range(1, bound + 1):
        divisors = frozenset(d for d in range(1, n + 1) if n % d == 0) - {n}
        sets += [s | {n} for s in sets if divisors <= s]
    return sets


def test_divide_composition_exhaustive():
    # (T/n)/m = T/(nm) over every truncation set with max <= 24 would be a
    # large family; the divisor structure only sees max <= 12 sets plus the
    # standard families up to 24, which cover all shapes.
    small = [TruncationSet(tuple(s)) for s in all_truncation_sets(12)]
    big = [TruncationSet.interval(k) for k in range(1, 25)] + [
        TruncationSet.divisors(k) for k in range(1, 25)
    ]
    for T in small + big:
        for n in range(1, 25):
            for m in range(1, 25):
                if n * m > 24:
                    continue
                assert T.divide(n).divide(m) == T.divide(n * m)


def test_divide_never_enlarges():
    for k in range(1, 25):
        T = TruncationSet.interval(k)
        for n in range(1, 6):
            assert set(T.divide(n)) <= set(T)


def test_json():
    assert TruncationSet.divisors(6).to_json() == [1, 2, 3, 6]
