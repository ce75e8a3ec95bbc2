"""Truncation sets: finite divisor-closed sets of positive integers.

These index every level structure in the package (Witt vector supports,
Mackey window levels).  Only finite sets are materialized; conceptually
infinite families enter through explicit window bounds elsewhere.
"""

from .cyclic import Value
from .rings import is_prime


def is_truncation_set(candidate):
    """True iff xy in the set implies both x and y are in it.

    For a finite set of positive integers this is equivalent to being closed
    under divisors, and so to holding 1 and t/p for each element t and each
    prime p | t.  Such a set holds every prime factor of its elements, so
    its primes are its atoms: the elements > 1 that no smaller element > 1
    divides.  Each element is divided by the atoms up to the square root of
    what is left of it, and what is left past them must be 1, itself (a new
    atom) or an atom of the set.  The atoms are tested for primality last,
    deterministically: one at or above rings.PRIME_TEST_BOUND raises
    SizeGuard.
    """
    elems = sorted(set(candidate))
    if elems and elems[0] != 1:
        return False
    members, atoms = set(elems), []
    for t in elems[1:]:
        rest = t
        for p in atoms:
            if p * p > rest:
                break
            if rest % p == 0:
                if t // p not in members:
                    return False
                rest //= p
                while rest % p == 0:
                    rest //= p
        if rest == t:
            atoms.append(t)
        elif rest > 1 and (rest not in members or t // rest not in members):
            return False
    return all(map(is_prime, atoms))


class TruncationSet(Value):
    __slots__ = ("elements", "_members")

    def __init__(self, elements):
        elems = tuple(sorted(set(elements)))
        if not is_truncation_set(elems):
            raise ValueError(f"{list(elems)} is not divisor-closed")
        self.elements, self._members = elems, frozenset(elems)

    @classmethod
    def divisors(cls, n):
        """The set of divisors of n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls(tuple(d for d in range(1, n + 1) if n % d == 0))

    @classmethod
    def interval(cls, n):
        """{1, ..., n}."""
        if n < 1:
            raise ValueError("N must be >= 1")
        return cls(tuple(range(1, n + 1)))

    def divide(self, n):
        """{t in T : n*t in T}; again a truncation set."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return TruncationSet(tuple(t for t in self.elements if n * t in self))

    def __contains__(self, t):
        return t in self._members

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def max(self):
        return self.elements[-1] if self.elements else 0

    def is_interval(self):
        return self.elements == tuple(range(1, len(self.elements) + 1))

    def to_json(self):
        return list(self.elements)

    def __repr__(self):
        return "TruncationSet(" + ",".join(map(str, self.elements)) + ")"
