"""Truncation sets: finite divisor-closed sets of positive integers.

These index every level structure in the package (Witt vector supports,
Mackey window levels).  Only finite sets are materialized; conceptually
infinite families enter through explicit window bounds elsewhere.
"""

from .cyclic import Value


def is_truncation_set(candidate):
    """True iff xy in the set implies both x and y are in it.

    For a finite set of positive integers this is equivalent to being closed
    under divisors.
    """
    elems = set(candidate)
    if any(x < 1 for x in elems):
        return False
    for t in elems:
        for d in range(1, t + 1):
            if t % d == 0 and d not in elems:
                return False
    return True


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
