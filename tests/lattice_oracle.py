"""Reference lattice containment for the tests, on dense integer vectors.

`FPGroup.are_zero` decides the same question on the sparse element form,
from memoized invariant factors; `test_mackey.py` checks it against this.
"""

from polygonic.rings import invariant_factors_of_rows


def lattice_contains(gens, vectors, ngens):
    """Do the integer vectors all lie in the Z-span L of gens, in Z^ngens?

    Both are lists of dense integer vectors.  L + span(vectors) contains L,
    so Z^ngens / L maps onto Z^ngens / (L + span(vectors)); a surjection
    between isomorphic finitely generated abelian groups is injective, so
    the vectors lie in L exactly when both quotients have the same
    invariant factors and free rank.
    """
    if any(len(vec) != ngens for vec in (*gens, *vectors)):
        raise ValueError(f"lattice vectors must have length {ngens}")

    def quotient(vecs):
        rows = [{j: v for j, v in enumerate(vec) if v} for vec in vecs]
        return invariant_factors_of_rows(rows, ngens)

    return quotient(gens) == quotient(list(gens) + list(vectors))
