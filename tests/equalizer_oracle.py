"""Reference paths for the Witt equalizer, used by the tests only.

`trial_members` grows the members one support index at a time and tries
every value of the box (every residue over Z/m) against every member so far.
`ghost_section` decides the ghost image by back-substitution, not by Dwork's
congruences.  `oracle_report` puts the two together in the shape of
`witt.equalizer_report`.  `equalizer_membership` decides one family by the
defining congruences.
"""

from math import gcd


def _primes_dividing(t):
    return [p for p in range(2, t + 1) if t % p == 0 and all(p % d for d in range(2, p))]


def trial_members(ring, support, box):
    """All families with w_t = w_{t/p} mod p (mod gcd(p, m) over Z/m) for
    each prime p | t, with entries in [-box, box] over Z and in [0, m) over
    Z/m, in lexicographic order."""
    integers = ring.kind == "integers"
    domain = range(-box, box + 1) if integers else range(ring.modulus)
    members = [()]
    for t in support:
        conditions = [
            (support.elements.index(t // p), p if integers else gcd(p, ring.modulus)) for p in _primes_dividing(t)
        ]
        members = [w + (v,) for w in members for v in domain if all((v - w[j]) % n == 0 for j, n in conditions)]
    return members


def equalizer_membership(ring, support, values):
    """Does the family (w_t) satisfy w_t = w_{t/p} mod p (mod gcd(p, m) over
    Z/m) for every prime p | t?"""
    m = 0 if ring.kind == "integers" else ring.modulus
    w = dict(zip(support.elements, values))
    return all((w[t] - w[t // p]) % gcd(p, m) == 0 for t in support for p in _primes_dividing(t))


def ghost_section(values, support):
    """Integer Witt coordinates with the given ghost values, or None.

    Triangular back-substitution: a_t = (w_t - sum_{d|t, d<t} d a_d^{t/d})/t
    must stay integral at every level.
    """
    coeffs = {}
    for t in support:
        acc = values[support.elements.index(t)]
        for d in support:
            if d < t and t % d == 0:
                acc -= d * coeffs[d] ** (t // d)
        if acc % t != 0:
            return None
        coeffs[t] = acc // t
    return coeffs


def oracle_report(ring, support, box):
    members = trial_members(ring, support, box)
    strict = [list(w) for w in members if ghost_section(list(w), support) is None]
    return {
        "support": support.to_json(),
        "box": box,
        "lift_validation": [],
        "is_subgroup": True,
        "equalizer_size": len(members),
        "ghost_image_size": len(members) - len(strict),
        "equals_ghost_image": not strict,
        "first_strict_members": strict[:5],
    }
