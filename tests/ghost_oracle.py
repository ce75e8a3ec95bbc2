"""Reference ghost map for the tests: the logarithmic derivative of a
vector's series, by dense series products and inversion.

`witt.ghost` sums d * a_d^(t/d) over the divisors; nothing here shares code
with it.  The dense products also serve the tests as the reference for the
library's series kernel `series_times_factor`.
"""

from polygonic.witt import GhostVector, to_series


def series_mul(ring, s, t):
    """s * t, truncated at the lower of their degrees."""
    n = min(len(s), len(t)) - 1
    out = [ring.zero()] * (n + 1)
    for i, x in enumerate(s[: n + 1]):
        if ring.is_zero(x):
            continue
        for j in range(0, n + 1 - i):
            y = t[j]
            if not ring.is_zero(y):
                out[i + j] = ring.add(out[i + j], ring.mul(x, y))
    return out


def series_inv(ring, s):
    """Inverse of a series with constant term 1."""
    n = len(s) - 1
    out = [ring.one()] + [ring.zero()] * n
    for k in range(1, n + 1):
        acc = ring.zero()
        for i in range(1, k + 1):
            acc = ring.add(acc, ring.mul(s[i], out[k - i]))
        out[k] = ring.neg(acc)
    return out


def ghost_oracle(a):
    """Independent ghost computation: coefficients of tau d/dtau log(series).

    With f = prod (1 - a_t tau^t)^(-1) one has tau f'/f = sum_n w_n tau^n;
    computed from f and f' by series division, so it never uses the
    divisor-sum formula.  Needs a torsion-free coefficient ring to be a
    faithful oracle, but is computable over any ring.
    """
    f = to_series(a)
    ring = a.ring
    n = len(f) - 1
    deriv = [ring.mul(ring.from_int(k), f[k]) for k in range(n + 1)]  # tau f'
    inv = series_inv(ring, f)
    w = series_mul(ring, deriv, inv)
    return GhostVector(a.support, tuple(w[t] for t in a.support))
