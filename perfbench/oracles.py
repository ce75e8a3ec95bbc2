"""Answers computed from the mathematics alone.

Nothing here imports polygonic: every function works on plain integers,
fractions and lists, so a wrong answer from the library cannot also make
the oracle wrong.  test_oracles.py shows that each oracle rejects a
deliberately corrupted answer.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm


# ----------------------------------------------------------------- integers


def det_fraction_free(rows):
    """Determinant of a square integer matrix by Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def determinantal_divisors(rows):
    """d_k = gcd of all k x k minors, for k = 1 .. min(shape); 0 past the rank."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    out = []
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                g = gcd(g, det_fraction_free([[rows[i][j] for j in cs] for i in rs]))
                if g == 1:
                    break
            if g == 1:
                break
        out.append(g)
        if g == 0:
            out.extend([0] * (min(nr, nc) - k))
            break
    return out


def invariant_factors(rows, ncols):
    """(torsion factors > 1, free rank) of Z^ncols modulo the row lattice."""
    divisors = determinantal_divisors(rows) if rows else []
    torsion, rank, prev = [], 0, 1
    for d in divisors:
        if d == 0:
            break
        rank += 1
        s = d // prev
        if s > 1:
            torsion.append(s)
        prev = d
    return torsion, ncols - rank


# ---------------------------------------------------------- Hochschild (HH)


def integral_hh_truncated_poly(n, degree_bound):
    """HH_q of Z[x]/(x^n) for q < degree_bound: H0 = Z^n,
    H_odd = Z/n + Z^(n-1), H_even>=2 = Z^(n-1)."""
    out = [([], n)]
    for q in range(1, degree_bound):
        out.append(([n], n - 1) if q % 2 else ([], n - 1))
    return out


def integral_hh_cyclic_group(n, degree_bound):
    """HH_q of Z[C_n] for q < degree_bound: H0 = Z^n, H_odd = (Z/n)^n, H_even>=2 = 0."""
    out = [([], n)]
    for q in range(1, degree_bound):
        out.append(([n] * n, 0) if q % 2 else ([], 0))
    return out


def uniform_bar_dims(label_dim, n, degree_bound):
    """Dimensions of the bar complex of a uniform n-cycle whose vertex and
    edge labels all have dimension label_dim: level q has n(q+1) factors."""
    return [label_dim ** (n * (q + 1)) for q in range(degree_bound + 1)]


def _rank_mod_p(vectors, p):
    pivots = {}
    for v in vectors:
        v = [x % p for x in v]
        for col, row in pivots.items():
            if v[col]:
                c = v[col]
                v = [(a - c * b) % p for a, b in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = pow(v[lead], -1, p)
        v = [(x * inv) % p for x in v]
        for col in list(pivots):
            row = pivots[col]
            if row[lead]:
                c = row[lead]
                pivots[col] = [(a - c * b) % p for a, b in zip(row, v)]
        pivots[lead] = v
    return len(pivots)


def _act(table, coeffs_a, coeffs_m, dim, p, left):
    """Apply an action tensor to coefficient vectors (mod p)."""
    out = [0] * dim
    for i, a in enumerate(coeffs_a):
        if a % p == 0:
            continue
        for m, c in enumerate(coeffs_m):
            if c % p == 0:
                continue
            vec = table[i][m] if left else table[m][i]
            for k, x in enumerate(vec):
                out[k] = (out[k] + a * c * int(x)) % p
    return out


def two_cycle_hh0_dim(p, dim_a, dim_b, m_left, m_right, dim_m, n_left, n_right, dim_n):
    """dim HH_0 of the 2-cycle (A, B; M, N) over F_p: M (x) N modulo
    m b (x) n - m (x) b n and a m (x) n - m (x) n a.

    Action tensors as plain nested lists: m_left[i][m] is e_i . f_m,
    m_right[m][j] is f_m . e_j (coefficient vectors).
    """
    size = dim_m * dim_n

    def tensor(u, v):
        return [u[i] * v[j] % p for i in range(dim_m) for j in range(dim_n)]

    def unit(k, d):
        return [1 if i == k else 0 for i in range(d)]

    relations = []
    for m in range(dim_m):
        for n in range(dim_n):
            fm, fn = unit(m, dim_m), unit(n, dim_n)
            for b in range(dim_b):
                eb = unit(b, dim_b)
                lhs = tensor(_act(m_right, eb, fm, dim_m, p, left=False), fn)
                rhs = tensor(fm, _act(n_left, eb, fn, dim_n, p, left=True))
                relations.append([(x - y) % p for x, y in zip(lhs, rhs)])
            for a in range(dim_a):
                ea = unit(a, dim_a)
                lhs = tensor(_act(m_left, ea, fm, dim_m, p, left=True), fn)
                rhs = tensor(fm, _act(n_right, ea, fn, dim_n, p, left=False))
                relations.append([(x - y) % p for x, y in zip(lhs, rhs)])
    return size - _rank_mod_p(relations, p)


def matrix_power_is_identity(rows, n, modulus=None):
    """Is rows^n the identity?  Entries are ints or Fractions; a modulus
    reduces every product (prime-field coefficients)."""
    size = len(rows)
    ident = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]

    def reduce(x):
        return x % modulus if modulus else x

    power = ident
    for _ in range(n):
        power = [
            [reduce(sum(Fraction(rows[i][k]) * power[k][j] for k in range(size))) for j in range(size)]
            for i in range(size)
        ]
    return power == ident


# --------------------------------------------------------------- Witt, ghost


def ghost(coeffs, support):
    """Ghost coordinates over Z: w_t = sum_{d | t, d in support} d a_d^(t/d)."""
    return {t: sum(d * pow(a, t // d) for d, a in coeffs.items() if t % d == 0) for t in support}


def witt_from_ghost(w, support):
    """Witt coordinates over Z with the given ghost coordinates, by
    a_t = (w_t - sum_{d | t, d < t} d a_d^(t/d)) / t; raises if w is not a ghost vector."""
    a = {}
    for t in sorted(support):
        q, r = divmod(w[t] - sum(d * pow(x, t // d) for d, x in a.items() if t % d == 0), t)
        if r:
            raise ValueError(f"not a ghost vector at index {t}")
        a[t] = q
    return a


def ghost_of_add(ga, gb):
    return {t: ga[t] + gb[t] for t in ga}


def ghost_of_multiply(ga, gb):
    return {t: ga[t] * gb[t] for t in ga}


def ghost_of_frobenius(ga, n, target):
    """w_t(F_n a) = w_{nt}(a) on the n-division of the support."""
    return {t: ga[n * t] for t in target}


def ghost_of_verschiebung(ga, n, target):
    """w_t(V_n a) = n w_{t/n}(a) when n | t, else 0."""
    return {t: n * ga[t // n] if t % n == 0 else 0 for t in target}


def reduce(x, modulus):
    """x mod m, or x itself over Z (modulus None)."""
    return x % modulus if modulus else x


# ------------------------------------------------- qfin, cyclic, truncation


def pullback_orbits(a, b, u):
    """Pullback of Z/a -> Z/u <- Z/b: gcd(a, b)/u orbits of size lcm(a, b)."""
    return [lcm(a, b)] * (gcd(a, b) // u)


def hom_set_size(n, m):
    """Canonical nondecreasing equivariant maps [n] -> [m]: m * C(m+n-1, n-1)."""
    return m * comb(m + n - 1, n - 1)


def is_canonical_map(vals, n, m):
    return (
        len(vals) == n
        and 0 <= vals[0] < m
        and all(vals[i] <= vals[i + 1] for i in range(n - 1))
        and vals[-1] <= vals[0] + m
    )


def verschiebung_support(elements, n):
    """Default target of V_n: every divisor of n t for t in the support."""
    return sorted({d for t in elements for d in range(1, n * t + 1) if (n * t) % d == 0})


def divide_set(elements, n):
    """T/n = {t : n t in T}."""
    members = set(elements)
    return sorted(t for t in range(1, max(members, default=0) + 1) if n * t in members)


# ------------------------------------------------------------------ Mackey


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def mat_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def double_coset_sum(n, m, weyl_n, res_n_l, tr_l_m, size_n, size_m):
    """sum_{c < gcd(n, m)} tr_{l->m} res_{n->l} w_n^c, l = lcm(n, m), as the
    matrix of A(n) -> A(m) (free level groups)."""
    total = [[0] * size_n for _ in range(size_m)]
    step = mat_identity(size_n)
    base = mat_mul(tr_l_m, res_n_l)
    for _ in range(gcd(n, m)):
        term = mat_mul(base, step)
        total = [[x + y for x, y in zip(r, s)] for r, s in zip(total, term)]
        step = mat_mul(weyl_n, step)
    return total
