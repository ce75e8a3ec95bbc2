"""Windowed Mackey modules on quasifinite Z-sets at the abelian-group level.

A module assigns a finitely presented abelian group A(n) to each level n of a
divisor-closed window, with restriction maps F (up the divisibility order),
transfer maps V (down), and an order-n automorphism at level n.  All
statements are window-exact: levels beyond the window are treated as zero.
"""

from __future__ import annotations

import random
from math import gcd, lcm

from .cyclic import Value
from .qfin import SpanMorphism, _check_tail, compose_spans
from .rings import (
    ZZ,
    IntMatrix,
    _int_rows,
    invariant_factors,
    invariant_factors_of_rows,
)
from .truncation import TruncationSet


# ---------------------------------------------------------------------------
# Finitely presented abelian groups and their homomorphisms.


class FPGroup(Value):
    """Z^ngens modulo the row span of the presentation matrix."""

    __slots__ = ("ngens", "relations", "_invariants")

    def __init__(self, ngens, relations):
        if relations.cols != ngens:
            raise ValueError("presentation width must equal ngens")
        self.ngens, self.relations = ngens, relations
        self._invariants = None  # invariant_factors(relations), once read

    @classmethod
    def free(cls, ngens):
        return cls(ngens, IntMatrix.zeros(ZZ, 0, ngens))

    @classmethod
    def zero(cls):
        return cls(0, IntMatrix.zeros(ZZ, 0, 0))

    def relation_rows(self):
        """The relations as fresh sparse rows (dicts generator -> nonzero int)."""
        return _int_rows(self.relations)

    def invariants(self):
        """(torsion factors > 1, free rank)."""
        if self._invariants is None:
            self._invariants = invariant_factors(self.relations)
        torsion, free = self._invariants
        return list(torsion), free

    def is_zero_group(self):
        torsion, free = self.invariants()
        return not torsion and free == 0

    def _rows_with(self, elements):
        """The relation rows followed by copies of the elements, which
        elimination may then change in place."""
        rows = self.relation_rows()
        for x in elements:
            for j in x:
                if not 0 <= j < self.ngens:
                    raise ValueError(f"element index {j} is outside range({self.ngens})")
            rows.append({j: v for j, v in x.items() if v})
        return rows

    def are_zero(self, elements):
        """Does every element (a sparse vector, dict generator -> int) vanish?

        The group maps onto its quotient by the elements; a surjection
        between isomorphic finitely generated abelian groups is injective, so
        the elements vanish exactly when the quotient has the group's
        invariants, which are memoized.
        """
        return invariant_factors_of_rows(self._rows_with(elements), self.ngens) == self.invariants()

    def quotient_by(self, elements):
        """The quotient by the subgroup the elements (sparse vectors) generate."""
        rows = self._rows_with(elements)
        entries = {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}
        return FPGroup(self.ngens, IntMatrix(ZZ, len(rows), self.ngens, entries))


class Hom(Value):
    """Homomorphism of presented groups, a matrix on generators."""

    __slots__ = ("dom", "cod", "matrix")

    def __init__(self, dom, cod, matrix):
        if matrix.rows != cod.ngens or matrix.cols != dom.ngens:
            raise ValueError("hom matrix shape mismatch")
        self.dom, self.cod, self.matrix = dom, cod, matrix

    @classmethod
    def identity(cls, G):
        return cls(G, G, IntMatrix.identity(ZZ, G.ngens))

    def is_well_defined(self):
        return self.cod.are_zero([self.matrix.apply(rel) for rel in self.dom.relation_rows()])

    def after(self, other):
        if other.cod.ngens != self.dom.ngens:
            raise ValueError("homs are not composable")
        return Hom(other.dom, self.cod, self.matrix.mul(other.matrix))

    def add(self, other):
        return Hom(self.dom, self.cod, self.matrix.add(other.matrix))

    def power(self, k):
        result = Hom.identity(self.dom)
        for _ in range(k):
            result = self.after(result)
        return result

    def equal(self, other):
        if self.matrix == other.matrix:
            return True
        return self.cod.are_zero(self.matrix.sub(other.matrix).columns())


class GroupWithAction(Value):
    __slots__ = ("group", "action", "order")

    def __init__(self, group, action, order):
        self.group, self.action, self.order = group, action, order

    def action_hom(self):
        return Hom(self.group, self.group, self.action)

    def validate(self):
        h = self.action_hom()
        if not h.is_well_defined():
            return False
        return h.power(self.order).equal(Hom.identity(self.group))


def coinvariants(A: GroupWithAction):
    """Quotient by all differences x - (action)x."""
    return A.group.quotient_by(IntMatrix.identity(ZZ, A.group.ngens).sub(A.action).columns())


# ---------------------------------------------------------------------------
# Mackey windows.


class MackeyWindow(Value):
    """Level groups with restriction, transfer, and level automorphisms.

    res[(n, m)] : A(n) -> A(m) and tr[(n, m)] : A(m) -> A(n) for each divisor
    pair n | m in the window; weyl[n] generates the order-n action on A(n).
    """

    __slots__ = ("window", "groups", "weyl", "res", "tr", "_weyl_powers", "_up", "_down")
    __hash__ = None  # its fields are dicts

    def __init__(self, window, groups, weyl, res, tr):
        for n in window:
            if n not in groups or n not in weyl:
                raise ValueError(f"level {n} lacks group or action data")
        self.window, self.groups, self.weyl, self.res, self.tr = window, groups, weyl, res, tr
        # level n -> [weyl^0, weyl^1, ...], grown up to the highest power read
        self._weyl_powers = {}
        # the matrices of up_leg and down_leg, keyed (b, l, t mod b) and
        # (l, a, s mod a)
        self._up, self._down = {}, {}

    def group(self, n):
        if n not in self.window:
            raise ValueError(f"level {n} is outside the window")
        return self.groups[n]

    def weyl_hom(self, n, k=1):
        g = self.group(n)
        powers = self._weyl_powers.get(n)
        if powers is None:
            powers = self._weyl_powers[n] = [Hom.identity(g)]
        while len(powers) <= k % n:
            powers.append(Hom(g, g, self.weyl[n]).after(powers[-1]))
        return powers[k % n]

    def res_hom(self, n, m):
        """F from level n up to level m (n | m)."""
        if m % n != 0:
            raise ValueError(f"{n} does not divide {m}")
        if n == m:
            return Hom.identity(self.group(n))
        return Hom(self.group(n), self.group(m), self.res[(n, m)])

    def tr_hom(self, m, n):
        """V from level m down to level n (n | m)."""
        if m % n != 0:
            raise ValueError(f"{n} does not divide {m}")
        if n == m:
            return Hom.identity(self.group(n))
        return Hom(self.group(m), self.group(n), self.tr[(n, m)])

    def up_leg(self, b, l, t):
        """The matrix of F from level b to level l after weyl_b^t."""
        key = (b, l, t % b)
        leg = self._up.get(key)
        if leg is None:
            leg = self._up[key] = self.res_hom(b, l).matrix.mul(self.weyl_hom(b, t).matrix)
        return leg

    def down_leg(self, l, a, s):
        """The matrix of weyl_a^(-s) after V from level l down to level a."""
        key = (l, a, s % a)
        leg = self._down.get(key)
        if leg is None:
            leg = self._down[key] = self.weyl_hom(a, -s).matrix.mul(self.tr_hom(l, a).matrix)
        return leg

    def proper_multiples(self, n):
        return tuple(m for m in self.window if m % n == 0 and m != n)

    def to_json(self):
        return {
            "window": self.window.to_json(),
            "levels": {
                str(n): {
                    "relations": self.groups[n].relations.to_lists(),
                    "ngens": self.groups[n].ngens,
                    "weyl": self.weyl[n].to_lists(),
                }
                for n in self.window
            },
            "res": {f"{n}|{m}": mat.to_lists() for (n, m), mat in self.res.items()},
            "tr": {f"{n}|{m}": mat.to_lists() for (n, m), mat in self.tr.items()},
        }


def evaluate_span(M: MackeyWindow, span: SpanMorphism):
    """The homomorphism A(target level) -> A(source level) of a span.

    Per apex orbit Z/l with leg shifts (s, t): twist by the level-b action t
    times, restrict to level l, transfer to level a, and untwist by the
    level-a action s times; orbits are summed.  Spans compose contravariantly
    into composition of these maps.  Each term is the product of its two
    memoized legs, down_leg(l, a, s) after up_leg(b, l, t), added straight
    into the columns of the sum.
    """
    if span.source.size != 1 or span.target.size != 1:
        raise ValueError("evaluate_span needs single-orbit ends")
    a = span.source.orbits[0]
    b = span.target.orbits[0]
    for level in (a, b) + span.apex.orbits:
        if level not in M.window:
            raise ValueError(f"orbit size {level} is outside the window")
    dom, cod = M.groups[b], M.groups[a]
    columns = [{} for _ in range(dom.ngens)]
    add = ZZ.add_multiple
    for l, (_, s), (_, t) in zip(span.apex.orbits, span.left.assign, span.right.assign):
        down = M.down_leg(l, a, s).columns()
        for column, up in zip(columns, M.up_leg(b, l, t).columns()):
            for k, c in up.items():
                add(column, c, down[k])
    return Hom(dom, cod, IntMatrix.from_columns(ZZ, cod.ngens, columns))


# ---------------------------------------------------------------------------
# Axioms.


class AxiomReport(Value):
    __slots__ = ("ok", "checked", "failures")
    __hash__ = None  # failures is a list, and record changes the report

    def __init__(self, ok=True, checked=0, failures=None):
        self.ok, self.checked = ok, checked
        self.failures = [] if failures is None else failures

    def record(self, ok, message):
        self.checked += 1
        if not ok:
            self.ok = False
            self.failures.append(message)


def _random_span(rng, levels, src=None, tgt=None):
    a = src if src is not None else rng.choice(levels)
    b = tgt if tgt is not None else rng.choice(levels)
    m = lcm(a, b)
    multiples = [l for l in levels if l % m == 0]
    if not multiples:
        return None
    l = rng.choice(multiples)
    return SpanMorphism.single(a, l, b, rng.randrange(a), rng.randrange(b))


def check_mackey_axioms(M: MackeyWindow, trials=100, seed=0):
    """Functoriality, action orders, equivariance, and span composition.

    Randomized spans exercise the double-coset identities; the report carries
    the first located failures.
    """
    rng = random.Random(seed)
    report = AxiomReport()
    levels = list(M.window)

    for n in levels:
        # weyl[n] itself: weyl_hom(1) reads weyl^(1 % 1), the identity
        w = Hom(M.group(n), M.group(n), M.weyl[n])
        report.record(w.is_well_defined(), f"weyl at level {n} not well defined")
        report.record(
            w.power(n).equal(Hom.identity(M.group(n))),
            f"weyl at level {n} does not have order dividing {n}",
        )

    for n in levels:
        for m in M.proper_multiples(n):
            F = M.res_hom(n, m)
            V = M.tr_hom(m, n)
            report.record(F.is_well_defined(), f"res {n}->{m} not well defined")
            report.record(V.is_well_defined(), f"tr {m}->{n} not well defined")
            lhs = M.weyl_hom(m).after(F)
            rhs = F.after(M.weyl_hom(n))
            report.record(lhs.equal(rhs), f"res {n}->{m} not equivariant")
            lhs = V.after(M.weyl_hom(m))
            rhs = M.weyl_hom(n).after(V)
            report.record(lhs.equal(rhs), f"tr {m}->{n} not equivariant")
            for k in M.proper_multiples(m):
                lhs = M.res_hom(m, k).after(M.res_hom(n, m))
                report.record(
                    lhs.equal(M.res_hom(n, k)), f"res functoriality fails {n}|{m}|{k}"
                )
                lhs = M.tr_hom(m, n).after(M.tr_hom(k, m))
                report.record(
                    lhs.equal(M.tr_hom(k, n)), f"tr functoriality fails {n}|{m}|{k}"
                )

    for _ in range(trials):
        mid = rng.choice(levels)
        s1 = _random_span(rng, levels, tgt=mid)
        s2 = _random_span(rng, levels, src=mid)
        if s1 is None or s2 is None:
            continue
        composite = compose_spans(s2, s1)
        if any(l not in M.window for l in composite.apex.orbits):
            continue
        lhs = evaluate_span(M, composite)
        rhs = evaluate_span(M, s1).after(evaluate_span(M, s2))
        same = lhs.equal(rhs)  # the message is built only for a failure
        report.record(same, None if same else f"span composition fails on {s1.orbit_data()} ; {s2.orbit_data()}")
    return report


# ---------------------------------------------------------------------------
# Transfers, geometric fixed points, conservativity.


def infinite_transfer_sum(M: MackeyWindow, family, tail=None):
    """Sum of transfers of the family (level, element) into A(1).

    The family is the window-visible part of a conceptually infinite one;
    a declared tail whose sizes reach into the window is rejected.
    """
    _check_tail(tail, M.window.max())
    total = [0] * M.group(1).ngens
    for n, x in family:
        if n not in M.window:
            raise ValueError(f"family level {n} is outside the window")
        if n < 2:
            raise ValueError("transfer family levels must be >= 2")
        v = M.tr_hom(n, 1).matrix.mul_vec(x)
        total = [p + q for p, q in zip(total, v)]
    return total


def geometric_fixed_points(M: MackeyWindow, n):
    """A(n) modulo the images of all transfers from proper multiples.

    The level-n action descends to the quotient; the result carries it.
    """
    if n not in M.window:
        raise ValueError(f"level {n} is outside the window")
    quotient = M.group(n).quotient_by(
        x for m in M.proper_multiples(n) for x in M.tr_hom(m, n).matrix.columns())
    return GroupWithAction(quotient, M.weyl[n], n)


def scale_restrict(M: MackeyWindow, n):
    """Reindex: level k of the result is level n*k of M; window divides.
    No command reaches it; test_mackey checks it against the axioms."""
    window = M.window.divide(n)
    groups = {k: M.groups[n * k] for k in window}
    weyl = {k: M.weyl[n * k] for k in window}
    res = {}
    tr = {}
    for k in window:
        for l in window:
            if l % k == 0 and l != k:
                res[(k, l)] = M.res[(n * k, n * l)]
                tr[(k, l)] = M.tr[(n * k, n * l)]
    return MackeyWindow(window, groups, weyl, res, tr)


def check_conservativity(M: MackeyWindow):
    """Report geometric-fixed-point vanishing and transfer generation.

    When every Phi(n) vanishes, a module with well-defined maps is zero at
    every level, so each level group is (vacuously) generated by proper
    transfers.  Work down from the top of the window: a level with no proper
    multiple has A(n) = Phi(n) = 0; and once A(m) = 0 for every proper
    multiple m of n, the transfers into A(n) send the generators of A(m),
    which lie in its relations, into the relations of A(n), so A(n) = Phi(n)
    = 0.  transfer_generated therefore reads: every level group is zero.
    """
    gfp = {}
    for n in M.window:
        g = geometric_fixed_points(M, n)
        gfp[n] = g.group.invariants()
    nonzero = [n for n in M.window if gfp[n] != ([], 0)]
    report = {
        "gfp_invariants": gfp,
        "all_gfp_zero": not nonzero,
        "nonzero_levels": nonzero,
    }
    if nonzero:
        report["applicable"] = False
        return report
    report["applicable"] = True
    report["transfer_generated"] = all(M.group(n).is_zero_group() for n in M.window)
    return report


def proper_transfer_core(M: MackeyWindow):
    """Largest part of the module supported on chains of proper transfers.

    Iterates L <- (relations + proper-transfer images of L) from the full
    module downwards until stable; within a finite window the chains fall
    off the top of the window, so the core collapses to zero.  Level n's
    lattice L is held as the group Z^ngens / L, whose relation rows generate
    L, and the core's rank there is the free rank of A(n) less that of
    Z^ngens / L.  Returns the iteration trace and the resulting window (zero
    at every level).
    """
    quotients = {n: M.group(n).quotient_by({i: 1} for i in range(M.group(n).ngens)) for n in M.window}
    trace = []
    while True:
        new = {
            n: M.group(n).quotient_by(
                M.tr_hom(m, n).matrix.apply(r) for m in M.proper_multiples(n) for r in quotients[m].relation_rows()
            )
            for n in M.window
        }
        trace.append({n: M.group(n).invariants()[1] - new[n].invariants()[1] for n in M.window})
        # The new lattices lie in the old: the first old ones are everything,
        # and each step applies the same maps to smaller lattices.  So the
        # two are equal when the old generators vanish in the new quotient.
        if all(new[n].are_zero(quotients[n].relation_rows()) for n in M.window):
            break
        quotients = new
    # The core is zero at n when its lattice lies in the relations.
    if not all(M.group(n).are_zero(quotients[n].relation_rows()) for n in M.window):
        raise AssertionError("proper-transfer core did not collapse; window is not finite-exact")
    zero = FPGroup.zero()
    zmat = IntMatrix.zeros(ZZ, 0, 0)
    window = M.window
    return MackeyWindow(
        window,
        {n: zero for n in window},
        {n: zmat for n in window},
        {(n, m): zmat for n in window for m in window if m % n == 0 and m != n},
        {(n, m): zmat for n in window for m in window if m % n == 0 and m != n},
    ), trace


# ---------------------------------------------------------------------------
# The Burnside-representable windows.


def burnside_basis(n, m, window):
    """Canonical span classes Z/n <- Z/l -> Z/m: keys (l, t), t < gcd(n, m)."""
    out = []
    for l in window:
        if l % lcm(n, m) == 0:
            for t in range(gcd(n, m)):
                out.append((l, t))
    return out


def burnside_representable(m, window):
    """The window of span classes into Z/m, free at every level.

    Restriction, transfer, and the level actions act by span composition
    followed by apex canonicalization.
    """
    if m not in window:
        raise ValueError(f"{m} is not in the window")
    bases = {n: burnside_basis(n, m, window) for n in window}
    index = {n: {key: i for i, key in enumerate(bases[n])} for n in window}
    groups = {n: FPGroup.free(len(bases[n])) for n in window}

    def precompose(n, k, span):
        """Each basis span Z/n <- Z/l -> Z/m after span: Z/k <- . -> Z/n, as
        the columns of a map from level n to level k.  An apex orbit Z/l'
        with leg shifts s and t is the basis span (l', (t - s) mod gcd(k, m))."""
        cols = []
        g = gcd(k, m)
        for l, t in bases[n]:
            composed = compose_spans(SpanMorphism.single(n, l, m, 0, t), span)
            col = {}
            for (apex, _, s1, _, s2) in composed.orbit_data():
                if apex in window:
                    i = index[k][(apex, (s2 - s1) % g)]
                    col[i] = col.get(i, 0) + 1
            cols.append(col)
        return IntMatrix.from_columns(ZZ, len(bases[k]), cols)

    # The generator precomposes with the shift span at level n, F from n to
    # k with Z/k <- Z/k -> Z/n, and V from k to n with Z/n <- Z/k -> Z/k.
    weyl = {n: precompose(n, n, SpanMorphism.single(n, n, n, (-1) % n, 0)) for n in window}
    pairs = [(n, k) for n in window for k in window if k % n == 0 and k != n]
    res = {(n, k): precompose(n, k, SpanMorphism.single(k, k, n)) for n, k in pairs}
    tr = {(n, k): precompose(k, n, SpanMorphism.single(n, k, k)) for n, k in pairs}
    return MackeyWindow(window, groups, weyl, res, tr)
