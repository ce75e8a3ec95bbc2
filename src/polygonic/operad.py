"""The coloured operad of cyclic bimodule shapes and its envelope category.

Objects are finite sets coloured by paths on a fixed cycle; morphisms carry a
linear order on every fiber, constrained so that the colour sequence of a
fiber is admissible for the colour of its target.  Operations of the operad
itself are recorded as sets of permutations.
"""

from __future__ import annotations

from itertools import permutations

from .cyclic import (
    CutSet,
    CyclicMap,
    Path,
    SizeGuard,
    Value,
    delta_degeneracy,
    delta_face,
    dual_fibers,
    is_admissible,
    path_label,
    path_pushforward,
    pull_back_labels,
)


MUL_ARITY_GUARD = 8


def mul_set(seq, target):
    """Permutations sigma for which the sigma-reordering of seq is admissible.

    Empty when no order works.  Permutations are one-line tuples, listed in
    lexicographic order.
    """
    if len(seq) > MUL_ARITY_GUARD:
        raise SizeGuard(f"operation arity is guarded at {MUL_ARITY_GUARD}")
    out = []
    for sigma in permutations(range(len(seq))):
        if is_admissible([seq[i] for i in sigma], target):
            out.append(sigma)
    return out


class ColouredSet(Value):
    __slots__ = ("n", "colours")

    def __init__(self, n, colours):
        for c in colours:
            if not isinstance(c, Path) or c.n != n:
                raise ValueError(f"colour {c} does not live on the {n}-cycle")
        self.n, self.colours = n, colours

    @property
    def size(self):
        return len(self.colours)

    @classmethod
    def from_cut(cls, cut: CutSet):
        return cls(cut.cycle_n, cut.colours())


class EnvelopeMorphism(Value):
    """Map of coloured sets with ordered fibers.

    f[x] is the target index of source element x; fiber_orders[y] lists
    f^{-1}(y) in its chosen order, whose colour sequence must be admissible
    for the colour of y.
    """

    __slots__ = ("source", "target", "f", "fiber_orders")

    def __init__(self, source, target, f, fiber_orders):
        if len(f) != source.size or len(fiber_orders) != target.size:
            raise ValueError("morphism data does not match the sets")
        seen = set()
        for y, fiber in enumerate(fiber_orders):
            for x in fiber:
                if f[x] != y or x in seen:
                    raise ValueError("fiber orders do not partition the source")
                seen.add(x)
        if len(seen) != source.size:
            raise ValueError("fiber orders do not cover the source")
        for y, fiber in enumerate(fiber_orders):
            seq = [source.colours[x] for x in fiber]
            if not is_admissible(seq, target.colours[y]):
                raise ValueError(
                    f"fiber {fiber} over element {y} carries a non-admissible colour sequence"
                )
        self.source, self.target, self.f, self.fiber_orders = source, target, f, fiber_orders

    @classmethod
    def identity(cls, X):
        return cls(X, X, tuple(range(X.size)), tuple((x,) for x in range(X.size)))


def envelope_compose(g, f):
    """g after f; composite fibers ordered lexicographically (outer by g).
    No command reaches it; acceptance criteria 2 and 3 and perfbench/ do."""
    if f.target != g.source:
        raise ValueError("target of the first morphism != source of the second")
    comp = tuple(g.f[f.f[x]] for x in range(f.source.size))
    fibers = []
    for z in range(g.target.size):
        fiber = []
        for y in g.fiber_orders[z]:
            fiber.extend(f.fiber_orders[y])
        fibers.append(tuple(fiber))
    return EnvelopeMorphism(f.source, g.target, comp, tuple(fibers))


def pushforward(f: CyclicMap, X: ColouredSet):
    """Recolour along a cycle map: same elements, colours pushed forward."""
    if X.n != f.source_n:
        raise ValueError("coloured set does not live on the source of the map")
    return ColouredSet(f.target_n, tuple(path_pushforward(f, c) for c in X.colours))


# ---------------------------------------------------------------------------
# Envelope structure maps of cut sets.


def cut_envelope_delta(cut: CutSet, alpha, q_lo):
    """Envelope morphism from the given cut level to level q_lo along alpha.

    alpha is a monotone map [q_lo] -> [cut.q] given as a value tuple; the
    result merges the elements of the finer level into the coarser one.
    """
    if len(alpha) != q_lo + 1 or any(alpha[i] > alpha[i + 1] for i in range(q_lo)):
        raise ValueError("alpha must be a monotone value tuple")
    lo = CutSet(q_lo, cut.n, cut.p)
    underlying, fibers = dual_fibers(lo.position_map(alpha, CyclicMap.identity(cut.cycle_n), cut.q))
    return EnvelopeMorphism(ColouredSet.from_cut(cut), ColouredSet.from_cut(lo), underlying, fibers)


def cut_face(cut: CutSet, i):
    """The i-th face, 0 <= i <= q."""
    return cut_envelope_delta(cut, delta_face(cut.q, i), cut.q - 1)


def cut_degeneracy(cut: CutSet, i):
    """The i-th degeneracy, 0 <= i <= q.  No command reaches it; the
    simplicial identities of test_cyclic and test_hochschild check it."""
    return cut_envelope_delta(cut, delta_degeneracy(cut.q, i), cut.q + 1)


def cut_envelope_cyclic(cut: CutSet, f: CyclicMap):
    """Comparison morphism along an injective cycle map f into cut's cycle.

    The target cut set lives over f's source cycle but is recoloured through
    f, so the admissibility constraint is checked against the pushed colours.
    Returns (morphism, target_cut); the morphism's target carries the pushed
    colours.
    """
    if f.target_n != cut.cycle_n:
        raise ValueError("map does not land on the cut set's cycle")
    lo = CutSet(cut.q, f.source_n)
    underlying, fibers = dual_fibers(lo.position_map(range(cut.q + 1), f, cut.q))
    pushed = pushforward(f, ColouredSet.from_cut(lo))
    return EnvelopeMorphism(ColouredSet.from_cut(cut), pushed, underlying, fibers), lo


def cut_quotient_check(cover: CutSet):
    """Verify the covering square: free action (every orbit has exactly p
    elements), order p (the p-th iterate of the action is the identity),
    colour-compatible.

    Returns a report dict; raises nothing.
    """
    p = cover.p
    plain = CutSet(cover.q, cover.n)
    report = {"free": True, "order_p": True, "square_commutes": True}
    for e in range(cover.size):
        orbit, x = [], e
        while x not in orbit:
            orbit.append(x)
            x = cover.action(x)
        if len(orbit) != p:
            report["free"] = False
        x = e
        for _ in range(p):
            x = cover.action(x)
        if x != e:
            report["order_p"] = False
        if len(set(cover.quotient_element(y) for y in orbit)) != 1:
            report["square_commutes"] = False
        q_elt = cover.quotient_element(e)
        c_cover = cover.colour(e)
        c_plain = plain.colour(q_elt)
        same_shape = (
            c_cover.is_vertex == c_plain.is_vertex
            and c_cover.start % cover.n == c_plain.start
        )
        if not same_shape:
            report["square_commutes"] = False
    return report


# ---------------------------------------------------------------------------
# Labelled cycle specifications (opaque handles; resolution happens in the
# homology layer).


def tensor_handle(left, middle, right):
    return ("tensor", left, middle, right)


class LabelledCycleSpec(Value):
    """An n-cycle with vertex handles (algebras) and edge handles (bimodules).

    Edge a runs from vertex a to vertex a+1 (indices mod n).  Handles are
    opaque: strings or nested tensor triples produced by contraction.
    """

    __slots__ = ("n", "vertices", "edges")

    def __init__(self, n, vertices, edges):
        if n < 1 or len(vertices) != n or len(edges) != n:
            raise ValueError("label counts must equal the cycle length")
        self.n, self.vertices, self.edges = n, vertices, edges

    def label(self, path: Path):
        """The handle of a vertex, an edge, or two edges fused across the
        vertex between them."""
        n, vertices, edges = self.n, self.vertices, self.edges
        return path_label(
            path, vertices, edges, lambda a: tensor_handle(edges[a], vertices[(a + 1) % n], edges[(a + 1) % n]))

    def pull_back(self, f: CyclicMap):
        """The spec on f's source labelled by pull_back_labels."""
        return LabelledCycleSpec(f.source_n, *pull_back_labels(f, self.label))

    def rotate(self, k):
        """Shift all labels by k: the new label at slot a is the old one at a+k."""
        return self.pull_back(CyclicMap.rotation(self.n, k))

    def contract(self, a):
        """Fuse edges a and a+1 across vertex a+1 (mod n) into one handle."""
        return self.pull_back(CyclicMap.contraction(self.n, a))

    def to_json(self):
        def enc(h):
            if isinstance(h, tuple):
                return [enc(x) for x in h]
            return h

        return {"n": self.n, "vertices": [enc(v) for v in self.vertices], "edges": [enc(e) for e in self.edges]}

    @classmethod
    def from_json(cls, data):
        def dec(h):
            if isinstance(h, list):
                return tuple(dec(x) for x in h)
            return h

        if not (
            isinstance(data, dict)
            and isinstance(data.get("n"), int)
            and all(isinstance(data.get(k), list) for k in ("vertices", "edges"))
        ):
            raise ValueError("a spec is an object with an integer 'n' and lists 'vertices' and 'edges'")
        return cls(
            data["n"],
            tuple(dec(v) for v in data["vertices"]),
            tuple(dec(e) for e in data["edges"]),
        )
