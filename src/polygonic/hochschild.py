"""Cyclic bar complexes of labelled cycles over a field.

A labelled cycle is an n-cycle whose vertices carry finite-dimensional
algebras and whose edges carry bimodules between consecutive vertex
algebras.  The level-q piece of its bar complex is the tensor product of the
labels of the level-q cut set; faces are induced by the envelope structure
maps, so every boundary identity reduces to cut-set combinatorics.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import product
from math import prod

from .cyclic import _FACE_CACHE, CutSet, CyclicMap, Path, SizeGuard, Value, path_label, pull_back_labels
from .operad import EnvelopeMorphism, cut_envelope_cyclic, cut_face
from .rings import (
    Echelon,
    IntMatrix,
    QQ,
    _json_fields,
    invariant_factors_of_rows,
    kernel_basis,
    monic,
    poly_reduce,
    ring_from_json,
)


# ---------------------------------------------------------------------------
# Linear-algebra helpers over a field (dense vectors are plain lists, sparse
# ones dicts index -> nonzero coefficient).


def _unit_vector(field, dim, i):
    """Basis vector i of field^dim as a tuple (the zero vector for i = None)."""
    return tuple(field.one() if t == i else field.zero() for t in range(dim))


def _combo_mul(field, terms_a, terms_b, mult_table):
    """Product of two sparse linear combinations through a bilinear basis
    table: mult_table[i][j] is the vector of the product of basis i and j.

    Algebra multiplication and both bimodule actions are such products.
    """
    zero = field.zero()
    out = {}
    for i, c in terms_a.items():
        for j, d in terms_b.items():
            coeff = field.mul(c, d)
            for k, e in enumerate(mult_table[i][j]):
                if field.is_zero(e):
                    continue
                val = field.add(out.get(k, zero), field.mul(coeff, e))
                if field.is_zero(val):
                    out.pop(k, None)
                else:
                    out[k] = val
    return out


def _dense_mul(field, u, v, mult_table, dim):
    """_combo_mul on dense vectors, with a dense result of length dim."""
    out = _combo_mul(
        field,
        {i: a for i, a in enumerate(u) if not field.is_zero(a)},
        {j: b for j, b in enumerate(v) if not field.is_zero(b)},
        mult_table,
    )
    zero = field.zero()
    return [out.get(k, zero) for k in range(dim)]


def _associative(field, dims, xy, xy_z, yz, x_yz):
    """First basis triple (i, j, k), in lexicographic order, at which
    (x_i y_j) z_k != x_i (y_j z_k), or None.

    x y is read from table xy and times z through xy_z; y z from yz, and x
    times it through x_yz.  The algebra law and the three bimodule laws
    (left, right, commuting actions) are all of this form.
    """
    one = field.one()
    for i, j in product(range(dims[0]), range(dims[1])):
        ij = _combo_mul(field, {i: one}, {j: one}, xy)
        for k in range(dims[2]):
            jk = _combo_mul(field, {j: one}, {k: one}, yz)
            if _combo_mul(field, ij, {k: one}, xy_z) != _combo_mul(field, {i: one}, jk, x_yz):
                return i, j, k
    return None


def _json_table(field, table, depth):
    """Nested JSON lists of the given depth, as tuples of parsed entries."""
    if depth == 0:
        if not isinstance(table, (str, int)):
            raise ValueError(f"{table!r} is not a coefficient")
        return field.parse(str(table))
    if not isinstance(table, list):
        raise ValueError(f"{table!r} is not a list")
    return tuple(_json_table(field, row, depth - 1) for row in table)


def _frozen(table, shape, message):
    """table as nested tuples with the given lengths, outermost first, so it
    hashes and compares as its tuple twin; ValueError(message) unless it is
    nested tuples/lists of that shape."""
    if not shape:
        return table
    if not isinstance(table, (tuple, list)) or len(table) != shape[0]:
        raise ValueError(message)
    return tuple(_frozen(row, shape[1:], message) for row in table)


# ---------------------------------------------------------------------------
# Algebras and bimodules.


class FiniteAlgebra(Value):
    """Associative unital algebra by structure constants on a fixed basis:
    mult[i][j] is the vector of e_i e_j."""

    __slots__ = ("field", "dim", "mult", "unit", "name")

    def __init__(self, field, dim, mult, unit, name=""):
        if not field.is_field:
            raise ValueError("algebras need field coefficients")
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"algebra dimension must be an integer >= 1, got {dim!r}")
        self.field, self.dim, self.name = field, dim, name
        self.mult = _frozen(mult, (dim,) * 3, f"multiplication table must be {dim}x{dim}x{dim}")
        self.unit = _frozen(unit, (dim,), f"unit must have {dim} coordinates")
        bad = _associative(self.field, (self.dim,) * 3, self.mult, self.mult, self.mult, self.mult)
        if bad is not None:
            raise ValueError("associativity fails at basis ({},{},{})".format(*bad))
        for i in range(self.dim):
            e = self._basis(i)
            if self.mul_vec(self.unit, e) != e or self.mul_vec(e, self.unit) != e:
                raise ValueError("unit axiom fails")

    def _basis(self, i):
        return list(_unit_vector(self.field, self.dim, i))

    def mul_vec(self, u, v):
        return _dense_mul(self.field, u, v, self.mult, self.dim)

    @classmethod
    def ground(cls, field):
        one = field.one()
        return cls(field, 1, (((one,),),), (one,), name="k")

    @classmethod
    def matrix_algebra(cls, field, n):
        """n x n matrices; basis E_{ab} at index a*n + b."""
        cells = [divmod(i, n) for i in range(n * n)]
        mult = tuple(
            tuple(_unit_vector(field, n * n, a * n + d if b == c else None) for c, d in cells)
            for a, b in cells
        )
        unit = tuple(field.one() if a == b else field.zero() for a, b in cells)
        return cls(field, n * n, mult, unit, name=f"M{n}")

    @classmethod
    def poly_quotient(cls, field, modulus, name=""):
        """field[x]/(modulus), modulus monic of degree d, basis 1, x, ...;
        an input constructor of the tests, CI and perfbench/."""
        modulus = monic(field, modulus)
        d = len(modulus) - 1
        mult = tuple(
            tuple(poly_reduce(field, modulus, _unit_vector(field, 2 * d, i + j)) for j in range(d)) for i in range(d))
        return cls(field, d, mult, _unit_vector(field, d, 0), name=name or "k[x]/(f)")

    def to_json(self):
        f = self.field
        return {
            "field": f.to_json(),
            "dim": self.dim,
            "mult": [[[f.show(c) for c in vec] for vec in row] for row in self.mult],
            "unit": [f.show(c) for c in self.unit],
            "name": self.name,
        }

    @classmethod
    def from_json(cls, data):
        field, dim, mult, unit = _json_fields(data, "an algebra", ("field", "dim", "mult", "unit"))
        field = ring_from_json(field)
        return cls(field, dim, _json_table(field, mult, 3), _json_table(field, unit, 1), data.get("name", ""))


class FiniteBimodule(Value):
    """left-right bimodule by action tensors on a fixed basis: left[i][m] is
    the vector of e_i . f_m and right[m][j] that of f_m . e_j."""

    __slots__ = ("left_algebra", "right_algebra", "dim", "left", "right", "name")

    def __init__(self, left_algebra, right_algebra, dim, left, right, name=""):
        A, B = self.left_algebra, self.right_algebra = left_algebra, right_algebra
        self.dim, self.name = dim, name
        self.left = _frozen(left, (A.dim, dim, dim), f"left action must be {A.dim}x{dim}x{dim}")
        self.right = _frozen(right, (dim, B.dim, dim), f"right action must be {dim}x{B.dim}x{dim}")
        for m in range(self.dim):
            fm = self._basis(m)
            if self.left_act(list(A.unit), fm) != fm:
                raise ValueError("left unit axiom fails")
            if self.right_act(fm, list(B.unit)) != fm:
                raise ValueError("right unit axiom fails")
        # A over itself by its own multiplication: the algebra's associativity
        # check already covers the three below.
        if A == B and self.left == A.mult and self.right == A.mult:
            return
        for dims, tables, message in (
            ((A.dim, A.dim, self.dim), (A.mult, self.left, self.left, self.left), "left associativity fails"),
            ((self.dim, B.dim, B.dim), (self.right, self.right, B.mult, self.right), "right associativity fails"),
            ((A.dim, self.dim, B.dim), (self.left, self.right, self.right, self.left), "actions do not commute"),
        ):
            if _associative(self.field, dims, *tables) is not None:
                raise ValueError(message)

    @property
    def field(self):
        return self.left_algebra.field

    def _basis(self, m):
        return list(_unit_vector(self.field, self.dim, m))

    def left_act(self, avec, mvec):
        return _dense_mul(self.field, avec, mvec, self.left, self.dim)

    def right_act(self, mvec, bvec):
        return _dense_mul(self.field, mvec, bvec, self.right, self.dim)

    @classmethod
    def regular(cls, A):
        """A over itself."""
        return cls(A, A, A.dim, A.mult, A.mult, name=A.name)

    @classmethod
    def row_vectors(cls, field, n):
        """k - M_n bimodule of row vectors (dimension n); an input
        constructor of the tests and CI."""
        k, Mn = FiniteAlgebra.ground(field), FiniteAlgebra.matrix_algebra(field, n)
        left = (tuple(_unit_vector(field, n, m) for m in range(n)),)
        # row e_m . E_{cd} = delta_{mc} e_d
        right = tuple(
            tuple(_unit_vector(field, n, j % n if m == j // n else None) for j in range(n * n))
            for m in range(n)
        )
        return cls(k, Mn, n, left, right, name="rows")

    @classmethod
    def column_vectors(cls, field, n):
        """M_n - k bimodule of column vectors (dimension n); an input
        constructor of the tests and CI."""
        k, Mn = FiniteAlgebra.ground(field), FiniteAlgebra.matrix_algebra(field, n)
        # E_{cd} . e_m = delta_{dm} e_c
        left = tuple(
            tuple(_unit_vector(field, n, i // n if i % n == m else None) for m in range(n))
            for i in range(n * n)
        )
        right = tuple((_unit_vector(field, n, m),) for m in range(n))
        return cls(Mn, k, n, left, right, name="cols")

    @classmethod
    def through_hom(cls, A, B, phi_matrix, name=""):
        """B as a bimodule with left A-action through an algebra map A -> B.

        phi_matrix[i] is the image vector of the i-th basis element of A.  An
        input constructor of the tests and CI.
        """
        left = tuple(
            tuple(tuple(B.mul_vec(list(phi_matrix[i]), B._basis(m))) for m in range(B.dim))
            for i in range(A.dim)
        )
        return cls(A, B, B.dim, left, B.mult, name=name or "B_phi")

    def to_json(self):
        f = self.field
        return {
            "left_algebra": self.left_algebra.to_json(),
            "right_algebra": self.right_algebra.to_json(),
            "dim": self.dim,
            "left_action": [[[f.show(c) for c in vec] for vec in row] for row in self.left],
            "right_action": [[[f.show(c) for c in vec] for vec in row] for row in self.right],
            "name": self.name,
        }

    @classmethod
    def from_json(cls, data, algebra_from_json=FiniteAlgebra.from_json):
        A, B, dim, left, right = _json_fields(
            data, "a bimodule", ("left_algebra", "right_algebra", "dim", "left_action", "right_action")
        )
        A, B = algebra_from_json(A), algebra_from_json(B)
        left, right = (_json_table(A.field, table, 3) for table in (left, right))
        return cls(A, B, dim, left, right, data.get("name", ""))


# ---------------------------------------------------------------------------
# Relative tensor products.


def relative_tensor(M: FiniteBimodule, N: FiniteBimodule):
    """Coequalizer of the two middle actions on M (x) N, as a bimodule.

    Returns the bimodule and the projection from M (x) N (basis index
    m * N.dim + n), which maps a sparse vector to the sparse coordinates of
    its class.  The quotient basis is the classes of the basis vectors at the
    free columns of the echelon of the relations.
    """
    if M.right_algebra != N.left_algebra:
        raise ValueError("middle algebras differ")
    field, d = M.field, N.dim
    relations = []  # m b (x) n - m (x) b n for basis m, b, n
    for m, b, n in product(range(M.dim), range(N.left_algebra.dim), range(d)):
        rel = {mm * d + n: c for mm, c in enumerate(M.right[m][b])}
        for nn, c in enumerate(N.left[b][n]):
            rel[m * d + nn] = field.sub(rel.get(m * d + nn, field.zero()), c)
        relations.append(rel)
    quot = Echelon(field, M.dim * d, relations)
    free = quot.free()
    coords = {j: t for t, j in enumerate(free)}

    def project(terms):
        return {coords[j]: c for j, c in quot.reduce(terms).items()}

    def coordinates(terms):
        image = project(terms)
        return tuple(image.get(t, field.zero()) for t in range(len(free)))

    A, C = M.left_algebra, N.right_algebra
    cells = [divmod(j, d) for j in free]
    left = tuple(
        tuple(coordinates({mm * d + n: c for mm, c in enumerate(M.left[i][m])}) for m, n in cells)
        for i in range(A.dim)
    )
    right = tuple(
        tuple(coordinates({m * d + nn: c for nn, c in enumerate(N.right[n][j])}) for j in range(C.dim))
        for m, n in cells
    )
    module = FiniteBimodule(A, C, len(free), left, right, name=f"({M.name}(x){N.name})")
    return module, project


# ---------------------------------------------------------------------------
# Labelled cycles and their bar complexes.


class LabelledCycle(Value):
    __slots__ = ("algebras", "bimodules", "_fused", "_unit_first")

    def __init__(self, algebras, bimodules):
        n = len(algebras)
        if n < 1 or len(bimodules) != n:
            raise ValueError("need one algebra and one bimodule per slot")
        for a in range(n):
            M = bimodules[a]
            if M.left_algebra != algebras[a] or M.right_algebra != algebras[(a + 1) % n]:
                raise ValueError(f"edge {a} does not match its endpoint algebras")
        self.algebras, self.bimodules = algebras, bimodules
        # fused(a) by a, and the rebased unit_first(), built on first use.
        self._fused, self._unit_first = {}, []

    @property
    def n(self):
        return len(self.algebras)

    @property
    def field(self):
        return self.algebras[0].field

    @classmethod
    def one_cycle(cls, R, M):
        return cls((R,), (M,))

    @classmethod
    def uniform(cls, R, M, n):
        """n vertices R and n edges M (R regular when M is None); an input
        constructor of the tests, CI and perfbench/."""
        return cls((R,) * n, (FiniteBimodule.regular(R) if M is None else M,) * n)

    def fused(self, a):
        """Edges a and a+1 (mod n) fused across vertex a+1: relative_tensor
        of their bimodules, as (bimodule, projection)."""
        a %= self.n
        if a not in self._fused:
            self._fused[a] = relative_tensor(self.bimodules[a], self.bimodules[(a + 1) % self.n])
        return self._fused[a]

    def unit_first(self):
        """The cycle on vertex bases u, e_j (j != i), u the unit and i its first
        coordinate that is +-1, else nonzero; edge tables are read through
        them and module bases stay.  self if every unit is basis vector 0."""
        if not self._unit_first and any(list(A.unit) != A._basis(0) for A in self.algebras):
            f, bases = self.field, {}  # algebra -> (rebased algebra, new basis in old coordinates)
            for A in set(self.algebras):
                u = list(A.unit)
                i = min(range(A.dim), key=lambda j: (f.mul(u[j], u[j]) != f.one(), f.is_zero(u[j]), j))
                basis = [u] + [A._basis(j) for j in range(A.dim) if j != i]

                def coordinates(v):
                    c = f.mul(v[i], f.inv(u[i]))
                    return (c,) + tuple(f.sub(v[j], f.mul(c, u[j])) for j in range(A.dim) if j != i)
                mult = tuple(tuple(coordinates(A.mul_vec(x, y)) for y in basis) for x in basis)
                bases[A] = FiniteAlgebra(f, A.dim, mult, _unit_vector(f, A.dim, 0), A.name), basis
            edges = []
            for M in self.bimodules:
                (A, a), (B, b), m = bases[M.left_algebra], bases[M.right_algebra], list(map(M._basis, range(M.dim)))
                left = tuple(tuple(tuple(M.left_act(x, y)) for y in m) for x in a)
                right = tuple(tuple(tuple(M.right_act(x, y)) for y in b) for x in m)
                edges.append(FiniteBimodule(A, B, M.dim, left, right, M.name))
            self._unit_first.append(LabelledCycle(tuple(bases[A][0] for A in self.algebras), tuple(edges)))
        return self._unit_first[0] if self._unit_first else self

    def label(self, path: Path):
        """The label of a vertex (an algebra), an edge (a bimodule) or two
        edges fused across the vertex between them."""
        return path_label(path, self.algebras, self.bimodules, self.fused_bimodule)

    def fused_bimodule(self, a):
        return self.fused(a)[0]

    def label_dim(self, path: Path):
        return self.label(path).dim

    def pull_back(self, f: CyclicMap):
        """The cycle on f's source labelled by pull_back_labels."""
        return LabelledCycle(*pull_back_labels(f, self.label))

    def contract(self, a):
        """The (n-1)-cycle with edges a, a+1 fused across vertex a+1 (mod n),
        pulled back along the contraction, so it stays aligned with the
        chain-level comparison morphisms along the same map."""
        return self.pull_back(CyclicMap.contraction(self.n, a))

    def to_json(self):
        return {
            "algebras": [A.to_json() for A in self.algebras],
            "bimodules": [M.to_json() for M in self.bimodules],
        }

    @classmethod
    def from_json(cls, data):
        algebras, bimodules = _json_fields(data, "a labelled cycle", ("algebras", "bimodules"))
        if not isinstance(algebras, list) or not isinstance(bimodules, list):
            raise ValueError("a labelled cycle lists its 'algebras' and 'bimodules'")
        built = {}  # algebra JSON -> algebra: each distinct one is validated once

        def algebra(a):
            key = json.dumps(a, sort_keys=True)
            if key not in built:
                built[key] = FiniteAlgebra.from_json(a)
            return built[key]

        return cls(
            tuple(algebra(a) for a in algebras),
            tuple(FiniteBimodule.from_json(m, algebra) for m in bimodules),
        )


class ChainComplex:
    """Nonnegatively graded complex with boundaries d_q : C_q -> C_{q-1}.

    bases holds the level layouts (_basis) of a complex built by _complex,
    else it is empty; it is not compared.  The layouts are shared with every
    complex of the same shape, so they are immutable.
    """

    __slots__ = ("ring", "dims", "boundaries", "bases", "_image", "_kernel")

    def __init__(self, ring, dims, boundaries, bases=()):
        self.ring, self.dims, self.boundaries, self.bases = ring, dims, boundaries, bases
        # q -> echelon of the image of d_q (ranks, reduction modulo boundaries),
        # and q -> basis of ker d_q (read only where homology is nonzero); each
        # is built once, when first read.
        self._image, self._kernel = {}, {}

    def __eq__(self, other):
        return type(other) is ChainComplex and (self.ring, self.dims, self.boundaries) == (
            other.ring, other.dims, other.boundaries)

    @property
    def top(self):
        return len(self.dims) - 1

    def boundary(self, q):
        return self.boundaries[q]

    def _image_of(self, q):
        if q not in self._image:
            d = self.boundaries[q]
            self._image[q] = Echelon(self.ring, d.rows, d.columns())
        return self._image[q]

    def rank(self, q):
        """Rank of d_q (d_0 = 0)."""
        return self._image_of(q).rank if q > 0 else 0

    def homology_dim(self, q):
        """dim H_q, from the ranks alone; q must be below the top degree."""
        return self.dims[q] - self.rank(q) - self.rank(q + 1)

    def cycles(self, q):
        """Basis of ker d_q as sparse vectors.

        In degree 0 it is the unit vectors; above, `rings.kernel_basis` of
        d_q, which is only built when it is read.
        """
        if q == 0:
            return [{i: self.ring.one()} for i in range(self.dims[0])]
        if q not in self._kernel:
            self._kernel[q] = kernel_basis(self.boundaries[q])
        return self._kernel[q]

    def reduce_mod_boundaries(self, q, vec):
        """Normal form of a sparse q-chain modulo the image of d_{q+1}."""
        return self._image_of(q + 1).reduce(vec)

    def validate(self):
        """Is d_{q-1} d_q = 0 for every q?  Checked column by column."""
        for q in range(2, self.top + 1):
            if any(map(self.boundaries[q - 1].apply, self.boundaries[q].columns())):
                return False
        return True


def _extend(cycle, path, colour, state):
    """One fold step: a prefix's state (edges, pending) times each basis
    element i of colour's label, as {i: state} where not 0.  edges has
    (module, value) per edge factor, acted on by the algebra factors before
    it; pending multiplies the later ones (from the unit at a vertex)."""
    field, one, (edges, pending), out = cycle.field, cycle.field.one(), state, {}
    label, edge = cycle.label(path if path.is_vertex else colour), not (path.is_vertex or colour.is_vertex)
    table = label.left if edge else label.mult
    for i in range(label.dim):
        if value := {i: one} if pending is None else _combo_mul(field, pending, {i: one}, table):
            out[i] = (edges + ((label, value),), None) if edge else (edges, value)
    return out


def _fiber_table(cycle, path, colours, memo):
    """{digit key: value} of the products of factors of these colours along
    path that are not 0, over every basis index of each factor.  It folds
    _extend on from the longest prefix in memo, found with one lookup per
    length, and keeps each prefix's states there; a prefix whose product is
    0 is never extended."""
    target, field = cycle.label(path), cycle.field
    if not path.is_vertex and any(not p.is_vertex and p.length != 1 for p in colours):
        raise ValueError("fiber factors must be vertices or single edges")
    if not path.is_vertex and sum(not p.is_vertex for p in colours) != path.length:
        raise ValueError("edge count does not cover the target path")
    k = len(colours)
    while k and (states := memo.get((path, colours[:k]))) is None:
        k -= 1
    if not k:
        pending = {i: c for i, c in enumerate(target.unit) if not field.is_zero(c)} if path.is_vertex else None
        states = {(): ((), pending)}
    for k in range(k, len(colours)):
        states = memo[path, colours[:k + 1]] = {
            t + (i,): s for t, state in states.items() for i, s in _extend(cycle, path, colours[k], state).items()
        }
    table = {}
    for t, (edges, value) in states.items():
        if not path.is_vertex:
            if value is not None:  # trailing algebra acts on the last edge from the right
                M, v = edges[-1]
                edges = edges[:-1] + ((M, _combo_mul(field, v, value, M.right)),)
            value = edges[0][1]
            if len(edges) == 2:  # two fused edges: the plain tensor of the edge values, then project
                (_, u), (N, v) = edges
                value = cycle.fused(path.start)[1]({
                    i * N.dim + j: field.mul(c, e) for i, c in u.items() for j, e in v.items()})
        if value:
            table[t] = value
    return table


def envelope_matrix(cycle, env: EnvelopeMorphism, target_paths, target_dims):
    """Matrix of the multilinear map induced by an envelope morphism, built by
    _add_envelope with one unit per element: source basis indices run over
    the product of the source colour dimensions in element order; likewise
    for the target.  target_paths and target_dims must be the colours of
    env's target and their label dimensions.  No library route calls it;
    test_hochschild and perfbench/ do."""
    if list(target_paths) != list(env.target.colours):
        raise ValueError("target paths are not the colours of the morphism's target")
    if list(target_dims) != [cycle.label_dim(p) for p in target_paths]:
        raise ValueError("target dims are not the label dimensions of the target paths")
    source = _element_basis(map(cycle.label_dim, env.source.colours))
    return _envelope_matrix(cycle, _plan(env, source, _element_basis(target_dims)), {})


def _envelope_matrix(cycle, plan, memo):
    *_, source, target = plan
    columns = [{} for _ in source]
    _add_envelope(cycle, plan, cycle.field.one(), columns, memo)
    return IntMatrix.from_columns(cycle.field, len(target), columns)


def _basis(units, order=None):
    """Basis tensors with one tuple per unit (elements, radices, skip),
    indexed row-major: (units with their strides, order), where order[index]
    is the tensor's place in a matrix (the index itself if None).  Tuple r
    of a unit is the mixed-radix number r + skip, one digit per element,
    the first most significant, its radices the elements' label dims; skip
    1 leaves out the number 0.  Both are immutable, as the layout caches
    share them."""
    strided, size = [], 1
    for elements, radices, skip in reversed(units):
        strided.append((elements, radices, skip, size))
        size *= prod(radices) - skip
    return tuple(strided[::-1]), range(size) if order is None else order


def _element_basis(dims):
    return _basis([((x,), (d,), 0) for x, d in enumerate(dims)])


def _merged_block(cycle, key, memo):
    """A merged target unit's block, memoized by its shape with no strides,
    key = (fibers, feeding, radices, skip): the Kronecker product of its
    elements' fiber tables ((path, colours) of each in fibers), restricted
    to its tuples and to those of the feeding units ((skip, (place value,
    (element, place in its fiber)) per digit of radix > 1) of each in
    feeding), as (index of each feeding tuple, {target tuple index: entry})."""
    if (block := memo.get(key)) is None:
        (fibers, feeding, radices, skip), field, one = key, cycle.field, cycle.field.one()
        block = []
        for entries in product(*(_fiber_table(cycle, path, colours, memo).items() for path, colours in fibers)):
            rs = tuple(sum(v * entries[j][0][p] for v, (j, p) in digits) - s for s, digits in feeding)
            if min(rs, default=0) < 0:
                continue
            image = {0: one}
            for (_, value), d in zip(entries, radices):
                image = {r * d + k: field.mul(a, e) for r, a in image.items() for k, e in value.items()}
            if image := {r - skip: e for r, e in image.items() if r >= skip}:
                block.append((rs, image))
        memo[key] = block
    return block


def _plan(env, source, target):
    """How _add_envelope assembles env from the basis source to the basis
    target, read off their shapes alone: (passes, merged, source order,
    target order).

    A target unit whose elements each have a fiber of one element, together
    a source unit, passes through and copies its digits: admissibility makes
    that element's colour its target's.  It is (tuple count, stride, source
    stride) in passes, unless it has one tuple.  Every other target unit is
    (_merged_block key, strides of its feeding source units, stride) in
    merged.
    """
    colours, paths, fibers = env.source.colours, env.target.colours, env.fiber_orders
    (units, hi), (target_units, lo) = source, target
    unit_of = {x: u for u, (elements, *_) in enumerate(units) for x in elements}
    passes, merged = [], []
    for ys, radices, skip, stride in target_units:
        xs = tuple(fibers[y][0] for y in ys if len(fibers[y]) == 1)
        if len(xs) == len(ys) and units[unit_of[xs[0]]][0] == xs:
            if (count := prod(radices) - skip) != 1:
                passes.append((count, stride, units[unit_of[xs[0]]][3]))
            continue
        feeding, steps = [], []
        where = {x: (j, p) for j, y in enumerate(ys) for p, x in enumerate(fibers[y])}
        for u in sorted({unit_of[x] for y in ys for x in fibers[y]}):
            elements, dims, s, step = units[u]
            places = [prod(dims[i + 1:]) for i in range(len(dims))]
            feeding.append((s, tuple((v, where[x]) for x, d, v in zip(elements, dims, places) if d > 1)))
            steps.append(step)
        key = (tuple((paths[y], tuple(colours[x] for x in fibers[y])) for y in ys), tuple(feeding), radices, skip)
        merged.append((key, tuple(steps), stride))
    return tuple(passes), tuple(merged), hi, lo


def _add_envelope(cycle, plan, sign, columns, memo):
    """Add sign times the matrix of a _plan's morphism, into the labels of
    its target's colours, to the sparse columns of a matrix from its source
    basis to its target basis.

    It is the tensor product, over target elements, of the multiplications
    of their fibers, so each source unit must feed one target unit.  The
    merged units' blocks (_merged_block, memoized in the build's memo) make
    one Kronecker block with their strides, placed at every pass-through
    offset, its rows and columns put in the bases' orders.
    """
    field = cycle.field
    passes, merged, hi, lo = plan
    offsets = [(0, 0)]
    for count, stride, step in passes:
        offsets = [(r + k * stride, c + k * step) for r, c in offsets for k in range(count)]
    block = [(0, {0: sign})]  # (column, {row: entry}) of the merged units
    for key, steps, stride in merged:
        small = _merged_block(cycle, key, memo)
        block = [
            (c + sum(r * step for r, step in zip(rs, steps)),
             {r + r2 * stride: field.mul(a, b) for r, a in im.items() for r2, b in im2.items()})
            for c, im in block for rs, im2 in small
        ]
    add, is_zero = field.add, field.is_zero
    for r0, c0 in offsets:
        for c, image in block:
            column = columns[hi[c0 + c]]
            for r, e in image.items():
                i = lo[r0 + r]
                if (w := column.get(i)) is None:
                    column[i] = e
                elif is_zero(w := add(w, e)):  # signed faces cancel
                    del column[i]
                else:
                    column[i] = w


BAR_DIMENSION_GUARD = 20000
BAR_DEGREE_GUARD = 24
BAR_CUT_GUARD = 256


def bar_dims(cycle: LabelledCycle, degree_bound):
    """Dimensions of the bar complex through the given degree, from the label
    dimensions alone: level q is prod dim M_a * (prod dim R_a)^q.

    Raises SizeGuard past BAR_DEGREE_GUARD, when the top cut set has more
    than BAR_CUT_GUARD elements, or at the first level past
    BAR_DIMENSION_GUARD, so a request can be refused before anything is
    built.  With 1-dimensional labels the dimensions stay at 1, and only the
    first two bound the work of faces and chain maps.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    if degree_bound > BAR_DEGREE_GUARD:
        raise SizeGuard(f"degree {degree_bound} exceeds {BAR_DEGREE_GUARD}")
    if cycle.n * (degree_bound + 1) > BAR_CUT_GUARD:
        raise SizeGuard(f"cut set size {cycle.n * (degree_bound + 1)} exceeds {BAR_CUT_GUARD}")
    edges = prod(M.dim for M in cycle.bimodules)
    vertices = prod(A.dim for A in cycle.algebras)
    dims = []
    for q in range(degree_bound + 1):
        total = edges * vertices ** q
        if total > BAR_DIMENSION_GUARD:
            raise SizeGuard(f"bar complex dimension {total} exceeds {BAR_DIMENSION_GUARD}")
        dims.append(total)
    return tuple(dims)


def bar_complex(cycle: LabelledCycle, degree_bound):
    """The cyclic bar complex through the given degree.

    Level q is the tensor product of the labels of the level-q cut set; the
    boundary is the alternating sum of the face maps.  No library route
    computes on it: it is the reference that tests and perfbench/ call.
    """
    bar_dims(cycle, degree_bound)
    return _complex(cycle, degree_bound, _full_layout)


# Shape data: cut faces, comparisons, level layouts and their _plans depend
# on the cut sets and the label dims alone, so each is built once per
# process (each cache keeps _FACE_CACHE); fiber tables and merged blocks
# depend on the labels, and live in one build's memo.


def _label_dims(cycle):
    """(vertex label dims, edge label dims): the shape of every level."""
    return tuple(A.dim for A in cycle.algebras), tuple(M.dim for M in cycle.bimodules)


def _cut_dims(q, vertices, edges):
    """The label dim of each element of the level-q cut set."""
    return tuple(vertices[a] if j else edges[a - 1] for a in range(len(vertices)) for j in range(q + 1))


@lru_cache(maxsize=_FACE_CACHE)
def _full_layout(q, vertices, edges):
    """Level q of bar_complex for labels of these dims: one unit per element."""
    return _element_basis(_cut_dims(q, vertices, edges))


@lru_cache(maxsize=_FACE_CACHE)
def _face(q, n, i):
    """cut_face(CutSet(q, n), i), built and validated once."""
    return cut_face(CutSet(q, n), i)


@lru_cache(maxsize=_FACE_CACHE)
def _face_plan(layout, q, i, vertices, edges):
    """The _plan of _face(q, n, i) from level q to level q - 1, both laid out
    by layout(q, vertices, edges)."""
    return _plan(_face(q, len(vertices), i), layout(q, vertices, edges), layout(q - 1, vertices, edges))


def _complex(cycle, degree_bound, layout):
    """The complex with level q laid out by layout(q, *_label_dims(cycle)),
    its boundary the signed faces added into one list of sparse columns per
    level."""
    field, memo, boundaries, dims = cycle.field, {}, {}, _label_dims(cycle)
    bases = tuple(layout(q, *dims) for q in range(degree_bound + 1))
    for q in range(1, degree_bound + 1):
        columns, sign = [{} for _ in bases[q][1]], field.one()
        for i in range(q + 1):
            _add_envelope(cycle, _face_plan(layout, q, i, *dims), sign, columns, memo)
            sign = field.neg(sign)
        boundaries[q] = IntMatrix.from_columns(field, len(bases[q - 1][1]), columns)
    return ChainComplex(field, tuple(len(order) for _, order in bases), boundaries, bases)


# ---------------------------------------------------------------------------
# Normalized complexes.
#
# Element (j, a) of a level-q cut set sits in column j of block a: column 0
# holds the edges, columns 1..q the vertices.  A degeneracy puts the unit into
# one vertex column of every block.  So once unit_first makes every vertex
# unit basis vector 0, the degenerate subcomplex is spanned by the basis
# tensors with some vertex column all units.  It is acyclic, over Z as over a
# field (Loday, Cyclic Homology, 1.1), and the quotient is free on the other
# basis tensors.  _add_envelope builds its faces with one unit per column,
# its radices the label dims of the column's blocks and, in a vertex column,
# skip 1, which leaves out the all-unit tuple (number 0): a face merges two
# columns and passes the rest through.  Tensors go in the order of
# bar_complex, as in column order the echelon forms over Q fill in with
# fractions (the Q[C2] 3-cycle at degree 3 took six times as long).  A
# rotation multiplies nothing: it moves blocks and keeps columns, so it turns
# the digits of each column's number (_rotation_images).


@lru_cache(maxsize=_FACE_CACHE)
def _normalized_layout(q, vertices, edges):
    """Level q of normalized_bar_complex for labels of these dims: one unit
    per column, its elements in block order and its tuples the
    nondegenerate ones; each tensor goes to its index in
    normalized_positions."""
    dims, positions = _cut_dims(q, vertices, edges), _column_positions(q, vertices, edges)
    rank = {p: i for i, p in enumerate(sorted(positions))}
    units = [(tuple(range(j, len(dims), q + 1)), dims[j::q + 1], min(j, 1)) for j in range(q + 1)]
    return _basis(units, tuple(rank[p] for p in positions))


def normalized_bar_complex(cycle: LabelledCycle, degree_bound):
    """The bar complex of cycle.unit_first() modulo its degenerate subcomplex
    through the given degree, quasi-isomorphic to bar_complex (over Z too if
    the rebase is unimodular): prod dim M_a * (prod dim R_a - 1)^q tensors.

    The guard applies to the dimensions of the full complex, so a request is
    refused exactly when bar_complex refuses it.
    """
    bar_dims(cycle, degree_bound)
    return _complex(cycle.unit_first(), degree_bound, _normalized_layout)


def normalized_positions(cycle: LabelledCycle, q):
    """Index in level q of bar_complex(cycle.unit_first()) of each basis
    tensor of level q of normalized_bar_complex, in order."""
    return sorted(_column_positions(q, *_label_dims(cycle)))


def _column_positions(q, vertices, edges):
    """Index in level q of bar_complex of each nondegenerate basis tensor,
    in column order; the digits of 1-dim blocks are 0, and add nothing."""
    dims = _cut_dims(q, vertices, edges)
    strides = [prod(dims[e + 1:]) for e in range(len(dims))]
    positions = [0]
    for j in range(q + 1):
        offsets = [0]
        for x in range(j, len(dims), q + 1):
            if dims[x] > 1:
                offsets = [o + i * strides[x] for o in offsets for i in range(dims[x])]
        positions = [p + o for p in positions for o in offsets[min(j, 1):]]
    return positions


def homology(complex_: ChainComplex):
    """Homology dimensions in degrees 0..top-1."""
    if not complex_.ring.is_field:
        raise ValueError("homology needs field coefficients")
    return [complex_.homology_dim(q) for q in range(complex_.top)]


def integral_homology_one_cycle(R: FiniteAlgebra, M: FiniteBimodule, degree_bound):
    """Integral homology of the one-cycle bar complex, by Smith form.

    The labels must be over Q with integral structure constants; homology
    groups are returned as (torsion, free rank) pairs through
    degree_bound - 1.

    The complex is normalized on the unit_first basis, unimodular when R's
    unit is integral with a coordinate +-1.  Chain groups are free, so ker d_q
    is a direct summand, and H_q has the invariant factors > 1 of d_{q+1} as
    torsion and dims[q] - rank d_q - rank d_{q+1} as free rank.  No library
    route calls it; test_hochschild and perfbench/ do.
    """
    if R.field != QQ:
        raise ValueError(f"integral homology needs labels over Q, not {R.field!r}")
    if any(c.denominator != 1 for c in R.unit) or all(c * c != 1 for c in R.unit):
        raise ValueError("integral homology needs a unit with integral coordinates, one of them +-1")
    complex_ = normalized_bar_complex(LabelledCycle.one_cycle(R, M), degree_bound)

    def integer(v):
        # an int, or a Fraction that may still have denominator 1
        if v.denominator != 1:
            raise ValueError("structure constants are not integral")
        return v.numerator

    out = []
    rank_d = 0  # rank of d_q; d_0 = 0
    for q in range(degree_bound):
        # the columns of d_{q+1} present Z^dims[q] modulo its image
        relations = [{i: integer(v) for i, v in col.items()} for col in complex_.boundary(q + 1).columns()]
        # free = dims[q] - rank d_{q+1}
        torsion, free = invariant_factors_of_rows(relations, complex_.dims[q])
        out.append((torsion, free - rank_d))
        rank_d = complex_.dims[q] - free
    return out


def _free_at(cycle: LabelledCycle, v):
    """Is an edge at vertex v free of rank 1 over the vertex algebra?

    Exact and sufficient: the incoming edge's right action, or the outgoing
    edge's left action, is the algebra's own multiplication table.  Then Tor
    over the vertex algebra vanishes, and contracting across v keeps the
    homology (contraction_comparison shows it may not otherwise).
    """
    A = cycle.algebras[v]
    return cycle.bimodules[v - 1].right == A.mult or cycle.bimodules[v].left == A.mult


def contract_free(cycle: LabelledCycle):
    """Contract across vertices where _free_at holds, while any does: by
    the trace property the result has the homology of the cycle."""
    while cycle.n > 1:
        v = next((v for v in range(cycle.n) if _free_at(cycle, v)), None)
        if v is None:
            break
        cycle = cycle.contract((v - 1) % cycle.n)
    return cycle


def hh_complex(cycle: LabelledCycle, degree_bound):
    """A complex with the homology of bar_complex(cycle, degree_bound).

    The guard applies to the dimensions of bar_complex.  The cycle is
    contracted by contract_free, then rebased unit-first and normalized.
    """
    bar_dims(cycle, degree_bound)
    return normalized_bar_complex(contract_free(cycle), degree_bound)


def thh_pi0(R: FiniteAlgebra, M: FiniteBimodule):
    """M modulo the commutator subspace m.r - r.m.

    Returns (dim, echelon of the commutator subspace).
    """
    if M.left_algebra != R or M.right_algebra != R:
        raise ValueError("coefficients must be a bimodule over the algebra")
    field = R.field
    relations = [  # m r - r m for basis m, r
        {i: field.sub(a, b) for i, (a, b) in enumerate(zip(M.right[m][r], M.left[r][m]))}
        for m in range(M.dim) for r in range(R.dim)
    ]
    commutators = Echelon(field, M.dim, relations)
    return M.dim - commutators.rank, commutators


# ---------------------------------------------------------------------------
# Trace comparisons.


def _cyclic_maps(cycle: LabelledCycle, f, degree_bound):
    """Per-degree matrices of the comparison morphisms along an injective
    cycle map f into the cycle.

    The target colours are paths on the cycle pushed forward along f: a
    vertex, an edge, or two edges that f fuses, so their labels are those of
    cycle.pull_back(f).  The degrees share one memo, so the fused edge's
    fiber at degree q starts from the prefix states of degree q - 1.
    """
    source, target, memo = _label_dims(cycle), pull_back_labels(f, cycle.label_dim), {}
    return {
        q: _envelope_matrix(cycle, _comparison_plan(q, f, source, target), memo) for q in range(degree_bound + 1)
    }


@lru_cache(maxsize=_FACE_CACHE)
def _comparison(q, f):
    """cut_envelope_cyclic(CutSet(q, f.target_n), f)[0], built once, as _face."""
    return cut_envelope_cyclic(CutSet(q, f.target_n), f)[0]


@lru_cache(maxsize=_FACE_CACHE)
def _comparison_plan(q, f, source, target):
    """The _plan of _comparison(q, f) between the full levels q of labels
    with dims source and target, (vertex dims, edge dims) each."""
    return _plan(_comparison(q, f), _full_layout(q, *source), _full_layout(q, *target))


def is_chain_map(src, dst, maps):
    """Is f_{q-1} d_q = d_q f_q in every degree?  Checked column by column."""
    for q in range(1, src.top + 1):
        d_dst = dst.boundary(q)
        for col, f_col in zip(src.boundary(q).columns(), maps[q].columns(), strict=True):
            if maps[q - 1].apply(col) != d_dst.apply(f_col):
                return False
    return True


def homology_map_is_iso(src, dst, maps, q):
    """Does the chain map induce an isomorphism on H_q?

    Checked by dimension count plus surjectivity: the image of the source
    cycles must cover the target homology modulo boundaries.
    """
    h_dst = dst.homology_dim(q)
    if src.homology_dim(q) != h_dst:
        return False
    if h_dst == 0:
        return True  # two zero spaces
    covered = Echelon(dst.ring, dst.dims[q], (
        dst.reduce_mod_boundaries(q, maps[q].apply(v)) for v in src.cycles(q)
    ))
    return covered.rank == h_dst


def contraction_comparison(cycle: LabelledCycle, a, degree_bound):
    """Contract one edge and compare homology through degree_bound - 1.

    Returns a report: the chain-map property, per-degree homology dimensions
    on both sides, and the quasi-isomorphism verdict, on the normalized
    complexes of the cycle and of the contraction of its unit_first rebase.
    A comparison map is the identity on the columns [q], so it keeps the
    degenerate subcomplexes, and _cyclic_maps restricts to their quotients.
    """
    f = CyclicMap.contraction(cycle.n, a)  # raises on a 1-cycle
    src = normalized_bar_complex(cycle, degree_bound)  # guarded before any rebase
    X = cycle.unit_first()
    Y = X.pull_back(f)
    dst, maps = normalized_bar_complex(Y, degree_bound), {}
    for q, m in _cyclic_maps(X, f, degree_bound).items():
        rank = {p: i for i, p in enumerate(normalized_positions(Y, q))}
        maps[q] = IntMatrix.from_columns(X.field, len(rank), [
            {rank[r]: v for r, v in m.columns()[p].items() if r in rank} for p in normalized_positions(X, q)])
    chain = is_chain_map(src, dst, maps)
    verdicts = [homology_map_is_iso(src, dst, maps, q) for q in range(degree_bound)]
    return {
        "chain_map": chain,
        "source_homology": homology(src),
        "target_homology": homology(dst),
        "iso_through": verdicts,
        "quasi_iso": chain and all(verdicts),
    }


def rotation_matrices(cycle: LabelledCycle, k, degree_bound):
    """Chain automorphism induced by the rotation by k slots.

    The labels must be invariant under the rotation (uniform cycles).  No
    library route calls it; test_hochschild and perfbench/ do.
    """
    rotation = CyclicMap.rotation(cycle.n, k)
    if cycle.pull_back(rotation) != cycle:
        raise ValueError("labels are not invariant under this rotation")
    return _cyclic_maps(cycle, rotation, degree_bound)


def _rotation_images(bases, n, k):
    """The rotation by k of a normalized complex of an n-cycle, read off its
    level bases (_normalized_layout), for labels invariant under it (not
    checked here), as one index list per level: basis tensor j goes to basis
    tensor images[q][j] with coefficient 1.

    Block a of the image is block a + k of the source and columns stay, so
    the digits of each column's number, one block index per block, turn by
    k places: with head and tail the products of its first k radices and of
    the rest, r goes to (r % tail) * head + r // tail.  The number 0, the
    all-unit tuple, stays 0, so a nondegenerate tuple stays nondegenerate.
    """
    k %= n
    images = {}
    for q, (units, order) in enumerate(bases):
        turned = [0]  # the row-major index of the image of each tensor
        for _, radices, skip, stride in units:
            head, tail = prod(radices[:k]), prod(radices[k:])
            moved = [((r % tail) * head + r // tail - skip) * stride for r in range(skip, prod(radices))]
            turned = [r + o for r in turned for o in moved]
        images[q] = image = [0] * len(order)
        for j, r in zip(order, turned):
            image[j] = order[r]
    return images


def _permutation_matrix(field, image):
    one = field.one()
    return IntMatrix.from_columns(field, len(image), [{i: one} for i in image])


def induced_homology_matrix(complex_, chain_map_q, q):
    """Matrix of the induced endomorphism on H_q in a chosen cycle basis.

    The basis is the first cycles (in the order of `ChainComplex.cycles`)
    that are independent modulo boundaries.
    """
    field = complex_.ring
    dim = complex_.dims[q]
    h_dim = complex_.homology_dim(q)
    if h_dim == 0:
        return IntMatrix.zeros(field, 0, 0)
    # Classes modulo boundaries, each augmented with a unit coordinate after
    # the chain coordinates: reducing a class by the span leaves minus its
    # coordinates in the chosen basis there.
    span = Echelon(field, dim + h_dim)
    chosen = []
    for z in complex_.cycles(q):
        c = complex_.reduce_mod_boundaries(q, z)
        if any(i < dim for i in span.reduce(c)):
            c[dim + len(chosen)] = field.one()
            span.insert(c)
            chosen.append(z)
            if len(chosen) == h_dim:
                break
    columns = []
    for z in chosen:
        rest = span.reduce(complex_.reduce_mod_boundaries(q, chain_map_q.apply(z)))
        if any(i < dim for i in rest):
            raise AssertionError("image leaves the homology span")
        columns.append({i - dim: field.neg(c) for i, c in rest.items()})
    return IntMatrix.from_columns(field, h_dim, columns)


def rotation_action(R: FiniteAlgebra, M: FiniteBimodule, n, degree_bound):
    """Rotation data on the bar complex of the uniform n-cycle (R, M; ...).

    Returns the chain matrices of the generator, exactness of the relations
    (commutation with the boundary and order n, both checked on the
    permutations of _rotation_images), and the induced matrices on homology
    through degree_bound - 1, all on normalized_bar_complex.  Homology
    dimensions come by the trace route, as in hh_complex, from the
    contract_free cycle; induced matrices are built, and the dimension
    checked against the rotated complex, only where homology is nonzero
    (elsewhere they are 0 x 0).
    """
    cycle = LabelledCycle((R,) * n, (M,) * n)
    complex_ = normalized_bar_complex(cycle, degree_bound)
    images = _rotation_images(complex_.bases, n, 1)
    maps = {q: _permutation_matrix(complex_.ring, image) for q, image in images.items()}
    # rho d e_j = d rho e_j: the rows of column j of d relabelled by rho are
    # the column rho(j) of d
    commutes = all(
        {images[q - 1][i]: v for i, v in column.items()} == complex_.boundary(q).columns()[images[q][j]]
        for q in range(1, degree_bound + 1)
        for j, column in enumerate(complex_.boundary(q).columns())
    )
    identities = {q: list(range(len(image))) for q, image in images.items()}
    powers = identities
    for _ in range(n):
        powers = {q: [images[q][i] for i in power] for q, power in powers.items()}
    contracted = contract_free(cycle)
    dims = homology(complex_ if contracted is cycle else normalized_bar_complex(contracted, degree_bound))
    homology_action = []
    for q, h in enumerate(dims):
        if h and complex_.homology_dim(q) != h:
            raise AssertionError(f"dim H_{q} is {complex_.homology_dim(q)}, but {h} by the trace route")
        homology_action.append(induced_homology_matrix(complex_, maps[q], q).to_lists() if h else [])
    return {
        "commutes_with_boundary": commutes,
        "order_exact": powers == identities,
        "homology_dims": dims,
        "homology_action": homology_action,
        "chain_maps": maps,
        "complex": complex_,
    }
