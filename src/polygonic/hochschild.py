"""Cyclic bar complexes of labelled cycles over a field.

A labelled cycle is an n-cycle whose vertices carry finite-dimensional
algebras and whose edges carry bimodules between consecutive vertex
algebras.  The level-q piece of its bar complex is the tensor product of the
labels of the level-q cut set; faces are induced by the envelope structure
maps, so every boundary identity reduces to cut-set combinatorics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .cyclic import CutSet, CyclicMap, Path, SizeGuard
from .operad import (
    EnvelopeMorphism,
    LabelledCycleSpec,
    cut_envelope_cyclic,
    cut_face,
)
from .rings import (
    ZZ,
    IntMatrix,
    NonFieldRing,
    _echelon_insert,
    column_space_basis,
    invariant_factors,
    rank_and_kernel,
    rank_of,
    ring_from_json,
)


class AlgebraMismatch(Exception):
    pass


class DegreeBoundNegative(Exception):
    pass


# ---------------------------------------------------------------------------
# Linear-algebra helpers over a field (vectors are plain lists).


def _vec_add(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]


def _vec_scale(field, c, u):
    return [field.mul(c, a) for a in u]


def _zero_vec(field, d):
    return [field.zero()] * d


def _combo_mul(field, terms_a, terms_b, mult_table):
    """Product of two linear combinations through a bilinear basis table.

    terms are dicts index -> coefficient; mult_table[i][j] is the vector of
    the basis product.
    """
    out = {}
    for i, c in terms_a.items():
        for j, d in terms_b.items():
            coeff = field.mul(c, d)
            for k, e in enumerate(mult_table[i][j]):
                if field.is_zero(e):
                    continue
                val = field.add(out.get(k, field.zero()), field.mul(coeff, e))
                if field.is_zero(val):
                    out.pop(k, None)
                else:
                    out[k] = val
    return out


class Subquotient:
    """Quotient of k^dim by a spanned subspace, with projection and lift."""

    def __init__(self, field, dim, relation_vectors):
        self.field = field
        self.ambient_dim = dim
        rows = [list(v) for v in relation_vectors]
        pivots = []
        reduced = []
        for row in rows:
            row = list(row)
            for (p, r) in zip(pivots, reduced):
                c = row[p]
                if not field.is_zero(c):
                    row = [field.sub(x, field.mul(c, y)) for x, y in zip(row, r)]
            lead = next((j for j, x in enumerate(row) if not field.is_zero(x)), None)
            if lead is None:
                continue
            inv = field.inv(row[lead])
            row = [field.mul(inv, x) for x in row]
            for k, (p, r) in enumerate(zip(pivots, reduced)):
                c = r[lead]
                if not field.is_zero(c):
                    reduced[k] = [field.sub(x, field.mul(c, y)) for x, y in zip(r, row)]
            pivots.append(lead)
            reduced.append(row)
        self.pivots = pivots
        self.reduced = reduced
        self.free = [j for j in range(dim) if j not in pivots]
        self.dim = len(self.free)

    def project(self, vec):
        """Coordinates of the class of vec on the free columns."""
        vec = list(vec)
        for p, r in zip(self.pivots, self.reduced):
            c = vec[p]
            if not self.field.is_zero(c):
                vec = [self.field.sub(x, self.field.mul(c, y)) for x, y in zip(vec, r)]
        return [vec[j] for j in self.free]

    def lift(self, coords):
        vec = _zero_vec(self.field, self.ambient_dim)
        for j, c in zip(self.free, coords):
            vec[j] = c
        return vec


# ---------------------------------------------------------------------------
# Algebras and bimodules.


@dataclass(frozen=True)
class FiniteAlgebra:
    """Associative unital algebra by structure constants on a fixed basis."""

    field: object
    dim: int
    mult: tuple        # mult[i][j] = vector of e_i e_j
    unit: tuple
    name: str = ""

    def __post_init__(self):
        if not self.field.is_field:
            raise NonFieldRing("algebras need field coefficients")
        f = self.field
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    lhs = self._mul_vec(self._mul_vec(self._basis(i), self._basis(j)), self._basis(k))
                    rhs = self._mul_vec(self._basis(i), self._mul_vec(self._basis(j), self._basis(k)))
                    if lhs != rhs:
                        raise ValueError(f"associativity fails at basis ({i},{j},{k})")
        for i in range(self.dim):
            e = self._basis(i)
            if self._mul_vec(list(self.unit), e) != e or self._mul_vec(e, list(self.unit)) != e:
                raise ValueError("unit axiom fails")

    def _basis(self, i):
        v = _zero_vec(self.field, self.dim)
        v[i] = self.field.one()
        return v

    def _mul_vec(self, u, v):
        f = self.field
        out = _zero_vec(f, self.dim)
        for i, a in enumerate(u):
            if f.is_zero(a):
                continue
            for j, b in enumerate(v):
                if f.is_zero(b):
                    continue
                c = f.mul(a, b)
                out = _vec_add(f, out, _vec_scale(f, c, self.mult[i][j]))
        return out

    def mul_vec(self, u, v):
        return self._mul_vec(list(u), list(v))

    @classmethod
    def ground(cls, field):
        one = field.one()
        return cls(field, 1, (((one,),),), (one,), name="k")

    @classmethod
    def matrix_algebra(cls, field, n):
        """n x n matrices; basis E_{ab} at index a*n + b."""
        dim = n * n
        zero = field.zero()
        one = field.one()
        mult = []
        for i in range(dim):
            a, b = divmod(i, n)
            row = []
            for j in range(dim):
                c, d = divmod(j, n)
                vec = [zero] * dim
                if b == c:
                    vec[a * n + d] = one
                row.append(tuple(vec))
            mult.append(tuple(row))
        unit = [zero] * dim
        for a in range(n):
            unit[a * n + a] = one
        return cls(field, dim, tuple(mult), tuple(unit), name=f"M{n}")

    @classmethod
    def poly_quotient(cls, field, modulus, name=""):
        """field[x]/(modulus), modulus monic of degree d, basis 1, x, ..."""
        d = len(modulus) - 1
        if d < 1 or not field.eq(modulus[-1], field.one()):
            raise ValueError("modulus must be monic of degree >= 1")

        def reduce(raw):
            raw = list(raw)
            for i in range(len(raw) - 1, d - 1, -1):
                c = raw[i]
                if field.is_zero(c):
                    continue
                for j in range(d + 1):
                    raw[i - d + j] = field.sub(raw[i - d + j], field.mul(c, modulus[j]))
            return tuple(raw[:d])

        mult = []
        for i in range(d):
            row = []
            for j in range(d):
                raw = [field.zero()] * (2 * d)
                raw[i + j] = field.one()
                row.append(reduce(raw))
            mult.append(tuple(row))
        unit = tuple(field.one() if i == 0 else field.zero() for i in range(d))
        return cls(field, d, tuple(mult), unit, name=name or "k[x]/(f)")

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
        field = ring_from_json(data["field"])
        mult = tuple(
            tuple(tuple(field.parse(c) for c in vec) for vec in row) for row in data["mult"]
        )
        unit = tuple(field.parse(c) for c in data["unit"])
        return cls(field, data["dim"], mult, unit, data.get("name", ""))


@dataclass(frozen=True)
class FiniteBimodule:
    """left-right bimodule by action tensors on a fixed basis."""

    left_algebra: FiniteAlgebra
    right_algebra: FiniteAlgebra
    dim: int
    left: tuple        # left[i][m] = vector of e_i . f_m
    right: tuple       # right[m][j] = vector of f_m . e_j
    name: str = ""

    def __post_init__(self):
        A, B = self.left_algebra, self.right_algebra
        f = A.field
        for m in range(self.dim):
            fm = self._basis(m)
            if self.left_act(list(A.unit), fm) != fm:
                raise ValueError("left unit axiom fails")
            if self.right_act(fm, list(B.unit)) != fm:
                raise ValueError("right unit axiom fails")
        for i in range(A.dim):
            for j in range(A.dim):
                for m in range(self.dim):
                    fm = self._basis(m)
                    lhs = self.left_act(A._basis(i), self.left_act(A._basis(j), fm))
                    rhs = self.left_act(A.mul_vec(A._basis(i), A._basis(j)), fm)
                    if lhs != rhs:
                        raise ValueError("left associativity fails")
        for i in range(B.dim):
            for j in range(B.dim):
                for m in range(self.dim):
                    fm = self._basis(m)
                    lhs = self.right_act(self.right_act(fm, B._basis(i)), B._basis(j))
                    rhs = self.right_act(fm, B.mul_vec(B._basis(i), B._basis(j)))
                    if lhs != rhs:
                        raise ValueError("right associativity fails")
        for i in range(A.dim):
            for m in range(self.dim):
                for j in range(B.dim):
                    fm = self._basis(m)
                    lhs = self.right_act(self.left_act(A._basis(i), fm), B._basis(j))
                    rhs = self.left_act(A._basis(i), self.right_act(fm, B._basis(j)))
                    if lhs != rhs:
                        raise ValueError("actions do not commute")

    @property
    def field(self):
        return self.left_algebra.field

    def _basis(self, m):
        v = _zero_vec(self.field, self.dim)
        v[m] = self.field.one()
        return v

    def left_act(self, avec, mvec):
        f = self.field
        out = _zero_vec(f, self.dim)
        for i, a in enumerate(avec):
            if f.is_zero(a):
                continue
            for m, c in enumerate(mvec):
                if f.is_zero(c):
                    continue
                out = _vec_add(f, out, _vec_scale(f, f.mul(a, c), self.left[i][m]))
        return out

    def right_act(self, mvec, bvec):
        f = self.field
        out = _zero_vec(f, self.dim)
        for m, c in enumerate(mvec):
            if f.is_zero(c):
                continue
            for j, b in enumerate(bvec):
                if f.is_zero(b):
                    continue
                out = _vec_add(f, out, _vec_scale(f, f.mul(c, b), self.right[m][j]))
        return out

    @classmethod
    def regular(cls, A):
        """A over itself."""
        left = tuple(tuple(A.mult[i][m] for m in range(A.dim)) for i in range(A.dim))
        right = tuple(tuple(A.mult[m][j] for j in range(A.dim)) for m in range(A.dim))
        return cls(A, A, A.dim, left, right, name=A.name)

    @classmethod
    def row_vectors(cls, field, n):
        """k - M_n bimodule of row vectors (dimension n)."""
        k = FiniteAlgebra.ground(field)
        Mn = FiniteAlgebra.matrix_algebra(field, n)
        left = ((tuple(tuple(field.one() if i == m else field.zero() for i in range(n)) for m in range(n)),))
        # row e_m . E_{cd} = delta_{mc} e_d
        right = []
        for m in range(n):
            row = []
            for j in range(n * n):
                c, d = divmod(j, n)
                vec = [field.zero()] * n
                if m == c:
                    vec[d] = field.one()
                row.append(tuple(vec))
            right.append(tuple(row))
        return cls(k, Mn, n, left, tuple(right), name="rows")

    @classmethod
    def column_vectors(cls, field, n):
        """M_n - k bimodule of column vectors (dimension n)."""
        k = FiniteAlgebra.ground(field)
        Mn = FiniteAlgebra.matrix_algebra(field, n)
        # E_{cd} . e_m = delta_{dm} e_c
        left = []
        for i in range(n * n):
            c, d = divmod(i, n)
            row = []
            for m in range(n):
                vec = [field.zero()] * n
                if d == m:
                    vec[c] = field.one()
                row.append(tuple(vec))
            left.append(tuple(row))
        right = tuple(
            tuple(tuple(field.one() if i == m else field.zero() for i in range(n)) for _ in range(1))
            for m in range(n)
        )
        return cls(Mn, k, n, tuple(left), right, name="cols")

    @classmethod
    def through_hom(cls, A, B, phi_matrix, name=""):
        """B as a bimodule with left A-action through an algebra map A -> B.

        phi_matrix[i] is the image vector of the i-th basis element of A.
        """
        field = A.field
        left = []
        for i in range(A.dim):
            img = list(phi_matrix[i])
            row = []
            for m in range(B.dim):
                row.append(tuple(B.mul_vec(img, B._basis(m))))
            left.append(tuple(row))
        right = tuple(tuple(B.mult[m][j] for j in range(B.dim)) for m in range(B.dim))
        return cls(A, B, B.dim, tuple(left), right, name=name or "B_phi")

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
    def from_json(cls, data):
        A = FiniteAlgebra.from_json(data["left_algebra"])
        B = FiniteAlgebra.from_json(data["right_algebra"])
        f = A.field
        left = tuple(
            tuple(tuple(f.parse(c) for c in vec) for vec in row) for row in data["left_action"]
        )
        right = tuple(
            tuple(tuple(f.parse(c) for c in vec) for vec in row) for row in data["right_action"]
        )
        return cls(A, B, data["dim"], left, right, data.get("name", ""))


# ---------------------------------------------------------------------------
# Relative tensor products.


@dataclass(frozen=True)
class ResolvedTensor:
    """M_1 (x)_B ... (x) M_k together with the projection from the plain
    tensor product (indices in row-major order of the factors)."""

    factors: tuple
    module: FiniteBimodule
    quotient: Subquotient


def relative_tensor(M: FiniteBimodule, N: FiniteBimodule):
    """Coequalizer of the two middle actions on M (x) N, as a bimodule."""
    if M.right_algebra != N.left_algebra:
        raise AlgebraMismatch("middle algebras differ")
    field = M.field
    B = M.right_algebra
    dim = M.dim * N.dim

    def tensor_index(m, n):
        return m * N.dim + n

    relations = []
    for m in range(M.dim):
        for b in range(B.dim):
            for n in range(N.dim):
                vec = _zero_vec(field, dim)
                mb = M.right_act(M._basis(m), B._basis(b))
                for mm, c in enumerate(mb):
                    if not field.is_zero(c):
                        vec[tensor_index(mm, n)] = field.add(vec[tensor_index(mm, n)], c)
                bn = N.left_act(B._basis(b), N._basis(n))
                for nn, c in enumerate(bn):
                    if not field.is_zero(c):
                        vec[tensor_index(m, nn)] = field.sub(vec[tensor_index(m, nn)], c)
                relations.append(vec)
    quot = Subquotient(field, dim, relations)
    A, C = M.left_algebra, N.right_algebra

    def act_left(avec, idx):
        m, n = divmod(idx, N.dim)
        out = _zero_vec(field, dim)
        am = M.left_act(avec, M._basis(m))
        for mm, c in enumerate(am):
            if not field.is_zero(c):
                out[tensor_index(mm, n)] = c
        return out

    def act_right(idx, bvec):
        m, n = divmod(idx, N.dim)
        out = _zero_vec(field, dim)
        nb = N.right_act(N._basis(n), bvec)
        for nn, c in enumerate(nb):
            if not field.is_zero(c):
                out[tensor_index(m, nn)] = c
        return out

    left = []
    for i in range(A.dim):
        row = []
        for q in range(quot.dim):
            amb = quot.lift([field.one() if t == q else field.zero() for t in range(quot.dim)])
            acc = _zero_vec(field, dim)
            for idx, c in enumerate(amb):
                if not field.is_zero(c):
                    acc = _vec_add(field, acc, _vec_scale(field, c, act_left(A._basis(i), idx)))
            row.append(tuple(quot.project(acc)))
        left.append(tuple(row))
    right = []
    for q in range(quot.dim):
        amb = quot.lift([field.one() if t == q else field.zero() for t in range(quot.dim)])
        row = []
        for j in range(C.dim):
            acc = _zero_vec(field, dim)
            for idx, c in enumerate(amb):
                if not field.is_zero(c):
                    acc = _vec_add(field, acc, _vec_scale(field, c, act_right(idx, C._basis(j))))
            row.append(tuple(quot.project(acc)))
        right.append(tuple(row))
    module = FiniteBimodule(A, C, quot.dim, tuple(left), tuple(right), name=f"({M.name}(x){N.name})")
    return module, quot


# ---------------------------------------------------------------------------
# Labelled cycles and their bar complexes.


@dataclass(frozen=True)
class LabelledCycle:
    algebras: tuple
    bimodules: tuple

    def __post_init__(self):
        n = len(self.algebras)
        if n < 1 or len(self.bimodules) != n:
            raise ValueError("need one algebra and one bimodule per slot")
        for a in range(n):
            M = self.bimodules[a]
            if M.left_algebra != self.algebras[a] or M.right_algebra != self.algebras[(a + 1) % n]:
                raise AlgebraMismatch(f"edge {a} does not match its endpoint algebras")

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
        return cls((R,) * n, (FiniteBimodule.regular(R) if M is None else M,) * n)

    def spec(self):
        return LabelledCycleSpec(
            self.n,
            tuple(A.name or f"A{i}" for i, A in enumerate(self.algebras)),
            tuple(M.name or f"M{i}" for i, M in enumerate(self.bimodules)),
        )

    def resolved(self, path: Path):
        """Value of a path: the algebra at a vertex, or the iterated relative
        tensor of the edge modules it covers."""
        if path.n != self.n:
            raise ValueError("path does not live on this cycle")
        if path.is_vertex:
            return self.algebras[path.start]
        return _resolved_edge(self, path)

    def label_dim(self, path: Path):
        if path.is_vertex:
            return self.algebras[path.start].dim
        if path.length == 1:
            return self.bimodules[path.start].dim
        return self.resolved(path).module.dim

    def contract(self, a):
        """The (n-1)-cycle with edges a, a+1 fused across vertex a+1 (mod n).

        Labels are pulled back along the vertex-dropping map, so the cycle
        stays aligned with the chain-level comparison morphisms.
        """
        if self.n < 2:
            raise SizeGuard("cannot contract a 1-cycle")
        n = self.n
        c = CyclicMap.contraction(n, a)
        algebras = tuple(self.algebras[c(j) % n] for j in range(n - 1))
        bimodules = []
        for j in range(n - 1):
            length = c(j + 1) - c(j)
            start = c(j) % n
            if length == 1:
                bimodules.append(self.bimodules[start])
            else:
                fused, _ = relative_tensor(
                    self.bimodules[start], self.bimodules[(start + 1) % n]
                )
                bimodules.append(fused)
        return LabelledCycle(algebras, tuple(bimodules))

    def to_json(self):
        return {
            "algebras": [A.to_json() for A in self.algebras],
            "bimodules": [M.to_json() for M in self.bimodules],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            tuple(FiniteAlgebra.from_json(a) for a in data["algebras"]),
            tuple(FiniteBimodule.from_json(m) for m in data["bimodules"]),
        )


@lru_cache(maxsize=None)
def _resolved_edge(cycle, path):
    mods = [cycle.bimodules[(path.start + i) % cycle.n] for i in range(path.length)]
    current = mods[0]
    quotients = []
    for nxt in mods[1:]:
        current, q = relative_tensor(current, nxt)
        quotients.append(q)
    return ResolvedTensor(tuple(mods), current, _compose_quotients(cycle, mods, quotients))


def _compose_quotients(cycle, mods, quotients):
    """Projection from the plain tensor of mods onto the iterated quotient."""
    field = mods[0].field
    full_dim = 1
    for m in mods:
        full_dim *= m.dim
    if not quotients:
        return None

    def project(vec_terms):
        # vec_terms: dict plain-tensor-index -> coeff over the full tensor.
        # Fold left: indices split as (prefix, rest) factor by factor.
        dims = [m.dim for m in mods]
        terms = vec_terms
        current_dim = dims[0]
        for step, q in enumerate(quotients):
            next_dim = dims[step + 1]
            rest_dim = 1
            for d in dims[step + 2:]:
                rest_dim *= d
            grouped = {}
            for idx, c in terms.items():
                pair, rest = divmod(idx, rest_dim)
                grouped.setdefault(rest, {})[pair] = c
            new_terms = {}
            for rest, sub in grouped.items():
                amb = _zero_vec(field, current_dim * next_dim)
                for pair, c in sub.items():
                    amb[pair] = field.add(amb[pair], c)
                proj = q.project(amb)
                for out_idx, c in enumerate(proj):
                    if field.is_zero(c):
                        continue
                    key = out_idx * rest_dim + rest
                    val = field.add(new_terms.get(key, field.zero()), c)
                    if field.is_zero(val):
                        new_terms.pop(key, None)
                    else:
                        new_terms[key] = val
            terms = new_terms
            current_dim = q.dim
        return terms

    return project


@dataclass(frozen=True)
class ChainComplex:
    """Nonnegatively graded complex with boundaries d_q : C_q -> C_{q-1}."""

    ring: object
    dims: tuple
    boundaries: dict

    @property
    def top(self):
        return len(self.dims) - 1

    def boundary(self, q):
        return self.boundaries[q]

    def validate(self):
        for q in range(2, self.top + 1):
            if not self.boundaries[q - 1].mul(self.boundaries[q]).is_zero():
                return False
        return True


def multiply_sequence(cycle, target_path, factors):
    """Value of one fiber: multiply labelled factors along the target path.

    factors is the admissible sequence [(path, basis index), ...]; returns a
    dict index -> coefficient in the resolved module of target_path.
    """
    field = cycle.field
    if target_path.is_vertex:
        A = cycle.algebras[target_path.start]
        acc = {i: c for i, c in enumerate(A.unit) if not field.is_zero(c)}
        for p, idx in factors:
            acc = _combo_mul(field, acc, {idx: field.one()}, A.mult)
        return acc
    # Edge target: group factors into edge values with algebra actions.
    edges = []           # list of dicts (one per covered edge)
    pending = None       # algebra combination waiting to act
    pending_alg = None
    for p, idx in factors:
        if p.is_vertex:
            A = cycle.algebras[p.start]
            if pending is None:
                pending = {i: c for i, c in enumerate(A.unit) if not field.is_zero(c)}
                pending_alg = A
            pending = _combo_mul(field, pending, {idx: field.one()}, A.mult)
        else:
            if p.length != 1:
                raise ValueError("fiber factors must be vertices or single edges")
            M = cycle.bimodules[p.start]
            value = {idx: field.one()}
            if pending is not None:
                out = {}
                for i, c in pending.items():
                    for m, d in value.items():
                        for k, e in enumerate(M.left[i][m]):
                            if field.is_zero(e):
                                continue
                            v = field.add(out.get(k, field.zero()), field.mul(field.mul(c, d), e))
                            if field.is_zero(v):
                                out.pop(k, None)
                            else:
                                out[k] = v
                value = out
                pending = None
            edges.append((M, value))
    if pending is not None:
        # Trailing algebra acts on the last edge from the right.
        M, value = edges[-1]
        out = {}
        for m, c in value.items():
            for j, d in pending.items():
                for k, e in enumerate(M.right[m][j]):
                    if field.is_zero(e):
                        continue
                    v = field.add(out.get(k, field.zero()), field.mul(field.mul(c, d), e))
                    if field.is_zero(v):
                        out.pop(k, None)
                    else:
                        out[k] = v
        edges[-1] = (M, out)
        pending = None
    if len(edges) != target_path.length:
        raise ValueError("edge count does not cover the target path")
    if target_path.length == 1:
        return edges[0][1]
    # Long target: plain tensor of the edge values, then project.
    resolved = cycle.resolved(target_path)
    dims = [m.dim for m, _ in edges]
    terms = {0: field.one()}
    for (m, value), d in zip(edges, dims):
        new_terms = {}
        for idx, c in terms.items():
            for k, e in value.items():
                key = idx * d + k
                v = field.add(new_terms.get(key, field.zero()), field.mul(c, e))
                if not field.is_zero(v):
                    new_terms[key] = v
        terms = new_terms
    if resolved.quotient is None:
        return terms
    return resolved.quotient(terms)


def envelope_matrix(cycle, env: EnvelopeMorphism, target_paths, target_dims):
    """Matrix of the multilinear map induced by an envelope morphism.

    Source basis indices run over the product of the source colour dimensions
    in element order; likewise for the target.
    """
    field = cycle.field
    src_dims = [cycle.label_dim(c) for c in env.source.colours]
    src_total = 1
    for d in src_dims:
        src_total *= d
    tgt_total = 1
    for d in target_dims:
        tgt_total *= d
    entries = {}
    for col, combo in enumerate(product(*[range(d) for d in src_dims])):
        per_target = []
        for y, fiber in enumerate(env.fiber_orders):
            factors = [(env.source.colours[x], combo[x]) for x in fiber]
            per_target.append(multiply_sequence(cycle, target_paths[y], factors))
        # expand the outer product over target elements
        acc = {0: field.one()}
        for y, terms in enumerate(per_target):
            d = target_dims[y]
            new_acc = {}
            for idx, c in acc.items():
                for k, e in terms.items():
                    v = field.mul(c, e)
                    if field.is_zero(v):
                        continue
                    key = idx * d + k
                    cur = field.add(new_acc.get(key, field.zero()), v)
                    if field.is_zero(cur):
                        new_acc.pop(key, None)
                    else:
                        new_acc[key] = cur
            acc = new_acc
        for row, c in acc.items():
            entries[(row, col)] = c
    return IntMatrix(field, tgt_total, src_total, entries)


BAR_DIMENSION_GUARD = 20000


def bar_complex(cycle: LabelledCycle, degree_bound):
    """The cyclic bar complex through the given degree.

    Level q is the tensor product of the labels of the level-q cut set; the
    boundary is the alternating sum of the face maps.
    """
    if degree_bound < 0:
        raise DegreeBoundNegative("degree bound must be >= 0")
    field = cycle.field
    n = cycle.n
    dims = []
    cut_sets = []
    for q in range(degree_bound + 1):
        cut = CutSet(q, n)
        total = 1
        for e in range(cut.size):
            total *= cycle.label_dim(cut.colour(e))
        if total > BAR_DIMENSION_GUARD:
            raise SizeGuard(f"bar complex dimension {total} exceeds {BAR_DIMENSION_GUARD}")
        dims.append(total)
        cut_sets.append(cut)
    boundaries = {}
    for q in range(1, degree_bound + 1):
        cut = cut_sets[q]
        lo = cut_sets[q - 1]
        target_paths = [lo.colour(e) for e in range(lo.size)]
        target_dims = [cycle.label_dim(p) for p in target_paths]
        total = IntMatrix.zeros(field, dims[q - 1], dims[q])
        sign = field.one()
        for i in range(q + 1):
            env = cut_face(cut, i)
            mat = envelope_matrix(cycle, env, target_paths, target_dims)
            total = total.add(mat.scale(sign))
            sign = field.neg(sign)
        boundaries[q] = total
    return ChainComplex(field, tuple(dims), boundaries)


def homology(complex_: ChainComplex, upto=None):
    """Homology dimensions in degrees 0..upto (default top-1)."""
    if not complex_.ring.is_field:
        raise NonFieldRing("homology needs field coefficients")
    if upto is None:
        upto = complex_.top - 1
    if upto > complex_.top - 1:
        raise ValueError("top degree is boundary-incomplete")
    ranks = {}

    def rank(q):
        if q not in ranks:
            ranks[q] = rank_of(complex_.boundary(q))
        return ranks[q]

    out = []
    for q in range(upto + 1):
        kernel_dim = complex_.dims[q] - (rank(q) if q > 0 else 0)
        out.append(kernel_dim - rank(q + 1))
    return out


def integral_homology_one_cycle(R: FiniteAlgebra, M: FiniteBimodule, degree_bound):
    """Integral homology of the one-cycle bar complex, by Smith form.

    The labels must have integral structure constants (rational entries with
    denominator 1); homology groups are returned as (torsion, free rank)
    pairs through degree_bound - 1.

    Every chain group is free, so ker d_q is a direct summand and H_q is read
    off the boundaries alone: its torsion is the invariant factors > 1 of
    d_{q+1}, and its free rank is dims[q] - rank d_q - rank d_{q+1}.
    """
    complex_ = bar_complex(LabelledCycle.one_cycle(R, M), degree_bound)
    out = []
    rank_d = 0  # rank of d_q; d_0 = 0
    for q in range(degree_bound):
        entries = {}
        for (i, j), v in complex_.boundary(q + 1).items():
            f = Fraction(v)
            if f.denominator != 1:
                raise ValueError("structure constants are not integral")
            # transposed: the rows present Z^dims[q] modulo the image of d_{q+1}
            entries[(j, i)] = int(f)
        image = IntMatrix(ZZ, complex_.dims[q + 1], complex_.dims[q], entries)
        torsion, free = invariant_factors(image)  # free = dims[q] - rank d_{q+1}
        out.append((torsion, free - rank_d))
        rank_d = complex_.dims[q] - free
    return out


def thh_pi0(R: FiniteAlgebra, M: FiniteBimodule):
    """M modulo the commutator subspace m.r - r.m; returns (dim, quotient)."""
    if M.left_algebra != R or M.right_algebra != R:
        raise AlgebraMismatch("coefficients must be a bimodule over the algebra")
    field = R.field
    relations = []
    for m in range(M.dim):
        for r in range(R.dim):
            mr = M.right_act(M._basis(m), R._basis(r))
            rm = M.left_act(R._basis(r), M._basis(m))
            relations.append([field.sub(a, b) for a, b in zip(mr, rm)])
    quot = Subquotient(field, M.dim, relations)
    return quot.dim, quot


# ---------------------------------------------------------------------------
# Trace comparisons.


def contraction_chain_map(cycle: LabelledCycle, a, degree_bound):
    """Chain map from the bar complex of the cycle to that of the contraction.

    Returns (source complex, target complex, per-degree matrices).
    """
    if cycle.n < 2:
        raise SizeGuard("cannot contract a 1-cycle")
    n = cycle.n
    contracted = cycle.contract(a)
    f = CyclicMap.contraction(n, a)
    src = bar_complex(cycle, degree_bound)
    dst = bar_complex(contracted, degree_bound)
    maps = {}
    for q in range(degree_bound + 1):
        cut = CutSet(q, n)
        env, lo = cut_envelope_cyclic(cut, f)
        # env.target carries the pushed colours (paths on the big cycle);
        # their resolved values are the labels of the contracted cycle.
        target_paths = list(env.target.colours)
        target_dims = [cycle.label_dim(p) for p in target_paths]
        maps[q] = envelope_matrix(cycle, env, target_paths, target_dims)
    return src, dst, maps


def is_chain_map(src, dst, maps):
    for q in range(1, src.top + 1):
        lhs = maps[q - 1].mul(src.boundary(q))
        rhs = dst.boundary(q).mul(maps[q])
        if not lhs.sub(rhs).is_zero():
            return False
    return True


def _kernel_columns(matrix):
    _, basis = rank_and_kernel(matrix)
    return basis


def _rank_of_columns(field, columns, dim):
    if not columns:
        return 0
    m = IntMatrix(field, dim, len(columns), {
        (i, j): columns[j][i]
        for j in range(len(columns))
        for i in range(dim)
        if not field.is_zero(columns[j][i])
    })
    return rank_of(m)


def homology_map_is_iso(src, dst, maps, q):
    """Does the chain map induce an isomorphism on H_q?

    Checked by dimension count plus surjectivity: the image of the source
    kernel must cover the target homology modulo boundaries.
    """
    field = src.ring
    if q == 0:
        src_kernel = [[field.one() if i == j else field.zero() for i in range(src.dims[0])] for j in range(src.dims[0])]
        dst_kernel_dim = dst.dims[0]
    else:
        src_kernel = _kernel_columns(src.boundary(q))
        dst_kernel_dim = dst.dims[q] - rank_of(dst.boundary(q))
    rank_next_src = rank_of(src.boundary(q + 1))
    rank_next_dst = rank_of(dst.boundary(q + 1))
    h_src = len(src_kernel) - rank_next_src
    h_dst = dst_kernel_dim - rank_next_dst
    if h_src != h_dst:
        return False
    boundary_cols = column_space_basis(dst.boundary(q + 1))
    image_cols = [maps[q].mul_vec(v) for v in src_kernel]
    covered = _rank_of_columns(field, boundary_cols + image_cols, dst.dims[q]) - len(boundary_cols)
    return covered == h_dst


def contraction_comparison(cycle: LabelledCycle, a, degree_bound):
    """Contract one edge and compare homology through degree_bound - 1.

    Returns a report: the chain-map property, per-degree homology dimensions
    on both sides, and the quasi-isomorphism verdict.
    """
    src, dst, maps = contraction_chain_map(cycle, a, degree_bound)
    chain = is_chain_map(src, dst, maps)
    verdicts = []
    for q in range(degree_bound):
        verdicts.append(homology_map_is_iso(src, dst, maps, q))
    return {
        "chain_map": chain,
        "source_homology": homology(src),
        "target_homology": homology(dst),
        "iso_through": verdicts,
        "quasi_iso": chain and all(verdicts),
    }


def rotation_matrices(cycle: LabelledCycle, k, degree_bound):
    """Chain automorphism induced by the rotation by k slots.

    The labels must be invariant under the rotation (uniform cycles).
    """
    n = cycle.n
    rotated = LabelledCycle(
        tuple(cycle.algebras[(i + k) % n] for i in range(n)),
        tuple(cycle.bimodules[(i + k) % n] for i in range(n)),
    )
    if rotated != cycle:
        raise ValueError("labels are not invariant under this rotation")
    tau = CyclicMap.rotation(n, k)
    maps = {}
    for q in range(degree_bound + 1):
        cut = CutSet(q, n)
        env, _ = cut_envelope_cyclic(cut, tau)
        target_paths = list(env.target.colours)
        target_dims = [cycle.label_dim(p) for p in target_paths]
        maps[q] = envelope_matrix(cycle, env, target_paths, target_dims)
    return maps


def induced_homology_matrix(complex_, chain_map_q, q):
    """Matrix of the induced endomorphism on H_q in a chosen kernel basis."""
    field = complex_.ring
    if q == 0:
        kernel = [[field.one() if i == j else field.zero() for i in range(complex_.dims[0])] for j in range(complex_.dims[0])]
    else:
        kernel = _kernel_columns(complex_.boundary(q))
    boundary_cols = column_space_basis(complex_.boundary(q + 1))
    h_dim = len(kernel) - len(boundary_cols)
    if h_dim == 0:
        return IntMatrix.zeros(field, 0, 0)
    # Reduce modulo boundaries: homology coordinates are the quotient classes.
    quot = Subquotient(field, complex_.dims[q], boundary_cols)
    chosen = []
    chosen_vecs = []
    echelon = {}
    for v in kernel:
        c = quot.project(v)
        col = {i: x for i, x in enumerate(c) if not field.is_zero(x)}
        if col and _echelon_insert(field, echelon, col):
            chosen.append(v)
            chosen_vecs.append(c)
            if len(chosen) == h_dim:
                break
    cols = []
    for v in chosen:
        img = chain_map_q.mul_vec(v)
        target = quot.project(img)
        sol = _solve_in_span(field, chosen_vecs, target)
        if sol is None:
            raise AssertionError("image leaves the homology span")
        cols.append(sol)
    entries = {}
    for j, col in enumerate(cols):
        for i, c in enumerate(col):
            if not field.is_zero(c):
                entries[(i, j)] = c
    return IntMatrix(field, h_dim, h_dim, entries)


def _solve_in_span(field, basis_vectors, target):
    if not basis_vectors:
        return [] if all(field.is_zero(t) for t in target) else None
    dim = len(basis_vectors[0])
    cols = len(basis_vectors)
    aug = [[basis_vectors[j][i] for j in range(cols)] + [target[i]] for i in range(dim)]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, dim) if not field.is_zero(aug[i][c])), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = field.inv(aug[r][c])
        aug[r] = [field.mul(inv, x) for x in aug[r]]
        for i in range(dim):
            if i != r and not field.is_zero(aug[i][c]):
                f0 = aug[i][c]
                aug[i] = [field.sub(x, field.mul(f0, y)) for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, dim):
        if not field.is_zero(aug[i][cols]):
            return None
    sol = [field.zero()] * cols
    for row, c in enumerate(pivots):
        sol[c] = aug[row][cols]
    return sol


def rotation_action(R: FiniteAlgebra, M: FiniteBimodule, n, degree_bound):
    """Rotation data on the bar complex of the uniform n-cycle (R, M; ...).

    Returns the chain matrices of the generator, exactness of the relations
    (commutation with the boundary and order n), and the induced matrices on
    homology through degree_bound - 1.
    """
    cycle = LabelledCycle((R,) * n, (M,) * n)
    complex_ = bar_complex(cycle, degree_bound)
    maps = rotation_matrices(cycle, 1, degree_bound)
    commutes = is_chain_map(complex_, complex_, maps)
    order_ok = True
    for q in range(degree_bound + 1):
        power = IntMatrix.identity(complex_.ring, complex_.dims[q])
        for _ in range(n):
            power = maps[q].mul(power)
        if power != IntMatrix.identity(complex_.ring, complex_.dims[q]):
            order_ok = False
    homology_action = []
    for q in range(degree_bound):
        homology_action.append(
            induced_homology_matrix(complex_, maps[q], q).to_lists()
        )
    return {
        "commutes_with_boundary": commutes,
        "order_exact": order_ok,
        "homology_dims": homology(complex_),
        "homology_action": homology_action,
        "chain_maps": maps,
        "complex": complex_,
    }
