"""Value semantics of the package's 21 value types.

Each class is built positionally and by keyword; equal values compare equal
and, where the class is hashable, hash equal; changing one field breaks
equality; caches that are not part of the value do not change it.  All but
ChainComplex take their equality and hash from one base, `Value`.  Every
constructor check is pinned by exception type and message, and so is every
repr that can reach a command-line message.
"""

import json

import pytest
from click.testing import CliRunner

from polygonic.cli import main
from polygonic.cyclic import CutSet, CyclicMap, Path, Value
from polygonic.hochschild import (
    ChainComplex,
    FiniteAlgebra,
    FiniteBimodule,
    LabelledCycle,
)
from polygonic.mackey import AxiomReport, FPGroup, GroupWithAction, Hom, MackeyWindow
from polygonic.operad import ColouredSet, EnvelopeMorphism, LabelledCycleSpec
from polygonic.qfin import QFinMap, QFinSet, SpanMorphism
from polygonic.rings import QQ, ZZ, IntMatrix, ModularRing
from polygonic.truncation import TruncationSet
from polygonic.witt import (
    GhostVector,
    SupportMismatch,
    WittVector,
    to_series,
    verschiebung,
)

DUAL = FiniteAlgebra.poly_quotient(QQ, (0, 0, 1), name="k[e]")  # QQ[e]/(e^2)
SPLIT = FiniteAlgebra.poly_quotient(QQ, (-1, 0, 1), name="k[C2]")  # QQ[x]/(x^2 - 1)
REGULAR = FiniteBimodule.regular(DUAL)
TWISTED = FiniteBimodule.through_hom(DUAL, DUAL, [(1, 0), (0, 2)])
X = ColouredSet(2, (Path.vertex(2, 0), Path.edge(2, 0, 1)))
T12 = TruncationSet((1, 2))
Z2, Z4 = QFinSet((2,)), QFinSet((4,))
G4 = FPGroup(1, IntMatrix(ZZ, 1, 1, {(0, 0): 4}))
V0, V1 = (ColouredSet(2, (Path.vertex(2, a),)) for a in (0, 1))
V00, V11 = (ColouredSet(2, (Path.vertex(2, a),) * 2) for a in (0, 1))


def d1(entry):
    return {1: IntMatrix(QQ, 1, 1, {(0, 0): entry})}


# class -> (fields in constructor order with a value each, changed values,
# hashable?).  A changed value is given for one field, or for a tuple of
# fields that can only change together.
CASES = {
    Path: ({"n": 3, "start": 1, "length": 2}, {"n": 4, "start": 0, "length": 1}, True),
    CyclicMap: ({"source_n": 2, "target_n": 3, "vals": (0, 2)}, {"target_n": 4, "vals": (1, 2)}, True),
    CutSet: ({"q": 1, "n": 2, "p": None}, {"q": 2, "n": 3, "p": 2}, True),
    FiniteAlgebra: (
        {"field": QQ, "dim": 2, "mult": DUAL.mult, "unit": DUAL.unit, "name": "k[e]"},
        {"mult": SPLIT.mult, "name": "other"},
        True,
    ),
    FiniteBimodule: (
        {"left_algebra": DUAL, "right_algebra": DUAL, "dim": 2, "left": DUAL.mult,
         "right": DUAL.mult, "name": "k[e]"},
        {"left": TWISTED.left, "name": "other"},
        True,
    ),
    LabelledCycle: ({"algebras": (DUAL,), "bimodules": (REGULAR,)}, {"bimodules": (TWISTED,)}, True),
    ChainComplex: (
        {"ring": QQ, "dims": (1, 1), "boundaries": d1(1), "bases": ()},
        {"ring": ModularRing(5), "dims": (1, 2), "boundaries": d1(2)},
        False,
    ),
    TruncationSet: ({"elements": (1, 2)}, {"elements": (1, 3)}, True),
    WittVector: (
        {"ring": ZZ, "support": T12, "coeffs": (3, 4)},
        {"ring": ModularRing(8), "support": TruncationSet((1, 3)), "coeffs": (3, 5)},
        True,
    ),
    GhostVector: ({"support": T12, "values": (3, 4)}, {"support": TruncationSet((1, 3)), "values": (3, 5)}, True),
    ColouredSet: (
        {"n": 2, "colours": X.colours},
        {"colours": (Path.vertex(2, 1),), ("n", "colours"): (3, (Path.vertex(3, 0),))},
        True,
    ),
    EnvelopeMorphism: (
        {"source": V00, "target": V0, "f": (0, 0), "fiber_orders": ((0, 1),)},
        {"fiber_orders": ((1, 0),), ("source", "target"): (V11, V1),
         ("target", "f", "fiber_orders"): (V00, (0, 1), ((0,), (1,)))},
        True,
    ),
    LabelledCycleSpec: (
        {"n": 2, "vertices": ("A", "B"), "edges": ("M", "N")},
        {"vertices": ("A", "C"), "edges": ("M", "P")},
        True,
    ),
    FPGroup: ({"ngens": 1, "relations": G4.relations}, {"relations": IntMatrix(ZZ, 1, 1, {(0, 0): 6})}, True),
    Hom: (
        {"dom": G4, "cod": G4, "matrix": IntMatrix(ZZ, 1, 1, {(0, 0): 3})},
        {"dom": FPGroup.free(1), "cod": FPGroup(1, IntMatrix(ZZ, 1, 1, {(0, 0): 8})), "matrix": IntMatrix(ZZ, 1, 1, {(0, 0): 1})},
        True,
    ),
    GroupWithAction: (
        {"group": G4, "action": IntMatrix(ZZ, 1, 1, {(0, 0): 3}), "order": 2},
        {"group": FPGroup(1, IntMatrix(ZZ, 1, 1, {(0, 0): 8})), "action": IntMatrix(ZZ, 1, 1, {(0, 0): 1}), "order": 4},
        True,
    ),
    MackeyWindow: (
        {"window": TruncationSet((1,)), "groups": {1: G4}, "weyl": {1: IntMatrix.identity(ZZ, 1)},
         "res": {}, "tr": {}},
        {"groups": {1: FPGroup.free(1)}, "weyl": {1: IntMatrix(ZZ, 1, 1, {(0, 0): 3})},
         "res": {(1, 1): IntMatrix.identity(ZZ, 1)}, "tr": {(1, 1): IntMatrix.identity(ZZ, 1)}},
        False,
    ),
    AxiomReport: ({"ok": True, "checked": 0, "failures": []}, {"ok": False, "checked": 1, "failures": ["x"]}, False),
    QFinSet: ({"orbits": (2, 3), "tail": None}, {"orbits": (3, 2), "tail": (5,)}, True),
    QFinMap: ({"source": Z4, "target": Z2, "assign": ((0, 1),)}, {"source": QFinSet((2,)), "assign": ((0, 0),)}, True),
    SpanMorphism: (
        {"left": QFinMap(Z4, Z2, ((0, 0),)), "right": QFinMap(Z4, Z4, ((0, 0),))},
        {"left": QFinMap(Z4, Z2, ((0, 1),)), "right": QFinMap(Z4, Z4, ((0, 3),))},
        True,
    ),
}


def test_the_cases_cover_all_21_value_types():
    assert len(CASES) == 21


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_equal_values_compare_and_hash_equal(cls):
    fields, changes, hashable = CASES[cls]
    a, b = cls(*fields.values()), cls(**fields)
    assert a == b and not a != b
    assert a != object() and not a == object()
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for names, values in changes.items():
        changed = dict(zip(names, values)) if isinstance(names, tuple) else {names: values}
        other = cls(**{**fields, **changed})
        assert a != other and not a == other, names


def test_equality_comes_from_one_base():
    # ChainComplex keeps its own __eq__: its bases field is not compared
    for cls, (_, _, hashable) in CASES.items():
        if cls is ChainComplex:
            assert not issubclass(cls, Value) and "__eq__" in vars(cls)
            continue
        assert issubclass(cls, Value) and cls.__eq__ is Value.__eq__, cls
        assert cls.__hash__ is (Value.__hash__ if hashable else None), cls


def test_values_of_two_classes_differ_where_their_fields_agree():
    assert Path(3, 1, 2) != CutSet(3, 1, 2) and not Path(3, 1, 2) == CutSet(3, 1, 2)
    assert CutSet(3, 1, 2) != Path(3, 1, 2)
    assert len({Path(3, 1, 2), CutSet(3, 1, 2)}) == 2


def test_defaults():
    assert CutSet(1, 2) == CutSet(1, 2, None)
    assert QFinSet((2,)) == QFinSet((2,), None)
    assert FiniteAlgebra(QQ, 2, DUAL.mult, DUAL.unit).name == ""
    assert FiniteBimodule(DUAL, DUAL, 2, DUAL.mult, DUAL.mult).name == ""
    assert AxiomReport() == AxiomReport(True, 0, [])
    assert AxiomReport().failures is not AxiomReport().failures
    assert ChainComplex(QQ, (1, 1), d1(1)).bases == ()


def test_normalized_fields():
    f = CyclicMap(2, 3, [3, 5])
    assert f.vals == (0, 2) and f == CyclicMap(2, 3, (0, 2))
    T = TruncationSet([2, 1, 2])
    assert T.elements == (1, 2) and T == T12 and hash(T) == hash(T12)
    assert 2 in T and 3 not in T
    g = QFinMap(Z4, Z2, [(0, 3)])
    assert g.assign == ((0, 1),) and g == QFinMap(Z4, Z2, ((0, 1),))


def test_caches_stay_out_of_the_value():
    M2 = FiniteAlgebra.matrix_algebra(QQ, 2)  # its unit is not basis vector 0
    cycle = LabelledCycle.uniform(M2, None, 1)
    cycle.fused(0)
    assert cycle.unit_first() is not cycle and cycle.unit_first() is cycle.unit_first()
    fresh = LabelledCycle.uniform(M2, None, 1)
    assert cycle == fresh and hash(cycle) == hash(fresh)

    complex_ = ChainComplex(QQ, (1, 1), d1(1), bases=("a",))
    assert complex_.rank(1) == 1 and complex_.cycles(1) == []
    assert complex_ == ChainComplex(QQ, (1, 1), d1(1))

    fields = CASES[MackeyWindow][0]
    window = MackeyWindow(**fields)
    window.weyl_hom(1, 0)
    window.up_leg(1, 1, 0)
    window.down_leg(1, 1, 0)
    assert window == MackeyWindow(**fields)

    fields = CASES[FPGroup][0]
    group = FPGroup(**fields)
    assert group.invariants() == ([4], 0) and group.are_zero([{0: 8}])
    assert group == FPGroup(**fields) and hash(group) == hash(FPGroup(**fields))


def test_paths_sort_by_size_start_and_length():
    paths = [Path(3, 2, 0), Path(2, 1, 1), Path(3, 0, 3), Path(2, 1, 0), Path(3, 0, 1)]
    assert sorted(paths) == sorted(paths, key=lambda p: (p.n, p.start, p.length))
    assert min(paths) == Path(2, 1, 0) and max(paths) == Path(3, 2, 0)
    assert Path(2, 0, 2) < Path(2, 1, 0) and not Path(2, 1, 0) < Path(2, 1, 0)


CHECKS = [
    (lambda: Path(2, 2, 0), ValueError, "bad path (2, 2, 0)"),
    (lambda: Path(2, 0, 3), ValueError, "bad path (2, 0, 3)"),
    (lambda: CyclicMap(0, 2, ()), ValueError, "cycle sizes must be >= 1, got 0, 2"),
    (lambda: CyclicMap(2, 2, (0,)), ValueError, "vals length must equal source_n"),
    (lambda: CyclicMap(2, 2, (1, 0)), ValueError, "map is not nondecreasing"),
    (lambda: CyclicMap(2, 2, (0, 3)), ValueError, "map exceeds one period"),
    (lambda: CutSet(-1, 2), ValueError, "the indexing order must be nonempty"),
    (lambda: CutSet(1, 0), ValueError, "n must be >= 1"),
    (lambda: CutSet(1, 2, 0), ValueError, "p must be >= 1"),
    (lambda: FiniteAlgebra(ZZ, 1, (((1,),),), (1,)), ValueError, "algebras need field coefficients"),
    (lambda: FiniteAlgebra(QQ, 0, (), ()), ValueError, "algebra dimension must be an integer >= 1, got 0"),
    (lambda: FiniteAlgebra(QQ, 2, ((1,),), DUAL.unit), ValueError, "multiplication table must be 2x2x2"),
    (lambda: FiniteAlgebra(QQ, 2, DUAL.mult, (1,)), ValueError, "unit must have 2 coordinates"),
    (lambda: FiniteAlgebra(QQ, 2, DUAL.mult, (0, 1)), ValueError, "unit axiom fails"),
    (lambda: FiniteAlgebra(QQ, 3, (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1), (0, 0, 0)),
                                   ((0, 0, 1), (0, 1, 0), (0, 0, 0))), (1, 0, 0)),
     ValueError, "associativity fails at basis (1,1,1)"),
    (lambda: FiniteBimodule(DUAL, DUAL, 1, ((),), ((),)), ValueError, "left action must be 2x1x1"),
    (lambda: FiniteBimodule(DUAL, DUAL, 1, (((1,),), ((0,),)), ((),)), ValueError, "right action must be 1x2x1"),
    (lambda: FiniteBimodule(DUAL, DUAL, 1, (((0,),), ((0,),)), (((1,), (0,)),)), ValueError, "left unit axiom fails"),
    (lambda: FiniteBimodule(DUAL, DUAL, 1, (((1,),), ((0,),)), (((0,), (0,)),)), ValueError, "right unit axiom fails"),
    (lambda: FiniteBimodule(DUAL, DUAL, 1, (((1,),), ((1,),)), (((1,), (0,)),)), ValueError, "left associativity fails"),
    (lambda: FiniteBimodule(DUAL, DUAL, 1, (((1,),), ((0,),)), (((1,), (1,)),)), ValueError, "right associativity fails"),
    (lambda: FiniteBimodule(SPLIT, SPLIT, 2, (((1, 0), (0, 1)), ((0, 1), (1, 0))), (((1, 0), (1, 0)), ((0, 1), (0, -1)))),
     ValueError, "actions do not commute"),
    (lambda: LabelledCycle((), ()), ValueError, "need one algebra and one bimodule per slot"),
    (lambda: LabelledCycle((SPLIT,), (REGULAR,)), ValueError, "edge 0 does not match its endpoint algebras"),
    (lambda: TruncationSet((2,)), ValueError, "[2] is not divisor-closed"),
    (lambda: WittVector(ZZ, T12, (1,)), SupportMismatch, "coefficient count must match the support"),
    (lambda: ColouredSet(3, (Path.vertex(2, 0),)), ValueError, "colour v:0 does not live on the 3-cycle"),
    (lambda: ColouredSet(2, ("v:0",)), ValueError, "colour v:0 does not live on the 2-cycle"),
    (lambda: EnvelopeMorphism(X, X, (0,), ((0,), (1,))), ValueError, "morphism data does not match the sets"),
    (lambda: EnvelopeMorphism(X, X, (0, 1), ((0,), (0,))), ValueError, "fiber orders do not partition the source"),
    (lambda: EnvelopeMorphism(X, X, (0, 1), ((0,), ())), ValueError, "fiber orders do not cover the source"),
    (lambda: EnvelopeMorphism(X, ColouredSet(2, (Path.vertex(2, 1), Path.edge(2, 0, 1))), (0, 1), ((0,), (1,))),
     ValueError, "fiber (0,) over element 0 carries a non-admissible colour sequence"),
    (lambda: LabelledCycleSpec(2, ("A",), ("M", "N")), ValueError, "label counts must equal the cycle length"),
    (lambda: FPGroup(2, G4.relations), ValueError, "presentation width must equal ngens"),
    (lambda: Hom(G4, G4, IntMatrix.zeros(ZZ, 2, 1)), ValueError, "hom matrix shape mismatch"),
    (lambda: MackeyWindow(T12, {1: G4}, {1: IntMatrix.identity(ZZ, 1)}, {}, {}),
     ValueError, "level 2 lacks group or action data"),
    (lambda: QFinSet((2, 0)), ValueError, "orbit sizes must be positive"),
    (lambda: QFinMap(Z4, Z2, ()), ValueError, "assignment length != number of source orbits"),
    (lambda: QFinMap(Z4, Z2, ((1, 0),)), ValueError, "target orbit index out of range"),
    (lambda: QFinMap(Z2, Z4, ((0, 0),)), ValueError, "orbit size 4 does not divide 2"),
    (lambda: SpanMorphism(QFinMap(Z4, Z2, ((0, 0),)), QFinMap(Z2, Z2, ((0, 0),))),
     ValueError, "the two legs must share the apex"),
]


@pytest.mark.parametrize("build, exc, message", CHECKS, ids=[m for _, _, m in CHECKS])
def test_constructor_checks(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc and str(info.value) == message


def test_reprs_that_reach_messages():
    assert repr(Path.vertex(3, 1)) == "v:1" and repr(Path.edge(3, 2, 0)) == "e:2:0"
    assert repr(CyclicMap(2, 3, (1, 2))) == "CyclicMap(2->3, [1, 2])"
    assert repr(WittVector(ModularRing(8), T12, (3, 12))) == "W(1: 3, 2: 12)"
    assert repr(TruncationSet((1, 2, 4))) == "TruncationSet(1,2,4)"
    with pytest.raises(ValueError, match=r"^TruncationSet\(1,2,4\) is not an interval$"):
        to_series(WittVector(ZZ, TruncationSet((1, 2, 4)), (0, 0, 0)))
    with pytest.raises(SupportMismatch) as info:
        verschiebung(WittVector(ZZ, TruncationSet((1,)), (1,)), 2, TruncationSet((1, 2, 4)))
    assert str(info.value) == "support TruncationSet(1) is not the n-division of the target TruncationSet(1,2,4)"
    result = CliRunner().invoke(main, ["witt", "ver", "--support", "1", "--target", "1,2,4", "--n", "2", "--vec", "1:1"])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"] == (
        "support TruncationSet(1) is not the n-division of the target TruncationSet(1,2,4)"
    )
