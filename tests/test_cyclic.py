import json
import random

import pytest
from click.testing import CliRunner

from polygonic.cli import main
from polygonic.cyclic import (
    CutSet,
    CyclicMap,
    Path,
    SizeGuard,
    automorphisms,
    dual_fibers,
    hom_set,
    is_admissible,
    path_pushforward,
    path_set,
)
from polygonic.operad import cut_face, cut_quotient_check, envelope_compose


def serialized(paths):
    return sorted(p.serialize() for p in paths)


def test_path_set_published_lists():
    assert serialized(path_set(1)) == ["e:0:0", "v:0"]
    assert serialized(path_set(2)) == sorted(
        ["v:0", "v:1", "e:0:1", "e:1:0", "e:0:0", "e:1:1"]
    )
    assert serialized(path_set(3)) == sorted(
        ["v:0", "v:1", "v:2",
         "e:0:1", "e:1:2", "e:2:0",
         "e:0:2", "e:1:0", "e:2:1",
         "e:0:0", "e:1:1", "e:2:2"]
    )


def test_path_set_sizes():
    for n in range(1, 9):
        assert len(path_set(n)) == n + n * n
        assert len(set(path_set(n))) == n + n * n
    assert len(path_set(5)) == 30


def _witness(n, seq, target):
    """The witness that `cyclic admissible` prints, or None."""
    argv = ["cyclic", "admissible", "--n", str(n), "--seq", ",".join(p.serialize() for p in seq),
            "--target", target.serialize()]
    return json.loads(CliRunner().invoke(main, argv).output)["witness"]


def test_admissible_examples():
    v = lambda n, a: Path.vertex(n, a)
    e = lambda n, a, b: Path.edge(n, a, b)
    seq = [v(3, 0), e(3, 0, 1), v(3, 1), e(3, 1, 2), v(3, 2)]
    assert is_admissible(seq, e(3, 0, 2)) is True
    assert _witness(3, seq, e(3, 0, 2)) == ["0", "0", "1/3", "1/3", "2/3", "2/3"]
    assert is_admissible([v(3, 0), e(3, 0, 2), v(3, 2)], e(3, 0, 2))
    assert is_admissible([v(2, 1), e(2, 0, 1)], e(2, 0, 1)) is False
    assert _witness(2, [v(2, 1), e(2, 0, 1)], e(2, 0, 1)) is None
    assert is_admissible([e(2, 0, 1), v(2, 1)], e(2, 0, 1))
    assert _witness(2, [e(2, 0, 1), v(2, 1)], e(2, 0, 1)) == ["0", "1/2", "1/2"]


def test_admissible_rotation_invariance():
    rng = random.Random(2)
    for n in (2, 3, 4):
        paths = path_set(n)
        for _ in range(80):
            seq = [rng.choice(paths) for _ in range(rng.randrange(1, 4))]
            target = rng.choice(paths)
            base = is_admissible(seq, target)
            for k in range(n):
                tau = CyclicMap.rotation(n, k)
                rotated = is_admissible(
                    [path_pushforward(tau, p) for p in seq], path_pushforward(tau, target)
                )
                assert rotated == base


def test_pushforward_examples():
    ident = CyclicMap.identity(3)
    for p in path_set(3):
        assert path_pushforward(ident, p) == p
    # delta_1 : [1] -> [2] carries the loop to the length-2 loop
    d1 = CyclicMap(1, 2, (0,))
    assert path_pushforward(d1, Path.vertex(1, 0)).serialize() == "v:0"
    assert path_pushforward(d1, Path.edge(1, 0, 0)).serialize() == "e:0:0"
    # the rotation on [2]
    tau = CyclicMap.rotation(2, 1)
    assert path_pushforward(tau, Path.edge(2, 0, 1)).serialize() == "e:1:0"
    assert path_pushforward(tau, Path.vertex(2, 0)).serialize() == "v:1"


def test_pushforward_functorial():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for k in (1, 2, 3):
                for f in hom_set(n, m):
                    for g in hom_set(m, k):
                        gf = g.after(f)
                        for p in path_set(n):
                            assert path_pushforward(gf, p) == path_pushforward(
                                g, path_pushforward(f, p)
                            )


def test_dualize():
    ident = CyclicMap.identity(3)
    assert ident.dual() == ident
    # The double dual is conjugation by one rotation step (the canonical
    # natural isomorphism); in particular dualizing is a bijection on each
    # hom set and has order dividing 2*lcm(n, m) there.
    for n in (1, 2, 3, 4):
        for m in (1, 2, 3, 4):
            homs = hom_set(n, m)
            images = {f.dual() for f in homs}
            assert len(images) == len(homs)
            for f in homs:
                conj = CyclicMap.rotation(m, 1).after(f).after(CyclicMap.rotation(n, n - 1))
                assert f.dual().dual() == conj
    surj = CyclicMap(2, 1, (0, 0))
    dual = surj.dual()
    assert dual.source_n == 1 and dual.target_n == 2 and dual.is_injective()


def test_hom_set_counts():
    for n in range(1, 7):
        assert len(automorphisms(n)) == n
    assert len(hom_set(1, 1)) == 1
    with pytest.raises(SizeGuard):
        hom_set(7, 2)


def test_dual_is_the_least_preimage():
    # the definition b -> min{a : f(a) >= b}, searched over (-n, n], on
    # every map with n, m <= 5
    for n in range(1, 6):
        for m in range(1, 6):
            for f in hom_set(n, m):
                least = [min(a for a in range(-n + 1, n + 1) if f(a) >= b) for b in range(m)]
                assert f.dual() == CyclicMap(m, n, least), f


def test_automorphisms_are_the_rotations():
    # the injective self-maps, in hom_set's order, and none is enumerated:
    # n = 7 is past hom_set's guard
    for n in range(1, 7):
        assert automorphisms(n) == [f for f in hom_set(n, n) if f.is_injective()]
    assert automorphisms(7) == [CyclicMap.rotation(7, k) for k in range(7)]
    assert all(f.is_injective() for f in automorphisms(7))
    with pytest.raises(ValueError):
        automorphisms(0)


def test_composition_associative():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for k in (1, 2, 3):
                for f in hom_set(n, m):
                    for g in hom_set(m, k):
                        for h in hom_set(k, n):
                            assert h.after(g.after(f)) == h.after(g).after(f)


def test_cut_examples():
    # n = 1: one loop-coloured point plus q vertex-coloured points
    for q in range(4):
        cut = CutSet(q, 1)
        colours = [cut.colour(e).serialize() for e in range(cut.size)]
        assert sorted(colours) == sorted(["e:0:0"] + ["v:0"] * q)
    # n = 2
    for q in range(4):
        cut = CutSet(q, 2)
        colours = [cut.colour(e).serialize() for e in range(cut.size)]
        assert sorted(colours) == sorted(
            ["e:0:1", "e:1:0"] + ["v:0", "v:1"] * q
        )


def test_position_maps_need_injective_circle_maps():
    # bad input, not a size limit: a ValueError, not the guard
    fold = CyclicMap(2, 1, (0, 0))
    with pytest.raises(ValueError, match="^only injective circle maps induce order maps$"):
        CutSet(1, 2).position_map(range(2), fold, 1)
    with pytest.raises(ValueError, match="^cycle size mismatch$"):
        CutSet(1, 2).position_map(range(2), CyclicMap.identity(3), 1)
    injective = CyclicMap.rotation(2, 1)
    assert CutSet(1, 2).position_map(range(2), injective, 1).source_n == 4
    # a face's map: (j, a) goes to a * (q_hi + 1) + alpha[j] on the identity
    g = CutSet(1, 2).position_map((0, 2), CyclicMap.identity(2), 2)
    assert (g.target_n, g.vals) == (6, (0, 2, 3, 5))


def test_simplicial_identities():
    for n in (1, 2, 3):
        for q in (2, 3, 4, 5):
            cut = CutSet(q, n)
            lower = CutSet(q - 1, n)
            for j in range(1, q + 1):
                for i in range(j):
                    lhs = envelope_compose(cut_face(lower, i), cut_face(cut, j))
                    rhs = envelope_compose(cut_face(lower, j - 1), cut_face(cut, i))
                    assert lhs == rhs


def test_degeneracy_identities():
    from polygonic.operad import cut_degeneracy

    # d_i s_i = id = d_{i+1} s_i on small cut sets
    for n in (1, 2, 3):
        for q in (0, 1, 2):
            cut = CutSet(q, n)
            upper = CutSet(q + 1, n)
            for i in range(q + 1):
                s = cut_degeneracy(cut, i)
                for d_index in (i, i + 1):
                    composite = envelope_compose(cut_face(upper, d_index), s)
                    from polygonic.operad import EnvelopeMorphism
                    assert composite == EnvelopeMorphism.identity(composite.source)


def test_free_cover():
    for p in (2, 3):
        for n in (1, 2):
            for q in (0, 1, 2):
                report = cut_quotient_check(CutSet(q, n, p))
                assert all(report.values()), (p, n, q, report)


def test_cover_checks_see_fixed_points_and_the_order():
    class FixesOneOrbit(CutSet):
        # the deck action, except that e = 0 and its image are fixed
        def action(self, e):
            return e if e in (0, super().action(0)) else super().action(e)

    class StepsTwoColours(CutSet):
        # shifts by two colours: orbits of size / 2 elements
        def action(self, e):
            return (e + 2) % self.size

    report = cut_quotient_check(FixesOneOrbit(1, 2, 2))
    assert report == {"free": False, "order_p": True, "square_commutes": True}
    report = cut_quotient_check(StepsTwoColours(1, 2, 2))
    assert not report["free"] and not report["order_p"]


def test_cover_equivariance_of_faces():
    # faces commute with the deck action and descend to the plain faces
    for p in (2, 3):
        for n in (1, 2):
            q = 2
            cover = CutSet(q, n, p)
            plain = CutSet(q, n)
            for i in range(q + 1):
                env_cover = cut_face(cover, i)
                env_plain = cut_face(plain, i)
                lower_cover = CutSet(q - 1, n, p)
                for e in range(cover.size):
                    # action then face == face then action
                    assert env_cover.f[cover.action(e)] == lower_cover.action(env_cover.f[e])
                    # face then quotient == quotient then face
                    assert lower_cover.quotient_element(env_cover.f[e]) == env_plain.f[
                        cover.quotient_element(e)
                    ]


def test_dual_fibers_partition():
    # on every map with n, m <= 5 the fibers, read over a = 0, 1, ..., are
    # the classes of the positions g(-1) + 1, ..., g(n - 1) in turn: they
    # tile one period, and the class map is the dual's
    for n in range(1, 6):
        for m in range(1, 6):
            for g in hom_set(n, m):
                underlying, fibers = dual_fibers(g)
                assert sorted(x for fib in fibers for x in fib) == list(range(m))
                assert [b for fib in fibers for b in fib] == [p % m for p in range(g(-1) + 1, g(n - 1) + 1)]
                for a, fib in enumerate(fibers):
                    for b in fib:
                        assert underlying[b] == a
                assert underlying == tuple(v % n for v in g.dual().vals)


def test_path_serialization_roundtrip():
    for n in (1, 2, 5):
        for p in path_set(n):
            assert Path.deserialize(n, p.serialize()) == p


def test_cycle_sizes_below_one_are_rejected():
    for n in (0, -2):
        for make in (
            lambda: Path.vertex(n, 1),
            lambda: Path.edge(n, 0, 1),
            lambda: Path.from_pair(n, 0, 0),
            lambda: path_set(n),
            lambda: hom_set(n, 1),
            lambda: hom_set(1, n),
            lambda: CyclicMap(n, 1, ()),
            lambda: CyclicMap(1, n, (0,)),
            lambda: CutSet(1, 2, n),
        ):
            with pytest.raises(ValueError):
                make()
    assert CutSet(1, 2, 1).size == CutSet(1, 2).size == 4
