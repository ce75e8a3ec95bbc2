import random

import pytest

from polygonic.cyclic import CutSet, CyclicMap, Path, SizeGuard, delta_face, path_set
from polygonic.operad import (
    ColouredSet,
    EnvelopeMorphism,
    LabelledCycleSpec,
    cut_envelope_delta,
    cut_face,
    envelope_compose,
    mul_set,
    pushforward,
    tensor_handle,
)

V = Path.vertex
E = Path.edge


def test_mul_set_examples():
    assert mul_set([V(2, 0), V(2, 0)], V(2, 0)) == [(0, 1), (1, 0)]
    assert mul_set([V(2, 0), E(2, 0, 1), V(2, 1)], E(2, 0, 1)) == [(0, 1, 2)]
    assert mul_set([V(2, 0), V(2, 1)], E(2, 0, 1)) == []


def test_mul_set_vertex_counts():
    for k in range(1, 5):
        perms = mul_set([V(3, 0)] * k, V(3, 0))
        assert len(perms) == _factorial(k)


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_mul_set_closed_under_substitution():
    # Composing an operation with an operation feeding one of its inputs
    # gives an operation for the substituted sequence, exhaustively on the
    # 2-cycle with total arity <= 4.
    paths = path_set(2)
    small = [
        (tuple(seq), target)
        for arity in (1, 2)
        for seq in _tuples(paths, arity)
        for target in paths
        if mul_set(list(seq), target)
    ]
    for outer_seq, outer_target in small:
        outer_perms = mul_set(list(outer_seq), outer_target)
        for slot, gamma in enumerate(outer_seq):
            for inner_seq, inner_target in small:
                if inner_target != gamma:
                    continue
                if len(outer_seq) + len(inner_seq) - 1 > 4:
                    continue
                inner_perms = mul_set(list(inner_seq), inner_target)
                composite = list(outer_seq[:slot]) + list(inner_seq) + list(outer_seq[slot + 1:])
                comp_perms = mul_set(composite, outer_target)
                for sigma in outer_perms:
                    for rho in inner_perms:
                        tau = _substitute(sigma, rho, slot, len(outer_seq), len(inner_seq))
                        assert tau in comp_perms, (outer_seq, outer_target, inner_seq, sigma, rho)


def _tuples(pool, arity):
    if arity == 0:
        return [()]
    return [t + (p,) for t in _tuples(pool, arity - 1) for p in pool]


def _substitute(sigma, rho, slot, outer_len, inner_len):
    """One-line permutation of the substituted sequence."""
    # positions of the composite: outer inputs with slot expanded to a block
    def expand(i):
        if i < slot:
            return [i]
        if i == slot:
            return [slot + r for r in rho]
        return [i + inner_len - 1]

    out = []
    for i in sigma:
        out.extend(expand(i))
    return tuple(out)


def test_envelope_identity_and_compose():
    cut = CutSet(2, 2)
    env = cut_face(cut, 0)
    ident = EnvelopeMorphism.identity(env.source)
    assert envelope_compose(env, ident) == env
    with pytest.raises(ValueError, match="^target of the first morphism != source of the second$"):
        envelope_compose(env, env)


def _random_admissible_sequence(rng, target, depth=0):
    """A random admissible sequence for the target path."""
    n = target.n
    pos = target.start
    remaining = target.length
    seq = []
    while True:
        if remaining == 0 and seq and rng.random() < 0.6:
            break
        choice = rng.random()
        if choice < 0.45 or remaining == 0:
            if len(seq) >= 4:
                break
            seq.append(Path.vertex(n, pos % n))
        else:
            step = rng.randrange(1, remaining + 1)
            seq.append(Path(n, pos % n, step))
            pos += step
            remaining -= step
        if len(seq) >= 5:
            break
    if remaining:
        seq.append(Path(n, pos % n, remaining))
    if not seq:
        seq.append(Path.vertex(n, target.start))
    return seq


def _random_envelope(rng, target_set):
    fibers = []
    colours = []
    for y in range(target_set.size):
        seq = _random_admissible_sequence(rng, target_set.colours[y])
        fibers.append(seq)
        colours.extend(seq)
    source = ColouredSet(target_set.n, tuple(colours))
    f = []
    orders = []
    idx = 0
    for y, seq in enumerate(fibers):
        orders.append(tuple(range(idx, idx + len(seq))))
        f.extend([y] * len(seq))
        idx += len(seq)
    return EnvelopeMorphism(source, target_set, tuple(f), tuple(orders))


def test_envelope_associativity_random():
    rng = random.Random(11)
    paths = path_set(3)
    count = 0
    while count < 200:
        base_colours = tuple(rng.choice(paths) for _ in range(rng.randrange(1, 3)))
        Z = ColouredSet(3, base_colours)
        h = _random_envelope(rng, Z)
        if h.source.size > 6:
            continue
        g = _random_envelope(rng, h.source)
        if g.source.size > 6:
            continue
        f = _random_envelope(rng, g.source)
        if f.source.size > 6:
            continue
        lhs = envelope_compose(envelope_compose(h, g), f)
        rhs = envelope_compose(h, envelope_compose(g, f))
        assert lhs == rhs
        count += 1


def test_face_composition_matches_composed_delta():
    # two faces compose to the structure map of the composed monotone map
    for n in (1, 2, 3):
        q = 3
        cut = CutSet(q, n)
        for j in range(1, q + 1):
            for i in range(j):
                two = envelope_compose(cut_face(CutSet(q - 1, n), i), cut_face(cut, j))
                alpha = delta_face(q, j)
                beta = delta_face(q - 1, i)
                composed = tuple(alpha[b] for b in beta)
                direct = cut_envelope_delta(cut, composed, q - 2)
                assert two == direct


def test_pushforward_identity_and_rotation():
    X = ColouredSet(2, (E(2, 0, 1), E(2, 1, 0), V(2, 0), V(2, 1)))
    assert pushforward(CyclicMap.identity(2), X) == X
    tau = CyclicMap.rotation(2, 1)
    rotated = pushforward(tau, X)
    assert [c.serialize() for c in rotated.colours] == ["e:1:0", "e:0:1", "v:1", "v:0"]


def test_pushforward_loop_tensor_realization():
    # pushing the full loop of the 1-cycle along delta_1 : [1] -> [2] yields
    # the length-2 loop, whose value is the relative tensor of both edges
    d1 = CyclicMap(1, 2, (0,))
    X = ColouredSet(1, (E(1, 0, 0), E(1, 0, 0)))
    pushed = pushforward(d1, X)
    assert [c.serialize() for c in pushed.colours] == ["e:0:0", "e:0:0"]
    assert all(c.length == 2 for c in pushed.colours)


def test_pushforward_preserves_envelope_invariant():
    rng = random.Random(21)
    maps = [CyclicMap.rotation(3, k) for k in range(3)] + [CyclicMap(3, 3, (0, 1, 2))]
    paths = path_set(3)
    for _ in range(60):
        Z = ColouredSet(3, tuple(rng.choice(paths) for _ in range(rng.randrange(1, 3))))
        env = _random_envelope(rng, Z)
        for f in maps:
            # the constructor checks that every pushed fiber stays admissible
            pushed = EnvelopeMorphism(pushforward(f, env.source), pushforward(f, env.target), env.f, env.fiber_orders)
            assert pushed.source == pushforward(f, env.source)


def test_rotate_contract_specs():
    spec = LabelledCycleSpec(2, ("R", "S"), ("M", "N"))
    assert spec.rotate(2) == spec
    contracted = spec.contract(0)
    assert contracted.n == 1
    assert contracted.vertices == ("R",)
    assert contracted.edges == (tensor_handle("M", "S", "N"),)
    other = spec.contract(1)
    assert other.vertices == ("S",)
    assert other.edges == (tensor_handle("N", "R", "M"),)


def cyclic_maps_into(n):
    """The rotations of the n-cycle and its contractions onto the (n-1)-cycle."""
    return [CyclicMap.rotation(n, k) for k in range(n)] + [CyclicMap.contraction(n, a) for a in range(n) if n > 1]


def fuses_at_most_two_edges(f):
    return all(f(j + 1) - f(j) <= 2 for j in range(f.source_n))


def test_rotate_then_contract_matches():
    # Pulling labels back along f and then along g is pulling them back along
    # f after g, wherever that composite takes each edge to at most two edges.
    for n in (2, 3, 4):
        spec = LabelledCycleSpec(n, tuple(f"A{i}" for i in range(n)), tuple(f"M{i}" for i in range(n)))
        for k in range(-1, n + 1):
            # slot a takes the labels of slot a + k; contracting edge k drops
            # vertex k + 1 and fuses edges k and k + 1 across it
            rotated = [tuple(labels[(a + k) % n] for a in range(n)) for labels in (spec.vertices, spec.edges)]
            assert spec.rotate(k) == LabelledCycleSpec(n, *rotated)
            keep = [i for i in range(n) if i != (k + 1) % n]
            fused = tensor_handle(spec.edges[k % n], spec.vertices[(k + 1) % n], spec.edges[(k + 1) % n])
            edges = tuple(fused if i == k % n else spec.edges[i] for i in keep)
            assert spec.contract(k) == LabelledCycleSpec(n - 1, tuple(spec.vertices[i] for i in keep), edges)
        checked = 0
        for f in cyclic_maps_into(n):
            for g in cyclic_maps_into(f.source_n):
                composite = f.after(g)
                if fuses_at_most_two_edges(composite):
                    assert spec.pull_back(f).pull_back(g) == spec.pull_back(composite), (f, g)
                    checked += 1
                else:
                    with pytest.raises(ValueError, match="at most two edges, not 3"):
                        spec.pull_back(composite)
        # 2n^2 pairs after a rotation, n(n - 1) rotations after a contraction,
        # and at n = 4 one second contraction after each first one: the one
        # that fuses the two edges the first left alone
        assert checked == 3 * n * n - n + (n if n == 4 else 0)


def test_spec_json_roundtrip():
    spec = LabelledCycleSpec(2, ("R", "S"), (tensor_handle("M", "S", "N"), "N"))
    assert LabelledCycleSpec.from_json(spec.to_json()) == spec


def test_contract_guard():
    # a 1-cycle has no two edges to fuse: bad input, not a size limit
    with pytest.raises(ValueError):
        LabelledCycleSpec(1, ("R",), ("M",)).contract(0)
    with pytest.raises(ValueError):
        CyclicMap.contraction(1, 0)


def test_mul_set_guard():
    with pytest.raises(SizeGuard):
        mul_set([V(2, 0)] * 9, V(2, 0))
