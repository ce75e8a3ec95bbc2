"""Batch command-line surface with stable, machine-readable output.

Exit codes: 0 success, 2 invalid input or a usage error, 3 guard exceeded;
a failure prints one JSON error object on stdout.  All output is
deterministic: JSON with sorted keys, or flat TSV via --format tsv.  Each
command takes its options and returns its payload; the root group prints it
and owns the exit codes.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate

import click

from . import cyclic, hochschild, mackey, operad, qfin, rings, truncation, witt
from .cyclic import SizeGuard

WINDOW_GUARD = 64
TRIALS_GUARD = 10000


def _emit(payload, fmt):
    if fmt == "tsv":
        for line in _flatten(payload):
            click.echo("\t".join(str(x) for x in line))
    else:
        click.echo(json.dumps(payload, sort_keys=True, default=str))


def _flatten(payload, prefix=""):
    """(key, value) lines: dict keys and the positions of nested list items
    join with dots; a list of scalars is one comma-joined value."""
    if isinstance(payload, dict):
        items = sorted(payload.items())
    elif isinstance(payload, (list, tuple)) and any(isinstance(x, (dict, list, tuple)) for x in payload):
        items = enumerate(payload)
    elif isinstance(payload, (list, tuple)):
        yield (prefix, ",".join(str(x) for x in payload))
        return
    else:
        yield (prefix, payload)
        return
    for key, value in items:
        yield from _flatten(value, f"{prefix}.{key}" if prefix else str(key))


def _fail(message, kind, code):
    click.echo(json.dumps({"error": message, "kind": kind}, sort_keys=True))
    sys.exit(code)


# A group run without arguments prints its help; click >= 8.2 raises this
# UsageError for it, older versions exit through ctx.exit.
_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())


@contextmanager
def _json_errors():
    """Print a failure as one JSON error object on stdout, whatever the
    format: exit 3 for a guard, exit 2 for invalid input (every library
    validation error is a ValueError) or for click's own usage errors."""
    try:
        yield
    except _HELP:
        raise
    except click.UsageError as exc:
        _fail(exc.format_message(), "validation", 2)
    except SizeGuard as exc:
        _fail(str(exc), "guard", 3)
    except ValueError as exc:
        _fail(str(exc), "validation", 2)


def _ints(text):
    return [rings.ZZ.parse(x) for x in text.split(",") if x.strip() != ""]


def _window_guard(n):
    """A SizeGuard when the window bound n is above WINDOW_GUARD."""
    if n > WINDOW_GUARD:
        raise SizeGuard(f"window bound is {WINDOW_GUARD}")


def _pair(option, item, sep, form):
    """The two sides of a list item around sep; a ValueError names the
    option, the item and the expected form if there are not two."""
    parts = item.split(sep)
    if len(parts) != 2:
        raise ValueError(f"each {option} item is {form}; got {item!r}")
    return parts


def _trunc(text):
    elems = _ints(text)
    if any(t > WINDOW_GUARD for t in elems):
        raise SizeGuard(f"window elements above {WINDOW_GUARD}")
    return truncation.TruncationSet(tuple(elems))


def _paths(n, text):
    return [cyclic.Path.deserialize(n, p) for p in text.split(",")]


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


def _spec(text):
    """A labelled cycle spec given as JSON text or @file."""
    data = _read_json(text[1:]) if text.startswith("@") else json.loads(text)
    return operad.LabelledCycleSpec.from_json(data)


def _witt_vector(ring, support, text, option):
    """A Witt vector on support: t:v pairs over ring (Z if ring is None), or
    @file.json, given by option.  A file keeps its own ring, which ring, if
    given, must be."""
    if text.startswith("@"):
        vec = witt.WittVector.from_json(_read_json(text[1:]))
        if vec.support != support or (ring is not None and ring != vec.ring):
            given = f"support {support.to_json()}" if ring is None else f"{ring} on {support.to_json()}"
            raise ValueError(
                f"{text[1:]} holds a vector over {vec.ring} on {vec.support.to_json()},"
                f" but the options give {given}"
            )
        return vec
    ring = ring or rings.ZZ
    return witt.WittVector.from_dict(ring, support, _witt_values(ring, text, option))


def _witt_values(ring, text, option):
    """The t:v pairs of text, given by option, as a dict t -> value in ring."""
    values = {}
    if text.strip():
        for item in text.split(","):
            t, v = _pair(option, item, ":", "t:v")
            values[rings.ZZ.parse(t)] = ring.parse(v)
    return values


class _Root(click.Group):
    """Parses and runs a subcommand under _json_errors, then prints the
    payload it returns."""

    def parse_args(self, ctx, args):
        with _json_errors():
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        with _json_errors():
            payload = super().invoke(ctx)
        _emit(payload, ctx.params["fmt"])


def _options(*options):
    """One decorator for an option stack that several commands share."""

    def apply(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return apply


@click.group(cls=_Root)
@click.option("--format", "fmt", type=click.Choice(["json", "tsv"]), default="json")
def main(fmt):
    """Exact computations: truncation sets, cyclic combinatorics, quasifinite
    Mackey windows, big Witt vectors, and Hochschild homology."""


# --------------------------------------------------------------------- trunc


@main.group()
def trunc():
    """Truncation sets."""


# keep the spec-facing name as an alias
main.add_command(trunc, name="truncation")


@trunc.command()
@click.option("--set", "set_", required=True)
def check(set_):
    return {"is_truncation_set": truncation.is_truncation_set(_ints(set_))}


@trunc.command()
@click.option("--set", "set_", required=True)
@click.option("--n", type=int, required=True)
def divide(set_, n):
    return {"set": _trunc(set_).divide(n).to_json()}


@trunc.command()
@click.option("--n", type=int, required=True)
def divisors(n):
    _window_guard(n)
    return {"set": truncation.TruncationSet.divisors(n).to_json()}


@trunc.command()
@click.option("--N", "--n", "n", type=int, required=True)
def interval(n):
    _window_guard(n)
    return {"set": truncation.TruncationSet.interval(n).to_json()}


# -------------------------------------------------------------------- cyclic


@main.group(name="cyclic")
def cyclic_group():
    """Paths, admissibility, hom sets, cut sets."""


@cyclic_group.command()
@click.option("--n", type=int, required=True)
def paths(n):
    if n > WINDOW_GUARD:
        raise SizeGuard(f"cycle size above {WINDOW_GUARD}")
    return {"paths": [p.serialize() for p in cyclic.path_set(n)], "count": n + n * n}


@cyclic_group.command()
@click.option("--n", type=int, required=True)
@click.option("--seq", required=True, help="comma list, e.g. v:0,e:0:1")
@click.option("--target", required=True)
def admissible(n, seq, target):
    seq, target = _paths(n, seq), cyclic.Path.deserialize(n, target)
    if not cyclic.is_admissible(seq, target):
        return {"admissible": False, "witness": None}
    # the forced chain x_0 = target.start, x_i = x_{i-1} + seq[i].length, over n
    chain = accumulate((p.length for p in seq), initial=target.start)
    return {"admissible": True, "witness": [str(Fraction(x, n)) for x in chain]}


@cyclic_group.command()
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
def hom(n, m):
    maps = cyclic.hom_set(n, m)
    return {"count": len(maps), "maps": sorted(f.serialize() for f in maps)}


@cyclic_group.command()
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--vals", required=True)
def dualize(n, m, vals):
    f = cyclic.CyclicMap(n, m, tuple(_ints(vals)))
    return {"dual": f.dual().serialize()}


@cyclic_group.command()
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--vals", required=True, help="map values, e.g. 0,1")
@click.option("--path", "path_", required=True, help="v:a or e:a:b on the source")
def pushforward(n, m, vals, path_):
    f = cyclic.CyclicMap(n, m, tuple(_ints(vals)))
    p = cyclic.Path.deserialize(n, path_)
    return {"path": cyclic.path_pushforward(f, p).serialize()}


@cyclic_group.command()
@click.option("--q", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, default=None)
def cut(q, n, p):
    cs = cyclic.CutSet(q, n, p)
    if cs.size > WINDOW_GUARD * WINDOW_GUARD:
        raise SizeGuard("cut set too large")
    payload = {
        "size": cs.size,
        "colours": [cs.colour(e).serialize() for e in range(cs.size)],
    }
    if p is not None:
        payload["action"] = [cs.action(e) for e in range(cs.size)]
        payload["quotient"] = [cs.quotient_element(e) for e in range(cs.size)]
        payload["cover_checks"] = operad.cut_quotient_check(cs)
    return payload


# -------------------------------------------------------------------- operad


@main.group(name="operad")
def operad_group():
    """Operation sets and labelled cycle bookkeeping."""


@operad_group.command()
@click.option("--n", type=int, required=True)
@click.option("--seq", required=True)
@click.option("--target", required=True)
def mulset(n, seq, target):
    perms = operad.mul_set(_paths(n, seq), cyclic.Path.deserialize(n, target))
    return {"count": len(perms), "permutations": [list(p) for p in perms]}


@operad_group.command()
@click.option("--spec", required=True, help="JSON or @file")
@click.option("--k", type=int, required=True)
def rotate(spec, k):
    return {"spec": _spec(spec).rotate(k).to_json()}


@operad_group.command()
@click.option("--spec", required=True)
@click.option("--edge", type=int, required=True)
def contract(spec, edge):
    return {"spec": _spec(spec).contract(edge).to_json()}


# ---------------------------------------------------------------------- qfin


@main.group(name="qfin")
def qfin_group():
    """Quasifinite Z-sets and spans."""


@qfin_group.command(name="fixed-points")
@click.option("--orbits", required=True)
@click.option("--k", type=int, required=True)
def fixed_points(orbits, k):
    S = qfin.QFinSet(tuple(_ints(orbits)))
    F = qfin.fixed_points(S, k)
    return {"orbits": sorted(F.orbits), "elements": F.element_count()}


@qfin_group.command()
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--u", type=int, default=1)
@click.option("--shift-a", type=int, default=0)
@click.option("--shift-b", type=int, default=0)
def pullback(a, b, u, shift_a, shift_b):
    U = qfin.QFinSet.orbit(u)
    f = qfin.QFinMap(qfin.QFinSet.orbit(a), U, ((0, shift_a),))
    g = qfin.QFinMap(qfin.QFinSet.orbit(b), U, ((0, shift_b),))
    W, p, q = qfin.pullback(f, g)
    return {
        "orbits": sorted(W.orbits),
        "left": p.to_json(),
        "right": q.to_json(),
        "elements": W.element_count(),
    }


@qfin_group.command()
@click.option("--orbits", required=True)
@click.option("--n", type=int, required=True)
def scale(orbits, n):
    S = qfin.QFinSet(tuple(_ints(orbits)))
    return {"orbits": sorted(qfin.scale(S, n).orbits)}


@qfin_group.command(name="is-proper")
@click.option("--pairs", required=True, help="m:n pairs, orbit size to target size")
def is_proper_cmd(pairs):
    sizes = [tuple(map(rings.ZZ.parse, _pair("--pairs", item, ":", "m:n"))) for item in pairs.split(",")]
    S = qfin.QFinSet(tuple(m for m, _ in sizes))
    T = qfin.QFinSet(tuple(sorted(set(n for _, n in sizes))))
    assign = tuple((T.orbits.index(n), 0) for _, n in sizes)
    f = qfin.QFinMap(S, T, assign)
    return {"proper": f.is_proper()}


def _parse_span(text):
    """a:l:b[:s:t] for the span Z/a <- Z/l -> Z/b with optional leg shifts."""
    parts = [rings.ZZ.parse(x) for x in text.split(":")]
    if len(parts) == 3:
        a, l, b = parts
        s = t = 0
    elif len(parts) == 5:
        a, l, b, s, t = parts
    else:
        raise ValueError("span syntax is a:l:b or a:l:b:s:t")
    return qfin.SpanMorphism.single(a, l, b, s, t)


@qfin_group.command(name="compose-spans")
@click.option("--first", required=True, help="span a:l:b[:s:t]")
@click.option("--second", required=True, help="span b:l:c[:s:t]")
def compose_spans_cmd(first, second):
    s1 = _parse_span(first)
    s2 = _parse_span(second)
    composite = qfin.compose_spans(s2, s1)
    rows, src, tgt = composite.canonical()
    return {
        "apex": sorted(composite.apex.orbits),
        "canonical_orbits": [list(r) for r in rows],
        "source": list(src),
        "target": list(tgt),
    }


@qfin_group.command(name="weakly-terminal")
@click.option("--orbits", required=True)
@click.option("--primes", required=True)
def weakly_terminal(orbits, primes):
    S = qfin.QFinSet(tuple(_ints(orbits)))
    f = qfin.weakly_terminal_map(S, _ints(primes))
    return {"target": sorted(f.target.orbits), "assign": f.to_json()["assign"]}


# -------------------------------------------------------------------- mackey


@main.group(name="mackey")
def mackey_group():
    """Windowed Mackey modules."""


_window_module_options = _options(
    click.option("--window", default="1"),
    click.option("--burnside-m", type=int, default=1),
    click.option("--witt-ring"),
    click.option("--witt-n", type=int),
)


def _window_module(window, burnside_m, witt_ring, witt_n):
    """The module that _window_module_options describe."""
    if burnside_m < 1:
        raise ValueError(f"--burnside-m must be >= 1, got {burnside_m}")
    if witt_ring is not None:
        if witt_n is None:
            raise ValueError("--witt-ring needs --witt-n")
        _window_guard(witt_n)
        return witt.witt_as_mackey(rings.ring_from_string(witt_ring), witt_n)
    return mackey.burnside_representable(burnside_m, _trunc(window))


@mackey_group.command()
@_window_module_options
@click.option("--trials", type=int, default=100)
@click.option("--seed", type=int, default=0)
def axioms(trials, seed, **window_module):
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if trials > TRIALS_GUARD:
        raise SizeGuard(f"trials are limited to {TRIALS_GUARD}; {trials} requested")
    M = _window_module(**window_module)
    report = mackey.check_mackey_axioms(M, trials=trials, seed=seed)
    return {"ok": report.ok, "checked": report.checked, "failures": report.failures}


@mackey_group.command()
@_window_module_options
@click.option("--level", type=int, default=None, help="default: all levels")
def gfp(level, **window_module):
    M = _window_module(**window_module)
    levels = {}
    for n in [level] if level is not None else M.window:
        torsion, free = mackey.geometric_fixed_points(M, n).group.invariants()
        levels[str(n)] = {"torsion": torsion, "free_rank": free}
    return {"levels": levels}


@mackey_group.command()
@click.option("--window", required=True)
@click.option("--burnside-m", type=int, default=1)
def conservativity(window, burnside_m):
    M = _window_module(window, burnside_m, None, None)
    report = mackey.check_conservativity(M)
    # never applicable: level m's identity span is no proper transfer, so Phi(m) != 0
    return {"applicable": report["applicable"], "nonzero_levels": report["nonzero_levels"]}


@mackey_group.command(name="proper-core")
@click.option("--window", required=True)
@click.option("--burnside-m", type=int, default=1)
def proper_core(window, burnside_m):
    M = _window_module(window, burnside_m, None, None)
    core, trace = mackey.proper_transfer_core(M)
    report = mackey.check_conservativity(core)
    return {
        "iterations": len(trace),
        "core_ranks": trace[-1],
        "all_gfp_zero": report["all_gfp_zero"],
        "transfer_generated": report.get("transfer_generated"),
    }


@mackey_group.command(name="evaluate-span")
@_window_module_options
@click.option("--span", required=True, help="span a:l:b[:s:t]")
def evaluate_span_cmd(span, **window_module):
    M = _window_module(**window_module)
    S = _parse_span(span)
    h = mackey.evaluate_span(M, S)
    return {"matrix": h.matrix.to_lists(), "source_level": S.target.orbits[0], "target_level": S.source.orbits[0]}


@mackey_group.command(name="transfer-sum")
@_window_module_options
@click.option("--family", required=True, help="semicolon list n=c1,c2,... of coordinates")
def transfer_sum_cmd(family, **window_module):
    M = _window_module(**window_module)
    fam = []
    for item in family.split(";"):
        n_text, coords = _pair("--family", item, "=", "n=c1,c2,...")
        n, x = rings.ZZ.parse(n_text), _ints(coords)
        # the library refuses levels outside the window or below 2 first
        if n in M.window and n >= 2 and len(x) != M.group(n).ngens:
            raise ValueError(f"--family level {n} needs {M.group(n).ngens} coordinates; got {len(x)}")
        fam.append((n, x))
    total = mackey.infinite_transfer_sum(M, fam)
    return {"element": total}


@mackey_group.command()
@click.option("--ngens", type=int, required=True)
@click.option("--relations", default="", help="semicolon rows of comma entries")
@click.option("--action", required=True, help="semicolon rows of the matrix")
@click.option("--order", type=int, required=True)
def coinvariants(ngens, relations, action, order):
    if ngens < 0:
        raise ValueError("--ngens must be >= 0")
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > WINDOW_GUARD:
        raise SizeGuard(f"order is above {WINDOW_GUARD}")
    rows = [_ints(r) for r in relations.split(";") if r.strip()]
    for t, row in enumerate(rows, 1):
        if len(row) != ngens:
            raise ValueError(f"--relations rows need {ngens} entries; row {t} has {len(row)}")
    rel = (
        rings.IntMatrix.from_rows(rings.ZZ, rows)
        if rows
        else rings.IntMatrix.zeros(rings.ZZ, 0, ngens)
    )
    grid = [_ints(r) for r in action.split(";") if r.strip()]
    if len({len(row) for row in grid}) > 1:
        t, row = next((t, row) for t, row in enumerate(grid, 1) if len(row) != ngens)
        raise ValueError(f"--action must be {ngens}x{ngens}; row {t} has {len(row)} entries")
    act = rings.IntMatrix.from_rows(rings.ZZ, grid)
    if (act.rows, act.cols) != (ngens, ngens):
        raise ValueError(f"--action must be {ngens}x{ngens}; got {act.rows}x{act.cols}")
    G = mackey.GroupWithAction(mackey.FPGroup(ngens, rel), act, order)
    if not G.validate():
        raise ValueError(f"the action must preserve the relations and have order dividing {order}")
    torsion, free = mackey.coinvariants(G).invariants()
    return {"torsion": torsion, "free_rank": free}


# ---------------------------------------------------------------------- witt


@main.group(name="witt")
def witt_group():
    """Big Witt vectors."""


_ring_support_options = _options(
    click.option("--ring", help="coefficient ring, Z if not given; a vector read from @file keeps its own ring"),
    click.option("--support", required=True),
)


def _ring_support(ring, support):
    """The ring (None if --ring is not given) and the truncation set that
    _ring_support_options describe."""
    return None if ring is None else rings.ring_from_string(ring), _trunc(support)


@witt_group.command()
@_ring_support_options
@click.option("--a", "a_", required=True)
@click.option("--b", "b_", required=True)
def add(a_, b_, **ring_support):
    ring, supp = _ring_support(**ring_support)
    c = witt.add(_witt_vector(ring, supp, a_, "--a"), _witt_vector(ring, supp, b_, "--b"))
    return c.to_json()


@witt_group.command()
@_ring_support_options
@click.option("--a", "a_", required=True)
@click.option("--b", "b_", required=True)
def mul(a_, b_, **ring_support):
    ring, supp = _ring_support(**ring_support)
    c = witt.multiply(_witt_vector(ring, supp, a_, "--a"), _witt_vector(ring, supp, b_, "--b"))
    return c.to_json()


@witt_group.command()
@_ring_support_options
@click.option("--vec", required=True)
def ghost(vec, **ring_support):
    ring, supp = _ring_support(**ring_support)
    a = _witt_vector(ring, supp, vec, "--vec")
    g = witt.ghost(a)
    return {"support": supp.to_json(), "ghost": {str(t): a.ring.show(v) for t, v in g.as_dict().items()}}


@witt_group.command()
@_ring_support_options
@click.option("--target", required=True, help="support of the output")
@click.option("--n", type=int, required=True)
@click.option("--vec", required=True)
def ver(target, n, vec, **ring_support):
    ring, supp = _ring_support(**ring_support)
    out = witt.verschiebung(_witt_vector(ring, supp, vec, "--vec"), n, _trunc(target))
    return out.to_json()


@witt_group.command()
@_ring_support_options
@click.option("--n", type=int, required=True)
@click.option("--vec", required=True)
def frob(n, vec, **ring_support):
    ring, supp = _ring_support(**ring_support)
    out = witt.frobenius(_witt_vector(ring, supp, vec, "--vec"), n)
    return out.to_json()


@witt_group.command()
@_ring_support_options
@click.option("--r", required=True)
def teich(r, **ring_support):
    ring, supp = _ring_support(**ring_support)
    ring = ring or rings.ZZ
    return witt.teichmuller(ring, ring.parse(r), supp).to_json()


@witt_group.command(name="sum-v")
@_ring_support_options
@click.option("--family", required=True, help="semicolon list n=coeffs, e.g. 2=1:1;3=1:1")
def sum_v(family, **ring_support):
    ring, supp = _ring_support(**ring_support)
    ring = ring or rings.ZZ
    fam = []
    for item in family.split(";"):
        n_text, coeffs = _pair("--family", item, "=", "n=t:v,...")
        n = rings.ZZ.parse(n_text)
        if n < 2:
            raise ValueError(f"--family size {n}: summable families need sizes >= 2")
        if n > supp.max() and not coeffs.startswith("@"):
            # past the support's bound V_n adds nothing, and
            # infinite_verschiebung drops the summand: its pairs are parsed
            _witt_values(ring, coeffs, "--family")
            continue
        try:
            fam.append((n, _witt_vector(ring, supp.divide(n), coeffs, "--family")))
        except witt.SupportMismatch as exc:
            raise ValueError(f"--family size {n}: {exc}") from None
    out = witt.infinite_verschiebung(ring, fam, supp)
    return out.to_json()


@witt_group.command()
@click.option("--ring", required=True)
@click.option("--N", "--n", "n", type=int, required=True)
def recover(ring, n):
    _window_guard(n)
    report = witt.recover_base(rings.ring_from_string(ring), n)
    return {key: report[key] for key in ("invariant_factors", "free_rank", "matches_base")}


@witt_group.command()
@_ring_support_options
@click.option("--box", type=int, default=10)
def equalizer(box, **ring_support):
    ring, supp = _ring_support(**ring_support)
    return witt.equalizer_report(ring or rings.ZZ, supp, box)


@witt_group.command(name="as-mackey")
@click.option("--ring", required=True)
@click.option("--N", "--n", "n", type=int, required=True)
def as_mackey(ring, n):
    _window_guard(n)
    return witt.witt_as_mackey(rings.ring_from_string(ring), n).to_json()


# ------------------------------------------------------------------------ hh


@main.group(name="hh")
def hh_group():
    """Hochschild homology of labelled cycles."""


def _cycle_from(path):
    return hochschild.LabelledCycle.from_json(_read_json(path))


@hh_group.command()
@click.option("--cycle", "cycle_path", required=True)
@click.option("--degree", type=int, required=True)
def compute(cycle_path, degree):
    cyc = _cycle_from(cycle_path)
    dims = hochschild.bar_dims(cyc, degree)
    complex_ = hochschild.hh_complex(cyc, degree)
    return {
        "dims": list(dims),
        "boundary_squared_zero": complex_.validate(),
        "homology": hochschild.homology(complex_),
    }


@hh_group.command()
@click.option("--cycle", "cycle_path", required=True)
def thh0(cycle_path):
    cyc = _cycle_from(cycle_path)
    if cyc.n != 1:
        raise ValueError("thh0 needs a 1-cycle")
    dim, _ = hochschild.thh_pi0(cyc.algebras[0], cyc.bimodules[0])
    return {"dimension": dim}


@hh_group.command(name="contract-compare")
@click.option("--cycle", "cycle_path", required=True)
@click.option("--edge", type=int, required=True)
@click.option("--degree", type=int, required=True)
def contract_compare(cycle_path, edge, degree):
    return hochschild.contraction_comparison(_cycle_from(cycle_path), edge, degree)


@hh_group.command(name="rotate")
@click.option("--cycle", "cycle_path", required=True, help="uniform cycle JSON")
@click.option("--degree", type=int, required=True)
def rotate_cmd(cycle_path, degree):
    cyc = _cycle_from(cycle_path)
    R, M = cyc.algebras[0], cyc.bimodules[0]
    if cyc.algebras != (R,) * cyc.n or cyc.bimodules != (M,) * cyc.n:
        raise ValueError("rotate needs a uniform cycle: every vertex and every edge labelled alike")
    report = hochschild.rotation_action(R, M, cyc.n, degree)
    action = report["homology_action"]
    if R.field == rings.QQ:
        # rationals print as strings ("1", "1/2"); residues stay JSON numbers
        action = [[[R.field.show(x) for x in row] for row in matrix] for matrix in action]
    return {
        "commutes_with_boundary": report["commutes_with_boundary"],
        "order_exact": report["order_exact"],
        "homology_dims": report["homology_dims"],
        "homology_action": action,
    }


if __name__ == "__main__":
    main()
