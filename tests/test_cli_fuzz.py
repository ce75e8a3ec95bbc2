"""Seeded grammar fuzz of the command line.

Every subcommand gets argv drawn from a small grammar: boundary integers
(-1, 0, 1, each guard and guard + 1), malformed tokens (for integer options
too, which click refuses before any command runs), empty and repeated lists,
and well-formed and malformed input files.  Each run must exit 0, 2 or 3 with
one JSON object on stdout and no traceback, within a time cap.
`witt equalizer` draws boxes up to 51 and supports of up to 7 elements; its
one guard, the member bound, refuses before anything is listed, so no draw
lists more than 2^20 members.
"""

import json
import random
import signal

import pytest
from click.testing import CliRunner

from polygonic.cli import TRIALS_GUARD, WINDOW_GUARD, main
from polygonic.cyclic import HOM_GUARD
from polygonic.hochschild import (
    BAR_CUT_GUARD,
    BAR_DEGREE_GUARD,
    FiniteAlgebra,
    FiniteBimodule,
    LabelledCycle,
)
from polygonic.operad import MUL_ARITY_GUARD
from polygonic.rings import QQ, PrimeField

SEED = 20261018
DRAWS = 8           # argv per subcommand
CAP_S = 5           # per run


def _ints(*guards):
    return [-1, 0, 1, 2, 3, "x", "", "1.5"] + [g + d for g in guards for d in (0, 1)]


WINDOW = _ints(WINDOW_GUARD)
LISTS = ["", ",", "1", "1,2", "1,2,3,6", "1,2,4,8,16,32,64", "2,2", "1,1,1", "x", "1,,2", "-1", "0",
         str(WINDOW_GUARD + 1)]
PATH = ["v:0", "v:2", "e:0:1", "e:1:1", "e:2:0", "", "x", "v:", "e:0"]
PATHS = PATH + ["v:0,e:0:1", "e:0:1,v:1", "v:0,v:0", ",", "v:0," * 2]
PATHS += [",".join(["v:0"] * k) for k in (MUL_ARITY_GUARD, MUL_ARITY_GUARD + 1)]
RINGS = ["Z", "Q", "Z/8", "F5", "F_3", "GF(7)", "F4", "Z/1", "Z/0", "Z/x", "", "x"]
VECTORS = ["1:1", "1:1,2:3", "", "x", "1:", ":1", "5:1", "1:1,1:2", "0:1", "-1:1", "1:x", "1:1/0", "1:1/2"]
SPANS = ["1:1:1", "1:2:1", "2:2:1", "1:2:1:1:0", "2:4:2:1:3", "0:1:1", "1:0:1", "1:2", "x", ""]
FAMILIES = ["4=1", "2=1;4=1,0", "1=1,0;2=1", "2=", "=1", "x", "", "3=1;3=1", "0=1"]
# `witt sum-v` families, one series each: a repeated size and a size past
# the support bound among them
SUMMANDS = ["2=1:1", "2=1:1;3=1:1", "2=1:1;2=1:1", "2=1:1;5=1:1", "2=", "0=1:1", "x", ""]
SPECS = [
    '{"n": 3, "vertices": ["A", "B", "C"], "edges": ["M", "N", "P"]}',
    '{"n": 1, "vertices": ["A"], "edges": ["M"]}',
    '{"n": 2, "vertices": ["A", ["x"]], "edges": [["tensor", "M", "S", "N"], "P"]}',
    '{"n": 2, "vertices": ["A"], "edges": ["M", "N"]}',
    '{"n": 0, "vertices": [], "edges": []}',
    '{"n": "x", "vertices": [], "edges": []}',
    '{"n": 2, "vertices": 1, "edges": 2}',
    "[]", "1", "{}", "x", "", "@missing.json",
]


def _cycle_files(tmp_path):
    """Names of the cycle files the hh commands read, written to tmp_path."""
    k, F3 = FiniteAlgebra.ground(QQ), PrimeField(3)
    C2 = FiniteAlgebra.poly_quotient(F3, (F3.from_int(-1), F3.zero(), F3.one()))
    dual = FiniteAlgebra.poly_quotient(QQ, (QQ.zero(), QQ.zero(), QQ.one()))
    contents = {
        "ground1": LabelledCycle.uniform(k, None, 1).to_json(),
        "ground3": LabelledCycle.uniform(k, None, 3).to_json(),
        # at degree 0 its only cut set has BAR_CUT_GUARD elements
        "ground_wide": LabelledCycle.uniform(k, None, BAR_CUT_GUARD).to_json(),
        "c2_2": LabelledCycle.uniform(C2, None, 2).to_json(),
        "dual1": LabelledCycle.one_cycle(dual, FiniteBimodule.regular(dual)).to_json(),
        "untyped": {"algebras": [1], "bimodules": [1]},
        "counts": {"algebras": 1, "bimodules": 1},
        "empty": {"algebras": [], "bimodules": []},
        "list": [],
    }
    for name, data in contents.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    (tmp_path / "text.json").write_text("x")
    return [str(tmp_path / f"{name}.json") for name in list(contents) + ["text", "missing"]]


def _grammar(cycles):
    """subcommand argv prefix -> (required options, optional options), each
    option name -> its pool of values."""
    window_module = {"--window": LISTS, "--burnside-m": _ints(), "--witt-ring": RINGS, "--witt-n": WINDOW}
    witt = {"--support": LISTS}
    ring = {"--ring": RINGS}
    return {
        ("trunc", "check"): ({"--set": LISTS}, {}),
        ("trunc", "divide"): ({"--set": LISTS, "--n": _ints()}, {}),
        ("trunc", "divisors"): ({"--n": WINDOW}, {}),
        ("trunc", "interval"): ({"--N": WINDOW}, {}),
        ("cyclic", "paths"): ({"--n": WINDOW}, {}),
        ("cyclic", "admissible"): ({"--n": _ints(), "--seq": PATHS, "--target": PATH}, {}),
        ("cyclic", "hom"): ({"--n": _ints(HOM_GUARD), "--m": _ints(HOM_GUARD)}, {}),
        ("cyclic", "dualize"): ({"--n": _ints(), "--m": _ints(), "--vals": LISTS}, {}),
        ("cyclic", "pushforward"): ({"--n": _ints(), "--m": _ints(), "--vals": LISTS, "--path": PATH}, {}),
        ("cyclic", "cut"): ({"--q": _ints(WINDOW_GUARD - 1), "--n": WINDOW}, {"--p": _ints()}),
        ("operad", "mulset"): ({"--n": _ints(), "--seq": PATHS, "--target": PATH}, {}),
        ("operad", "rotate"): ({"--spec": SPECS, "--k": _ints()}, {}),
        ("operad", "contract"): ({"--spec": SPECS, "--edge": _ints()}, {}),
        ("qfin", "fixed-points"): ({"--orbits": LISTS, "--k": _ints()}, {}),
        ("qfin", "pullback"): (
            {"--a": _ints(), "--b": _ints()},
            {"--u": _ints(), "--shift-a": _ints(), "--shift-b": _ints()},
        ),
        ("qfin", "scale"): ({"--orbits": LISTS, "--n": _ints()}, {}),
        ("qfin", "is-proper"): ({"--pairs": ["1:1", "2:1,3:1", "2:2,2:2", "1:0", "0:1", "1", "x", ""]}, {}),
        ("qfin", "compose-spans"): ({"--first": SPANS, "--second": SPANS}, {}),
        ("qfin", "weakly-terminal"): ({"--orbits": LISTS, "--primes": LISTS}, {}),
        ("mackey", "axioms"): ({}, dict(window_module, **{"--trials": _ints(TRIALS_GUARD), "--seed": _ints()})),
        ("mackey", "gfp"): ({}, dict(window_module, **{"--level": _ints()})),
        ("mackey", "conservativity"): ({"--window": LISTS}, {"--burnside-m": _ints()}),
        ("mackey", "proper-core"): ({"--window": LISTS}, {"--burnside-m": _ints()}),
        ("mackey", "evaluate-span"): ({"--span": SPANS}, window_module),
        ("mackey", "transfer-sum"): ({"--family": FAMILIES}, window_module),
        ("mackey", "coinvariants"): (
            {"--ngens": _ints(), "--action": ["1", "0", "1,0;0,1", "0,1;1,0", "1;", "x", ""],
             "--order": WINDOW},
            {"--relations": ["", "2", "2,0;0,2", "1,2;", "x"]},
        ),
        ("witt", "add"): (dict(witt, **{"--a": VECTORS, "--b": VECTORS}), ring),
        ("witt", "mul"): (dict(witt, **{"--a": VECTORS, "--b": VECTORS}), ring),
        ("witt", "ghost"): (dict(witt, **{"--vec": VECTORS}), ring),
        ("witt", "ver"): (dict(witt, **{"--target": LISTS, "--n": _ints(), "--vec": VECTORS}), ring),
        ("witt", "frob"): (dict(witt, **{"--n": _ints(), "--vec": VECTORS}), ring),
        ("witt", "teich"): (dict(witt, **{"--r": ["0", "1", "-1", "1/2", "x", ""]}), ring),
        ("witt", "sum-v"): (dict(witt, **{"--family": SUMMANDS}), ring),
        ("witt", "recover"): ({"--ring": RINGS, "--N": WINDOW}, {}),
        ("witt", "equalizer"): (
            {"--support": ["1", "1,2", "2", "", "x", "1,2,3,6", "1,2,3,4,5,6", "1,2,3,4,5,6,7"],
             "--box": [-1, 0, 1, 2, 50, 51, "x"]},
            {"--ring": ["Z", "Z/4", "F3", "Q", "x"]},
        ),
        ("witt", "as-mackey"): ({"--ring": RINGS, "--N": WINDOW}, {}),
        ("hh", "compute"): ({"--cycle": cycles, "--degree": _ints(BAR_DEGREE_GUARD)}, {}),
        ("hh", "thh0"): ({"--cycle": cycles}, {}),
        ("hh", "contract-compare"): (
            {"--cycle": cycles, "--edge": _ints(), "--degree": _ints(BAR_DEGREE_GUARD)}, {},
        ),
        ("hh", "rotate"): ({"--cycle": cycles, "--degree": _ints(BAR_DEGREE_GUARD)}, {}),
    }


def _draws(grammar, rng):
    for prefix, (required, optional) in grammar.items():
        for _ in range(DRAWS):
            argv = list(prefix)
            for name, pool in required.items():
                argv += [name, str(rng.choice(pool))]
            for name, pool in optional.items():
                if rng.random() < 0.5:
                    argv += [name, str(rng.choice(pool))]
            yield argv


class _Timeout(BaseException):
    """Raised by the alarm; a BaseException, so no handler in the code under
    test can swallow it."""


def _alarm(signum, frame):
    raise _Timeout


def test_every_subcommand_exits_with_one_json_object(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # "@missing.json" is read relative to it
    grammar = _grammar(_cycle_files(tmp_path))
    assert set(grammar) == {(g.name, c) for g in main.commands.values() for c in g.commands}
    runner = CliRunner()
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for argv in _draws(grammar, random.Random(SEED)):
            signal.setitimer(signal.ITIMER_REAL, CAP_S)
            try:
                result = runner.invoke(main, argv)
            except _Timeout:
                pytest.fail(f"no answer within {CAP_S} s: {argv}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert result.exit_code in (0, 2, 3), (argv, result.exception, result.output)
            assert "Traceback" not in result.output, argv
            assert isinstance(json.loads(result.stdout), dict), argv
            assert result.stdout.count("\n") == 1, argv
    finally:
        signal.signal(signal.SIGALRM, previous)
