import importlib
import inspect
import json
import os
import pkgutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import polygonic
from polygonic import hochschild
from polygonic.cli import main
from polygonic.cyclic import SizeGuard
from polygonic.hochschild import FiniteAlgebra, FiniteBimodule, LabelledCycle
from polygonic.rings import QQ, PrimeField
from polygonic.witt import SupportMismatch


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def test_truncation_divide_example(runner):
    result = run(runner, ["truncation", "divide", "--set", "1,2,3,4", "--n", "2"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"set": [1, 2]}


def test_trunc_check_decides_a_large_prime_at_once(runner):
    # divisor closure was once decided by trying every d <= t; an alarm ends
    # the run after 1 s, so such a walk fails here in place of hanging
    def stop(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        result = run(runner, ["trunc", "check", "--set", "1,1000000007"])
    except TimeoutError:
        result = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert result is not None, "trunc check ran for 1 s"
    assert (result.exit_code, json.loads(result.output)) == (0, {"is_truncation_set": True})


def test_cyclic_paths_example(runner):
    result = run(runner, ["cyclic", "paths", "--n", "3"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["count"] == 12
    assert len(data["paths"]) == 12


def test_witt_recover_example(runner):
    result = run(runner, ["witt", "recover", "--ring", "Z/8", "--N", "4"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["invariant_factors"] == [8]
    assert data["matches_base"] is True


def test_deterministic_output(runner):
    argv = ["mackey", "axioms", "--window", "1,2,3,6", "--trials", "30", "--seed", "4"]
    first = run(runner, argv).output
    second = run(runner, argv).output
    assert first == second
    argv = ["witt", "equalizer", "--ring", "Z", "--support", "1,2", "--box", "5"]
    assert run(runner, argv).output == run(runner, argv).output


def test_validation_exit_code(runner):
    result = run(runner, ["truncation", "divide", "--set", "2,4", "--n", "2"])
    assert result.exit_code == 2
    assert json.loads(result.output)["kind"] == "validation"


def test_guard_exit_code(runner):
    result = run(runner, ["cyclic", "hom", "--n", "7", "--m", "2"])
    assert result.exit_code == 3
    assert json.loads(result.output)["kind"] == "guard"
    result = run(runner, ["trunc", "interval", "--N", "65"])
    assert result.exit_code == 3


def test_tsv_format(runner):
    result = run(runner, ["--format", "tsv", "witt", "recover", "--ring", "F5", "--N", "3"])
    assert result.exit_code == 0
    lines = dict(
        tuple(line.split("\t")) for line in result.output.strip().splitlines()
    )
    assert lines["invariant_factors"] == "5"
    assert lines["matches_base"] == "True"


def test_cyclic_cut_of_a_cover_and_dualize(runner):
    # the 2-fold cover of the 2-cycle at level 1: the deck action turns the
    # blocks by n, the quotient map forgets the sheet
    result = run(runner, ["cyclic", "cut", "--q", "1", "--n", "2", "--p", "2"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "action": [4, 5, 6, 7, 0, 1, 2, 3],
        "colours": ["e:3:0", "v:0", "e:0:1", "v:1", "e:1:2", "v:2", "e:2:3", "v:3"],
        "cover_checks": {"free": True, "order_p": True, "square_commutes": True},
        "quotient": [0, 1, 2, 3, 0, 1, 2, 3],
        "size": 8,
    }
    result = run(runner, ["cyclic", "dualize", "--n", "2", "--m", "3", "--vals", "0,2"])
    assert (result.exit_code, json.loads(result.output)) == (0, {"dual": [0, 1, 1]})


def test_more_module_examples(runner):
    result = run(runner, ["cyclic", "admissible", "--n", "2",
                          "--seq", "e:0:1,v:1", "--target", "e:0:1"])
    assert json.loads(result.output)["admissible"] is True

    result = run(runner, ["operad", "mulset", "--n", "2",
                          "--seq", "v:0,v:0", "--target", "v:0"])
    assert json.loads(result.output)["count"] == 2

    result = run(runner, ["qfin", "fixed-points", "--orbits",
                          "1,2,3,4,5,6,7,8,9,10,11,12", "--k", "6"])
    assert json.loads(result.output)["orbits"] == [1, 2, 3, 6]

    result = run(runner, ["qfin", "pullback", "--a", "2", "--b", "3"])
    assert json.loads(result.output)["orbits"] == [6]

    result = run(runner, ["qfin", "scale", "--orbits", "3", "--n", "2"])
    assert json.loads(result.output)["orbits"] == [6]

    result = run(runner, ["qfin", "weakly-terminal", "--orbits", "6,9",
                          "--primes", "2,3,5"])
    data = json.loads(result.output)
    assert data["target"] == [2, 3, 5]

    result = run(runner, ["witt", "ghost", "--support", "1,2,3,4",
                          "--vec", "1:3"])
    assert json.loads(result.output)["ghost"] == {"1": "3", "2": "9", "3": "27", "4": "81"}

    result = run(runner, ["witt", "sum-v", "--support", "1,2,3,4",
                          "--family", "2=1:1;3=1:1;4=1:1"])
    coeffs = json.loads(result.output)["coeffs"]
    assert coeffs["1"] == "0" and coeffs["2"] == "1"

    result = run(runner, ["mackey", "gfp", "--window", "1,2,3,4,6,12",
                          "--burnside-m", "1", "--level", "1"])
    assert json.loads(result.output)["levels"]["1"] == {"free_rank": 1, "torsion": []}

    result = run(runner, ["mackey", "proper-core", "--window", "1,2,3,6"])
    data = json.loads(result.output)
    assert data["all_gfp_zero"] is True and data["transfer_generated"] is True

    result = run(runner, ["mackey", "coinvariants", "--ngens", "2",
                          "--action", "0,1;1,0", "--order", "2"])
    assert json.loads(result.output) == {"free_rank": 1, "torsion": []}

    result = run(runner, ["witt", "equalizer", "--ring", "Z",
                          "--support", "1,2,3,6", "--box", "5"])
    assert json.loads(result.output)["equals_ghost_image"] is True

    result = run(runner, ["cyclic", "pushforward", "--n", "2", "--m", "2",
                          "--vals", "1,2", "--path", "e:0:1"])
    assert json.loads(result.output)["path"] == "e:1:0"

    result = run(runner, ["qfin", "compose-spans", "--first", "1:3:1",
                          "--second", "1:2:1"])
    assert json.loads(result.output)["apex"] == [6]

    result = run(runner, ["mackey", "evaluate-span", "--window", "1,2,3,6",
                          "--span", "1:2:1"])
    data = json.loads(result.output)
    assert data["source_level"] == 1 and data["target_level"] == 1

    result = run(runner, ["mackey", "transfer-sum", "--witt-ring", "Z", "--witt-n", "4",
                          "--family", "2=1,0;3=1;4=1"])
    assert len(json.loads(result.output)["element"]) == 4

    result = run(runner, ["operad", "rotate", "--spec",
                          '{"n": 2, "vertices": ["R", "S"], "edges": ["M", "N"]}',
                          "--k", "1"])
    assert json.loads(result.output)["spec"]["vertices"] == ["S", "R"]

    result = run(runner, ["operad", "contract", "--spec",
                          '{"n": 2, "vertices": ["R", "S"], "edges": ["M", "N"]}',
                          "--edge", "0"])
    assert json.loads(result.output)["spec"]["edges"] == [["tensor", "M", "S", "N"]]


def test_hh_commands(runner, tmp_path):
    F2 = PrimeField(2)
    rows = FiniteBimodule.row_vectors(F2, 2)
    cols = FiniteBimodule.column_vectors(F2, 2)
    X = LabelledCycle(
        (FiniteAlgebra.ground(F2), FiniteAlgebra.matrix_algebra(F2, 2)), (rows, cols)
    )
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(X.to_json()))

    result = run(runner, ["hh", "compute", "--cycle", str(path), "--degree", "3"])
    data = json.loads(result.output)
    assert data["boundary_squared_zero"] is True
    assert data["homology"][:3] == [1, 0, 0]

    result = run(runner, ["hh", "contract-compare", "--cycle", str(path),
                          "--edge", "0", "--degree", "3"])
    data = json.loads(result.output)
    assert data["quasi_iso"] is True

    one = LabelledCycle.one_cycle(
        FiniteAlgebra.matrix_algebra(QQ, 2),
        FiniteBimodule.regular(FiniteAlgebra.matrix_algebra(QQ, 2)),
    )
    p1 = tmp_path / "one.json"
    p1.write_text(json.dumps(one.to_json()))
    result = run(runner, ["hh", "thh0", "--cycle", str(p1)])
    assert json.loads(result.output)["dimension"] == 1

    uniform = LabelledCycle.uniform(FiniteAlgebra.ground(QQ), None, 2)
    p2 = tmp_path / "uniform.json"
    p2.write_text(json.dumps(uniform.to_json()))
    result = run(runner, ["hh", "rotate", "--cycle", str(p2), "--degree", "2"])
    data = json.loads(result.output)
    assert data["commutes_with_boundary"] is True and data["order_exact"] is True


def test_rotate_prints_rationals_as_strings_and_residues_as_numbers(runner, tmp_path):
    # raw stdout: entries over Q are strings, entries over F3 JSON numbers
    expected = {
        QQ: '[[["1", "0"], ["0", "1"]], [], []]',
        PrimeField(3): "[[[1, 0], [0, 1]], [], []]",
    }
    for field, action in expected.items():
        C2 = FiniteAlgebra.poly_quotient(field, (field.from_int(-1), field.zero(), field.one()))
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps(LabelledCycle.uniform(C2, None, 2).to_json()))
        result = run(runner, ["hh", "rotate", "--cycle", str(path), "--degree", "3"])
        assert result.exit_code == 0
        assert result.output == (
            '{"commutes_with_boundary": true, "homology_action": ' + action
            + ', "homology_dims": [2, 0, 0], "order_exact": true}\n'
        )


def test_bar_guard_exit(runner, tmp_path):
    M4 = FiniteAlgebra.matrix_algebra(PrimeField(2), 4)
    X = LabelledCycle.one_cycle(M4, FiniteBimodule.regular(M4))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(X.to_json()))
    result = run(runner, ["hh", "compute", "--cycle", str(path), "--degree", "3"])
    assert result.exit_code == 3


def test_an_internal_key_error_is_not_reported_as_bad_input(runner, tmp_path, monkeypatch):
    # exit 2 says the input is bad; a KeyError raised inside the library is
    # a fault of the program, so it is not turned into a validation object
    path = tmp_path / "ground.json"
    path.write_text(json.dumps(LabelledCycle.uniform(FiniteAlgebra.ground(QQ), None, 1).to_json()))

    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(hochschild, "hh_complex", broken)
    result = runner.invoke(main, ["hh", "compute", "--cycle", str(path), "--degree", "1"])
    assert isinstance(result.exception, KeyError)
    assert result.exit_code != 2 and '"validation"' not in result.output


def test_contract_compare_guard_fires_before_any_rebase(runner, tmp_path, monkeypatch):
    # the Morita cycle at degree 7 has 4 * 4^7 = 65536 dims: refused before
    # its M2(F2) is rebased unit-first or any complex is built
    F2 = PrimeField(2)
    X = LabelledCycle(
        (FiniteAlgebra.ground(F2), FiniteAlgebra.matrix_algebra(F2, 2)),
        (FiniteBimodule.row_vectors(F2, 2), FiniteBimodule.column_vectors(F2, 2)),
    )
    path = tmp_path / "morita.json"
    path.write_text(json.dumps(X.to_json()))
    calls = []
    for owner, name in ((LabelledCycle, "unit_first"), (hochschild, "_complex")):
        def counted(*args, original=getattr(owner, name), name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    result = run(runner, ["hh", "contract-compare", "--cycle", str(path), "--edge", "0", "--degree", "7"])
    assert result.exit_code == 3
    assert json.loads(result.output)["kind"] == "guard"
    assert calls == []


def test_bar_guard_edge(runner, tmp_path):
    # The M2(Q) one-cycle at degree 6 reaches dimension 16384, under the
    # guard, and must finish; its homology is HH(Q) by Morita invariance.
    M2 = FiniteAlgebra.matrix_algebra(QQ, 2)
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(LabelledCycle.one_cycle(M2, FiniteBimodule.regular(M2)).to_json()))
    result = run(runner, ["hh", "compute", "--cycle", str(path), "--degree", "6"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "boundary_squared_zero": True,
        "dims": [4 ** (q + 1) for q in range(7)],
        "homology": [1, 0, 0, 0, 0, 0],
    }
    result = run(runner, ["hh", "compute", "--cycle", str(path), "--degree", "7"])
    assert result.exit_code == 3


def test_hh_stdout_matches_the_recorded_runs(runner, tmp_path):
    # hh compute, rotate and contract-compare on cycles whose homology is
    # nonzero above degree 0, so that cycle bases above degree 0 are read;
    # stdout and exit codes are compared byte for byte.
    F3 = PrimeField(3)
    algebras = {
        "F3[e]/(e^2)": FiniteAlgebra.poly_quotient(F3, (F3.zero(), F3.zero(), F3.one())),
        "Q[x]/(x^3)": FiniteAlgebra.poly_quotient(QQ, (QQ.zero(),) * 3 + (QQ.one(),)),
    }
    commands = {
        "compute": ["hh", "compute"],
        "rotate": ["hh", "rotate"],
        "contract-compare": ["hh", "contract-compare", "--edge", "0"],
    }
    recorded = json.loads((Path(__file__).parent / "data" / "hh_golden_stdout.json").read_text())
    assert len(recorded) == 18
    for case in recorded:
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(LabelledCycle.uniform(algebras[case["algebra"]], None, case["n"]).to_json()))
        argv = commands[case["command"]] + ["--cycle", str(path), "--degree", "3"]
        result = run(runner, argv)
        assert (result.exit_code, result.output) == (case["exit_code"], case["stdout"]), case


def test_hh_unit_basis_stdout_matches_the_recorded_runs(runner, tmp_path):
    # Recorded before cycles whose units are not basis vector 0 were
    # rebased and normalized: hh compute, rotate and contract-compare on
    # M2(F2) and M2(Q) uniform 1- and 2-cycles and on the Morita cycle
    # (F2, M2(F2); rows, cols), contract-compare across both edges of each
    # 2-cycle; stdout and exit codes are compared byte for byte.
    F2 = PrimeField(2)
    cycles = {
        f"M2({name}) n={n}": LabelledCycle.uniform(FiniteAlgebra.matrix_algebra(field, 2), None, n)
        for name, field in (("F2", F2), ("Q", QQ)) for n in (1, 2)
    }
    cycles["Morita"] = LabelledCycle(
        (FiniteAlgebra.ground(F2), FiniteAlgebra.matrix_algebra(F2, 2)),
        (FiniteBimodule.row_vectors(F2, 2), FiniteBimodule.column_vectors(F2, 2)),
    )
    recorded = json.loads((Path(__file__).parent / "data" / "hh_unit_basis_golden_stdout.json").read_text())
    assert len(recorded) == 28
    for case in recorded:
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(cycles[case["cycle"]].to_json()))
        argv = ["hh"] + case["command"] + ["--cycle", str(path), "--degree", str(case["degree"])]
        result = run(runner, argv)
        assert (result.exit_code, result.output) == (case["exit_code"], case["stdout"]), case


def test_mackey_and_witt_stdout_matches_the_recorded_runs(runner):
    # Recorded before lattice membership moved to invariant factors: axioms,
    # gfp, conservativity, proper-core, evaluate-span, transfer-sum,
    # coinvariants, witt recover and witt as-mackey, in JSON and in TSV,
    # including exit 2 and exit 3 cases.
    recorded = json.loads((Path(__file__).parent / "data" / "mackey_witt_golden_stdout.json").read_text())
    assert len(recorded) == 54
    for case in recorded:
        result = run(runner, case["argv"])
        assert (result.exit_code, result.output) == (case["exit_code"], case["stdout"]), case


def test_witt_arithmetic_stdout_matches_the_recorded_runs(runner):
    # Recorded before Verschiebung factors were applied in place: witt add,
    # mul, frob, ver, ghost, teich and sum-v over Z, Q, Z/8, Z/9 and F5, on
    # [8] and on the divisors of 12, in JSON and in TSV, plus exit 2 cases.
    recorded = json.loads((Path(__file__).parent / "data" / "witt_arithmetic_golden_stdout.json").read_text())
    assert len(recorded) == 164
    for case in recorded:
        result = run(runner, case["argv"])
        assert (result.exit_code, result.output) == (case["exit_code"], case["stdout"]), case


def test_witt_equalizer_stdout_matches_the_recorded_runs(runner):
    # Recorded while members were still found by trial: every truncation set
    # in {1..12} with at most 6 elements at boxes 0-2 over Z and over Z/4 and
    # Z/6, over Z/9 those with at most 9^4 residue tuples, larger boxes,
    # F2, F3, F5, Z/8, Z/12 and Z/16, in JSON and in TSV, plus exit 2 and
    # exit 3 cases.  The five runs past box 50 or |T| 6, which a guard of the
    # command refused when they were recorded, list their members now.
    recorded = json.loads((Path(__file__).parent / "data" / "witt_equalizer_golden_stdout.json").read_text())
    assert len(recorded) == 640
    for case in recorded:
        result = run(runner, case["argv"])
        assert (result.exit_code, result.output) == (case["exit_code"], case["stdout"]), case


def test_unreadable_coefficients_name_the_token_and_the_ring(runner):
    for argv, message in (
        (["witt", "ghost", "--ring", "Z/4", "--support", "1", "--vec", "1:1/2"], "'1/2' is not an element of Z/4"),
        (["mackey", "coinvariants", "--ngens", "1", "--action", "1/0", "--order", "2"],
         "'1/0' is not an element of Z"),
        (["trunc", "divide", "--set", "1,a", "--n", "2"], "'a' is not an element of Z"),
        (["witt", "ghost", "--ring", "Q", "--support", "1", "--vec", "1:x"], "'x' is not an element of Q"),
    ):
        result = run(runner, argv)
        assert result.exit_code == 2, argv
        assert json.loads(result.output) == {"error": message, "kind": "validation"}


def test_malformed_list_items_name_the_option_and_the_form(runner):
    for argv, message in (
        (["qfin", "is-proper", "--pairs", "1"], "each --pairs item is m:n; got '1'"),
        (["qfin", "is-proper", "--pairs", "1:2:3"], "each --pairs item is m:n; got '1:2:3'"),
        (["witt", "ghost", "--support", "1", "--vec", "1"], "each --vec item is t:v; got '1'"),
        (["mackey", "transfer-sum", "--witt-ring", "Z", "--witt-n", "4", "--family", "2"],
         "each --family item is n=c1,c2,...; got '2'"),
        (["witt", "sum-v", "--support", "1,2,3,4", "--family", "2"], "each --family item is n=t:v,...; got '2'"),
    ):
        result = run(runner, argv)
        assert result.exit_code == 2, argv
        assert result.output.count("\n") == 1, argv
        assert json.loads(result.output) == {"error": message, "kind": "validation"}


def test_wrongly_sized_mackey_inputs_name_the_option_and_the_size(runner):
    for argv, message in (
        (["mackey", "transfer-sum", "--window", "1,2,4", "--family", "4=1;2=0"],
         "--family level 2 needs 2 coordinates; got 1"),
        (["mackey", "coinvariants", "--ngens", "2", "--action", "1,0", "--order", "1"], "--action must be 2x2; got 1x2"),
        (["mackey", "coinvariants", "--ngens", "-1", "--action", "1,0", "--order", "1"], "--ngens must be >= 0"),
        (["mackey", "coinvariants", "--ngens", "1", "--relations", "1,2", "--action", "1", "--order", "1"],
         "--relations rows need 1 entries; row 1 has 2"),
        (["mackey", "coinvariants", "--ngens", "2", "--action", "0,1;1", "--order", "2"],
         "--action must be 2x2; row 2 has 1 entries"),
    ):
        result = run(runner, argv)
        assert result.exit_code == 2, argv
        assert result.output.count("\n") == 1, argv
        assert json.loads(result.output) == {"error": message, "kind": "validation"}
    result = run(runner, ["mackey", "transfer-sum", "--window", "1,2,4", "--family", "4=1;2=0,1"])
    assert result.exit_code == 0


def test_window_bounds_are_one_guard(runner):
    error = {"error": "window bound is 64", "kind": "guard"}
    for argv in (
        ["trunc", "divisors", "--n", "65"],
        ["trunc", "interval", "--n", "65"],
        ["witt", "recover", "--ring", "Z", "--n", "65"],
        ["witt", "as-mackey", "--ring", "Z", "--n", "65"],
        ["mackey", "transfer-sum", "--witt-ring", "Z", "--witt-n", "65", "--family", "1=1"],
        # the bound is checked before the ring is read
        ["witt", "recover", "--ring", "Z/1", "--n", "65"],
        ["witt", "as-mackey", "--ring", "F4", "--n", "65"],
        ["mackey", "gfp", "--witt-ring", "Z/0", "--witt-n", "65"],
    ):
        result = run(runner, argv)
        assert (result.exit_code, json.loads(result.output)) == (3, error), argv
    # a Witt window without its bound is invalid input, named before the
    # ring is read
    error = {"error": "--witt-ring needs --witt-n", "kind": "validation"}
    for argv in (
        ["mackey", "transfer-sum", "--witt-ring", "Z", "--family", "1=1"],
        ["mackey", "gfp", "--witt-ring", "Z/0"],
        ["mackey", "gfp", "--witt-ring", "Z"],
        ["mackey", "axioms", "--witt-ring", "Z", "--trials", "1"],
    ):
        result = run(runner, argv)
        assert (result.exit_code, json.loads(result.output)) == (2, error), argv


def test_malformed_paths_are_validation_errors(runner):
    for seq, target in (("v", "v:0"), ("x:0:1", "e:0:1"), ("v:0:7", "v:0"), ("v:0", "e:0"),
                        ("e:0:1:2", "v:0"), ("v: 1", "v:0"), ("v:1_0", "v:0"), ("v:0", "")):
        for command in ("cyclic admissible", "operad mulset"):
            result = run(runner, command.split() + ["--n", "2", "--seq", seq, "--target", target])
            assert result.exit_code == 2, (command, seq, target)
            assert json.loads(result.output)["kind"] == "validation"
    result = run(runner, ["cyclic", "admissible", "--n", "2", "--seq", "v:-1,e:1:0", "--target", "e:1:0"])
    assert result.exit_code == 0
    assert json.loads(result.output)["admissible"] is True


def test_axiom_trials_are_bounded(runner):
    base = ["mackey", "axioms", "--window", "1,2,3,4,6,12", "--trials"]
    result = run(runner, base + ["-1"])
    assert result.exit_code == 2
    assert json.loads(result.output)["kind"] == "validation"
    result = run(runner, base + ["10001"])
    assert result.exit_code == 3
    payload = json.loads(result.output)
    assert payload["kind"] == "guard"
    assert "10000" in payload["error"] and "10001" in payload["error"]
    result = run(runner, base + ["0"])
    assert json.loads(result.output) == {"checked": 80, "failures": [], "ok": True}
    # The limit itself is accepted; a one-level window keeps the run short.
    result = run(runner, ["mackey", "axioms", "--window", "1", "--trials", "10000"])
    assert result.exit_code == 0


def test_coinvariants_checks_its_action(runner):
    base = ["mackey", "coinvariants", "--ngens", "2", "--action", "0,1;1,0"]
    for extra, code in (
        (["--relations", "4,0", "--order", "2"], 2),  # the swap does not preserve <(4,0)>
        (["--order", "3"], 2),  # the swap has order 2
        (["--order", "0"], 2),
        (["--order", "-5"], 2),
        (["--order", "100000000"], 3),
        (["--order", "65"], 3),
    ):
        result = run(runner, base + extra)
        assert result.exit_code == code, extra
        assert json.loads(result.output)["kind"] == ("validation" if code == 2 else "guard")
    result = run(runner, base + ["--relations", "4,0;0,4", "--order", "4"])
    assert json.loads(result.output) == {"free_rank": 0, "torsion": [4]}
    # --action rows are read as --relations rows are, empty ones dropped, so
    # the group on no generators takes the empty action.
    for argv, out in ((["--ngens", "0", "--action", "", "--order", "1"], {"free_rank": 0, "torsion": []}),
                      (["--ngens", "1", "--action", "1;", "--order", "1"], {"free_rank": 1, "torsion": []})):
        result = run(runner, ["mackey", "coinvariants"] + argv)
        assert (result.exit_code, json.loads(result.output)) == (0, out), argv


def test_cycle_sizes_below_one_are_validation_errors(runner):
    for argv in (
        ["cyclic", "hom", "--n", "0", "--m", "1"],
        ["cyclic", "hom", "--n", "2", "--m", "0"],
        ["cyclic", "hom", "--n", "7", "--m", "-1"],
        ["cyclic", "dualize", "--n", "0", "--m", "1", "--vals", ","],
        ["cyclic", "dualize", "--n", "1", "--m", "0", "--vals", "0"],
        ["cyclic", "pushforward", "--n", "0", "--m", "1", "--vals", ",", "--path", "v:0"],
        ["cyclic", "pushforward", "--n", "1", "--m", "-1", "--vals", "0", "--path", "v:0"],
        ["cyclic", "admissible", "--n", "0", "--seq", "v:0", "--target", "v:0"],
        ["cyclic", "admissible", "--n", "-1", "--seq", "e:0:1", "--target", "e:0:1"],
        ["operad", "mulset", "--n", "0", "--seq", "v:0", "--target", "v:0"],
        ["cyclic", "paths", "--n", "0"],
        ["cyclic", "paths", "--n", "-2"],
        ["cyclic", "cut", "--q", "1", "--n", "2", "--p", "-1"],
        ["cyclic", "cut", "--q", "1", "--n", "2", "--p", "0"],
        ["cyclic", "cut", "--q", "1", "--n", "0"],
    ):
        result = run(runner, argv)
        assert result.exit_code == 2, argv
        assert json.loads(result.output)["kind"] == "validation", argv


def test_contracting_a_one_cycle_is_a_validation_error(runner, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(LabelledCycle.uniform(FiniteAlgebra.ground(QQ), None, 1).to_json()))
    for argv in (
        ["hh", "contract-compare", "--cycle", str(path), "--edge", "0", "--degree", "2"],
        ["operad", "contract", "--spec", '{"n": 1, "vertices": ["A"], "edges": ["M"]}', "--edge", "0"],
    ):
        result = run(runner, argv)
        assert result.exit_code == 2
        assert json.loads(result.output) == {"error": "cannot contract a 1-cycle", "kind": "validation"}


def test_bimodule_over_another_algebra_is_a_validation_error(runner, tmp_path):
    # the vertex is Q[e]/(e^2), the edge is Q[C2] over itself: same dimension,
    # different algebra
    C2 = FiniteAlgebra.poly_quotient(QQ, (QQ.from_int(-1), QQ.zero(), QQ.one()))
    dual = FiniteAlgebra.poly_quotient(QQ, (QQ.zero(), QQ.zero(), QQ.one()))
    data = LabelledCycle.uniform(C2, None, 1).to_json()
    data["algebras"] = [dual.to_json()]
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(data))
    result = run(runner, ["hh", "compute", "--cycle", str(path), "--degree", "2"])
    assert result.exit_code == 2
    assert json.loads(result.output)["kind"] == "validation"


def test_rotate_rejects_non_uniform_cycle(runner, tmp_path):
    # (A, A; A, A twisted by e -> -e) over F3[e]/(e^2): rotation does not
    # preserve this cycle, so there is no rotation action to report.
    F3 = PrimeField(3)
    A = FiniteAlgebra.poly_quotient(F3, (F3.zero(), F3.zero(), F3.one()), name="F3[e]")
    twisted = FiniteBimodule.through_hom(A, A, [(F3.one(), F3.zero()), (F3.zero(), F3.from_int(-1))])
    cycle = LabelledCycle((A, A), (FiniteBimodule.regular(A), twisted))
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(cycle.to_json()))
    result = run(runner, ["hh", "rotate", "--cycle", str(path), "--degree", "2"])
    assert result.exit_code == 2
    assert json.loads(result.output)["kind"] == "validation"


def test_missing_input_files_are_validation_errors(runner, tmp_path):
    missing = str(tmp_path / "missing.json")
    for argv in (
        ["hh", "compute", "--cycle", missing, "--degree", "2"],
        ["witt", "ghost", "--support", "1,2", "--vec", "@" + missing],
        ["operad", "rotate", "--spec", "@" + missing, "--k", "1"],
    ):
        result = run(runner, argv)
        assert result.exit_code == 2
        error = json.loads(result.output)
        assert error["kind"] == "validation" and missing in error["error"]


def test_tsv_flattens_nested_values(runner, tmp_path):
    uniform = LabelledCycle.uniform(FiniteAlgebra.ground(QQ), None, 2)
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(uniform.to_json()))
    argv = ["hh", "rotate", "--cycle", str(path), "--degree", "2"]
    data = json.loads(run(runner, argv).output)
    result = run(runner, ["--format", "tsv"] + argv)
    assert result.exit_code == 0
    assert "[" not in result.output and "{" not in result.output
    lines = dict(tuple(line.split("\t")) for line in result.output.strip().splitlines())
    # one line per matrix row of the action on H_q
    for q, matrix in enumerate(data["homology_action"]):
        for i, row in enumerate(matrix):
            assert lines[f"homology_action.{q}.{i}"] == ",".join(str(x) for x in row)
    assert lines["homology_dims"] == ",".join(str(d) for d in data["homology_dims"])


def test_malformed_cycle_files_are_validation_errors(runner, tmp_path):
    cycle = LabelledCycle.uniform(FiniteAlgebra.ground(QQ), None, 1).to_json()
    A = FiniteAlgebra.poly_quotient(QQ, (QQ.from_int(-1), QQ.zero(), QQ.one()))
    cycle_c2 = LabelledCycle.uniform(A, None, 1).to_json()

    def edited(data, edit):
        data = json.loads(json.dumps(data))
        edit(data)
        return data

    cases = {
        "short_mult": edited(cycle_c2, lambda d: d["algebras"][0].update(mult=d["algebras"][0]["mult"][:1])),
        "dim_above_tables": edited(cycle, lambda d: d["algebras"][0].update(dim=2)),
        "dim_as_string": edited(cycle_c2, lambda d: d["algebras"][0].update(dim="2")),
        "short_left_action_row": edited(
            cycle_c2, lambda d: d["bimodules"][0]["left_action"][0].pop()
        ),
        "top_level_list": [cycle],
    }
    for name, data in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        result = run(runner, ["hh", "compute", "--cycle", str(path), "--degree", "2"])
        assert result.exit_code == 2, (name, result.output)
        assert json.loads(result.output)["kind"] == "validation"


def test_hh_compute_keeps_the_direct_route_where_tor_does_not_vanish(runner, tmp_path):
    # (R, R; k, k) with R = Q[e]/(e^2) and k = R/(e): neither edge is free
    # over R, and contracting it would print [1, 1, 1, 1].
    R = FiniteAlgebra.poly_quotient(QQ, (QQ.zero(), QQ.zero(), QQ.one()))
    k = FiniteBimodule(R, R, 1, (((1,),), ((0,),)), (((1,), (0,)),), name="k")
    path = tmp_path / "augmentation.json"
    path.write_text(json.dumps(LabelledCycle((R, R), (k, k)).to_json()))
    result = run(runner, ["hh", "compute", "--cycle", str(path), "--degree", "4"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "boundary_squared_zero": True,
        "dims": [1, 4, 16, 64, 256],
        "homology": [1, 2, 3, 4],
    }


def test_hh_compute_reports_the_full_dims_on_the_trace_route(runner, tmp_path):
    # The Q[C2] 3-cycle contracts to a one-cycle; dims and the guard still
    # read the 3-cycle's own bar complex.
    R = FiniteAlgebra.poly_quotient(QQ, (QQ.from_int(-1), QQ.zero(), QQ.one()))
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(LabelledCycle.uniform(R, None, 3).to_json()))
    result = run(runner, ["hh", "compute", "--cycle", str(path), "--degree", "3"])
    assert json.loads(result.output) == {
        "boundary_squared_zero": True,
        "dims": [8, 64, 512, 4096],
        "homology": [2, 0, 0],
    }
    result = run(runner, ["hh", "compute", "--cycle", str(path), "--degree", "4"])
    assert result.exit_code == 3
    assert json.loads(result.output)["error"] == "bar complex dimension 32768 exceeds 20000"


def test_burnside_m_below_one_is_a_validation_error(runner):
    for command, extra in (
        ("axioms", ["--trials", "0"]),
        ("gfp", []),
        ("evaluate-span", ["--span", "1:2:1"]),
        ("transfer-sum", ["--family", "4=1"]),
        ("conservativity", []),
        ("proper-core", []),
    ):
        base = ["mackey", command, "--window", "1,2,4"] + extra
        for m in ("0", "-1"):
            result = run(runner, base + ["--burnside-m", m])
            assert result.exit_code == 2, (command, m)
            assert json.loads(result.output) == {
                "error": f"--burnside-m must be >= 1, got {m}", "kind": "validation"}, (command, m)
        assert run(runner, base + ["--burnside-m", "1"]).exit_code == 0


def test_witt_indices_outside_the_support_are_validation_errors(runner):
    base = ["witt", "add", "--ring", "Z", "--support", "1,2,3", "--a", "1:1"]
    result = run(runner, base + ["--b", "5:1"])
    assert result.exit_code == 2
    assert json.loads(result.output) == {
        "error": "indices [5] lie outside the support [1, 2, 3]", "kind": "validation",
    }
    assert run(runner, base + ["--b", "3:1"]).exit_code == 0
    sum_v = ["witt", "sum-v", "--support", "1,2,3,4", "--family"]
    for family, size, outside in (("2=1:1,3:1", 2, "[3] lie outside the support [1, 2]"),
                                  ("2=1:1;3=2:1", 3, "[2] lie outside the support [1]")):
        result = run(runner, sum_v + [family])
        assert result.exit_code == 2
        assert json.loads(result.output) == {
            "error": f"--family size {size}: indices {outside}", "kind": "validation",
        }
    # A size past the support bound adds nothing, as in
    # witt.infinite_verschiebung, but its pairs must still parse.
    alone = run(runner, sum_v + ["2=1:1"])
    assert alone.exit_code == 0
    for family in ("2=1:1;5=1:1", "2=1:1;5=1:0,7:3", "5=9:9;2=1:1", "2=1:1;5="):
        assert run(runner, sum_v + [family]).output == alone.output, family
    for family, error in (("2=1:1;5=1", "each --family item is t:v; got '1'"),
                          ("2=1:1;5=1:x", "'x' is not an element of Z")):
        result = run(runner, sum_v + [family])
        assert result.exit_code == 2
        assert json.loads(result.output) == {"error": error, "kind": "validation"}


def test_witt_sum_v_sizes_below_two_name_the_option_and_the_size(runner):
    sum_v = ["witt", "sum-v", "--support", "1,2,3,4", "--family"]
    for family, size in (("0=1:1", 0), ("1=1:1", 1), ("-1=1:1", -1), ("-7=1:x", -7), ("2=1:1;1=1:1", 1)):
        result = run(runner, sum_v + [family])
        assert result.exit_code == 2, family
        assert json.loads(result.output) == {
            "error": f"--family size {size}: summable families need sizes >= 2", "kind": "validation",
        }


def test_equalizer_guard_edge(runner):
    # Over Z/1025 on {1, 2} no condition binds (gcd(2, 1025) = 1), so all
    # 1025^2 = 1050625 pairs are members, past the limit of 2^20 = 1048576;
    # the run stops before listing any.
    base = ["witt", "equalizer", "--support", "1,2", "--box", "0"]
    result = run(runner, base + ["--ring", "Z/1025"])
    assert result.exit_code == 3
    payload = json.loads(result.output)
    assert payload["kind"] == "guard"
    assert "1048576" in payload["error"] and "1050625" in payload["error"]
    result = run(runner, base + ["--ring", "Z/9"])
    assert result.exit_code == 0
    assert json.loads(result.output)["equalizer_size"] == 81


def test_equalizer_box_is_bounded_by_the_members_listed(runner):
    # The member bound is the command's one guard: on {1} the box lists
    # 2 * box + 1 integers, so box 524287 lists 2^20 - 1 members and box
    # 524288 is refused, at 2^20 + 1, before any is listed.
    base = ["witt", "equalizer", "--support", "1", "--box"]
    result = run(runner, base + ["524287"])
    assert result.exit_code == 0
    assert json.loads(result.output)["equalizer_size"] == 1048575
    result = run(runner, base + ["524288"])
    assert result.exit_code == 3
    assert json.loads(result.output) == {
        "error": "equalizer listing is limited to 1048576 members; support [1] and box 524288 allow up to 1048577",
        "kind": "guard",
    }
    # boxes above 50 and supports above 6 elements are no longer refused
    result = run(runner, ["witt", "equalizer", "--support", "1,2", "--box", "51"])
    assert (result.exit_code, json.loads(result.output)["equalizer_size"]) == (0, 5305)
    result = run(runner, ["witt", "equalizer", "--support", "1,2,3,4,5,6,7", "--box", "1"])
    assert result.exit_code == 0
    # w_1 = 0 forces every w_t = 0; w_1 = +-1 leaves w_2, w_4 in {-1, 1}
    assert json.loads(result.output)["equalizer_size"] == 1 + 2 * 4


def test_bar_degree_and_cut_set_guard_edges(runner, tmp_path):
    # With 1-dimensional labels every bar dimension is 1, so only the degree
    # and the top cut-set size n (degree + 1) bound the work.
    k = FiniteAlgebra.ground(QQ)
    paths = {}
    for n in (2, 128, 256, 257):
        paths[n] = tmp_path / f"ground{n}.json"
        paths[n].write_text(json.dumps(LabelledCycle.uniform(k, None, n).to_json()))
    commands = {  # argv prefix -> the key of the printed homology
        ("hh", "compute"): "homology",
        ("hh", "rotate"): "homology_dims",
        ("hh", "contract-compare", "--edge", "0"): "source_homology",
    }
    for command, key in commands.items():
        command = list(command)
        for n, degree in ((2, 24), (128, 1), (256, 0)):
            argv = command + ["--cycle", str(paths[n]), "--degree", str(degree)]
            result = run(runner, argv)
            assert result.exit_code == 0, argv
            assert json.loads(result.output)[key] == ([1] + [0] * (degree - 1) if degree else [])
        for n, degree, error in (
            (2, 25, "degree 25 exceeds 24"),
            (128, 2, "cut set size 384 exceeds 256"),
            (257, 0, "cut set size 257 exceeds 256"),
        ):
            result = run(runner, command + ["--cycle", str(paths[n]), "--degree", str(degree)])
            assert result.exit_code == 3
            assert json.loads(result.output) == {"error": error, "kind": "guard"}


def test_malformed_json_is_a_validation_error(runner, tmp_path):
    for spec in ("[]", "1", '{"n": "x", "vertices": [], "edges": []}', '{"n": 2, "vertices": 1, "edges": 2}'):
        for argv in (
            ["operad", "rotate", "--spec", spec, "--k", "1"],
            ["operad", "contract", "--spec", spec, "--edge", "0"],
        ):
            result = run(runner, argv)
            assert result.exit_code == 2, argv
            assert json.loads(result.output)["kind"] == "validation"
    path = tmp_path / "untyped.json"
    path.write_text(json.dumps({"algebras": [1], "bimodules": [1]}))
    for argv in (
        ["hh", "compute", "--cycle", str(path), "--degree", "2"],
        ["hh", "thh0", "--cycle", str(path)],
        ["hh", "rotate", "--cycle", str(path), "--degree", "2"],
    ):
        result = run(runner, argv)
        assert result.exit_code == 2, argv
        assert json.loads(result.output) == {
            "error": "an algebra is an object with 'field', 'dim', 'mult', 'unit'", "kind": "validation",
        }


def test_usage_errors_print_the_error_object(runner):
    # click's own parse errors keep the exit-2 contract: one JSON object on
    # stdout, as for any other invalid input
    for argv, error in (
        (["trunc", "nope"], "No such command 'nope'."),
        (["trunc", "divide", "--set", "1,2"], "Missing option '--n'."),
        (["trunc", "divide", "--set", "1,2", "--n", "x"], "Invalid value for '--n': 'x' is not a valid integer."),
        (["--format", "xml", "trunc", "check", "--set", "1"],
         "Invalid value for '--format': 'xml' is not one of 'json', 'tsv'."),
        (["--format", "tsv", "trunc", "divide", "--set", "1,2", "--n", "1.5"],
         "Invalid value for '--n': '1.5' is not a valid integer."),
    ):
        result = run(runner, argv)
        assert result.exit_code == 2, argv
        assert result.stdout.count("\n") == 1, argv
        assert json.loads(result.stdout) == {"error": error, "kind": "validation"}
    for argv in (["--help"], ["trunc", "--help"], ["trunc", "divide", "--help"]):
        result = run(runner, argv)
        assert result.exit_code == 0, argv
        assert result.stdout.startswith("Usage:"), argv


def test_every_library_error_but_the_guard_is_a_value_error():
    # the command line maps SizeGuard to exit 3 and ValueError to exit 2, so
    # an error class outside both would end in a traceback; bad input is a
    # plain ValueError, and SupportMismatch is the one subclass, as
    # witt sum-v catches it by type
    errors = set()
    for info in pkgutil.iter_modules(polygonic.__path__):
        module = importlib.import_module(f"polygonic.{info.name}")
        errors.update(
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, Exception) and cls.__module__.startswith("polygonic.")
        )
    assert errors == {SizeGuard, SupportMismatch}
    assert issubclass(SupportMismatch, ValueError)
    assert not issubclass(SizeGuard, ValueError)


def test_importing_the_cli_loads_no_dataclasses():
    # the value types are plain classes, so start-up generates no methods;
    # pytest imports dataclasses itself, so only a fresh process can tell
    env = {**os.environ, "PYTHONPATH": str(Path(polygonic.__file__).parents[1])}
    code = "import polygonic.cli, sys; print(polygonic.__file__, 'dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == [polygonic.__file__, "False"], done.stderr


def test_pullback_guard_edge(runner):
    # Z/a x_{Z/u} Z/b has a*b/u elements; the limit is 2^20 = 1048576
    result = run(runner, ["qfin", "pullback", "--a", "1048576", "--b", "1"])
    assert result.exit_code == 0
    assert json.loads(result.output)["elements"] == 1048576
    for argv, requested in (
        (["qfin", "pullback", "--a", "1048577", "--b", "1"], 1048577),
        (["qfin", "pullback", "--a", "1000000", "--b", "1000000"], 10 ** 12),
        (["qfin", "compose-spans", "--first", "1:1000000:1", "--second", "1:1000000:1"], 10 ** 12),
    ):
        result = run(runner, argv)
        assert result.exit_code == 3, argv
        assert json.loads(result.output) == {
            "error": f"pullback is limited to 1048576 elements; {requested} requested", "kind": "guard",
        }


def test_large_prime_moduli_are_decided_or_refused(runner, tmp_path):
    # R23 = (10^23 - 1)/9 is prime; trial division would need about 10^11 steps
    start = time.perf_counter()
    result = run(runner, ["witt", "add", "--ring", "F11111111111111111111111", "--support", "1",
                          "--a", "1:1", "--b", "1:1"])
    assert time.perf_counter() - start < 1
    assert (result.exit_code, json.loads(result.output)["coeffs"]) == (0, {"1": "2"})
    result = run(runner, ["witt", "recover", "--ring", f"F{2 ** 89 - 1}", "--N", "1"])
    assert result.exit_code == 3
    assert json.loads(result.output)["kind"] == "guard"
    # a quotient ring over a large prime is decided by one gcd: x^2 + 1 is
    # irreducible over F_(10^9+7), since 10^9 + 7 = 3 mod 4
    path = tmp_path / "vec.json"
    path.write_text(json.dumps({
        "ring": {"kind": "univariate-polynomial-quotient", "base": {"kind": "prime-field", "p": 10 ** 9 + 7},
                 "modulus": ["1", "0", "1"]},
        "support": [1], "coeffs": {},
    }))
    result = run(runner, ["witt", "ghost", "--support", "1", "--vec", f"@{path}"])
    assert (result.exit_code, json.loads(result.output)) == (0, {"ghost": {"1": "0,0"}, "support": [1]})


def test_weakly_terminal_window_holds_primes(runner):
    # the map sends an orbit to its least prime divisor, so 4, 6 and 1 are
    # not window entries
    for argv, entry in (
        (["qfin", "weakly-terminal", "--orbits", "12", "--primes", "4,6"], 4),
        (["qfin", "weakly-terminal", "--orbits", "12,5", "--primes", "1,2"], 1),
    ):
        result = run(runner, argv)
        assert result.exit_code == 2, argv
        assert json.loads(result.output) == {"error": f"window entry {entry} is not a prime", "kind": "validation"}


def test_witt_vector_file_must_match_the_options(runner, tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"ring": {"kind": "integers"}, "support": [1], "coeffs": {"1": "3"}}))
    result = run(runner, ["witt", "ghost", "--support", "1", "--vec", f"@{path}"])
    assert (result.exit_code, json.loads(result.output)) == (0, {"ghost": {"1": "3"}, "support": [1]})
    for options, given in ((["--support", "1,2"], "support [1, 2]"), (["--ring", "Z/4", "--support", "1"], "Z/4 on [1]")):
        for argv in (
            ["witt", "ghost", *options, "--vec", f"@{path}"],
            ["witt", "add", *options, "--a", "1:1", "--b", f"@{path}"],
        ):
            result = run(runner, argv)
            assert result.exit_code == 2, argv
            assert json.loads(result.output) == {
                "error": f"{path} holds a vector over Z on [1], but the options give {given}", "kind": "validation",
            }


def test_witt_vector_file_keeps_a_ring_that_ring_cannot_name(runner, tmp_path):
    # --ring names only Z, Q, Z/m and F_p; a file over Z[i] keeps its ring
    # when --ring is not given, and is refused when it is.
    zi = {"base": {"kind": "integers"}, "kind": "univariate-polynomial-quotient", "modulus": ["1", "0", "1"], "var": "i"}
    path = tmp_path / "zi.json"
    path.write_text(json.dumps({"ring": zi, "support": [1, 2], "coeffs": {"1": "1,1", "2": "3,0"}}))
    result = run(runner, ["witt", "add", "--support", "1,2", "--a", f"@{path}", "--b", f"@{path}"])
    assert (result.exit_code, json.loads(result.output)) == (
        0, {"coeffs": {"1": "2,2", "2": "6,-2"}, "ring": zi, "support": [1, 2]},
    )
    result = run(runner, ["witt", "ghost", "--support", "1,2", "--vec", f"@{path}"])
    assert (result.exit_code, json.loads(result.output)) == (0, {"ghost": {"1": "1,1", "2": "6,2"}, "support": [1, 2]})
    for options, given in ((["--ring", "Z", "--support", "1,2"], "Z on [1, 2]"), (["--support", "1"], "support [1]")):
        result = run(runner, ["witt", "frob", *options, "--n", "2", "--vec", f"@{path}"])
        assert (result.exit_code, json.loads(result.output)) == (2, {
            "error": f"{path} holds a vector over Z[i]/(...) on [1, 2], but the options give {given}",
            "kind": "validation",
        })


def test_witt_vector_file_of_the_wrong_shape(runner, tmp_path):
    path = tmp_path / "v.json"
    for data, error in (
        ({}, "a Witt vector is an object with 'ring', 'support', 'coeffs'; 'ring' is missing"),
        ({"ring": {"kind": "integers"}, "support": [1]},
         "a Witt vector is an object with 'ring', 'support', 'coeffs'; 'coeffs' is missing"),
        ([1], "a Witt vector is an object with 'ring', 'support', 'coeffs'"),
        ({"ring": {"kind": "integers"}, "support": [1], "coeffs": []},
         "a Witt vector lists integer degrees in 'support' and maps degrees to 'coeffs'"),
        ({"ring": {"kind": "integers"}, "support": ["a"], "coeffs": {}},
         "a Witt vector lists integer degrees in 'support' and maps degrees to 'coeffs'"),
        ({"ring": {"kind": "integers"}, "support": [1], "coeffs": {"1": [1]}},
         "a Witt vector lists integer degrees in 'support' and maps degrees to 'coeffs'"),
        ({"ring": {"kind": "prime-field"}, "support": [1], "coeffs": {}},
         "a prime field is an object with 'p'; 'p' is missing"),
        ({"ring": {"kind": "univariate-polynomial-quotient", "base": {"kind": "integers"}, "modulus": 1},
          "support": [1], "coeffs": {}},
         "a polynomial quotient ring lists the coefficients of its 'modulus'"),
    ):
        path.write_text(json.dumps(data))
        result = run(runner, ["witt", "ghost", "--support", "1", "--vec", f"@{path}"])
        assert result.exit_code == 2, data
        assert json.loads(result.output) == {"error": error, "kind": "validation"}


def test_equalizer_without_ring_is_over_z(runner):
    base = ["witt", "equalizer", "--support", "1,2", "--box", "1"]
    plain, over_z = run(runner, base), run(runner, base + ["--ring", "Z"])
    assert plain.exit_code == over_z.exit_code == 0
    assert plain.output == over_z.output


def test_zero_denominators_are_validation_errors(runner, tmp_path):
    error = {"error": "'1/0' has a zero denominator", "kind": "validation"}
    result = run(runner, ["witt", "ghost", "--ring", "Q", "--support", "1", "--vec", "1:1/0"])
    assert (result.exit_code, json.loads(result.output)) == (2, error)
    cycle = LabelledCycle.uniform(FiniteAlgebra.ground(QQ), None, 2).to_json()
    cycle["bimodules"][0]["left_action"][0][0][0] = "1/0"
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(cycle))
    for command in ("compute", "rotate"):
        result = run(runner, ["hh", command, "--cycle", str(path), "--degree", "2"])
        assert (result.exit_code, json.loads(result.output)) == (2, error), command
