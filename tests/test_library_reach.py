"""The library keeps what its commands and its own routes reach.

A public top-level function or method of polygonic whose name nothing in
the package refers to is reached, if at all, from the tests or the
benchmark only.  Such a def stays only when it is listed in KEPT with what
reaches it; the click commands are reached through the command line and
need no entry.  A reference is any name or attribute in the package's
source, so a method that shares its name with another (``zero``) is never
reported.
"""

import ast
from pathlib import Path

import polygonic

# qualified name -> what reaches it
KEPT = {
    # input constructors: tests, CI and the benchmark build algebras,
    # bimodules and cycles with them
    "FiniteAlgebra.poly_quotient": "input constructor",
    "FiniteBimodule.row_vectors": "input constructor",
    "FiniteBimodule.column_vectors": "input constructor",
    "FiniteBimodule.through_hom": "input constructor",
    "LabelledCycle.uniform": "input constructor",
    # structure with no other public route, checked by the tests
    "envelope_compose": "acceptance criteria 2 and 3; perfbench small-exact",
    "cut_degeneracy": "simplicial identities in test_cyclic and test_hochschild",
    "scale_restrict": "test_mackey",
    "peel_coordinates": "test_witt",
    "QFinSet.check_tail_window": "test_qfin",
    "automorphisms": "test_cyclic, past hom_set's guard",
    "to_series": "acceptance criterion 6; the tests' ghost oracle",
    "from_series": "acceptance criterion 6",
    # references the benchmark calls (perfbench/workloads.py)
    "bar_complex": "perfbench hh-field; the tests' reference complex",
    "rotation_matrices": "perfbench hh-field",
    "envelope_matrix": "perfbench hh-field",
    "smith_normal_form": "perfbench int-normal-form",
    "pullback_elementwise": "perfbench small-exact; acceptance criterion 4",
    "integral_homology_one_cycle": "perfbench int-normal-form",
}


def _is_command(node):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _unreached():
    trees = [ast.parse(path.read_text()) for path in sorted(Path(polygonic.__file__).parent.glob("*.py"))]
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreached = set()
    for tree in trees:
        for top in tree.body:
            defs = [("", top)]
            if isinstance(top, ast.ClassDef):
                defs += [(top.name + ".", node) for node in top.body]
            for prefix, node in defs:
                if (
                    isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")
                    and node.name not in referenced
                    and not _is_command(node)
                ):
                    unreached.add(prefix + node.name)
    return unreached


def test_every_public_def_is_reached_or_kept():
    unreached = _unreached()
    # public defs that nothing in src/ reaches and KEPT does not name
    assert sorted(unreached - KEPT.keys()) == []
    # KEPT names that src/ now reaches, or that are gone
    assert sorted(KEPT.keys() - unreached) == []
