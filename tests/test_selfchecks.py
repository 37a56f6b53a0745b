"""Checks on the package source and on what its commands run.

Runtime self-checks must survive `python -O`, and every public name in
the package must serve the package itself or the benchmark; code that
only tests call belongs in the tests.  The static check sees names
only, so a reachability check also runs every golden command line under
a profiler: a package function that no command enters must be on
`UNREACHED`, which says why it stays.
"""

import ast
import os
import re
from collections import Counter
from pathlib import Path

import quadpoint

PACKAGE = Path(quadpoint.__file__).parent
BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"

# Names that only the acceptance criteria call: closed forms of the
# paper they evaluate.
ACCEPTANCE_ONLY = (
    "blowup_triple_points",
    "pfaffian_hypersurface_degree",
    "blowup_center_invariants",
    "grassmannian_degree",
    "k_squared_from_double_point",
)

# Package functions, as module.qualname, that no golden command line
# enters, each with the reason it stays; the names in ACCEPTANCE_ONLY
# join them.
TRACED = "only tests call it; perfbench/tracing.py looks it up by name"
UNREACHED = {
    "exact.binary_gcd": TRACED,
    "exact._upoly_normalize": "a step of binary_gcd",
    "exact._upoly_rem": "a step of binary_gcd",
    "exact.determinant": TRACED,
    "exact.ring_determinant": TRACED,
    "exact.ring_determinant.expand": "the cofactor expansion of ring_determinant",
    "cli.console_main": "the quadpoint command; it runs only as a subprocess",
    "congruence.twisted_cubic_congruence": "a known answer that perfbench slices",
    "congruence.focal_points_on_line": "perfbench slices with it",
    "catalog.save_catalog": "perfbench writes its seeded catalog with it",
    "catalog.save_catalog.cells": "a step of save_catalog",
    "exact.RationalMatrix.row": "perfbench reads matrix rows with it",
    "congruence.load_congruence.fail": "the error path; every golden input file is valid",
    "congruence.ProjLine.__eq__": "set() of probe lines compares only lines of equal hash",
    "congruence.ProjLine.__repr__": "the line in a refusal of the slice",
    "exact.MultiPoly.__repr__": "debugging output",
    "exact.MultiPoly.__str__": "debugging output",
    "exact.MultiPoly.__sub__": "ring_determinant subtracts with it",
    "exact.RationalMatrix.__eq__": "value semantics of a matrix",
    "exact.RationalMatrix.__hash__": "value semantics of a matrix",
    "exact.RationalMatrix.__repr__": "debugging output",
}


def package_sources():
    """{module file name: source text} for every module of the package."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    return {path.name: path.read_text(encoding="utf-8") for path in modules}


def identifiers(tree, dotted_strings=False):
    """Every name the code refers to: variables, attributes and imports,
    and with dotted_strings the last part of "module.name" constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif (
            dotted_strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"\w+\.\w+", node.value)
        ):
            yield node.value.partition(".")[2]


def test_no_bare_assert_in_package():
    offenders = [
        "%s:%d" % (name, node.lineno)
        for name, text in package_sources().items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def attributes(tree):
    """Counter of the attribute names the code refers to."""
    return Counter(
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    )


def test_every_public_name_is_used_outside_tests():
    # A function or class is used when the package or the benchmark
    # refers to it as an identifier; words in docstrings and comments do
    # not count.  The benchmark also looks names up by string
    # ("exact.ring_determinant").  A method is used only when that code
    # refers to it as an attribute outside its own class body, so a
    # local variable or a call from a sibling method of the same name
    # does not keep it alive.
    sources = {name: ast.parse(text) for name, text in package_sources().items()}
    benchmark = sorted(BENCHMARK.glob("*.py"))
    assert benchmark
    benchmark = [ast.parse(path.read_text(encoding="utf-8")) for path in benchmark]
    used = {i for tree in sources.values() for i in identifiers(tree)}
    for tree in benchmark:
        used.update(identifiers(tree, True))
    attribute_uses = sum(map(attributes, [*sources.values(), *benchmark]), Counter())
    offenders = []
    for name, tree in sources.items():
        methods = set()
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            inside = attributes(cls)
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                methods.add(node)
                if (
                    not node.name.startswith("_")
                    and attribute_uses[node.name] == inside[node.name]
                ):
                    offenders.append(
                        "%s:%d %s.%s" % (name, node.lineno, cls.name, node.name)
                    )
        offenders += [
            "%s:%d %s" % (name, node.lineno, node.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node not in methods
            and not node.name.startswith("_")
            and node.name not in ACCEPTANCE_ONLY
            and node.name not in used
        ]
    assert offenders == []


def package_functions():
    """{(file, first line): module.qualname} for every function and
    method defined in the package, nested ones included.  The first line
    is that of the code object: the first decorator's, if any."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path, first)] = name
                walk(child, name + ".", path)
            else:
                walk(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        walk(tree, path.stem + ".", os.path.realpath(path))
    return out


def test_every_package_function_is_reached_or_allowlisted(golden_runs):
    # golden_runs.entered: every code object that the golden command
    # lines enter, recorded with sys.setprofile (conftest.py).
    functions = package_functions()
    entered = golden_runs.entered
    allowed = dict(UNREACHED)
    for name in functions.values():
        module, _, qualname = name.partition(".")
        if qualname in ACCEPTANCE_ONLY:
            allowed[name] = "acceptance criteria only"
    never = {name for key, name in functions.items() if key not in entered}
    assert sorted(never - set(allowed)) == []
    # An entry that a command now enters, or that no longer exists, goes.
    assert sorted(set(allowed) - never) == []
