"""Static checks on the package source.

Runtime self-checks must survive `python -O`, and every public name in
the package must serve the package itself or the benchmark; code that
only tests call belongs in the tests.
"""

import ast
import re
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


def test_every_public_name_is_used_outside_tests():
    # A name is used when the package or the benchmark refers to it as
    # an identifier; words in docstrings and comments do not count.  The
    # benchmark also looks names up by string ("exact.ring_determinant").
    sources = {name: ast.parse(text) for name, text in package_sources().items()}
    used = {i for tree in sources.values() for i in identifiers(tree)}
    benchmark = sorted(BENCHMARK.glob("*.py"))
    assert benchmark
    for path in benchmark:
        used.update(identifiers(ast.parse(path.read_text(encoding="utf-8")), True))
    offenders = [
        "%s:%d %s" % (name, node.lineno, node.name)
        for name, tree in sources.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in ACCEPTANCE_ONLY
        and node.name not in used
    ]
    assert offenders == []
