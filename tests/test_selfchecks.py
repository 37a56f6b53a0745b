"""Static checks on the package source.

Runtime self-checks must survive `python -O`, and every public name in
the package must serve the package itself or the benchmark; code that
only tests call belongs in the tests.
"""

import ast
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
