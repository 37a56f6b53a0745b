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

# Closed forms of the paper that only the acceptance criteria evaluate.
PAPER_ONLY = (
    "blowup_triple_points",
    "pfaffian_hypersurface_degree",
    "blowup_center_invariants",
    "grassmannian_degree",
)


def package_sources():
    """{module file name: source text} for every module of the package."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    return {path.name: path.read_text(encoding="utf-8") for path in modules}


def test_no_bare_assert_in_package():
    offenders = [
        "%s:%d" % (name, node.lineno)
        for name, text in package_sources().items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_every_public_name_is_used_outside_tests():
    # A name is used when it appears as a word anywhere in the package
    # besides its definition, or anywhere in the benchmark, which also
    # looks names up by string ("exact.ring_determinant").
    sources = package_sources()
    package = "\n".join(sources.values())
    benchmark = "\n".join(
        path.read_text(encoding="utf-8") for path in sorted(BENCHMARK.glob("*.py"))
    )
    assert benchmark
    offenders = [
        "%s:%d %s" % (name, node.lineno, node.name)
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in PAPER_ONLY
        and len(re.findall(r"\b%s\b" % node.name, package)) < 2
        and not re.search(r"\b%s\b" % node.name, benchmark)
    ]
    assert offenders == []
