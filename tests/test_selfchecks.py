"""Runtime self-checks in the package must survive `python -O`."""

import ast
from pathlib import Path

import quadpoint


def test_no_bare_assert_in_package():
    package = Path(quadpoint.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    offenders = [
        "%s:%d" % (path.name, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
