"""Every `$ quadpoint ...` example in README.md prints what it shows,
and every code name README.md mentions exists."""

import importlib
import re
import shlex
import sys
from pathlib import Path
from types import SimpleNamespace

import quadpoint
from quadpoint.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(argv, expected stdout) for each example, in README order.

    An example is a `$ quadpoint` line inside a fenced block; the lines
    after it, up to the next command or the end of the block, are its
    output.
    """
    examples = []
    in_block = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
            continue
        if not in_block:
            continue
        if line.startswith("$ quadpoint "):
            current = (shlex.split(line)[2:], [])
            examples.append(current)
        elif current is not None:
            current[1].append(line + "\n")
    return [(argv, "".join(out)) for argv, out in examples]


def test_readme_examples_match(capsys, tmp_path, monkeypatch):
    # Examples share one working directory: `construct --out c.txt`
    # writes the file the following `verify` and `pfaffian` read.
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) == 13
    for argv, expected in examples:
        main(argv)
        assert capsys.readouterr().out == expected, argv


def readme_names():
    """The backticked tokens of README.md outside fenced blocks that are
    Python names: dotted, snake_case or CamelCase."""
    names = set()
    in_block = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif not in_block:
            for token in re.findall(r"`([A-Za-z_][\w.]*)`", line):
                if re.fullmatch(r"\w+(\.\w+)*", token) and re.search(r"[._]|[a-z][A-Z]", token):
                    names.add(token)
    return names


def resolves(owner, name):
    """Whether getattr along the dotted name succeeds from owner."""
    try:
        for part in name.split("."):
            owner = getattr(owner, part)
    except AttributeError:
        return False
    return True


def test_readme_names_resolve():
    # A name resolves on the package itself ("quadpoint.exact"), on one
    # of its modules ("rank_and_kernel_mod", "ProjLine") or on a class
    # of one ("columns_at"); a name from the standard library
    # ("fractions.Fraction") is exempt.
    modules = [importlib.import_module("quadpoint." + name) for name in quadpoint.__all__]
    classes = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    owners = [SimpleNamespace(quadpoint=quadpoint)] + modules + classes
    names = readme_names()
    assert {"quadpoint.exact", "rank_and_kernel_mod", "columns_at", "fractions.Fraction"} <= names
    unresolved = []
    for name in sorted(names):
        head = name.partition(".")[0]
        if head in sys.stdlib_module_names and resolves(importlib.import_module(head), name.partition(".")[2]):
            continue
        if not any(resolves(owner, name) for owner in owners):
            unresolved.append(name)
    assert unresolved == []
