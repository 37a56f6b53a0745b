"""Every `$ quadpoint ...` example in README.md prints what it shows."""

import shlex
from pathlib import Path

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
