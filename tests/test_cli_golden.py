"""CLI stdout pinned byte for byte on the line path.

`construct`, `verify order` and `verify foci` (text and json) for both
congruence kinds, n = 3..6 and seeds 1, 2, compared with
`data/line_path_golden.json`.  The file holds the output of `collect`
from before the line path went integer-only; an intended change of the
output must regenerate it with

    PYTHONPATH=src python -c "import json, sys; sys.path.insert(0, 'tests'); \
from test_cli_golden import collect; print(json.dumps(collect(), indent=1))" \
    > tests/data/line_path_golden.json
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from quadpoint.cli import main

GOLDEN = Path(__file__).parent / "data" / "line_path_golden.json"


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, out.getvalue()]


def collect():
    """{command line: [exit code, stdout]}; `{dir}` stands for the
    directory that holds the files the construct lines wrote."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("linear", "determinantal"):
            for n in range(3, 7):
                for seed in ("1", "2"):
                    construct = ["construct", "--kind", kind, "--n", str(n), "--seed", seed]
                    code, text = results[" ".join(construct)] = _run(construct)
                    path = str(Path(tmp) / ("%s-%d-%s.cong" % (kind, n, seed)))
                    Path(path).write_text(text)
                    for sub in ("order", "foci"):
                        for fmt in ("text", "json"):
                            argv = ["verify", sub, "--in", path, "--seed", seed, "--format", fmt]
                            results[" ".join(argv).replace(tmp, "{dir}")] = _run(argv)
    return results


def test_line_path_stdout_matches_golden(capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 80
    found = collect()
    assert capsys.readouterr().err == ""
    assert list(found) == list(golden)
    for argv, expected in golden.items():
        assert found[argv] == expected, argv
