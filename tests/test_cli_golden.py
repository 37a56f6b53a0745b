"""CLI exit codes and stdout pinned byte for byte.

`data/line_path_golden.json` holds `collect`: `construct`, `verify
order` and `verify foci` (text and json) for both congruence kinds,
n = 3..6 and seeds 1, 2, from before the line path went integer-only.
`data/command_golden.json` holds `collect_commands`: every other
subcommand in text, json and tsv, `classify` on the builtin catalog and
on a catalog file.  An intended change of the output
must regenerate the file with

    PYTHONPATH=src python -c "import json, sys; sys.path.insert(0, 'tests'); \
from test_cli_golden import collect; print(json.dumps(collect(), indent=1))" \
    > tests/data/line_path_golden.json

and likewise with `collect_commands` for `command_golden.json`.  The
tests here read both collections from the session fixture
`golden_runs` (conftest.py), which runs them once for this file and
for the reachability check in `test_selfchecks.py`.

`CLASSIFY_HASHES` pins `classify` on `seeded_catalog()`, about 3000
rows, by the SHA-256 of its stdout in each format, taken before
classify read its verdicts off integer numerators.
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from importlib import resources
from pathlib import Path

from quadpoint.catalog import TSV_COLUMNS
from quadpoint.cli import main

GOLDEN = Path(__file__).parent / "data" / "line_path_golden.json"
COMMAND_GOLDEN = Path(__file__).parent / "data" / "command_golden.json"
FORMATS = ("text", "json", "tsv")


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
                    Path(path).write_text(text, encoding="utf-8")
                    for sub in ("order", "foci"):
                        for fmt in ("text", "json"):
                            argv = ["verify", sub, "--in", path, "--seed", seed, "--format", fmt]
                            results[" ".join(argv).replace(tmp, "{dir}")] = _run(argv)
    return results


def _commands(tmp):
    """Command lines outside the line path, without --format."""
    for n in (3, 4, 5):
        for l in range(1, 2 * n - 1):
            yield ["schubert", "pow", "--n", str(n), "--l", str(l)]
        for l in range(1, n + 1):
            yield ["schubert", "pow", "--n", str(n), "--l", str(l), "--closed"]
    for n in range(2, 7):
        yield ["schubert", "lincong", "--n", str(n)]
    for n, md in ((5, "1,3,2"), (5, "1,7,13"), (5, "1,15,20"), (3, "1,3"), (4, "1,2")):
        yield ["schubert", "degree", "--n", str(n), "--multidegree", md]
    threefolds = ((7, 4, 1, 1), (9, 8, 2, 2), (10, 11, 5, 1), (6, 4, 2, 1), (5, 2, 0, 0))
    for d, pi, chi_s, chi_x in threefolds:
        values = ["--d", str(d), "--pi", str(pi)]
        for sub in ("q", "double"):
            yield ["formulas", sub] + values + ["--chiS", str(chi_s), "--chiX", str(chi_x)]
        for sub in ("h", "a1", "residual"):
            yield ["formulas", sub] + values + ["--chi", str(chi_s)]
        yield ["formulas", "a2"] + values
    for d, pi, chi, k2 in ((4, 0, 1, 9), (6, 3, 1, -1), (4, 1, 1, 4), (5, 2, 1, 3)):
        yield ["formulas", "triple", "--d", str(d), "--pi", str(pi), "--chi", str(chi), "--K2", str(k2)]
    for kind in ("linear", "determinantal"):
        for n in range(2, 8):
            yield ["formulas", "focal-degree", "--kind", kind, "--n", str(n)]
    for n in range(3, 8):
        for seed in ("1", "2"):
            path = str(Path(tmp) / ("linear-%d-%s.cong" % (n, seed)))
            main(["construct", "--kind", "linear", "--n", str(n), "--seed", seed, "--out", path])
            yield ["pfaffian", "--in", path]
    path = str(Path(tmp) / "determinantal-4-1.cong")
    main(["construct", "--kind", "determinantal", "--n", "4", "--seed", "1", "--out", path])
    yield ["pfaffian", "--in", path]
    for dim in ([], ["--dim", "2"], ["--dim", "3"]):
        yield ["classify", "--catalog", "builtin"] + dim
    yield ["classify", "--catalog", "builtin", "--multiplicity", "2"]
    # The builtin rows read from a file, plus a surface that fails.
    builtin = resources.files("quadpoint").joinpath("data/builtin_catalog.tsv")
    path = Path(tmp) / "catalog.tsv"
    extra = "castelnuovo_surface\t4\t2\t5\t2\t\t1\t3\t0\tnon-example\n"
    path.write_text(builtin.read_text(encoding="utf-8") + extra, encoding="utf-8")
    yield ["classify", "--catalog", str(path)]
    for d in range(4, 16):
        yield ["scan", "--d", str(d), "--pi-max", "40", "--chi-max", "40"]


def collect_commands():
    """{command line: [exit code, stdout]} for `_commands` in every
    format; `{dir}` stands for the directory of the congruence files."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for argv in _commands(tmp):
            for fmt in FORMATS:
                line = argv + ["--format", fmt]
                results[" ".join(line).replace(tmp, "{dir}")] = _run(line)
    return results


def test_line_path_stdout_matches_golden(golden_runs):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 80
    found = golden_runs.lines
    assert golden_runs.lines_stderr == ""
    assert list(found) == list(golden)
    for argv, expected in golden.items():
        assert found[argv] == expected, argv


def test_command_stdout_matches_golden(golden_runs):
    golden = json.loads(COMMAND_GOLDEN.read_text(encoding="utf-8"))
    found = golden_runs.commands
    assert list(found) == list(golden)
    for argv, expected in golden.items():
        assert found[argv] == expected, argv


# Invariants that pass or nearly pass the filter: (d, pi, chi_S, chi_X)
# of threefolds, (d, pi, chi, K2) of surfaces.
PASSING_THREEFOLDS = ((7, 4, 1, 1), (9, 8, 2, 2), (10, 11, 5, 1), (6, 4, 2, 1), (7, 0, -1, -3), (10, 8, -4, 8))
PASSING_SURFACES = ((4, 0, 1, 9), (6, 3, 1, -1), (4, 1, 1, 4))
CLASSIFY_HASHES = {
    "text": [1, "0a0cd5ce2d773e8e9939e1e9c6db56de49f051ea582c3ba488b64f82bd69c687"],
    "json": [1, "de738c0ea11a552ef6ecd14aacc4795a880f7e0fb19eb3b04ba94073935cd645"],
    "tsv": [1, "8db9ea3c40209bafbc82a891323fc58c2ffd49c111a645bd840b83d1a5cac0aa"],
}


def seeded_catalog(rows=3000):
    """TSV text of a seeded catalog: threefolds in P^5 and surfaces in
    P^4, a tenth of each drawn from records that pass or nearly pass,
    the others with random invariants, most with non-integral counts;
    a few tagged rows, curves that classify skips, and blank lines."""
    rng = random.Random("classify golden catalog")
    lines = ["\t".join(TSV_COLUMNS)]
    for i in range(rows):
        tags = rng.choice(("", "", "", "seeded", "seeded,random"))
        kind = rng.random()
        if kind < 0.48:
            if rng.random() < 0.1:
                d, pi, chi_s, chi_x = rng.choice(PASSING_THREEFOLDS)
            else:
                d, pi = rng.randint(1, 20), rng.randint(0, 30)
                chi_s, chi_x = rng.randint(-15, 15), rng.randint(-15, 15)
            cells = ("t%04d" % i, 5, 3, d, pi, chi_s, chi_x, "", "", tags)
        elif kind < 0.96:
            if rng.random() < 0.1:
                (d, pi, chi, k2), scroll = rng.choice(PASSING_SURFACES), 0
            else:
                d, pi, chi, k2 = rng.randint(1, 12), rng.randint(0, 15), rng.randint(-3, 3), rng.randint(-10, 10)
                scroll = int(rng.random() < 0.1)
            cells = ("s%04d" % i, 4, 2, d, pi, "", chi, k2, scroll, tags)
        elif kind < 0.98:
            cells = ("c%04d" % i, 3, 1, rng.randint(1, 9), rng.randint(0, 5), "", "", "", "", tags)
        else:
            lines.append("")
            continue
        lines.append("\t".join(map(str, cells)))
    return "\n".join(lines) + "\n"


def test_classify_seeded_catalog_matches_golden_hashes(tmp_path):
    path = tmp_path / "seeded.tsv"
    path.write_text(seeded_catalog(), encoding="utf-8")
    found = {}
    for fmt in FORMATS:
        code, out = _run(["classify", "--catalog", str(path), "--format", fmt])
        found[fmt] = [code, hashlib.sha256(out.encode("utf-8")).hexdigest()]
    assert found == CLASSIFY_HASHES
