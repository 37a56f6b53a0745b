import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import quadpoint.congruence as congruence
from quadpoint.catalog import TSV_COLUMNS, load_builtin_catalog, save_catalog
from quadpoint.cli import main
from quadpoint.congruence import (
    DeterminantalCongruence,
    LinearCongruence,
    random_linear_congruence,
    save_congruence,
    twisted_cubic_congruence,
)
from quadpoint.exact import MultiPoly, rank_and_kernel


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formulas_q_example(capsys):
    code, out, _ = run(capsys, ["formulas", "q", "--d", "7", "--pi", "4", "--chiS", "1", "--chiX", "1"])
    assert code == 0
    assert out == "1\n"


def test_schubert_lincong_example(capsys):
    code, out, _ = run(capsys, ["schubert", "lincong", "--n", "5"])
    assert code == 0
    assert out == "(1,3,2), degree 14\n"


def test_verify_foci_twisted_cubic(capsys, tmp_path):
    path = tmp_path / "tc.cong"
    path.write_text(save_congruence(twisted_cubic_congruence()), encoding="utf-8")
    code, out, _ = run(capsys, ["verify", "foci", "--in", str(path), "--trials", "10", "--seed", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "result = pass"
    assert all("gcd degree 2 (expected 2) ok" in l for l in lines[:-1])


@pytest.mark.parametrize(
    "kind, n", (("linear", 8), ("linear", 9), ("determinantal", 8)), ids=str
)
def test_verify_foci_beyond_the_golden_sizes(capsys, tmp_path, kind, n):
    # The line-path golden file stops at n = 6; every probe line of a
    # larger congruence must still carry focal length n-1.
    path = tmp_path / "c.cong"
    argv = ["construct", "--kind", kind, "--n", str(n), "--seed", "1", "--out", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, ["verify", "foci", "--in", str(path), "--trials", "3"])
    expected = "gcd degree %d (expected %d) ok" % (n - 1, n - 1)
    assert code == 0
    assert out.splitlines() == [
        "trial %d: %s" % (i, expected) for i in range(3)
    ] + ["result = pass"]


def test_verify_foci_degenerate_probe_fails(capsys, tmp_path):
    # Trial 3 probes (-1, 0, 0, 2), where the lambda-combined forms drop
    # rank; verify order reports it as a failure, and so must verify foci.
    path = tmp_path / "d.cong"
    construct = ["construct", "--kind", "determinantal", "--n", "3", "--seed", "1"]
    main(construct + ["--bound", "1", "--out", str(path)])
    capsys.readouterr()
    probe = ["--in", str(path), "--trials", "5", "--seed", "606", "--bound", "2"]
    failure = "point (-1, 0, 0, 2): combined forms have rank 1 < 2"
    code, out, _ = run(capsys, ["verify", "order"] + probe)
    assert code == 1
    assert "failure: %s\n" % failure in out
    code, out, err = run(capsys, ["verify", "foci"] + probe)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "trial 0: gcd degree 2 (expected 2) ok",
        "trial 1: gcd degree 2 (expected 2) ok",
        "trial 2: gcd degree 2 (expected 2) ok",
        "trial 3: failure: %s" % failure,
        "trial 4: gcd degree 2 (expected 2) ok",
        "result = fail",
    ]
    code, out, _ = run(capsys, ["verify", "foci"] + probe + ["--format", "tsv"])
    assert code == 1
    assert out.splitlines()[3] == "3\tfailure\t%s" % failure
    code, out, _ = run(capsys, ["verify", "foci"] + probe + ["--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["trials"][3] == {
        "point": [-1, 0, 0, 2],
        "focal_probe": False,
        "gcd_degree": None,
        "ok": False,
        "reason": "combined forms have rank 1 < 2",
    }
    others = payload["trials"][:3] + payload["trials"][4:]
    assert all(set(t) == {"point", "focal_probe", "gcd_degree", "ok"} for t in others)


# All-zero data of each kind: A(P) is zero, so every probe is focal.
ALL_FOCAL = {
    "linear": LinearCongruence(3, [[[0] * 4] * 4] * 2),
    "determinantal": DeterminantalCongruence(3, [[(0,) * 4] * 2] * 3),
}


@pytest.mark.parametrize("kind", sorted(ALL_FOCAL))
def test_all_focal_probes_fail_verification(capsys, tmp_path, kind):
    # Focal probes are skipped, so a run of them alone finds no line and
    # certifies nothing: both commands fail in every format.
    path = tmp_path / "zero.cong"
    path.write_text(save_congruence(ALL_FOCAL[kind]), encoding="utf-8")
    probe = ["--in", str(path), "--trials", "3"]
    counts = ["trials", 3], ["successes", 0], ["focal_skips", 3], ["unique_lines", 0]
    assert run(capsys, ["verify", "order"] + probe) == (
        1,
        "".join("%s = %d\n" % (k.replace("_", " "), v) for k, v in counts)
        + "result = fail\n",
        "",
    )
    assert run(capsys, ["verify", "order"] + probe + ["--format", "tsv"]) == (
        1,
        "".join("%s\t%d\n" % (k, v) for k, v in counts) + "pass\tfail\n",
        "",
    )
    code, out, _ = run(capsys, ["verify", "order"] + probe + ["--format", "json"])
    assert (code, json.loads(out)) == (
        1,
        {**dict(counts), "failures": [], "pass": False},
    )
    assert run(capsys, ["verify", "foci"] + probe) == (
        1,
        "".join("trial %d: focal probe skipped\n" % i for i in range(3))
        + "result = fail\n",
        "",
    )
    assert run(capsys, ["verify", "foci"] + probe + ["--format", "tsv"]) == (
        1,
        "".join("%d\tfocal\t\n" % i for i in range(3)),
        "",
    )
    code, out, _ = run(capsys, ["verify", "foci"] + probe + ["--format", "json"])
    payload = json.loads(out)
    assert (code, payload["pass"], payload["expected"]) == (1, False, 2)
    assert [
        (t["focal_probe"], t["gcd_degree"], t["ok"]) for t in payload["trials"]
    ] == [(True, None, True)] * 3


def test_output_is_deterministic(capsys, tmp_path):
    path = tmp_path / "lin.cong"
    assert main(["construct", "--kind", "linear", "--n", "5", "--seed", "42", "--out", str(path)]) == 0
    capsys.readouterr()
    argvs = (
        ["schubert", "pow", "--n", "6", "--l", "5", "--format", "json"],
        ["verify", "order", "--in", str(path), "--trials", "7", "--seed", "3"],
        ["pfaffian", "--in", str(path), "--format", "json"],
        ["scan", "--d", "10", "--pi-max", "20", "--chi-max", "10"],
        ["classify", "--catalog", "builtin", "--format", "json"],
    )
    for argv in argvs:
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second


def test_construct_stdout_matches_file(capsys, tmp_path):
    path = tmp_path / "det.cong"
    assert main(["construct", "--kind", "determinantal", "--n", "4", "--seed", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, ["construct", "--kind", "determinantal", "--n", "4", "--seed", "3"])
    assert code == 0
    assert out == path.read_text(encoding="utf-8")


def test_verify_order_runs_from_file(capsys, tmp_path):
    path = tmp_path / "lin.cong"
    main(["construct", "--kind", "linear", "--n", "4", "--seed", "7", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, ["verify", "order", "--in", str(path), "--trials", "6", "--seed", "2"])
    assert code == 0
    assert "successes = 6" in out
    assert "result = pass" in out


def test_pfaffian_even_reports_vanishing(capsys, tmp_path):
    path = tmp_path / "lin4.cong"
    main(["construct", "--kind", "linear", "--n", "4", "--seed", "7", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, ["pfaffian", "--in", str(path)])
    assert code == 0
    assert "determinant vanishes identically = true" in out


def test_pfaffian_odd_json(capsys, tmp_path):
    path = tmp_path / "lin5.cong"
    main(["construct", "--kind", "linear", "--n", "5", "--seed", "42", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, ["pfaffian", "--in", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 3
    assert "l1" in payload["pf"]


def test_pfaffian_rejects_determinantal(capsys, tmp_path):
    path = tmp_path / "det.cong"
    path.write_text(save_congruence(twisted_cubic_congruence()), encoding="utf-8")
    code, _, err = run(capsys, ["pfaffian", "--in", str(path)])
    assert code == 2
    assert "linear" in err


def test_pfaffian_vanishing_identically_exits_one(capsys, tmp_path):
    # A valid file with degenerate data: A_1 = E01 - E10 and A_2 = 0, so
    # sum(lambda_i * A_i) has rank 2 and its 4 x 4 Pfaffian is zero.
    a1 = [[0] * 4 for _ in range(4)]
    a1[0][1], a1[1][0] = 1, -1
    path = tmp_path / "degenerate.cong"
    path.write_text(save_congruence(LinearCongruence(3, [a1, [[0] * 4 for _ in range(4)]])), encoding="utf-8")
    code, out, err = run(capsys, ["pfaffian", "--in", str(path)])
    assert (code, out, err) == (1, "", "error: pfaffian vanishes identically\n")


def test_pfaffian_of_the_wrong_degree_exits_three(capsys, tmp_path, monkeypatch):
    # A nonzero Pfaffian of linear forms is homogeneous of degree
    # (n+1)/2, so any other result is a fault of the program.
    path = tmp_path / "lin3.cong"
    path.write_text(save_congruence(random_linear_congruence(3, 1, 9)), encoding="utf-8")
    monkeypatch.setattr(congruence, "pfaffian", lambda rows: MultiPoly(2, {(0, 0): 1, (1, 0): 1}))
    code, out, err = run(capsys, ["pfaffian", "--in", str(path)])
    message = "error: internal check failed: pfaffian is not homogeneous of degree 2\n"
    assert (code, out, err) == (3, "", message)


def test_classify_builtin_fails_on_non_examples(capsys):
    code, out, _ = run(capsys, ["classify", "--catalog", "builtin"])
    assert code == 1
    assert "palatini_scroll: pass multidegree (1,3,2)" in out
    assert "k3_scroll: pass multidegree (1,7,13)" in out
    assert "degree_ten_determinantal: pass multidegree (1,15,20)" in out
    assert "ci_2_3_threefold: fail [quadruple_point_one, residual_zero]" in out
    assert "ci_2_2_surface: fail [triple_point_one]" in out
    assert out.endswith("result = fail\n")
    assert run(capsys, ["classify", "--catalog", "builtin", "--format", "tsv"]) == (
        1,
        "palatini_scroll\tpass\t\n"
        "k3_scroll\tpass\t\n"
        "degree_ten_determinantal\tpass\t\n"
        "ci_2_3_threefold\tfail\tquadruple_point_one,residual_zero\n"
        "veronese_projected\tpass\t\n"
        "bordiga\tpass\t\n"
        "ci_2_2_surface\tfail\ttriple_point_one\n",
        "",
    )


def test_classify_passing_subset_exits_zero(capsys, tmp_path):
    records = [
        r
        for r in load_builtin_catalog()
        if "non-example" not in r.tags and r.dim in (2, 3)
    ]
    path = tmp_path / "good.tsv"
    path.write_text(save_catalog(records), encoding="utf-8")
    code, out, _ = run(capsys, ["classify", "--catalog", str(path)])
    assert code == 0
    assert out.endswith("result = pass\n")
    code, out, _ = run(capsys, ["classify", "--catalog", str(path), "--dim", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [item["name"] for item in payload] == ["veronese_projected", "bordiga"]
    assert all(item["pass"] for item in payload)


def test_classify_shared_name_renders_each_kind(capsys, tmp_path):
    # A threefold and a surface may share a name: the multidegree goes
    # with the threefold entry only.
    path = tmp_path / "shared.tsv"
    path.write_text(
        "\t".join(TSV_COLUMNS) + "\n"
        "a1\t5\t3\t7\t4\t1\t1\t\t\t\n"
        "a1\t4\t2\t6\t3\t\t1\t-1\t0\t\n",
        encoding="utf-8",
    )
    argv = ["classify", "--catalog", str(path)]
    assert run(capsys, argv) == (
        0, "a1: pass multidegree (1,3,2)\na1: pass\nresult = pass\n", ""
    )
    assert run(capsys, argv + ["--format", "tsv"]) == (0, "a1\tpass\t\na1\tpass\t\n", "")
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert [(item["name"], item["pass"]) for item in payload] == [("a1", True)] * 2
    assert set(payload[0]["computed"]) == {"q", "a1", "a2", "residual"}
    assert set(payload[1]["computed"]) == {"triple"}


@pytest.mark.parametrize("dims", [(), (1,)], ids=["header-only", "curves-only"])
def test_classify_without_records_fails(capsys, tmp_path, dims):
    # A run that classifies no record checks nothing, so it cannot pass.
    path = tmp_path / "empty.tsv"
    path.write_text(save_catalog([r for r in load_builtin_catalog() if r.dim in dims]), encoding="utf-8")
    argv = ["classify", "--catalog", str(path)]
    assert run(capsys, argv) == (1, "result = fail\n", "")
    assert run(capsys, argv + ["--format", "json"]) == (1, "[]\n", "")
    assert run(capsys, argv + ["--format", "tsv"]) == (1, "", "")


def test_classify_refuses_multiplicity_below_one(capsys, tmp_path):
    # Refused for every --dim, before the catalog is read: a missing
    # file gives the same error.
    missing = str(tmp_path / "missing.tsv")
    for value in ("0", "-3"):
        for dim in ([], ["--dim", "2"], ["--dim", "3"]):
            for catalog in ("builtin", missing):
                argv = ["classify", "--catalog", catalog, "--multiplicity", value] + dim
                assert run(capsys, argv) == (2, "", "error: multiplicity must be >= 1\n")


def test_scan_text_and_tsv(capsys):
    code, out, _ = run(capsys, ["scan", "--d", "7", "--pi-max", "10", "--chi-max", "5"])
    assert code == 0
    assert out == "(0, -1, -3)\n(4, 1, 1)\n"
    code, out, _ = run(capsys, ["scan", "--d", "7", "--pi-max", "10", "--chi-max", "5", "--format", "tsv"])
    assert out == "0\t-1\t-3\n4\t1\t1\n"
    code, out, _ = run(capsys, ["scan", "--d", "13", "--pi-max", "40", "--chi-max", "10"])
    assert code == 0
    assert out == ""


def test_json_rational_encoding(capsys):
    code, out, _ = run(capsys, ["formulas", "triple", "--d", "5", "--pi", "2", "--chi", "1", "--K2", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"num", "den"}
    assert payload == {"num": "0", "den": "1"}


def test_schubert_degree_subcommand(capsys):
    code, out, _ = run(capsys, ["schubert", "degree", "--n", "5", "--multidegree", "1,3,2"])
    assert code == 0
    assert out == "14\n"
    code, out, err = run(capsys, ["schubert", "degree", "--n", "5", "--multidegree", "1,x"])
    assert (code, out, err) == (2, "", "error: --multidegree: not an integer: 'x'\n")


def test_usage_errors_exit_two(capsys):
    assert main(["bogus"]) == 2
    assert main(["schubert", "pow", "--n", "5"]) == 2
    assert main(["schubert", "pow", "--n", "5", "--l", "2", "--closed", "--iterative"]) == 2
    assert main(["formulas", "focal-degree", "--kind", "linear", "--n", "2"]) == 2
    assert main(["schubert", "degree", "--n", "5", "--multidegree", "1,x"]) == 2
    assert main(["verify", "order", "--in", "/nonexistent/file.cong"]) == 2
    capsys.readouterr()


def test_construct_rejects_huge_n_before_drawing(capsys, tmp_path):
    # n = 10**9 would draw about 10**27 entries; the bound check must come first.
    path = tmp_path / "c.cong"
    for kind in ("linear", "determinantal"):
        argv = ["construct", "--kind", kind, "--n", str(10**9), "--seed", "1"]
        code, out, err = run(capsys, argv + ["--out", str(path)])
        assert (code, out, err) == (2, "", "error: n must be <= 64\n")
        assert not path.exists()


def test_malformed_entries_exit_two(capsys, tmp_path):
    # The cheap exponent comes first: a parser that let exponents through
    # would fail there before it tried to expand 1e999999999.
    good = save_congruence(twisted_cubic_congruence())
    path = tmp_path / "bad.cong"
    for entry in ("1/0", "1E5", "1e999999999", "1_000"):
        line = "%s 0 0 0" % entry
        path.write_text(good.replace("1 0 0 0", line, 1), encoding="utf-8")
        code, out, err = run(capsys, ["verify", "order", "--in", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: line 4: non-rational entry in %r\n" % line


def test_closed_route_range_check(capsys):
    code, out, _ = run(capsys, ["schubert", "pow", "--n", "5", "--l", "4", "--closed"])
    assert code == 0
    assert main(["schubert", "pow", "--n", "5", "--l", "5", "--closed"]) == 2
    capsys.readouterr()
    code, out, _ = run(capsys, ["schubert", "pow", "--n", "5", "--l", "5", "--iterative"])
    assert code == 0


def test_order_failure_exit_code(capsys, tmp_path):
    # A verification that cannot pass: foci trials on a congruence file
    # exercise exit 1 via a forced mismatch is not constructible from
    # generic data, so use classify on a failing catalog instead.
    records = [r for r in load_builtin_catalog() if r.name == "ci_2_2_surface"]
    path = tmp_path / "bad.tsv"
    path.write_text(save_catalog(records), encoding="utf-8")
    assert main(["classify", "--catalog", str(path)]) == 1
    capsys.readouterr()


FORMULAS_HELP = """\
usage: quadpoint formulas [-h] {q,h,a1,a2,residual,triple,double,focal-degree} ...

positional arguments:
  {q,h,a1,a2,residual,triple,double,focal-degree}
    q                   apparent quadruple points
    h                   4-secants through a point
    a1                  4-secant hypersurface degree
    a2                  4-secants of a space curve
    residual            4-secant constraint residual
    triple              apparent triple points
    double              K^3 and H.K^2 from the double point formulas
    focal-degree        focal locus degree closed forms

options:
  -h, --help            show this help message and exit
"""

FORMAT_HELP = """\
options:
  -h, --help            show this help message and exit
  --format {text,json,tsv}
                        output format (default text)
"""

# (subcommand, usage lines of its -h, flag lines of its -h, input, value)
FORMULAS_GOLDEN = (
    (
        "q",
        "usage: quadpoint formulas q [-h] [--format {text,json,tsv}] --d D --pi PI"
        " --chiS CHIS --chiX CHIX\n",
        "  --d D\n  --pi PI\n  --chiS CHIS\n  --chiX CHIX\n",
        ["--d", "9", "--pi", "6", "--chiS", "3", "--chiX", "2"],
        "39",
    ),
    (
        "h",
        "usage: quadpoint formulas h [-h] [--format {text,json,tsv}] --d D --pi PI"
        " --chi CHI\n",
        "  --d D\n  --pi PI\n  --chi CHI\n",
        ["--d", "9", "--pi", "7", "--chi", "1"],
        "5",
    ),
    (
        "a1",
        "usage: quadpoint formulas a1 [-h] [--format {text,json,tsv}] --d D --pi PI"
        " --chi CHI\n",
        "  --d D\n  --pi PI\n  --chi CHI\n",
        ["--d", "9", "--pi", "7", "--chi", "1"],
        "21",
    ),
    (
        "a2",
        "usage: quadpoint formulas a2 [-h] [--format {text,json,tsv}] --d D --pi PI\n",
        "  --d D\n  --pi PI\n",
        ["--d", "10", "--pi", "5"],
        "101",
    ),
    (
        "residual",
        "usage: quadpoint formulas residual [-h] [--format {text,json,tsv}] --d D --pi PI"
        " --chi CHI\n",
        "  --d D\n  --pi PI\n  --chi CHI\n",
        ["--d", "6", "--pi", "2", "--chi", "1"],
        "-3",
    ),
    (
        "triple",
        "usage: quadpoint formulas triple [-h] [--format {text,json,tsv}] --d D --pi PI"
        " --chi CHI --K2 K2\n",
        "  --d D\n  --pi PI\n  --chi CHI\n  --K2 K2\n",
        ["--d", "9", "--pi", "7", "--chi", "1", "--K2", "2"],
        "22",
    ),
)


def test_formulas_golden_output(capsys, monkeypatch):
    # argparse wraps help text to the terminal width it reads from COLUMNS,
    # and where it breaks a long usage line differs between Python
    # versions.  At 200 columns no usage line wraps, and the help text is
    # the same from Python 3.10 to 3.13.
    monkeypatch.setenv("COLUMNS", "200")
    assert run(capsys, ["formulas", "-h"]) == (0, FORMULAS_HELP, "")
    for name, usage, flags, argv, value in FORMULAS_GOLDEN:
        expected_help = usage + "\n" + FORMAT_HELP + flags
        assert run(capsys, ["formulas", name, "-h"]) == (0, expected_help, "")
        outputs = {
            "text": value + "\n",
            "json": '{"num": "%s", "den": "1"}\n' % value,
            "tsv": value + "\n",
        }
        for fmt, out in outputs.items():
            assert run(capsys, ["formulas", name] + argv + ["--format", fmt]) == (0, out, "")
        assert run(capsys, ["formulas", name] + argv) == (0, value + "\n", "")


def test_formulas_refuse_impossible_invariants(capsys):
    # Every formula takes --d and --pi first; a degree below 1 or a
    # negative sectional genus describes no variety.
    rows = [(name, argv) for name, _, _, argv, _ in FORMULAS_GOLDEN]
    rows.append(("double", ["--d", "9", "--pi", "6", "--chiS", "3", "--chiX", "2"]))
    for name, argv in rows:
        for flag, value, message in (
            ("--d", "0", "degree must be >= 1"),
            ("--pi", "-1", "sectional genus must be >= 0"),
        ):
            bad = list(argv)
            bad[bad.index(flag) + 1] = value
            for fmt in ("text", "json", "tsv"):
                argv_fmt = ["formulas", name] + bad + ["--format", fmt]
                assert run(capsys, argv_fmt) == (2, "", "error: %s\n" % message)


# (argv, exit code, stdout per format); {path} names a congruence file.
FIELDS_GOLDEN = (
    (
        ["formulas", "double", "--d", "9", "--pi", "6", "--chiS", "3", "--chiX", "2"],
        0,
        {
            "text": "K3 = -96\nHK2 = 12\n",
            "json": '{"K3": -96, "HK2": 12}\n',
            "tsv": "K3\t-96\nHK2\t12\n",
        },
    ),
    (
        ["formulas", "focal-degree", "--kind", "linear", "--n", "5"],
        0,
        {"text": "7\n", "json": '{"degree": 7}\n', "tsv": "7\n"},
    ),
    (
        ["formulas", "focal-degree", "--kind", "determinantal", "--n", "5"],
        0,
        {
            "text": "degree = 10\ngenus = 11\ndim = 3\n",
            "json": '{"degree": 10, "genus": 11, "dim": 3}\n',
            "tsv": "degree\t10\ngenus\t11\ndim\t3\n",
        },
    ),
    (
        ["pfaffian", "--in", "{odd}"],
        0,
        {
            "text": "pf = -63*l1^2 - 22*l1*l2 - 76*l2^2\ndegree = 2\n",
            "json": '{"pf": "-63*l1^2 - 22*l1*l2 - 76*l2^2", "degree": 2}\n',
            "tsv": "pf\t-63*l1^2 - 22*l1*l2 - 76*l2^2\ndegree\t2\n",
        },
    ),
    (
        ["pfaffian", "--in", "{even}"],
        0,
        {
            "text": "n even: no pfaffian; determinant vanishes identically = true\n",
            "json": '{"even_n": true, "determinant_vanishes": true}\n',
            "tsv": "determinant_vanishes\ttrue\n",
        },
    ),
    (
        ["verify", "order", "--in", "{cubic}", "--trials", "4"],
        0,
        {
            "text": "trials = 4\nsuccesses = 4\nfocal skips = 0\nunique lines = 4\n"
            "result = pass\n",
            "json": '{"trials": 4, "successes": 4, "focal_skips": 0, '
            '"unique_lines": 4, "failures": [], "pass": true}\n',
            "tsv": "trials\t4\nsuccesses\t4\nfocal_skips\t0\nunique_lines\t4\n"
            "pass\tpass\n",
        },
    ),
    (
        ["verify", "order", "--in", "{degenerate}", "--trials", "5", "--seed", "606",
         "--bound", "2"],
        1,
        {
            "text": "trials = 5\nsuccesses = 4\nfocal skips = 0\nunique lines = 4\n"
            "failure: point (-1, 0, 0, 2): combined forms have rank 1 < 2\n"
            "result = fail\n",
            "json": '{"trials": 5, "successes": 4, "focal_skips": 0, '
            '"unique_lines": 4, "failures": ["point (-1, 0, 0, 2): combined '
            'forms have rank 1 < 2"], "pass": false}\n',
            "tsv": "trials\t5\nsuccesses\t4\nfocal_skips\t0\nunique_lines\t4\n"
            "pass\tfail\n",
        },
    ),
)


def test_fields_golden_output(capsys, tmp_path):
    files = {"cubic": tmp_path / "cubic.cong"}
    files["cubic"].write_text(save_congruence(twisted_cubic_congruence()), encoding="utf-8")
    for name, argv in (
        ("odd", ["--kind", "linear", "--n", "3", "--seed", "1"]),
        ("even", ["--kind", "linear", "--n", "4", "--seed", "1"]),
        ("degenerate", ["--kind", "determinantal", "--n", "3", "--seed", "1", "--bound", "1"]),
    ):
        files[name] = tmp_path / (name + ".cong")
        assert run(capsys, ["construct"] + argv + ["--out", str(files[name])]) == (0, "", "")
    paths = {name: str(path) for name, path in files.items()}
    for argv, code, outputs in FIELDS_GOLDEN:
        argv = [a.format(**paths) for a in argv]
        assert run(capsys, argv) == (code, outputs["text"], "")
        for fmt, out in outputs.items():
            assert run(capsys, argv + ["--format", fmt]) == (code, out, "")


def test_save_catalog_reproduces_builtin_tsv():
    text = (
        resources.files("quadpoint")
        .joinpath("data/builtin_catalog.tsv")
        .read_text(encoding="utf-8")
    )
    assert save_catalog(load_builtin_catalog()) == text


def test_bad_n_line_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.cong"
    for token, message in (
        ("--5", "expected 'n <integer>'"),
        ("²", "expected 'n <integer>'"),
        ("2", "n must be >= 3"),
    ):
        path.write_text("kind linear\nn %s\n" % token, encoding="utf-8")
        code, out, err = run(capsys, ["verify", "order", "--in", str(path)])
        assert (code, out, err) == (2, "", "error: line 2: %s\n" % message)


def test_malformed_catalog_exits_two(capsys, tmp_path):
    header = "\t".join(TSV_COLUMNS)
    valid = "palatini_scroll\t5\t3\t7\t4\t1\t1\t\t\tscroll"
    path = tmp_path / "bad.tsv"
    for text, message in (
        ("", "line 1: missing header"),
        ("\t5\t3\t7\t4\t1\t1\t\t\t", "line 2: record needs a name"),
        ("x\t2\t0\t7\t4\t1\t1\t\t\t", "line 2: x: n must be >= 3"),
        ("x\t5\t3\t7\t-1\t1\t1\t\t\t", "line 2: x: sectional genus must be >= 0"),
        # a row of ten empty cells is a record, not a blank line
        (valid + "\n" + "\t" * 9 + "\n" + valid, "line 3, column n: required"),
    ):
        path.write_text(header + "\n" + text + "\n" if text else "", encoding="utf-8")
        for dim in ([], ["--dim", "3"]):
            code, out, err = run(capsys, ["classify", "--catalog", str(path)] + dim)
            assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_truncated_file_names_its_last_line(capsys, tmp_path):
    path = tmp_path / "short.cong"
    cubic = save_congruence(twisted_cubic_congruence())
    head = "".join(cubic.splitlines(True)[:4])
    linear = save_congruence(random_linear_congruence(3, 1, 9))
    for text, message in (
        ("kind linear\n", "line 1: truncated congruence file"),
        (head + "\n# end\n", "line 6: unexpected end of file: expected 4 entries"),
        # blocks out of order
        (linear.replace("matrix 0", "matrix 1"), "line 3: expected 'matrix 0', got 'matrix 1'"),
        (cubic.replace("row 1", "row 2"), "line 6: expected 'row 1', got 'row 2'"),
    ):
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["verify", "order", "--in", str(path)])
        assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_input_bounds_refused_before_work(capsys, tmp_path):
    # Each value would run for hours; the limit check must come first.
    path = tmp_path / "c.cong"
    path.write_text(save_congruence(twisted_cubic_congruence()), encoding="utf-8")
    odd13 = tmp_path / "odd13.cong"
    main(["construct", "--kind", "linear", "--n", "13", "--seed", "1", "--out", str(odd13)])
    huge, over_bound = str(10**9), str(10**19)
    trials = "trials must be <= 10000"
    bound = "bound must be <= 1000000000000000000"
    cases = [
        (["verify", sub, "--in", str(path), flag, value], message)
        for sub in ("order", "foci")
        for flag, value, message in (("--trials", huge, trials), ("--bound", over_bound, bound))
    ]
    cases += [
        (["construct", "--kind", kind, "--n", "3", "--seed", "1", "--bound", over_bound], bound)
        for kind in ("linear", "determinantal")
    ]
    cases += [
        (["schubert", "pow", "--n", huge, "--l", "2"], "n must be <= 1000"),
        (["schubert", "pow", "--n", "5", "--l", huge], "l must be <= 1998"),
        (["schubert", "lincong", "--n", huge], "n must be <= 1000"),
        (["scan", "--d", "7", "--pi-max", huge, "--chi-max", "5"], "pi_max must be <= 1000"),
        (["scan", "--d", "7", "--pi-max", "10", "--chi-max", huge], "chi_max must be <= 1000"),
        (["pfaffian", "--in", str(odd13)], "n must be <= 11"),
    ]
    # below the range, refused the same way
    cases += [
        (["construct", "--kind", kind, "--n", "3", "--seed", "1", "--bound", "0"], "bound must be >= 1")
        for kind in ("linear", "determinantal")
    ]
    cases += [
        (["verify", sub, "--in", str(path), "--bound", "0"], "bound must be >= 1")
        for sub in ("order", "foci")
    ]
    cases += [
        (["construct", "--kind", kind, "--n", "4", "--seed", "-1"], "seed must be >= 0")
        for kind in ("linear", "determinantal")
    ]
    for argv, message in cases:
        assert run(capsys, argv) == (2, "", "error: %s\n" % message)


def raise_bareiss(*args):
    raise ArithmeticError("inexact Bareiss division")


def off_kernel(rows):
    """rank_and_kernel with its first kernel vector moved off the kernel."""
    rank, kernel = rank_and_kernel(rows)
    first = kernel[0]
    return rank, ((first[0] + 1,) + first[1:],) + kernel[1:]


@pytest.mark.parametrize(
    "kind, owner, name, replacement, reason",
    (
        # An inexact division in the elimination of A(P)^T, which the
        # line solvers run.
        ("linear", congruence, "rank_and_kernel", raise_bareiss, "inexact Bareiss division"),
        # A wrong kernel vector gives a line that is not isotropic, and
        # the line solver raises RuntimeError.
        (
            "linear",
            congruence,
            "rank_and_kernel",
            off_kernel,
            "solved line is not isotropic for every A_i",
        ),
    ),
    ids=("kernel", "line-solver"),
)
def test_internal_check_failure_exits_three(
    capsys, tmp_path, monkeypatch, kind, owner, name, replacement, reason
):
    path = tmp_path / "c.cong"
    main(["construct", "--kind", kind, "--n", "4", "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    monkeypatch.setattr(owner, name, replacement)
    code, out, err = run(capsys, ["verify", "foci", "--in", str(path), "--trials", "3", "--seed", "1"])
    assert (code, out) == (3, "")
    assert err.startswith("error: internal check failed: %s" % reason)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def fresh_call(argv):
    """(exit code, stdout) of one CLI call in a new interpreter."""
    src = str(Path(congruence.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from quadpoint.cli import main; sys.exit(main(sys.argv[1:]))"]
        + argv,
        # The child writes stdout (schubert pow prints sigma) in UTF-8
        # whatever the locale, and the parent reads it as UTF-8.
        env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8"),
        capture_output=True,
        encoding="utf-8",
    )
    return run.returncode, run.stdout


def test_in_process_calls_match_fresh_calls(capsys):
    # Failing calls must leave nothing behind that changes the calls
    # after them in the same process.
    argvs = (
        ["formulas", "q", "--d", "7", "--no-such-flag"],
        ["schubert", "pow", "--n", "5000", "--l", "2"],
        ["formulas", "q", "--d", "7", "--pi", "4", "--chiS", "1", "--chiX", "1"],
        ["scan", "--d", "7", "--pi-max", "10", "--chi-max", "5"],
    )
    in_process = [run(capsys, argv)[:2] for argv in argvs]
    assert [code for code, _ in in_process] == [2, 2, 0, 0]
    assert in_process == [fresh_call(argv) for argv in argvs]


@pytest.mark.parametrize("encoding", ("latin-1", "ascii", "utf-8"))
def test_command_writes_utf8_in_every_locale(capsys, encoding):
    # The command writes the UTF-8 bytes of what main prints in process,
    # whatever encoding the environment asks for.
    argv = ["schubert", "pow", "--n", "5", "--l", "4"]
    code, out, _ = run(capsys, argv)
    assert (code, out) == (0, "σ[4,0] + 3σ[3,1] + 2σ[2,2]\n")
    src = str(Path(congruence.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-m", "quadpoint.cli"] + argv,
        env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING=encoding),
        capture_output=True,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, out.encode("utf-8"), b"")
    # The installed console script runs the same entry point.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'quadpoint = "quadpoint.cli:console_main"' in pyproject.read_text(encoding="utf-8")


def test_command_with_closed_stdout_exits_zero():
    # With file descriptor 1 closed, sys.stdout is None and print writes
    # nothing; the command still succeeds.
    src = str(Path(congruence.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-m", "quadpoint.cli", "schubert", "pow", "--n", "5", "--l", "4"],
        env=dict(os.environ, PYTHONPATH=src),
        stderr=subprocess.PIPE,
        preexec_fn=lambda: os.close(1),
    )
    assert (child.returncode, child.stderr) == (0, b"")
