import fractions
import json
import sys
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadpoint import catalog, formulas
from quadpoint.catalog import (
    TSV_COLUMNS,
    VarietyRecord,
    classify_surfaces,
    classify_threefolds,
    load_builtin_catalog,
    multidegree_of_verdict,
    parse_catalog,
    save_catalog,
    scan_exclusion,
)
from quadpoint.formulas import (
    ThreefoldInvariants,
    foursecant_constraint_residual,
    quadruple_points,
)

HEADER = "name\tn\tdim\td\tpi\tchi_S\tchi_X\tK2\tscroll\ttags"


def test_builtin_catalog_loads():
    records = load_builtin_catalog()
    assert len(records) == 8
    by_dim = {}
    for r in records:
        by_dim.setdefault(r.dim, []).append(r.name)
    assert len(by_dim[3]) == 4
    assert len(by_dim[2]) == 3
    assert by_dim[1] == ["twisted_cubic"]
    non_examples = [r.name for r in records if "non-example" in r.tags]
    assert non_examples == ["ci_2_3_threefold", "ci_2_2_surface"]


def test_record_validation():
    with pytest.raises(ValueError, match="dim"):
        VarietyRecord("bad", 5, 2, 7, 4, chi_section=1, chi=1)
    with pytest.raises(ValueError, match="missing field k_squared"):
        VarietyRecord("bad", 4, 2, 6, 3, chi=1, scroll=False)
    with pytest.raises(ValueError, match="degree"):
        VarietyRecord("bad", 3, 1, 0, 0)
    with pytest.raises(ValueError, match="missing field chi"):
        VarietyRecord("bad", 5, 3, 7, 4, chi_section=1)
    # names and tags that the TSV could not read back
    for name in ("a\tb", "a\nb", "a\r", "a\u2028b"):
        with pytest.raises(ValueError, match="name contains a tab or line break"):
            VarietyRecord(name, 3, 1, 1, 0)
    for tag in ("p,q", "", "p\tq", "p\n"):
        with pytest.raises(ValueError, match="'bad': tag .* is empty or contains"):
            VarietyRecord("bad", 3, 1, 1, 0, tags=("ok", tag))


def test_parse_diagnostics():
    with pytest.raises(ValueError, match="header"):
        parse_catalog("name\tn\n")
    row = "x\t5\t3\t7\t4\t1\t1\t\t\t"
    with pytest.raises(ValueError, match="line 2: expected 10 columns"):
        parse_catalog(HEADER + "\n" + "x\t5\t3\n")
    with pytest.raises(ValueError, match="line 2, column d"):
        parse_catalog(HEADER + "\n" + row.replace("7", "seven") + "\n")
    with pytest.raises(ValueError, match="column scroll"):
        parse_catalog(HEADER + "\n" + "x\t4\t2\t6\t3\t\t1\t-1\tyes\t\n")
    with pytest.raises(ValueError, match="line 2, column pi: required"):
        parse_catalog(HEADER + "\n" + "x\t5\t3\t7\t\t1\t1\t\t\t\n")
    with pytest.raises(ValueError, match="line 2: .*dim"):
        parse_catalog(HEADER + "\n" + "x\t5\t2\t7\t4\t1\t1\t\t\t\n")
    # str.strip removes tabs, but a line with a tab is a record, not a
    # blank line; blank lines without one are skipped.
    for blank, message in (("\t" * 9, "line 3, column n: required"), (" \t ", "line 3: expected 10")):
        with pytest.raises(ValueError, match=message):
            parse_catalog(HEADER + "\n" + row + "\n" + blank + "\n" + row + "\n")
    assert len(parse_catalog(HEADER + "\n" + row + "\n\n   \n" + row + "\n")) == 2


ROW = ("x", "5", "3", "7", "4", "1", "1", "", "", "")


def _row(**cells):
    """ROW with some cells replaced, named by their TSV column."""
    row = dict(zip(TSV_COLUMNS, ROW))
    row.update(cells)
    return "\t".join(row[column] for column in TSV_COLUMNS)


@pytest.mark.parametrize(
    "text, message",
    (
        ("", "line 1: missing header"),
        (HEADER + "\textra\n", "line 1: header must be " + HEADER),
        (HEADER + "\n" + _row() + "\tmore\n", "line 2: expected 10 columns, got 11"),
        # The scroll cell is read before any integer cell, an integer
        # cell before the required check, and columns in file order.
        (HEADER + "\n" + _row(scroll="2", d="seven") + "\n", "line 2, column scroll: expected 0 or 1, got '2'"),
        (HEADER + "\n" + _row(n="", chi_X="1.5") + "\n", "line 2, column chi_X: not an integer '1.5'"),
        (HEADER + "\n" + _row(pi="p", K2="k") + "\n", "line 2, column pi: not an integer 'p'"),
        (HEADER + "\n" + _row(K2=" ") + "\n", "line 2, column K2: not an integer ' '"),
        (HEADER + "\n" + _row(dim="", d="") + "\n", "line 2, column dim: required"),
        (HEADER + "\n" + _row(name="") + "\n", "line 2: record needs a name"),
        (HEADER + "\n" + _row(n="2", dim="0") + "\n", "line 2: x: n must be >= 3"),
        (HEADER + "\n" + _row(d="0") + "\n", "line 2: x: degree must be >= 1"),
        (HEADER + "\n" + _row(pi="-1") + "\n", "line 2: x: sectional genus must be >= 0"),
        (HEADER + "\n" + _row(chi_S="") + "\n", "line 2: x: missing field chi_section"),
        (HEADER + "\n" + _row(n="4", dim="2", chi_S="", K2="1") + "\n", "line 2: x: missing field scroll"),
        (HEADER + "\n\n" + _row() + "\n" + _row(dim="2") + "\n", "line 4: x: dim 2 is not n-2 = 3"),
    ),
    ids=(
        "missing-header", "header", "columns", "scroll-first", "int-before-required",
        "first-bad-int", "blank-int", "required", "name", "small-n", "degree", "genus",
        "threefold-field", "surface-field", "line-number",
    ),
)
def test_parse_refusals_name_line_and_column(text, message):
    with pytest.raises(ValueError) as err:
        parse_catalog(text)
    assert str(err.value) == message


def test_header_only_catalog_is_empty():
    assert parse_catalog(HEADER + "\n") == ()


def test_save_load_roundtrip():
    records = load_builtin_catalog()
    assert parse_catalog(save_catalog(records)) == records


def test_classify_threefolds_builtin():
    records = [r for r in load_builtin_catalog() if r.dim == 3]
    report = classify_threefolds(records)
    entry = {e.name: e for e in report}
    passing = {e.name for e in report if e.passed}
    assert passing == {"palatini_scroll", "k3_scroll", "degree_ten_determinantal"}
    assert multidegree_of_verdict(entry["palatini_scroll"]) == (1, 3, 2)
    assert multidegree_of_verdict(entry["k3_scroll"]) == (1, 7, 13)
    assert multidegree_of_verdict(entry["degree_ten_determinantal"]) == (
        1,
        15,
        20,
    )
    ci = entry["ci_2_3_threefold"]
    assert not ci.passed
    assert ci.computed["q"] == 0
    assert not ci.verdicts["quadruple_point_one"]
    assert not all(e.passed for e in report)


# Each integer numerator that classify reads a count off, its
# denominator, and its variables.
NUMERATORS = (
    (formulas._quadruple_points24, 24, ("d", "pi", "chi_S", "chi_X")),
    (formulas._scroll_degree8, 8, ("d", "pi", "chi_S")),
    (formulas._curve_foursecants12, 12, ("d", "pi")),
    (formulas._residual24, 24, ("d", "pi", "chi_S")),
    (formulas._triple_points6, 6, ("d", "pi", "chi", "K2")),
)


def test_counts_are_integer_valued_polynomials():
    # A polynomial f of degree at most k_i in each variable x_i is a
    # rational combination of the products of binomials C(x_i - a_i, j_i),
    # j_i <= k_i, with coefficients the iterated forward differences of f
    # on the box a_i .. a_i + k_i.  When f is integral on that box, the
    # coefficients are integers, and the binomials are integers at every
    # integer point, so f is integral on all of Z^m.  Here every count
    # passes on its box: d from 1, the other invariants from 0, degree
    # + 1 values each.  So integer invariants give integral counts.
    sympy = pytest.importorskip("sympy")
    d_degrees = []
    for numerator, denominator, names in NUMERATORS:
        symbols = sympy.symbols(names)
        degrees = sympy.Poly(numerator(*symbols), *symbols).degree_list()
        starts = [int(name == "d") for name in names]
        boxes = [range(a, a + k + 1) for a, k in zip(starts, degrees)]
        assert all(numerator(*point) % denominator == 0 for point in product(*boxes)), names
        d_degrees.append(degrees[0])
    # Degree 4 in d for the threefold counts, 3 for the triple points.
    assert d_degrees == [4, 4, 4, 4, 3]
    records = [
        VarietyRecord("t", 5, 3, d, pi, chi_s, chi)
        for d, pi, chi_s, chi in product(range(1, 6), range(3), range(2), range(2))
    ]
    assert all(v.verdicts["integral"] for v in classify_threefolds(records))


def test_classify_threefolds_rejects_wrong_shape():
    surface = VarietyRecord(
        "s", 4, 2, 6, 3, chi=1, k_squared=-1, scroll=False
    )
    with pytest.raises(ValueError, match="dim 3"):
        classify_threefolds([surface])


def test_classify_surfaces_builtin():
    records = [r for r in load_builtin_catalog() if r.dim == 2]
    report = classify_surfaces(records)
    passing = {e.name for e in report if e.passed}
    assert passing == {"veronese_projected", "bordiga"}
    (ci,) = [e for e in report if e.name == "ci_2_2_surface"]
    assert ci.computed["triple"] == 0
    assert not ci.verdicts["triple_point_one"]


def test_scroll_flag_blocks_surface():
    scroll = VarietyRecord(
        "scrolly", 4, 2, 6, 3, chi=1, k_squared=-1, scroll=True
    )
    (entry,) = classify_surfaces([scroll])
    assert entry.verdicts["triple_point_one"]
    assert not entry.verdicts["not_scroll"]
    assert not entry.passed


def test_multiplicity_widens_degree_bound():
    low = VarietyRecord("low", 5, 3, 4, 0, chi_section=1, chi=1)
    assert not classify_threefolds([low])[0].verdicts["degree_bound"]
    assert classify_threefolds([low], multiplicity=2)[0].verdicts["degree_bound"]


def test_scan_exclusion_frozen_lists():
    assert scan_exclusion(7, (0, 10), (-5, 5)) == ((0, -1, -3), (4, 1, 1))
    assert scan_exclusion(9, (0, 20), (-10, 10)) == ((8, 2, 2),)
    assert scan_exclusion(10, (0, 20), (-10, 10)) == ((8, -4, 8), (11, 5, 1))


def test_scan_exclusion_survivors_verify():
    for d, pis, chis in ((7, (0, 10), (-5, 5)), (10, (0, 20), (-10, 10))):
        for pi, chi_s, chi_x in scan_exclusion(d, pis, chis):
            assert quadruple_points(ThreefoldInvariants(d, pi, chi_s, chi_x)) == 1
            assert foursecant_constraint_residual(d, pi, chi_s) == 0


# Integer restatements (24 q and 24 residual) for a brute-force oracle
# that visits every (pi, chi_S) cell.
def _q24(d, p, chi_s, chi_x):
    return (
        d**4 - 6 * d**3 + 11 * d**2 - 12 * d**2 * p + 60 * d * p + 48 * d * chi_s
        - 54 * d + 12 * p**2 - 84 * p + 144 * chi_x - 216 * chi_s + 72
    )


def _residual24(d, p, chi):
    return (
        3 * d**4 - 46 * d**3 - 24 * d**2 * p + 249 * d**2 + 264 * d * p
        + 48 * d * chi - 710 * d + 12 * p**2 - 684 * p - 408 * chi + 1272
    )


def _brute_force_scan(d, pi_range, chi_range):
    chi_lo, chi_hi = chi_range
    out = []
    for pi in range(max(pi_range[0], 0), pi_range[1] + 1):
        for chi_s in range(chi_lo, chi_hi + 1):
            chi_x, rest = divmod(24 - _q24(d, pi, chi_s, 0), 144)
            if _residual24(d, pi, chi_s) == 0 and rest == 0 and chi_lo <= chi_x <= chi_hi:
                out.append((pi, chi_s, chi_x))
    return tuple(out)


def test_scan_exclusion_matches_brute_force():
    ranges = (
        ((0, 40), (-10, 10)),
        ((-7, 30), (-40, 6)),
        ((5, 60), (-3, 25)),
        ((0, 0), (0, 0)),
        ((-3, -1), (-5, 5)),
    )
    found = 0
    for d in range(1, 31):
        for pi_range, chi_range in ranges:
            want = _brute_force_scan(d, pi_range, chi_range)
            assert scan_exclusion(d, pi_range, chi_range) == want
            found += len(want)
    assert found > 10


def test_scan_exclusion_single_cells_and_edges():
    # (10, 8, -4, 8): chi_S and chi_X sit on opposite edges of (-4, 8).
    assert scan_exclusion(10, (8, 8), (-4, 8)) == ((8, -4, 8),)
    assert scan_exclusion(10, (0, 8), (-4, 8)) == ((8, -4, 8),)
    assert scan_exclusion(10, (8, 20), (-3, 8)) == ((11, 5, 1),)
    assert scan_exclusion(10, (0, 10), (-4, 7)) == ()
    assert scan_exclusion(9, (8, 8), (2, 2)) == ((8, 2, 2),)
    assert scan_exclusion(7, (-4, 0), (-3, -1)) == ((0, -1, -3),)
    assert scan_exclusion(7, (4, 4), (1, 1)) == ((4, 1, 1),)
    assert scan_exclusion(7, (4, 4), (2, 2)) == ()


def _per_genus_scan(d, pi_range, chi_range):
    """The scan's oracle: at each pi, solve the test's own expanded
    residual for chi_S and then 24 q = 24 for chi_X, each slope read off
    the polynomial by a difference."""
    chi_lo, chi_hi = chi_range
    out = []
    for pi in range(max(pi_range[0], 0), pi_range[1] + 1):
        r0 = _residual24(d, pi, 0)
        chi_s, rest = divmod(-r0, _residual24(d, pi, 1) - r0)
        if rest:
            continue
        q0 = _q24(d, pi, chi_s, 0)
        chi_x, rest = divmod(24 - q0, _q24(d, pi, chi_s, 1) - q0)
        if not rest and chi_lo <= min(chi_s, chi_x) and max(chi_s, chi_x) <= chi_hi:
            out.append((pi, chi_s, chi_x))
    return tuple(out)


def _ordered_pair(lo, hi):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(sorted).map(tuple)


# Every survivor with d <= 200, pi <= 1000 and |chi| <= 1000 has d in
# 7..10, 18 or 43 (see the next test), so half the draws take d from the
# focal window.
@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(1, 200), st.integers(7, 10)),
    _ordered_pair(-10, 1000),
    _ordered_pair(-1000, 1000),
)
@example(10, (0, 1000), (-1000, 1000))
@example(43, (0, 1000), (-1000, 1000))
@example(18, (-10, 1000), (-1000, 1000))
def test_scan_exclusion_matches_the_per_genus_oracle(d, pi_range, chi_range):
    assert scan_exclusion(d, pi_range, chi_range) == _per_genus_scan(d, pi_range, chi_range)


def test_scan_exclusion_edges_at_every_survivor():
    # Each range end at a survivor's coordinate or one step inside it,
    # which excludes the survivor, for every survivor of the oracle.
    found = {d: _per_genus_scan(d, (0, 1000), (-1000, 1000)) for d in range(1, 201)}
    assert sorted(d for d in found if found[d]) == [7, 8, 9, 10, 18, 43]
    for d, survivors in found.items():
        for pi, chi_s, chi_x in survivors:
            low, high = min(chi_s, chi_x), max(chi_s, chi_x)
            for ends in product((pi, pi + 1), (pi, pi - 1), (low, low + 1), (high, high - 1)):
                pi_range, chi_range = ends[:2], ends[2:]
                if pi_range[0] <= pi_range[1] and chi_range[0] <= chi_range[1]:
                    want = _per_genus_scan(d, pi_range, chi_range)
                    assert scan_exclusion(d, pi_range, chi_range) == want


def test_scan_work_does_not_grow_with_chi_range(monkeypatch):
    calls = {}
    for name in ("_quadruple_points24", "_residual24"):
        def counted(*args, _name=name, _original=getattr(catalog, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(catalog, name, counted)
    # The public Fraction wrappers in formulas, and the fractions module.
    public = {
        getattr(formulas, name).__code__
        for name in dir(formulas)
        if not name.startswith("_")
        and getattr(getattr(formulas, name), "__annotations__", {}).get("return") == "Fraction"
    }
    assert len(public) >= 5
    entered = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and (code in public or code.co_filename == fractions.__file__):
            entered.append(code.co_name)

    counts = []
    for d in (7, 10):
        for chi_range in ((0, 0), (-1000, 1000)):
            calls.clear()
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                scan_exclusion(d, (0, 40), chi_range)
            finally:
                sys.setprofile(previous)
            counts.append(dict(calls))
    assert entered == []
    assert counts[0] == counts[1] and counts[2] == counts[3]
    for count in counts:
        # One solve per pi, plus q and the re-verification per integral
        # solution.
        assert 41 <= count["_residual24"] <= 2 * 41
        assert count["_quadruple_points24"] <= 2 * 41


def test_scan_excludes_degrees_13_to_15():
    for d in (13, 14, 15):
        assert scan_exclusion(d, (0, 40), (-10, 10)) == ()


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_exclusion(0, (0, 5), (-5, 5))
    with pytest.raises(ValueError, match="empty"):
        scan_exclusion(7, (5, 0), (-5, 5))
    with pytest.raises(ValueError, match="empty"):
        scan_exclusion(7, (0, 5), (5, -5))


def test_report_json_schema():
    records = [r for r in load_builtin_catalog() if r.dim == 3]
    report = classify_threefolds(records)
    payload = [e.jsonable() for e in report]
    text = json.dumps(payload)
    parsed = json.loads(text)
    assert isinstance(parsed, list)
    for item in parsed:
        assert set(item) == {"name", "verdicts", "computed", "pass"}
        assert set(item["computed"]) == {"q", "a1", "a2", "residual"}
        for value in item["computed"].values():
            assert set(value) == {"num", "den"}
            int(value["num"]), int(value["den"])
