"""Property tests of the exact layer, the two text formats and the
catalog classification.

Hypothesis draws the inputs; every example is checked exactly.  The
search is derandomized and keeps no example database, so a run is
reproducible and leaves no files behind.
"""

import contextlib
import io
import itertools
import json
import math
import re
import string
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from quadpoint.catalog import (  # noqa: E402
    TSV_COLUMNS,
    VarietyRecord,
    classify_surfaces,
    classify_threefolds,
    multidegree_of_verdict,
    parse_catalog,
    save_catalog,
)
from quadpoint.cli import main  # noqa: E402
from quadpoint.congruence import (  # noqa: E402
    DeterminantalCongruence,
    LinearCongruence,
    _parse_entries,
    load_congruence,
    save_congruence,
    twisted_cubic_congruence,
)
from quadpoint.exact import (  # noqa: E402
    MultiPoly,
    _rational,
    binary_gcd,
    determinant,
    pfaffian,
    primitive_vector,
)
from quadpoint.formulas import (  # noqa: E402
    SurfaceInvariants,
    ThreefoldInvariants,
    apparent_triple_points,
    curve_foursecants,
    focal_degree_bound,
    foursecant_constraint_residual,
    foursecant_scroll_degree,
    quadruple_points,
)
from restriction import binary_coeffs, binary_form, normalized, variable  # noqa: E402

exact = settings(database=None, derandomize=True, max_examples=30, deadline=None)

small_ints = st.integers(-9, 9)
rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


@st.composite
def skew_rows(draw, sizes, entries):
    size = draw(sizes)
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = draw(entries)
            rows[j][i] = -rows[i][j]
    return rows


def cofactor(g, f):
    """The binary form h with g * h == f, or None if g does not divide f.

    Long division in t by g's highest nonzero t-coefficient proposes h;
    the product g * h is the certificate, so a power of s in g that f
    lacks is caught as well.
    """
    gs, fs = binary_coeffs(g), binary_coeffs(f)
    if len(fs) < len(gs):
        return None
    top = max(k for k, c in enumerate(gs) if c)
    rem, q = list(fs), [Fraction(0)] * (len(fs) - top)
    for k in range(len(q) - 1, -1, -1):
        q[k] = Fraction(rem[k + top], gs[top])
        for j in range(top + 1):
            rem[k + j] -= q[k] * gs[j]
    h = binary_form(q[: len(fs) - len(gs) + 1])
    return h if g * h == f else None


@exact
@given(skew_rows(st.sampled_from((2, 4, 6, 8)), small_ints))
def test_pfaffian_squared_is_determinant(rows):
    assert pfaffian(rows) ** 2 == determinant(rows)


binary_forms = st.lists(small_ints, min_size=1, max_size=5).filter(any)


@exact
@given(binary_forms, st.lists(binary_forms, min_size=1, max_size=3))
def test_binary_gcd_divides_each_input(common, cofactors):
    g = binary_form(common)
    inputs = [g * binary_form(h) for h in cofactors]
    gcd = binary_gcd([binary_coeffs(f) for f in inputs])
    assert gcd == normalized(gcd)
    gcd = binary_form(gcd)
    for f in inputs:
        assert cofactor(gcd, f) is not None
    # the common factor divides the gcd, so the gcd is the greatest one
    assert cofactor(g, gcd) is not None


@exact
@given(st.lists(rationals, min_size=1, max_size=6).filter(any), rationals.filter(bool))
def test_primitive_vector_invariants(vec, scale):
    p = primitive_vector(vec)
    assert all(isinstance(x, int) for x in p)
    assert math.gcd(*p) == 1
    assert next(x for x in p if x) > 0
    # proportional to the input, with the same zero pattern
    assert all(p[i] * vec[j] == p[j] * vec[i] for i in range(len(p)) for j in range(len(p)))
    assert [x == 0 for x in p] == [x == 0 for x in vec]
    # canonical on the projective point
    assert primitive_vector(p) == p
    assert primitive_vector([scale * x for x in vec]) == p


names = st.text(string.ascii_letters + string.digits + "_-. ", min_size=1, max_size=10)
# Characters the catalog TSV cannot carry in a name or tag; a comma
# cannot appear in a tag, and a tag cannot be empty.
CELL_BREAKS = "\t\n\r\x0b\x85\u2028"
FAULTS = st.sampled_from(
    [("name", c) for c in CELL_BREAKS] + [("tag", c) for c in CELL_BREAKS + ","] + [("tag", "")]
)


def unreadable(values):
    """Whether the TSV could not carry this record's name or tags."""
    texts = (values["name"],) + values["tags"]
    return any(c in CELL_BREAKS for t in texts for c in t) or any(
        not t or "," in t for t in values["tags"]
    )


@st.composite
def record_values(draw):
    """Keyword arguments of a VarietyRecord; about half of them carry
    one fault from FAULTS in the name or in an extra tag."""
    n = draw(st.integers(3, 7))
    optional_int = st.none() | st.integers(-50, 50)
    values = dict(
        name=draw(names),
        n=n,
        dim=n - 2,
        d=draw(st.integers(1, 40)),
        pi=draw(st.integers(0, 40)),
        chi_section=draw(optional_int),
        chi=draw(optional_int),
        k_squared=draw(optional_int),
        scroll=draw(st.none() | st.booleans()),
        tags=tuple(draw(st.lists(names, max_size=3))),
    )
    required = {3: ("chi_section", "chi"), 2: ("chi", "k_squared")}
    for fieldname in required.get(n - 2, ()):
        if values[fieldname] is None:
            values[fieldname] = draw(st.integers(-50, 50))
    if n == 4 and values["scroll"] is None:
        values["scroll"] = draw(st.booleans())
    fault = draw(st.none() | FAULTS)
    if fault is not None:
        where, char = fault
        text = values["name"] if where == "name" else draw(names) if char else ""
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + char + text[cut:]
        if where == "name":
            values["name"] = text
        else:
            values["tags"] += (text,)
    return values


@settings(exact, max_examples=100)
@given(st.lists(record_values(), max_size=5))
def test_catalog_tsv_roundtrip(drawn):
    recs = []
    for values in drawn:
        if unreadable(values):
            with pytest.raises(ValueError, match=re.escape(repr(values["name"]))):
                VarietyRecord(**values)
        else:
            recs.append(VarietyRecord(**values))
    text = save_catalog(recs)
    assert parse_catalog(text) == tuple(recs)
    assert save_catalog(parse_catalog(text)) == text


# Every count is an integer-valued polynomial, so integer invariants,
# the only ones a catalog file holds, give integral counts.  Records
# built in Python may hold rational invariants, with non-integral
# counts: some of the drawn invariants are quarters.
def invariant(low, high):
    return st.integers(low, high) | st.builds(Fraction, st.integers(4 * low, 4 * high), st.just(4))


threefold_records = st.builds(
    lambda i, d, pi, chi_s, chi: VarietyRecord("t%d" % i, 5, 3, d, pi, chi_s, chi),
    st.integers(0, 99), invariant(1, 30), invariant(0, 40), invariant(-30, 30), invariant(-30, 30),
)
surface_records = st.builds(
    lambda i, d, pi, chi, k2, scroll: VarietyRecord("s%d" % i, 4, 2, d, pi, None, chi, k2, scroll),
    st.integers(0, 99), invariant(1, 20), invariant(0, 30), invariant(-10, 10), invariant(-30, 30),
    st.booleans(),
)


def exact_type(value):
    """Whether a computed count is an int when integral and a Fraction
    only otherwise."""
    return type(value) is (int if value.denominator == 1 else Fraction)


@settings(exact, max_examples=100)
@given(st.lists(threefold_records, max_size=6), st.lists(surface_records, max_size=6), st.integers(1, 3))
def test_classify_matches_the_fraction_formulas(threefolds, surfaces, multiplicity):
    # The verdicts and counts equal those of the public Fraction
    # functions on the invariant classes, non-integral counts included.
    want = []
    for r in threefolds:
        q = quadruple_points(ThreefoldInvariants(r.d, r.pi, r.chi_section, r.chi))
        a1 = foursecant_scroll_degree(r.d, r.pi, r.chi_section)
        a2 = curve_foursecants(r.d, r.pi)
        residual = foursecant_constraint_residual(r.d, r.pi, r.chi_section)
        verdicts = {
            "quadruple_point_one": q == 1,
            "residual_zero": residual == 0,
            "degree_bound": focal_degree_bound(5, r.d, multiplicity),
            "integral": all(v.denominator == 1 for v in (q, a1, a2)),
        }
        want.append((r.name, verdicts, {"q": q, "a1": a1, "a2": a2, "residual": residual}))
    for r in surfaces:
        triple = apparent_triple_points(SurfaceInvariants(r.d, r.pi, r.chi, r.k_squared))
        verdicts = {
            "triple_point_one": triple == 1,
            "degree_window": 4 <= r.d <= 8,
            "not_scroll": not r.scroll,
        }
        want.append((r.name, verdicts, {"triple": triple}))
    found = classify_threefolds(threefolds, multiplicity) + classify_surfaces(surfaces)
    assert [(e.name, e.verdicts, e.computed) for e in found] == want
    assert all(exact_type(v) for e in found for v in e.computed.values())


# Catalog rows for the one-pass classify: failing rows drawn at random,
# invariants that pass, curves that classify skips, blank lines, and
# names with non-ASCII characters, which json escapes.  Degrees 3 and 4
# fail the focal window at multiplicity 1 only.
catalog_names = st.text("ab_-. ,0123456789éßλ日\U0001d4b3", min_size=1, max_size=6)
passing_threefolds = st.sampled_from(((7, 4, 1, 1), (9, 8, 2, 2), (10, 11, 5, 1)))
random_threefolds = st.tuples(
    st.integers(3, 4) | st.integers(1, 20),
    st.integers(0, 30),
    st.integers(-15, 15),
    st.integers(-15, 15),
)
random_surfaces = st.tuples(
    st.integers(1, 12), st.integers(0, 15), st.integers(-3, 3), st.integers(-10, 10)
)


@st.composite
def catalog_line(draw):
    kind = draw(st.sampled_from(("threefold", "surface", "curve", "blank")))
    if kind == "blank":
        return ""
    name = draw(catalog_names)
    if kind == "threefold":
        d, pi, chi_s, chi = draw(passing_threefolds | random_threefolds)
        cells = (name, 5, 3, d, pi, chi_s, chi, "", "", "")
    elif kind == "surface":
        d, pi, chi, k2 = draw(st.just((4, 0, 1, 9)) | random_surfaces)
        cells = (name, 4, 2, d, pi, "", chi, k2, int(draw(st.booleans())), "")
    else:
        cells = (name, 3, 1, draw(st.integers(1, 9)), draw(st.integers(0, 5)), "", "", "", "", "")
    return "\t".join(map(str, cells))


def classify_reference(text, fmt, dim, multiplicity):
    """classify's (exit code, stdout), rendered from the tuple API over
    the whole parsed catalog."""
    records = parse_catalog(text)
    threefolds = surfaces = ()
    if dim in (None, 3):
        threefolds = classify_threefolds([r for r in records if r.dim == 3], multiplicity)
    if dim in (None, 2):
        surfaces = classify_surfaces([r for r in records if r.dim == 2])
    entries = threefolds + surfaces
    all_pass = bool(entries) and all(e.passed for e in entries)
    code = 0 if all_pass else 1
    if fmt == "json":
        return code, json.dumps([e.jsonable() for e in entries]) + "\n"
    lines = []
    for i, e in enumerate(entries):
        failed = [k for k, v in e.verdicts.items() if not v]
        if fmt == "tsv":
            lines.append("%s\t%s\t%s" % (e.name, "pass" if e.passed else "fail", ",".join(failed)))
        elif failed:
            lines.append("%s: fail [%s]" % (e.name, ", ".join(failed)))
        elif i < len(threefolds):
            md = multidegree_of_verdict(e)
            lines.append("%s: pass multidegree (%s)" % (e.name, ",".join(map(str, md))))
        else:
            lines.append("%s: pass" % e.name)
    if fmt == "text":
        lines.append("result = %s" % ("pass" if all_pass else "fail"))
    return code, "".join(line + "\n" for line in lines)


@settings(exact, max_examples=25)
@given(st.lists(catalog_line(), min_size=1, max_size=12))
def test_classify_command_matches_the_tuple_api(lines):
    # The command classifies one record at a time; the public functions
    # take and return whole tuples.  Both give the same verdicts, in the
    # same order, in every format, for every --dim and --multiplicity.
    text = "\n".join(["\t".join(TSV_COLUMNS)] + lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "catalog.tsv"
        path.write_text(text, encoding="utf-8")
        for fmt in ("text", "json", "tsv"):
            for dim in (None, 2, 3):
                for multiplicity in (1, 2, 3):
                    argv = ["classify", "--catalog", str(path), "--format", fmt]
                    argv += ["--multiplicity", str(multiplicity)]
                    argv += [] if dim is None else ["--dim", str(dim)]
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(argv)
                    assert (code, out.getvalue()) == classify_reference(text, fmt, dim, multiplicity)


@st.composite
def congruences(draw):
    """(congruence, input): the input is its A_i (linear kind) or its
    rows of linear forms (determinantal kind)."""
    n = draw(st.integers(3, 5))
    # Rationals and integers of any size, so lines of plain ints and
    # lines with fractions both occur, and some congruences of integers.
    entries = st.one_of(rationals, st.integers(-(10**20), 10**20))
    if draw(st.booleans()):
        entries = st.integers(-(10**20), 10**20)
    if draw(st.booleans()):
        matrices = [draw(skew_rows(st.just(n + 1), entries)) for _ in range(n - 1)]
        return LinearCongruence(n, matrices), matrices
    coefficient_vector = st.lists(entries, min_size=n + 1, max_size=n + 1)
    rows = [[draw(coefficient_vector) for _ in range(n - 1)] for _ in range(n)]
    return DeterminantalCongruence(n, rows), rows


def input_columns(c, data):
    """(input entries, stored entries) of each column of A: all entries
    of A_i for the linear kind, of entry j of every row for the
    determinantal kind."""
    flat = itertools.chain.from_iterable
    if isinstance(c, LinearCongruence):
        return [(list(flat(m)), list(flat(stored))) for m, stored in zip(data, c.matrices)]
    return [
        (list(flat(row[j] for row in data)), list(flat(row[j] for row in c.rows)))
        for j in range(c.n - 1)
    ]


@exact
@given(congruences())
def test_congruence_text_roundtrip(drawn):
    c, data = drawn
    # Each column is stored as plain ints over one scale, the lcm of its
    # input denominators; integer input is stored unscaled.
    columns = input_columns(c, data)
    assert len(c.scales) == len(columns) == c.n - 1
    for (given_entries, stored), scale in zip(columns, c.scales):
        assert all(type(x) is int for x in stored)
        assert [Fraction(x, scale) for x in stored] == given_entries
        assert scale == math.lcm(*(Fraction(x).denominator for x in given_entries))
    if all(type(x) is int for entries, _ in columns for x in entries):
        assert c.scales == (1,) * (c.n - 1)
    text = save_congruence(c)
    loaded = load_congruence(text)
    assert type(loaded) is type(c) and loaded.n == c.n
    assert loaded.scales == c.scales
    if isinstance(c, LinearCongruence):
        assert loaded.matrices == c.matrices
    else:
        assert loaded.rows == c.rows
    assert save_congruence(loaded) == text


# What an entry of a congruence file could be made of: signs, ASCII,
# Arabic-Indic, fullwidth and superscript digits, the separators that
# Fraction reads, the exponent letter and whitespace.
ENTRY_CHARS = "+-0123456789/._eE\u0663\u0664\uff11\uff12\u00b2 \t\u00a0"


def input_form(c):
    """Entry (0, 0) of a determinantal congruence as its file gave it:
    each stored coefficient, a plain int, over column 0's scale."""
    stored = c.rows[0][0]
    assert all(type(x) is int for x in stored)
    return tuple(Fraction(x, c.scales[0]) for x in stored)


def fraction_parse(line):
    """The entries of a line as every token was read before integer
    tokens went to int: Fraction on each of four tokens, exponents and
    underscores refused; None for a refused line."""
    tokens = line.split()
    if len(tokens) != 4 or "e" in line.lower() or "_" in line:
        return None
    try:
        return [Fraction(tok) for tok in tokens]
    except (ValueError, ZeroDivisionError):
        return None


def outcome(parse, tok):
    try:
        return parse(tok)
    except (ValueError, ZeroDivisionError) as err:
        return type(err)


@settings(exact, max_examples=300)
@given(st.text(ENTRY_CHARS, min_size=1, max_size=8))
def test_entry_parse_agrees_with_fraction(tok):
    if tok.split() == [tok] and "e" not in tok.lower() and "_" not in tok:
        parsed = outcome(lambda t: _parse_entries(t, [t]), tok)
        assert parsed == outcome(lambda t: (Fraction(t),), tok)
        if isinstance(parsed, tuple):
            assert type(parsed[0]) is (int if parsed[0].denominator == 1 else Fraction)
    # The same token as the first entry of row 0 of a whole file.
    line = tok + " 0 0 1"
    text = save_congruence(twisted_cubic_congruence()).replace("1 0 0 0", line, 1)
    expected = fraction_parse(line)
    if expected is None:
        with pytest.raises(ValueError, match="line 4"):
            load_congruence(text)
    else:
        assert input_form(load_congruence(text)) == tuple(expected)


def per_token_parse(line):
    """The entries of a file line as the reader took them one token at a
    time, before an ASCII integer line was read in one pass: an ASCII
    integer token by int, any other token by Fraction, then stored as
    `_rational` stores it; exponents and underscores refused."""
    if "e" in line.lower() or "_" in line:
        raise ValueError("exponent or underscore")
    out = []
    for tok in line.split():
        digits = tok[1:] if tok[0] in "+-" else tok
        out.append(int(tok) if digits.isascii() and digits.isdigit() else _rational(Fraction(tok)))
    return tuple(out)


def signed(body):
    return st.tuples(st.sampled_from(("", "+", "-")), body).map("".join)


# File tokens: signed integers with leading zeros, a/b (b = 0 too),
# decimals, non-ASCII digits, exponents, underscores and junk.
INTEGER_TOKENS = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    signed(st.from_regex(r"\A0{0,3}[0-9]{1,4}\Z")),
)
FILE_TOKENS = st.one_of(
    INTEGER_TOKENS,
    st.tuples(st.integers(-99, 99), st.integers(0, 9)).map("%d/%d".__mod__),
    signed(st.from_regex(r"\A[0-9]{0,3}\.[0-9]{0,3}\Z")),
    signed(st.text("\u0663\u0664\uff11\uff12\u00b2", min_size=1, max_size=3)),
    st.tuples(st.integers(-99, 99), st.sampled_from("eE"), st.integers(-9, 9)).map("%d%s%d".__mod__),
    st.tuples(st.integers(1, 99), st.integers(0, 999)).map("%d_%03d".__mod__),
    st.text(ENTRY_CHARS + "x#+-", min_size=1, max_size=6).filter(lambda t: t.split() == [t]),
)


# Mostly the 4 entries a line needs, some lines of integers only.
FILE_LINES = st.one_of(
    st.lists(FILE_TOKENS, min_size=4, max_size=4),
    st.lists(INTEGER_TOKENS, min_size=4, max_size=4),
    st.lists(FILE_TOKENS, min_size=1, max_size=5),
)


@settings(exact, max_examples=400)
@given(FILE_LINES)
def test_file_line_reads_as_token_by_token(tokens):
    # The first entry line of the twisted cubic file, which must hold 4
    # entries, replaced by the tokens: the loaded values, their types
    # and every refusal must be those of the per-token reader, and an
    # accepted file saves back to its canonical text.
    line = " ".join(tokens)
    assume(not line.startswith("#"))  # a comment line, not an entry line
    good = save_congruence(twisted_cubic_congruence())
    text = good.replace("1 0 0 0", line, 1)
    try:
        expected = per_token_parse(line)
        message = None if len(tokens) == 4 else "line 4: expected 4 entries, got %d" % len(tokens)
    except (ValueError, ZeroDivisionError):
        message = "line 4: expected 4 entries, got %d" % len(tokens)
        if len(tokens) == 4:
            message = "line 4: non-rational entry in %r" % line
    if message is not None:
        with pytest.raises(ValueError) as err:
            load_congruence(text)
        assert str(err.value) == message
        return
    parsed = _parse_entries(line, tokens)
    assert parsed == expected and list(map(type, parsed)) == list(map(type, expected))
    assert input_form(load_congruence(text)) == expected
    canonical = good.replace("1 0 0 0", " ".join(map(str, expected)), 1)
    assert save_congruence(load_congruence(text)) == canonical
    assert save_congruence(load_congruence(canonical)) == canonical


def test_cofactor_oracle():
    s, t = variable(2, 0), variable(2, 1)
    assert cofactor(s + t, s * s - t * t) == s - t
    assert cofactor(s + t, s * s + t * t) is None
    assert cofactor(s, t) is None
    assert cofactor(s * t, s * s * t) == s
