"""Variety records, TSV ingestion, and the classification filter.

A small built-in dataset collects the classified varieties whose
congruence of (n-1)-secant lines has order one, together with
complete-intersection non-examples.  classify_threefolds and
classify_surfaces re-run the numerical selection: quadruple/triple
point count one, vanishing 4-secant residual, and the focal degree
window.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from typing import Iterator, NamedTuple, Optional, Sequence

from .formulas import (
    ThreefoldInvariants,
    _curve_foursecants12,
    _quadruple_points24,
    _residual24,
    _scroll_degree8,
    _triple_points6,
    focal_degree_bound,
    foursecant_constraint_residual,
    quadruple_points,
)

# (TSV column, VarietyRecord field) in file order.  The seven integer
# columns follow name; the first four of them are required.
TSV_FIELDS = (
    ("name", "name"),
    ("n", "n"),
    ("dim", "dim"),
    ("d", "d"),
    ("pi", "pi"),
    ("chi_S", "chi_section"),
    ("chi_X", "chi"),
    ("K2", "k_squared"),
    ("scroll", "scroll"),
    ("tags", "tags"),
)
TSV_COLUMNS = tuple(column for column, _ in TSV_FIELDS)
_INT_FIELDS = TSV_FIELDS[1:8]
# The scroll cell and the value it reads as.
_SCROLL = {"": None, "0": False, "1": True}
# Characters that would split a TSV cell or line: the tab, and every
# line boundary of str.splitlines, which parse_catalog reads lines with.
_CELL_BREAKS = frozenset("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
# The optional fields that a record of each dimension must have.
_REQUIRED_BY_DIM = {3: ("chi_section", "chi"), 2: ("chi", "k_squared", "scroll")}


class _VarietyFields(NamedTuple):
    name: str
    n: int
    dim: int
    d: int
    pi: int
    chi_section: Optional[int]
    chi: Optional[int]
    k_squared: Optional[int]
    scroll: Optional[bool]
    tags: tuple


class VarietyRecord(_VarietyFields):
    """One codimension-two variety with the invariants its dimension needs.

    chi_section is chi(O) of the general hyperplane section (threefolds
    only); chi is chi(O) of the variety itself.  scroll marks surfaces
    that are scrolls, for which the triple point count does not apply.
    """

    __slots__ = ()

    def __new__(
        cls, name, n, dim, d, pi,
        chi_section=None, chi=None, k_squared=None, scroll=None, tags=(),
    ):
        # A name or tag must read back from the TSV that save_catalog
        # writes: no tab or line break, and a tag is nonempty with no comma.
        if not name:
            raise ValueError("record needs a name")
        if not _CELL_BREAKS.isdisjoint(name):
            raise ValueError("%r: name contains a tab or line break" % name)
        for tag in tags:
            if not tag or "," in tag or not _CELL_BREAKS.isdisjoint(tag):
                raise ValueError(
                    "%r: tag %r is empty or contains a comma, tab or line break"
                    % (name, tag)
                )
        if n < 3:
            raise ValueError("%s: n must be >= 3" % name)
        if dim != n - 2:
            raise ValueError("%s: dim %d is not n-2 = %d" % (name, dim, n - 2))
        if d < 1:
            raise ValueError("%s: degree must be >= 1" % name)
        if pi < 0:
            raise ValueError("%s: sectional genus must be >= 0" % name)
        self = tuple.__new__(
            cls, (name, n, dim, d, pi, chi_section, chi, k_squared, scroll, tags)
        )
        for fieldname in _REQUIRED_BY_DIM.get(dim, ()):
            if getattr(self, fieldname) is None:
                raise ValueError("%s: missing field %s" % (name, fieldname))
        return self


# ----- TSV parsing -----


def _rows(text: str) -> Iterator[VarietyRecord]:
    """The validated records of TSV catalog text, one at a time.

    Schema: header `name n dim d pi chi_S chi_X K2 scroll tags`, tab
    separated, blank cells for inapplicable fields, scroll in {0,1},
    tags comma separated.  One pass over the lines; a refusal names the
    line and, for a cell, its column, and comes when that line is read.
    """
    lines = iter(text.splitlines())
    header = next(lines, None)
    if header is None:
        raise ValueError("line 1: missing header")
    if tuple(header.split("\t")) != TSV_COLUMNS:
        raise ValueError(
            "line 1: header must be %s" % "\t".join(TSV_COLUMNS)
        )
    for line_no, line in enumerate(lines, start=2):
        if "\t" not in line and not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != len(TSV_COLUMNS):
            raise ValueError(
                "line %d: expected %d columns, got %d"
                % (line_no, len(TSV_COLUMNS), len(cells))
            )
        name, n, dim, d, pi, chi_s, chi, k_squared, scroll, tags = cells
        if scroll not in _SCROLL:
            raise ValueError(
                "line %d, column scroll: expected 0 or 1, got %r" % (line_no, scroll)
            )
        try:
            n, dim, d, pi = int(n), int(dim), int(d), int(pi)
            chi_s = int(chi_s) if chi_s else None
            chi = int(chi) if chi else None
            k_squared = int(k_squared) if k_squared else None
        except ValueError:
            # Name the first cell that is not an integer, in column
            # order; else a required cell is blank, and the first one.
            numbers = cells[1:8]
            for (column, _), cell in zip(_INT_FIELDS, numbers):
                try:
                    int(cell or 0)
                except ValueError:
                    raise ValueError(
                        "line %d, column %s: not an integer %r" % (line_no, column, cell)
                    ) from None
            column = _INT_FIELDS[numbers.index("")][0]
            raise ValueError("line %d, column %s: required" % (line_no, column)) from None
        tags = tuple(filter(None, tags.split(","))) if tags else ()
        try:
            record = VarietyRecord(
                name, n, dim, d, pi, chi_s, chi, k_squared, _SCROLL[scroll], tags
            )
        except ValueError as err:
            raise ValueError("line %d: %s" % (line_no, err)) from None
        yield record


def parse_catalog(text: str) -> tuple:
    """Parse TSV catalog text into a tuple of validated records (see
    `_rows` for the schema and the refusals)."""
    return tuple(_rows(text))


def save_catalog(records: Sequence[VarietyRecord]) -> str:
    def cells(fieldname) -> list:
        values = [getattr(r, fieldname) for r in records]
        if fieldname == "tags":
            return [",".join(v) for v in values]
        if fieldname == "scroll":
            return ["" if v is None else "1" if v else "0" for v in values]
        return ["" if v is None else str(v) for v in values]

    lines = ["\t".join(TSV_COLUMNS)]
    lines += map("\t".join, zip(*(cells(f) for _, f in TSV_FIELDS)))
    return "\n".join(lines) + "\n"


def load_catalog(path) -> Iterator[VarietyRecord]:
    """The records of a TSV catalog file, parsed one at a time as they
    are iterated; the file is read and closed before this returns."""
    with open(path, "r", encoding="utf-8") as handle:
        return _rows(handle.read())


def load_builtin_catalog() -> tuple:
    text = resources.files("quadpoint").joinpath("data/builtin_catalog.tsv").read_text(
        encoding="utf-8"
    )
    return parse_catalog(text)


# ----- classification -----


def rational_json(value: Fraction) -> dict:
    """Exact rational as JSON-safe decimal strings."""
    f = Fraction(value)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _exact(numerator: int, denominator: int):
    """numerator / denominator: an int when it is integral, else a Fraction."""
    quotient, remainder = divmod(numerator, denominator)
    return Fraction(numerator, denominator) if remainder else quotient


class RecordVerdict(NamedTuple):
    """Per-record outcome: named boolean verdicts plus the computed
    counts behind them; passed is the conjunction of all verdicts.  A
    computed count is an int when it is integral and a Fraction only
    otherwise."""

    name: str
    verdicts: dict
    computed: dict

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def jsonable(self) -> dict:
        return {
            "name": self.name,
            "verdicts": dict(self.verdicts),
            "computed": {k: rational_json(v) for k, v in self.computed.items()},
            "pass": self.passed,
        }


def _threefold_verdict(r: VarietyRecord, multiplicity: int) -> RecordVerdict:
    """The verdict on one threefold in P^5: can its secant-line
    congruence have order one?  That needs one apparent quadruple
    point, vanishing 4-secant residual, degree inside the focal window,
    and integral counts.  The counts are read off the integer
    numerators of their closed forms.

    Theorem: q, a1, a2 and the residual (and the triple-point count of
    `_surface_verdict`) are integer-valued polynomials in integer
    invariants.  A polynomial of degree k_i in each variable is integral
    on Z^m once it is integral on a box of k_i + 1 consecutive integers
    per variable (expand it in products of binomials), and each count
    is, on d 1..5 (1..4 for the triple points), 0..2 for pi and 0..1 for
    each chi and K^2.  So `integral` holds for every record read from a
    catalog file, whose invariants are integers, and fails only for a
    record built with rational invariants; it stays in the verdicts,
    which the json output prints."""
    if r.dim != 3 or r.n != 5:
        raise ValueError("%s: classify_threefolds needs dim 3, n 5" % r.name)
    d, pi, chi_s = r.d, r.pi, r.chi_section
    q = _exact(_quadruple_points24(d, pi, chi_s, r.chi), 24)
    a1 = _exact(_scroll_degree8(d, pi, chi_s), 8)
    a2 = _exact(_curve_foursecants12(d, pi), 12)
    residual = _exact(_residual24(d, pi, chi_s), 24)
    verdicts = {
        "quadruple_point_one": q == 1,
        "residual_zero": residual == 0,
        "degree_bound": focal_degree_bound(5, d, multiplicity),
        # _exact returns an int exactly when the count is integral.
        "integral": type(q) is type(a1) is type(a2) is int,
    }
    computed = {"q": q, "a1": a1, "a2": a2, "residual": residual}
    return RecordVerdict(r.name, verdicts, computed)


def classify_threefolds(
    records: Sequence[VarietyRecord], multiplicity: int = 1
) -> tuple:
    """Select threefolds in P^5 whose secant-line congruence can have
    order one: one RecordVerdict per record, in record order, by
    `_threefold_verdict`."""
    return tuple(_threefold_verdict(r, multiplicity) for r in records)


def multidegree_of_verdict(v: RecordVerdict) -> tuple:
    """The (1, a1, a2) multidegree of the 4-secant family, meaningful
    for passing threefolds."""
    a1, a2 = v.computed["a1"], v.computed["a2"]
    if a1.denominator != 1 or a2.denominator != 1:
        raise ValueError("%s: non-integral multidegree" % v.name)
    return (1, int(a1), int(a2))


def _surface_verdict(r: VarietyRecord) -> RecordVerdict:
    """The verdict on one surface in P^4: not a scroll, exactly one
    apparent triple point, and degree in the admissible window 4..8."""
    if r.dim != 2 or r.n != 4:
        raise ValueError("%s: classify_surfaces needs dim 2, n 4" % r.name)
    triple = _exact(_triple_points6(r.d, r.pi, r.chi, r.k_squared), 6)
    verdicts = {
        "triple_point_one": triple == 1,
        "degree_window": 4 <= r.d <= 8,
        "not_scroll": not r.scroll,
    }
    return RecordVerdict(r.name, verdicts, {"triple": triple})


def classify_surfaces(records: Sequence[VarietyRecord]) -> tuple:
    """Select non-scroll surfaces in P^4 with exactly one apparent
    triple point and degree in the admissible window 4..8: one
    RecordVerdict per record, in record order, by `_surface_verdict`."""
    return tuple(map(_surface_verdict, records))


# ----- exclusion scan -----


def scan_exclusion(d: int, pi_range: tuple, chi_range: tuple) -> tuple:
    """Survivors (pi, chi_S, chi_X) over the given inclusive ranges with
    vanishing 4-secant residual and q = 1.  The residual is affine in
    chi_S with odd slope 2d - 17, so each pi pins chi_S to one rational
    value; q is affine in chi_X with slope 6, so chi_S pins chi_X.
    Integral solutions are re-verified before the chi-range filter, so
    the work depends on d and the pi range only.  Negative lower pi
    bounds clamp to 0, since sectional genus cannot be negative.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    pi_lo, pi_hi = pi_range
    chi_lo, chi_hi = chi_range
    if pi_lo > pi_hi or chi_lo > chi_hi:
        raise ValueError("empty range")
    survivors = []
    for pi in range(max(pi_lo, 0), pi_hi + 1):
        chi_s = -foursecant_constraint_residual(d, pi, 0) / (2 * d - 17)
        if chi_s.denominator != 1:
            continue
        chi_s = int(chi_s)
        chi_x = (1 - quadruple_points(ThreefoldInvariants(d, pi, chi_s, 0))) / 6
        if chi_x.denominator != 1:
            continue
        solution = (d, pi, chi_s, int(chi_x))
        if foursecant_constraint_residual(d, pi, chi_s) != 0:
            raise ArithmeticError("scan solution %s fails residual = 0" % (solution,))
        if quadruple_points(ThreefoldInvariants(*solution)) != 1:
            raise ArithmeticError("scan solution %s fails q = 1" % (solution,))
        if chi_lo <= chi_s <= chi_hi and chi_lo <= solution[3] <= chi_hi:
            survivors.append(solution[1:])
    return tuple(survivors)
