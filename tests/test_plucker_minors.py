"""The focal slice's reports against an oracle, and its record read
against one determinant per minor.

`focal_points_on_line` serves only the lines that a line solver of the
same congruence returned, and reads which minors vanish off the
solver's record of the left kernel of A at the probe point, with no
elimination.  Any other line, one built from two points or one solved
on another congruence, is refused with a ValueError naming the line.
The oracle `restriction.direct_node_minors` evaluates A at the nodes
p0 + u*p1 and takes every minor by its own fraction-free elimination:
at each node those values are one common multiple of the record's
signed Plucker coordinates, the constant-kernel theorem the slice and
`foci_check` rely on.  `restriction.oracle_report` interpolates every
minor and takes the gcd of all of them, so the three fields of every
report must equal the oracle's.  `WorkRecorder` pins the line solves
and the evaluations of A.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

import quadpoint.congruence as congruence
from quadpoint.congruence import (
    DegeneracyError,
    DeterminantalCongruence,
    FocalPointError,
    LinearCongruence,
    ProjLine,
    foci_check,
    focal_points_on_line,
    line_through_point,
    load_congruence,
    random_determinantal_congruence,
    random_linear_congruence,
    save_congruence,
    twisted_cubic_congruence,
)
from quadpoint.exact import MultiPoly, seeded_skew_matrix
from restriction import (
    direct_node_minors,
    fractional_determinantal,
    fractional_linear,
    oracle_report,
    without_form,
)

KINDS = (random_linear_congruence, random_determinantal_congruence)


def probe_line(make, n, seed):
    c = make(n, seed, 9)
    rng = random.Random("plucker %d %d" % (n, seed))
    point = tuple(rng.randint(-9, 9) for _ in range(n + 1))
    return c, line_through_point(c, point)


def nodes_of(line, count):
    """The first `count` nodes p0 + u*p1 of the line."""
    return [tuple(a + u * b for a, b in zip(line.p0, line.p1)) for u in range(count)]


def refusal(line):
    """The message with which the slice refuses a line that no line
    solver of the congruence returned."""
    return "%r is not a line that this congruence's solver returned" % (line,)


def signed_record(c, line):
    """The record's Plucker coordinate c_D of the left kernel, times
    (-1)^(sum of D), for each minor in the order of `direct_node_minors`:
    D is the set of rows of A that the minor leaves out."""
    rows = c.n + 1 if isinstance(c, LinearCongruence) else c.n
    out = []
    for kept in combinations(range(rows), c.n - 1):
        deleted = [i for i in range(rows) if i not in kept]
        if len(deleted) == 2:
            (_, p, w), (i, j) = line._kernel, deleted
            coordinate = p[i] * w[j] - p[j] * w[i]
        else:
            (_, lam), (i,) = line._kernel, deleted
            coordinate = lam[i]
        out.append(-coordinate if sum(deleted) % 2 else coordinate)
    return out


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
@pytest.mark.parametrize("n", range(3, 9))
def test_every_node_value_matches_a_direct_determinant(make, n):
    # Plucker duality on the solver's record: at every node the direct
    # determinants are one common multiple F(1, u) of the signed
    # coordinates of the record, so a minor vanishes identically exactly
    # where its coordinate is 0, as the slice reads it.
    for seed in (1, 2):
        c, line = probe_line(make, n, seed)
        coordinates = signed_record(c, line)
        k = next(k for k, x in enumerate(coordinates) if x)
        values = direct_node_minors(c, line)
        assert len(values) == n
        factors = [Fraction(node[k], coordinates[k]) for node in values]
        assert any(factors)
        for factor, node in zip(factors, values):
            assert node == [factor * x for x in coordinates]


def test_rank_deficient_nodes_of_the_twisted_cubic():
    # The secant through (1, 0, 0, 1) starts at the curve point
    # (1, 0, 0, 0): at u = 0, where A has rank 1, every minor vanishes.
    tc = twisted_cubic_congruence()
    line = line_through_point(tc, (1, 0, 0, 1))
    assert (line.p0, line.p1) == ((1, 0, 0, 0), (0, 0, 0, 1))
    assert direct_node_minors(tc, line)[0] == [0, 0, 0]
    report = focal_points_on_line(tc, line)
    assert report.minor_degrees == (None, 2, None)
    assert report == without_form(oracle_report(tc, line))


def vanishing_minors_line(n):
    """A linear congruence and a line on which every minor vanishes.

    A_1 = E01 - E10 kills every point of span(e2..en), so column 0 of A
    vanishes along a line there and A has rank below n-1 at every node.
    """
    a1 = [[0] * (n + 1) for _ in range(n + 1)]
    a1[0][1], a1[1][0] = 1, -1
    rest = [seeded_skew_matrix(n * 100 + i, n + 1, 9) for i in range(n - 2)]
    c = LinearCongruence(n, [a1] + rest)
    return c, ProjLine([0, 0, 1] + [0] * (n - 2), [0, 0, 0, 1] + [0] * (n - 3))


@pytest.mark.parametrize("n", (3, 4, 5))
def test_line_where_every_minor_vanishes(n):
    # The line lies in the focal locus: the oracle reports a focal line,
    # every node is a focal point, so no line solver returns the line,
    # and the slice refuses it.
    c, line = vanishing_minors_line(n)
    assert direct_node_minors(c, line) == [[0] * comb(n + 1, 2)] * n
    assert without_form(oracle_report(c, line)) == ((None,) * comb(n + 1, 2), None, True)
    for node in nodes_of(line, n):
        with pytest.raises(FocalPointError):
            line_through_point(c, node)
    with pytest.raises(ValueError) as excinfo:
        focal_points_on_line(c, line)
    assert str(excinfo.value) == refusal(line)


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
@pytest.mark.parametrize("n", (9, 10))
def test_slice_report_matches_the_oracle_at_larger_n(make, n):
    c, line = probe_line(make, n, 1)
    report = focal_points_on_line(c, line)
    assert report.gcd_degree == n - 1
    assert report == without_form(oracle_report(c, line))


class WorkRecorder:
    """Records in `solves` the point of every call of the line solver
    through `congruence.line_through_point`, the binding `_probes`
    calls, and in `points` the point of every call of `columns_at`, the
    evaluation of A, on either kind."""

    def __init__(self, monkeypatch):
        self.solves = []
        self.points = []
        solve = congruence.line_through_point

        def recorded(c, point):
            self.solves.append(tuple(point))
            return solve(c, point)

        monkeypatch.setattr(congruence, "line_through_point", recorded)
        for cls in (LinearCongruence, DeterminantalCongruence):
            monkeypatch.setattr(cls, "columns_at", self._evaluation(cls.columns_at))

    def _evaluation(self, columns_at):
        def recorded(c, point):
            self.points.append(tuple(point))
            return columns_at(c, point)

        return recorded

    def run(self, call, *args):
        """call(*args), with the records cleared before it."""
        self.solves = []
        self.points = []
        return call(*args)


def first_regular_node(c, line):
    """The first node u of the line where A has rank n-1, by the
    oracle's node values; None when there is none."""
    values = direct_node_minors(c, line)
    return next((u for u, node in enumerate(values) if any(node)), None)


def unit_cube_points(n):
    """The points of P^n with coordinates in {-1, 0, 1}, one per pair
    +-p: many of them have zero coordinates, so some minors of the line
    through them vanish."""
    return [p for p in product((-1, 0, 1), repeat=n + 1) if any(p) and p > tuple(-x for x in p)]


def solved_lines(c, points):
    """The line through each non-focal point of `points`."""
    lines = []
    for point in points:
        try:
            lines.append(line_through_point(c, point))
        except (FocalPointError, DegeneracyError):
            continue
    return lines


def test_record_reads_vanishing_minors(monkeypatch):
    # The solver's record gives which minors vanish identically: on the
    # secant of the twisted cubic through (1, 0, 0, 1), and on the lines
    # through the points of {-1, 0, 1}^(n+1), the report of the solved
    # line equals the oracle's, and it is read with no solve.
    tc = twisted_cubic_congruence()
    secant = line_through_point(tc, (1, 0, 0, 1))
    assert secant == ProjLine((1, 0, 0, 0), (0, 0, 0, 1))
    cases = [(tc, secant)]
    for make in KINDS:
        for n in (3, 4):
            c = make(n, 1, 9)
            cases += [(c, line) for line in solved_lines(c, unit_cube_points(n))]
    work = WorkRecorder(monkeypatch)
    vanishing = 0
    for c, line in cases:
        report = work.run(focal_points_on_line, c, line)
        assert (work.solves, work.points) == ([], [])
        assert report == without_form(oracle_report(c, line))
        vanishing += None in report.minor_degrees
    assert focal_points_on_line(tc, secant) == ((None, 2, None), 2, False)
    assert vanishing > len(cases) // 4


def random_line(n, seed):
    """A line through two seeded random points, in general not a line of
    any congruence here."""
    rng = random.Random("random line %d %d" % (n, seed))
    while True:
        try:
            return ProjLine(
                [rng.randint(-9, 9) for _ in range(n + 1)],
                [rng.randint(-9, 9) for _ in range(n + 1)],
            )
        except ValueError:
            continue


def cubic_point_lines(count=12):
    """Lines through (1, 0, 0, 0), a point of the twisted cubic, and a
    seeded random point: A has rank 1 at the first node, so every minor
    vanishes there, and the lines are not secants of the curve."""
    rng = random.Random("twisted cubic point lines")
    lines = []
    while len(lines) < count:
        try:
            lines.append(
                ProjLine((1, 0, 0, 0), [rng.randint(-9, 9) for _ in range(4)])
            )
        except ValueError:
            continue
    return lines


def test_lines_off_the_congruence_are_refused():
    # Random lines, and lines through a point of the twisted cubic, are
    # not lines of the congruence: the congruence line through the first
    # node of rank n-1, which the oracle's node values locate, is another
    # line.  No solver returned them, and the slice refuses them.
    cases = [
        (make(n, seed, 9), random_line(n, seed))
        for make in KINDS
        for n in range(3, 9)
        for seed in (1, 2)
    ]
    cases += [(twisted_cubic_congruence(), line) for line in cubic_point_lines()]
    for c, line in cases:
        node = first_regular_node(c, line)
        assert line_through_point(c, nodes_of(line, node + 1)[node]) != line
        with pytest.raises(ValueError) as excinfo:
            focal_points_on_line(c, line)
        assert str(excinfo.value) == refusal(line)


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
def test_bare_projline_is_refused(make):
    # A ProjLine built from the spanning points of a solved line equals
    # that line but carries no solver's record: the slice refuses it
    # and names it.
    for n in range(3, 9):
        c, line = probe_line(make, n, 1)
        bare = ProjLine(line.p0, line.p1)
        assert bare == line and bare._kernel is None
        with pytest.raises(ValueError) as excinfo:
            focal_points_on_line(c, bare)
        assert str(excinfo.value) == refusal(bare)
        assert focal_points_on_line(c, line).gcd_degree == n - 1


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
def test_record_of_another_congruence_is_refused(make):
    # A record names the congruence whose solver left it.  The seed-1
    # n = 5 line through (1, 2, 3, 4, 5, 6), sliced against the seed-2
    # congruence, is refused; so is a line sliced against an equal copy
    # of its congruence, which is another object.
    c1, c2 = make(5, 1, 9), make(5, 2, 9)
    line = line_through_point(c1, (1, 2, 3, 4, 5, 6))
    copy = load_congruence(save_congruence(c1))
    for other in (c2, copy):
        with pytest.raises(ValueError) as excinfo:
            focal_points_on_line(other, line)
        assert str(excinfo.value) == refusal(line)
    assert focal_points_on_line(c1, line).gcd_degree == 4
    assert focal_points_on_line(copy, line_through_point(copy, (1, 2, 3, 4, 5, 6))) == (
        focal_points_on_line(c1, line)
    )


def zero_row_congruence():
    """A determinantal congruence at n = 4 whose row 0 is all zero forms.

    e_0 spans the left kernel of A(P) wherever A has rank 3, so the
    combined forms of every such point are zero: through a point off
    the focal locus there is no unique congruence line.
    """
    rng = random.Random("zero row")
    rows = [[(0,) * 5] * 3]
    rows += [[[rng.randint(-9, 9) for _ in range(5)] for _ in range(3)] for _ in range(3)]
    return DeterminantalCongruence(4, rows)


def test_degenerate_fibre_is_refused():
    # The oracle finds rank 3 at node 0 of a random line, and there the
    # solver finds no unique line; `verify foci` fails each probe off
    # the focal locus with the solver's reason.
    c = zero_row_congruence()
    reason = "combined forms have rank 0 < 3"
    line = random_line(4, 1)
    assert first_regular_node(c, line) == 0
    with pytest.raises(DegeneracyError, match=reason):
        line_through_point(c, line.p0)
    trials = foci_check(c, 5, 1, 9)
    failed = [t for t in trials if not t.focal_probe]
    assert failed and all(not t.ok and t.reason == reason for t in failed)
    assert all(t.gcd_degree is None for t in trials)


def test_twisted_cubic_secants_with_a_focal_first_node():
    # Both secants start at the curve point (1, 0, 0, 0), where A has
    # rank 1.  The solve at that node finds a focal point; the solve
    # at the first node of rank 2 returns the secant, with the curve
    # point as p0, and its slice equals the oracle's.
    tc = twisted_cubic_congruence()
    with pytest.raises(FocalPointError):
        line_through_point(tc, (1, 0, 0, 0))
    # Node 1 is (1, 0, 0, 1), off the curve.  The oracle's focal form
    # s*t vanishes at both curve points.
    line = line_through_point(tc, (1, 0, 0, 1))
    assert (line.p0, line.p1) == ((1, 0, 0, 0), (0, 0, 0, 1))
    oracle = oracle_report(tc, line)
    assert focal_points_on_line(tc, line) == without_form(oracle)
    assert oracle[1] == (0, 1, 0)
    # Node 1 is (1, 1, 1, 1), a second curve point: node 2, (1, 2, 2, 2),
    # is the first of rank 2.
    assert first_regular_node(tc, ProjLine((1, 0, 0, 0), (0, 1, 1, 1))) == 2
    with pytest.raises(FocalPointError):
        line_through_point(tc, (1, 1, 1, 1))
    line = line_through_point(tc, (1, 2, 2, 2))
    assert (line.p0, line.p1) == ((1, 0, 0, 0), (0, 1, 1, 1))
    report = focal_points_on_line(tc, line)
    assert report == without_form(oracle_report(tc, line))
    assert report.minor_degrees == (2, 2, None) and report.gcd_degree == 2


def congruence_line(c, rng):
    """The congruence line through a seeded random non-focal point."""
    while True:
        try:
            return line_through_point(c, [rng.randint(-9, 9) for _ in range(c.n + 1)])
        except ValueError:
            continue


CONGRUENCES = {
    "linear": lambda n, rng: random_linear_congruence(n, 1, 9),
    "determinantal": lambda n, rng: random_determinantal_congruence(n, 1, 9),
    "linear-fractions": fractional_linear,
    "determinantal-fractions": fractional_determinantal,
}


@pytest.mark.parametrize("kind", sorted(CONGRUENCES))
@pytest.mark.parametrize("n", range(3, 11))
def test_certified_report_equals_the_class_path(kind, n, monkeypatch):
    # The certified report equals the oracle's report from every minor,
    # integral data or not, field for field, on a solved line.  It is
    # read off the solver's record, with no solve and no evaluation of A.
    rng = random.Random("certified %s %d" % (kind, n))
    c = CONGRUENCES[kind](n, rng)
    work = WorkRecorder(monkeypatch)
    for _ in range(2):
        line = congruence_line(c, rng)
        oracle = oracle_report(c, line)
        report = work.run(focal_points_on_line, c, line)
        assert (work.solves, work.points) == ([], [])
        assert report.gcd_degree == n - 1
        assert report == without_form(oracle)


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
@pytest.mark.parametrize("n", range(3, 9))
def test_class_path_matches_the_oracle(make, n):
    # A congruence line matches the oracle; a random line is refused.
    for seed in (1, 2):
        c, line = probe_line(make, n, seed)
        report = focal_points_on_line(c, line)
        assert report.gcd_degree == n - 1
        assert report == without_form(oracle_report(c, line))
        other = random_line(n, seed)
        with pytest.raises(ValueError) as excinfo:
            focal_points_on_line(c, other)
        assert str(excinfo.value) == refusal(other)


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
def test_foci_check_builds_no_focal_form(make, monkeypatch):
    # `verify foci` prints the gcd degree alone, which the
    # constant-kernel theorem gives on a solved line: a trial solves its
    # line once, at its probe point, evaluates A there alone and calls
    # no slice, so it takes no minor.
    def refuse(c, line):
        raise AssertionError("foci_check sliced %r" % (line,))

    monkeypatch.setattr(congruence, "focal_points_on_line", refuse)
    work = WorkRecorder(monkeypatch)
    for n in range(3, 11):
        c = make(n, 1, 9)
        trials = work.run(foci_check, c, 3, 1, 9)
        assert [t.gcd_degree for t in trials] == [n - 1] * 3
        assert work.solves == [t.point for t in trials]
        assert work.points == [congruence.normalize_point(t.point) for t in trials]


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
def test_slice_builds_no_multipoly(make, monkeypatch):
    # The slice never builds a polynomial object, on a congruence line
    # or on the way to refusing a random line.
    calls = []
    inner = MultiPoly.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        inner(self, *args, **kwargs)

    monkeypatch.setattr(MultiPoly, "__init__", counted)
    reports = []
    for n in range(3, 9):
        c, line = probe_line(make, n, 2)
        reports.append((n, focal_points_on_line(c, line)))
        other = random_line(n, 2)
        with pytest.raises(ValueError) as excinfo:
            focal_points_on_line(c, other)
        assert str(excinfo.value) == refusal(other)
    assert calls == []
    assert MultiPoly(2, {(1, 0): 1}) and len(calls) == 1
    for n, report in reports:
        assert report.gcd_degree == n - 1
