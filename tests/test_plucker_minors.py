"""The focal slice's node values against one determinant per minor,
and its reports against an oracle.

`exact._maximal_minors` reads every maximal minor at a node off one
integer kernel (Plucker duality); `node_minors` below applies it at all
n nodes of `restriction.pencil`.  The oracle
`restriction.direct_node_minors` evaluates A at the node's point and
takes each minor by its own fraction-free elimination.  The
congruences here have integer data, so the two agree value for value.

`focal_points_on_line` serves the lines of the congruence.  On a
solved line it reads which minors vanish off the solver's record of
the left kernel of A at the probe point, with no elimination; on a line
without that record it eliminates A at the nodes up to the first of
rank n-1 and certifies that the left kernel there is the kernel along
the whole line.  Either way a constant left kernel fixes the degrees
without building the focal form.  A line that fails the certificate is
not a congruence line and is refused with a ValueError naming the
node; a line on which every minor vanishes is reported as a focal line.
`restriction.oracle_report` interpolates every minor and takes the gcd
of all of them, so the three fields of every report must equal the
oracle's.  `WorkRecorder` pins the eliminations of the slice and its
evaluations of A.
"""

import random
from dataclasses import astuple
from itertools import product
from math import comb

import pytest

import quadpoint.exact as exact
from quadpoint.congruence import (
    DegeneracyError,
    DeterminantalCongruence,
    FocalPointError,
    LinearCongruence,
    ProjLine,
    foci_check,
    focal_points_on_line,
    line_through_point,
    random_determinantal_congruence,
    random_linear_congruence,
    twisted_cubic_congruence,
)
from quadpoint.exact import MultiPoly, _maximal_minors, seeded_skew_matrix
from restriction import (
    at_node,
    direct_node_minors,
    fractional_determinantal,
    fractional_linear,
    oracle_report,
    pencil,
    without_form,
)

KINDS = (random_linear_congruence, random_determinantal_congruence)


def probe_line(make, n, seed):
    c = make(n, seed, 9)
    rng = random.Random("plucker %d %d" % (n, seed))
    point = tuple(rng.randint(-9, 9) for _ in range(n + 1))
    return c, line_through_point(c, point)


def node_minors(c, line):
    """The values of every maximal minor at the nodes u = 0..n-1, one
    full elimination of the pencil per node."""
    rows, deleted = pencil(c, line)
    return [_maximal_minors(at_node(rows, u), deleted)[0] for u in range(c.n)]


def refusal(line, node):
    """The message with which the slice refuses a line that fails the
    kernel certificate at the node (1, node)."""
    return (
        "%r is not a line of the congruence: the left kernel of A at node "
        "(1, %d) does not annihilate both A(p0) and A(p1)" % (line, node)
    )


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
@pytest.mark.parametrize("n", range(3, 9))
def test_every_node_value_matches_a_direct_determinant(make, n):
    for seed in (1, 2):
        c, line = probe_line(make, n, seed)
        values = node_minors(c, line)
        assert len(values) == n
        assert values == direct_node_minors(c, line)


def test_rank_deficient_nodes_of_the_twisted_cubic():
    # At u = 0 the node is the curve point (1, 0, 0, 0), where A has
    # rank 1, so every minor vanishes there.
    tc = twisted_cubic_congruence()
    line = ProjLine((1, 0, 0, 0), (0, 0, 0, 1))
    values = node_minors(tc, line)
    assert values[0] == [0, 0, 0]
    assert values == direct_node_minors(tc, line)
    report = focal_points_on_line(tc, line)
    assert report.minor_degrees == (None, 2, None)
    assert astuple(report) == without_form(oracle_report(tc, line))


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
    c, line = vanishing_minors_line(n)
    values = node_minors(c, line)
    assert values == [[0] * comb(n + 1, 2)] * n
    assert values == direct_node_minors(c, line)
    report = focal_points_on_line(c, line)
    assert report.focal_line and report.gcd_degree is None
    assert astuple(report) == without_form(oracle_report(c, line))


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
@pytest.mark.parametrize("n", (9, 10))
def test_slice_report_matches_the_oracle_at_larger_n(make, n):
    c, line = probe_line(make, n, 1)
    report = focal_points_on_line(c, line)
    assert report.gcd_degree == n - 1
    assert astuple(report) == without_form(oracle_report(c, line))


def test_maximal_minors_refuses_other_shapes():
    with pytest.raises(ValueError):
        exact._maximal_minors([[1, 0, 0, 0]], [(1, 2, 3)])


class WorkRecorder:
    """Records every `_bareiss` call, through the one module binding of
    the elimination, as its (rows, columns), and a copy of each matrix
    it was given in `matrices`; and in `points` the point of every call
    of `columns_at`, the evaluation of A, on either kind."""

    def __init__(self, monkeypatch):
        self.shapes = []
        self.matrices = []
        self.points = []
        bareiss = exact._bareiss

        def recorded(work):
            self.shapes.append((len(work), len(work[0])))
            self.matrices.append([list(row) for row in work])
            return bareiss(work)

        monkeypatch.setattr(exact, "_bareiss", recorded)
        for cls in (LinearCongruence, DeterminantalCongruence):
            monkeypatch.setattr(cls, "columns_at", self._evaluation(cls.columns_at))

    def _evaluation(self, columns_at):
        def recorded(c, point):
            self.points.append(tuple(point))
            return columns_at(c, point)

        return recorded

    def run(self, call, *args):
        """(call(*args), the shapes it eliminated)."""
        self.shapes = []
        self.matrices = []
        self.points = []
        return call(*args), self.shapes


def width(c):
    """N, the number of rows of A: the columns of the transposed pencil."""
    return c.n + 1 if isinstance(c, LinearCongruence) else c.n


def nodes_of(line, count):
    """The first `count` nodes p0 + u*p1 of the line."""
    return [tuple(a + u * b for a, b in zip(line.p0, line.p1)) for u in range(count)]


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
def test_one_elimination_per_node(make, monkeypatch):
    # A solved line carries the solver's kernel record, which gives
    # every minor's support: its slice eliminates nothing and evaluates
    # A nowhere.  Its copy without the record is eliminated once per
    # node, however many minors there are (n+1 choose 2 or n), on the
    # integer rows of A(Q)^T at the node Q, up to the first node of
    # rank n-1.
    work = WorkRecorder(monkeypatch)
    for n in range(3, 11):
        c, line = probe_line(make, n, 3)
        report, shapes = work.run(focal_points_on_line, c, line)
        assert (shapes, work.points) == ([], [])
        assert report.gcd_degree == n - 1
        bare_report, shapes = work.run(focal_points_on_line, c, ProjLine(line.p0, line.p1))
        assert bare_report == report
        nodes, matrices = list(work.points), work.matrices
        assert shapes == [(n - 1, width(c))] * len(nodes)
        assert nodes == nodes_of(line, len(nodes))
        assert matrices == [exact._integer_rows(c.columns_at(q))[0] for q in nodes]
    # The Fraction congruences are eliminated on rows cleared of
    # denominators, one row at a time.
    for make_fractions in (fractional_linear, fractional_determinantal):
        c = make_fractions(5, random.Random("fraction rows"))
        line = congruence_line(c, random.Random("fraction line"))
        report, shapes = work.run(focal_points_on_line, c, line)
        assert (shapes, work.points) == ([], [])
        bare_report, shapes = work.run(focal_points_on_line, c, ProjLine(line.p0, line.p1))
        nodes, matrices = list(work.points), work.matrices
        assert matrices == [exact._integer_rows(c.columns_at(q))[0] for q in nodes]
        assert all(type(x) is int for m in matrices for row in m for x in row)
        assert bare_report == report and report.gcd_degree == 4


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
def test_carried_point_off_the_line_is_refused(make, monkeypatch):
    # A line whose point was moved off it is refused before any
    # elimination, with a ValueError that names the point; a point moved
    # along the line changes nothing.
    work = WorkRecorder(monkeypatch)
    for n in range(3, 9):
        c, line = probe_line(make, n, 4)
        report = focal_points_on_line(c, line)
        rng = random.Random("off the line %d" % n)
        off = tuple(rng.randint(-9, 9) for _ in range(n + 1))
        assert exact.rank_and_kernel([line.p0, line.p1, off])[0] == 3
        line.point = off
        with pytest.raises(ValueError) as excinfo:
            work.run(focal_points_on_line, c, line)
        assert work.shapes == []
        assert str(excinfo.value) == "point %s does not lie on %r" % (off, line)
        line.point = tuple(2 * a - 3 * b for a, b in zip(line.p0, line.p1))
        assert focal_points_on_line(c, line) == report
        line.point = off[:-1]
        with pytest.raises(ValueError, match="does not lie on"):
            focal_points_on_line(c, line)


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
    # line equals that of its copy without the record and the oracle's,
    # and the solved line is read with no elimination.
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
        report, shapes = work.run(focal_points_on_line, c, line)
        assert shapes == []
        assert report == focal_points_on_line(c, ProjLine(line.p0, line.p1))
        assert astuple(report) == without_form(oracle_report(c, line))
        vanishing += None in report.minor_degrees
    assert astuple(focal_points_on_line(tc, secant)) == ((None, 2, None), 2, False)
    assert vanishing > len(cases) // 4


def test_point_moved_along_the_line_changes_nothing(monkeypatch):
    # The record, not the carried point, gives the minors: a point moved
    # along the line, onto either spanning point (one of them is the
    # solved vector w), or onto a focal point of the line, leaves the
    # report as it was, and the slice still eliminates nothing.
    tc = twisted_cubic_congruence()
    secant = line_through_point(tc, (1, 0, 0, 1))
    cases = [(tc, secant, [(1, 0, 0, 0), (0, 0, 0, 1)])]
    for make in KINDS:
        for n in range(3, 9):
            c, line = probe_line(make, n, 5)
            cases.append((c, line, [line.p0, line.p1]))
    work = WorkRecorder(monkeypatch)
    for c, line, moves in cases:
        report = focal_points_on_line(c, line)
        for moved in moves + [tuple(2 * a - 3 * b for a, b in zip(line.p0, line.p1))]:
            line.point = moved
            assert work.run(focal_points_on_line, c, line) == (report, [])
    assert astuple(focal_points_on_line(tc, secant)) == ((None, 2, None), 2, False)


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


def test_lines_off_the_congruence_are_refused(monkeypatch):
    # Random lines, and lines through a point of the twisted cubic: the
    # left kernel at the first node of rank n-1, which the oracle's node
    # values locate, fails the certificate, and the slice refuses the
    # line there.
    cases = [
        (make(n, seed, 9), random_line(n, seed))
        for make in KINDS
        for n in range(3, 9)
        for seed in (1, 2)
    ]
    cases += [(twisted_cubic_congruence(), line) for line in cubic_point_lines()]
    for c, line in cases:
        node = next(u for u, values in enumerate(direct_node_minors(c, line)) if any(values))
        with pytest.raises(ValueError) as excinfo:
            focal_points_on_line(c, line)
        assert str(excinfo.value) == refusal(line, node)
    # A line on which every minor vanishes lies in the focal locus: it
    # has no kernel to certify, and every node is eliminated in full.
    work = WorkRecorder(monkeypatch)
    for n in (3, 4, 5):
        c, line = vanishing_minors_line(n)
        report, shapes = work.run(focal_points_on_line, c, line)
        assert shapes == [(n - 1, width(c))] * n
        assert report.focal_line
        assert astuple(report) == without_form(oracle_report(c, line))


def test_twisted_cubic_secants_with_a_focal_first_node(monkeypatch):
    # Both lines start at the curve point (1, 0, 0, 0), where A has rank
    # 1, so node 0 is eliminated in full and gives no kernel to check.
    tc = twisted_cubic_congruence()
    work = WorkRecorder(monkeypatch)
    # Node 1 is (1, 0, 0, 1), off the curve: the certificate holds
    # there.  The oracle's focal form s*t vanishes at both curve points.
    line = ProjLine((1, 0, 0, 0), (0, 0, 0, 1))
    report, shapes = work.run(focal_points_on_line, tc, line)
    assert shapes == [(2, 3), (2, 3)]
    oracle = oracle_report(tc, line)
    assert astuple(report) == without_form(oracle)
    assert oracle[1] == (0, 1, 0)
    # Node 1 is (1, 1, 1, 1), a second curve point: node 2 is the first
    # of rank 2, eliminated in full, and the certificate holds there.
    line = ProjLine((1, 0, 0, 0), (0, 1, 1, 1))
    report, shapes = work.run(focal_points_on_line, tc, line)
    assert shapes == [(2, 3)] * 3
    assert astuple(report) == without_form(oracle_report(tc, line))
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
    # integral data or not, field for field, on a solved line and on its
    # copy without the solver's record.  The solved line is read off its
    # record, with no elimination and no evaluation of A; the copy is
    # eliminated in full up to the first node of rank n-1 and no
    # further.
    rng = random.Random("certified %s %d" % (kind, n))
    c = CONGRUENCES[kind](n, rng)
    work = WorkRecorder(monkeypatch)
    for _ in range(2):
        line = congruence_line(c, rng)
        bare = ProjLine(line.p0, line.p1)
        assert bare.point is None and bare == line
        oracle = oracle_report(c, line)
        # A has rank n-1 at a node exactly where the focal form, the
        # oracle's gcd, does not vanish.
        node = next(u for u in range(n) if sum(x * u**k for k, x in enumerate(oracle[1])))
        report, shapes = work.run(focal_points_on_line, c, line)
        assert (shapes, work.points) == ([], [])
        assert report.gcd_degree == n - 1
        assert astuple(report) == without_form(oracle)
        bare_report, shapes = work.run(focal_points_on_line, c, bare)
        assert shapes == [(n - 1, width(c))] * (node + 1)
        assert bare_report == report
        assert astuple(bare_report) == without_form(oracle)


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
@pytest.mark.parametrize("n", range(3, 9))
def test_class_path_matches_the_oracle(make, n):
    # A congruence line matches the oracle; a random line is refused at
    # its first node.
    for seed in (1, 2):
        c, line = probe_line(make, n, seed)
        report = focal_points_on_line(c, line)
        assert report.gcd_degree == n - 1
        assert astuple(report) == without_form(oracle_report(c, line))
        other = random_line(n, seed)
        with pytest.raises(ValueError) as excinfo:
            focal_points_on_line(c, other)
        assert str(excinfo.value) == refusal(other, 0)


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
def test_foci_check_builds_no_focal_form(make, monkeypatch):
    # `verify foci` prints the gcd degree alone, which the certificate
    # gives: its probes take no square elimination, only those of the
    # line solver, (n-1) x n each.  A trial eliminates A(P)^T once, in
    # the solve, and the determinantal solver its combined forms too;
    # the slice eliminates nothing.
    work = WorkRecorder(monkeypatch)
    per_trial = 1 if make is random_linear_congruence else 2
    for n in range(3, 11):
        c = make(n, 1, 9)
        trials, shapes = work.run(foci_check, c, 3, 1, 9)
        assert [t.gcd_degree for t in trials] == [n - 1] * 3
        assert shapes == [(n - 1, n)] * (3 * per_trial)


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
def test_slice_builds_no_multipoly(make, monkeypatch):
    # The slice works on integer rows: it never builds a polynomial
    # object, on a congruence line or on the way to refusing a random
    # line.
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
        assert str(excinfo.value) == refusal(other, 0)
    assert calls == []
    assert MultiPoly(2, {(1, 0): 1}) and len(calls) == 1
    for n, report in reports:
        assert report.gcd_degree == n - 1
