"""The focal slice's node values against one determinant per minor,
and its reports against an oracle.

`exact._maximal_minors` reads every maximal minor at a node off one
integer kernel (Plucker duality); `node_minors` below applies it at all
n nodes of `congruence._pencil`.  The oracle
`restriction.direct_node_minors` evaluates A at the node's point and
takes each minor by its own fraction-free elimination.  The
congruences here have integer data, so the two agree value for value.

`focal_points_on_line` serves the lines of the congruence.  It
eliminates the first node of rank n-1 in full and certifies that the
left kernel there is the kernel along the whole line, which fixes the
degrees without building the focal form.  A line that fails the
certificate is not a congruence line and is refused with a ValueError
naming the node; a line on which every minor vanishes is reported as a
focal line.  `restriction.oracle_report` interpolates every minor and
takes the gcd of all of them, so the three fields of every report must
equal the oracle's.  `WorkRecorder` pins the eliminations of the slice.
"""

import random
from dataclasses import astuple
from math import comb

import pytest

import quadpoint.exact as exact
from quadpoint.congruence import (
    LinearCongruence,
    ProjLine,
    _at_node,
    _pencil,
    foci_check,
    focal_points_on_line,
    line_through_point,
    random_determinantal_congruence,
    random_linear_congruence,
    twisted_cubic_congruence,
)
from quadpoint.exact import MultiPoly, _maximal_minors, seeded_skew_matrix
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


def node_minors(c, line):
    """The values of every maximal minor at the nodes u = 0..n-1, one
    full elimination of the pencil per node."""
    pencil, deleted = _pencil(c, line)
    return [_maximal_minors(_at_node(pencil, u), deleted)[0] for u in range(c.n)]


def refusal(line, node):
    """The message with which the slice refuses a line that fails the
    kernel certificate at the node (1, node)."""
    return (
        "%r is not a line of the congruence: the left kernel of A at node "
        "(1, %d) does not annihilate A(p1)" % (line, node)
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
    the elimination, as its (rows, columns)."""

    def __init__(self, monkeypatch):
        self.shapes = []
        bareiss = exact._bareiss

        def recorded(work):
            self.shapes.append((len(work), len(work[0])))
            return bareiss(work)

        monkeypatch.setattr(exact, "_bareiss", recorded)

    def run(self, call, *args):
        """(call(*args), the shapes it eliminated)."""
        self.shapes = []
        return call(*args), self.shapes


def width(c):
    """N, the number of rows of A: the columns of the transposed pencil."""
    return c.n + 1 if isinstance(c, LinearCongruence) else c.n


@pytest.mark.parametrize("make", KINDS, ids=("linear", "determinantal"))
def test_one_elimination_per_node(make, monkeypatch):
    # The slice eliminates one node, however many minors there are
    # (n+1 choose 2 or n): on a congruence line node 0 is eliminated in
    # full, (n-1) x N, which gives every minor and the kernel, and the
    # kernel is certified constant.  That fixes the degrees.
    work = WorkRecorder(monkeypatch)
    for n in range(3, 11):
        c, line = probe_line(make, n, 3)
        report, shapes = work.run(focal_points_on_line, c, line)
        assert shapes == [(n - 1, width(c))]
        assert report.gcd_degree == n - 1


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
    # integral data or not, field for field.  The call eliminates in
    # full up to the first node of rank n-1 and no further.
    rng = random.Random("certified %s %d" % (kind, n))
    c = CONGRUENCES[kind](n, rng)
    work = WorkRecorder(monkeypatch)
    for _ in range(2):
        line = congruence_line(c, rng)
        oracle = oracle_report(c, line)
        # A has rank n-1 at a node exactly where the focal form, the
        # oracle's gcd, does not vanish.
        node = next(u for u in range(n) if sum(x * u**k for k, x in enumerate(oracle[1])))
        report, shapes = work.run(focal_points_on_line, c, line)
        assert shapes == [(n - 1, width(c))] * (node + 1)
        assert report.gcd_degree == n - 1
        assert astuple(report) == without_form(oracle)


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
    # gives: its probes take no square elimination, only the
    # eliminations of A(P)^T, of the line solver and of the slice's
    # first node, none of them square.
    work = WorkRecorder(monkeypatch)
    for n in range(3, 11):
        c = make(n, 1, 9)
        trials, shapes = work.run(foci_check, c, 3, 1, 9)
        assert [t.gcd_degree for t in trials] == [n - 1] * 3
        assert shapes and all(rows < cols for rows, cols in shapes)


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
