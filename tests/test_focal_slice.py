"""The focal slice against a cofactor-expansion oracle.

`focal_points_on_line` reads the degrees of the restricted maximal
minors of a solved congruence line off the line solver's record.  The
oracle here rebuilds every minor symbolically with `ring_determinant`
over the restricted binary forms and takes `binary_gcd` of their
coefficients, so each report field can be compared exactly; it must
also agree, focal form included, with the interpolating oracle
`restriction.oracle_report`.  A random line is not a line of the
congruence: the slice refuses it, and the oracle shows that its minors
share no factor, since a general line misses the focal locus, which
has codimension 2.
"""

import random
from itertools import combinations

import pytest

from quadpoint.congruence import (
    DeterminantalCongruence,
    FocalPointError,
    ProjLine,
    focal_points_on_line,
    line_through_point,
    random_determinantal_congruence,
    random_linear_congruence,
)
from quadpoint.exact import MultiPoly, binary_gcd, ring_determinant
from restriction import (
    binary_coeffs,
    fractional_determinantal,
    fractional_linear,
    oracle_report,
    restricted,
)

RANDOM = {
    "linear": random_linear_congruence,
    "determinantal": random_determinantal_congruence,
}


def cofactor_slice(c, line):
    """(minor_degrees, gcd_form, gcd_degree, focal_line) by cofactor expansion."""
    rows = restricted(c, line)
    minors = [
        ring_determinant([rows[r] for r in kept], MultiPoly(2))
        for kept in combinations(range(len(rows)), c.n - 1)
    ]
    degrees = tuple(m.total_degree() for m in minors)
    if not any(minors):
        return degrees, (), None, True
    g = binary_gcd([binary_coeffs(m) for m in minors if m])
    return degrees, g, len(g) - 1, False


def assert_matches_oracle(c, line):
    """The slice's fields equal the cofactor oracle's, and the two
    oracles agree on every field and on the focal form."""
    rep = focal_points_on_line(c, line)
    oracle = cofactor_slice(c, line)
    degrees, _, gcd_degree, focal_line = oracle
    assert rep.minor_degrees == degrees
    assert rep.gcd_degree == gcd_degree
    assert rep.focal_line is focal_line
    assert oracle_report(c, line) == oracle
    return rep


def assert_refused(c, line):
    """The slice refuses a random line, which no solver returned, and
    the oracle's minors on it have a constant gcd."""
    message = "%r is not a line that this congruence's solver returned" % (line,)
    with pytest.raises(ValueError) as excinfo:
        focal_points_on_line(c, line)
    assert str(excinfo.value) == message
    assert cofactor_slice(c, line)[2] == 0


def random_point(rng, n, bound=9):
    while True:
        point = tuple(rng.randint(-bound, bound) for _ in range(n + 1))
        if any(point):
            return point


def random_line(rng, n):
    while True:
        try:
            return ProjLine(random_point(rng, n), random_point(rng, n))
        except ValueError:
            continue


def congruence_line(c, rng):
    """The congruence line through a random non-focal probe point."""
    while True:
        try:
            return line_through_point(c, random_point(rng, c.n))
        except ValueError:
            continue


@pytest.mark.parametrize("kind", sorted(RANDOM))
@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_slice_matches_cofactor_oracle(kind, n):
    seeds = (1, 2) if n == 6 else (1, 2, 3)
    for seed in seeds:
        c = RANDOM[kind](n, seed, 9)
        rng = random.Random(seed * 100 + n)
        rep = assert_matches_oracle(c, congruence_line(c, rng))
        assert rep.gcd_degree == n - 1
        assert_refused(c, random_line(rng, n))


@pytest.mark.parametrize(
    "build", (fractional_linear, fractional_determinantal), ids=("linear", "determinantal")
)
def test_slice_matches_oracle_with_fraction_entries(build):
    for n in (3, 4, 5):
        rng = random.Random(n)
        c = build(n, rng)
        line = congruence_line(c, rng)
        rows = restricted(c, line)
        assert any(x.denominator != 1 for row in rows for f in row for x in f.terms.values())
        rep = assert_matches_oracle(c, line)
        assert rep.gcd_degree == n - 1
        assert_refused(c, random_line(rng, n))


def test_identical_columns_give_a_focal_line():
    # Two equal columns make every maximal minor vanish: both oracles
    # report any line as a focal line, every point is a focal point, so
    # no solver returns a line, and the slice refuses the line.
    for n in (3, 4, 5):
        rng = random.Random(n)
        column = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n)]
        rows = [
            [column[i], column[i]]
            + [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n - 3)]
            for i in range(n)
        ]
        c = DeterminantalCongruence(n, rows)
        line = random_line(rng, n)
        oracle = cofactor_slice(c, line)
        assert oracle == ((None,) * n, (), None, True)
        assert oracle_report(c, line) == oracle
        for point in (line.p0, line.p1):
            with pytest.raises(FocalPointError):
                line_through_point(c, point)
        with pytest.raises(ValueError, match="is not a line that this congruence's solver"):
            focal_points_on_line(c, line)


@pytest.mark.parametrize("kind", sorted(RANDOM))
@pytest.mark.parametrize("n", (8, 9))
def test_slice_beyond_cofactor_reach(kind, n):
    c = RANDOM[kind](n, 1, 9)
    rep = focal_points_on_line(c, congruence_line(c, random.Random(n)))
    assert not rep.focal_line
    assert rep.gcd_degree == n - 1
    assert all(d in (None, n - 1) for d in rep.minor_degrees)
