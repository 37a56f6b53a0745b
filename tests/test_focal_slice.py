"""The focal slice against a cofactor-expansion oracle.

`focal_points_on_line` evaluates the restricted maximal minors of a
congruence line at n points and interpolates.  The oracle here rebuilds
every minor symbolically with `ring_determinant` over the restricted
binary forms and takes `binary_gcd` of their coefficients, so each
report field can be compared exactly.  A random line is not a line of
the congruence: the slice refuses it, and the oracle shows that its
minors share no factor, since a general line misses the focal locus,
which has codimension 2.
"""

import random
from itertools import combinations

import pytest

from quadpoint.congruence import (
    DeterminantalCongruence,
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
    rep = focal_points_on_line(c, line)
    degrees, gcd_form, gcd_degree, focal_line = cofactor_slice(c, line)
    assert rep.minor_degrees == degrees
    assert rep.gcd_form == gcd_form
    assert rep.gcd_degree == gcd_degree
    assert rep.focal_line is focal_line
    return rep


def assert_refused(c, line):
    """The slice refuses a random line at its first node, where A has
    full rank, and the oracle's minors on it have a constant gcd."""
    message = r"is not a line of the congruence: .* at node \(1, 0\) "
    with pytest.raises(ValueError, match=message):
        focal_points_on_line(c, line)
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
    for n in (3, 4, 5):
        rng = random.Random(n)
        column = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n)]
        rows = [
            [column[i], column[i]]
            + [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n - 3)]
            for i in range(n)
        ]
        c = DeterminantalCongruence(n, rows)
        rep = assert_matches_oracle(c, random_line(rng, n))
        assert rep.focal_line
        assert rep.minor_degrees == (None,) * n
        assert rep.gcd_degree is None
        assert rep.gcd_form == ()


@pytest.mark.parametrize("kind", sorted(RANDOM))
@pytest.mark.parametrize("n", (8, 9))
def test_slice_beyond_cofactor_reach(kind, n):
    c = RANDOM[kind](n, 1, 9)
    rep = focal_points_on_line(c, congruence_line(c, random.Random(n)))
    assert not rep.focal_line
    assert rep.gcd_degree == n - 1
    assert all(d in (None, n - 1) for d in rep.minor_degrees)
