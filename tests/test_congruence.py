import hashlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import quadpoint.congruence as congruence
from quadpoint.cli import main
from quadpoint.congruence import (
    MAX_REDRAWS,
    DegeneracyError,
    DeterminantalCongruence,
    FocalPointError,
    GenericityError,
    LinearCongruence,
    ProjLine,
    determinant_vanishes_identically,
    foci_check,
    focal_points_on_line,
    line_through_point,
    line_through_point_determinantal,
    line_through_point_linear,
    load_congruence,
    normalize_point,
    order_check,
    pfaffian_polynomial,
    random_determinantal_congruence,
    random_linear_congruence,
    save_congruence,
    twisted_cubic_congruence,
)
from quadpoint.exact import (
    MultiPoly,
    RationalMatrix,
    _bareiss,
    _uniform_draws,
    rank_and_kernel,
    ring_determinant,
    seeded_skew_matrix,
)
from restriction import (
    apply,
    fractional_determinantal,
    fractional_linear,
    normalized,
    oracle_report,
    restricted,
    scaled,
    variable,
    without_form,
)


# Focal test oracle: it ranks A(P) itself, where the library ranks A(P)^T.
def is_focal_point(c, point):
    return rank_and_kernel(RationalMatrix(zip(*c.columns_at(point))))[0] < c.n - 1


# Membership oracle: the point lies on the line when it adds no rank to
# the two spanning points; a point of another dimension is not on it.
def contains(line, point):
    pt = normalize_point(point)
    if len(pt) != len(line.p0):
        return False
    pivot_cols, _ = _bareiss([list(line.p0), list(line.p1), list(pt)])
    return len(pivot_cols) == 2


def test_normalize_point():
    assert normalize_point(("1/2", "-3/4", 0)) == (2, -3, 0)
    assert normalize_point((0, -2, 4)) == (0, 1, -2)
    with pytest.raises(ValueError):
        normalize_point((0, 0, 0))


def test_carried_point_takes_no_part_in_equality():
    # A solved line carries the solver's kernel record, which names the
    # congruence, the linear one with the normalized probe point;
    # equality, hash and repr do not see it, and a line built from two
    # points has none.
    point = (6, -2, 8, 2, -10, 18)
    for make in (random_linear_congruence, random_determinantal_congruence):
        c = make(5, 1, 9)
        line = line_through_point(c, point)
        assert line._kernel[0] is c
        if make is random_linear_congruence:
            assert line._kernel[1] == normalize_point(point) == (3, -1, 4, 1, -5, 9)
        bare = ProjLine(line.p0, line.p1)
        assert bare._kernel is None
        assert (bare, hash(bare), repr(bare)) == (line, hash(line), repr(line))
        assert len({line, bare}) == 1


def test_solve_record_is_a_basis_of_the_left_kernel():
    # The record a solver leaves on its line is the congruence and a
    # basis of the left kernel of A(P): (c, P, w) for the linear kind,
    # P and w spanning the line, and (c, lambda) for the determinantal
    # kind.
    rng = random.Random("solve record")
    for make in (random_linear_congruence, random_determinantal_congruence):
        for n in (3, 5, 8):
            c = make(n, 1, 9)
            for _ in range(5):
                point = [rng.randint(-9, 9) for _ in range(n + 1)]
                if is_focal_point(c, point):
                    continue
                line = line_through_point(c, point)
                assert line._kernel[0] is c
                kernel = line._kernel[1:]
                rows = RationalMatrix(c.columns_at(point))
                assert rank_and_kernel(rows)[0] == n - 1
                assert len(kernel) == rows.cols - (n - 1)
                assert rank_and_kernel(RationalMatrix(kernel))[0] == len(kernel)
                assert all(not any(apply(rows, v)) for v in kernel)
                if len(kernel) == 2:
                    assert kernel[0] == normalize_point(point)
                    assert all(contains(line, v) for v in kernel)


def test_projline_equality_is_projective():
    a = ProjLine((1, 0, 0, 1), (0, 0, 0, 1))
    b = ProjLine((2, 0, 0, 5), (0, 0, 0, -3))
    assert a == b
    assert hash(a) == hash(b)
    assert ProjLine(a.p1, a.p0) == a
    assert contains(a, (3, 0, 0, 7))
    assert not contains(a, (0, 1, 0, 0))
    assert normalize_point([x - y for x, y in zip(a.p0, a.p1)]) == (1, 0, 0, 0)
    # Any two distinct points of a line span it; the Plucker key that
    # equality and hashing use is the same for every such pair.
    rng = random.Random(5)
    for n in (3, 5, 8):
        p, q = ([rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(2))
        line = ProjLine(p, q)
        for _ in range(5):
            s0, t0, s1, t1 = (rng.randint(-20, 20) for _ in range(4))
            if s0 * t1 == t0 * s1:
                continue
            other = ProjLine(
                [s0 * x + t0 * y for x, y in zip(p, q)],
                [Fraction(s1 * x + t1 * y, 7) for x, y in zip(p, q)],
            )
            assert other == line and hash(other) == hash(line)
            assert len({line, other}) == 1
        assert ProjLine(p, q) != ProjLine(p + [0], q + [0])
    assert ProjLine((1, 0, 0, 0), (0, 1, 0, 0)) != ProjLine((1, 0, 0, 0), (0, 0, 1, 0))


def test_projline_validation():
    with pytest.raises(ValueError, match="proportional"):
        ProjLine((1, 2, 3, 4), (2, 4, 6, 8))
    with pytest.raises(ValueError, match="proportional"):
        ProjLine((Fraction(1, 2), 1, 0), (-1, -2, 0))
    with pytest.raises(ValueError, match="proportional"):
        ProjLine((0, 3, 0), (0, "-1/5", 0))
    with pytest.raises(ValueError):
        ProjLine((0, 0, 0, 0), (1, 0, 0, 0))
    with pytest.raises(ValueError):
        ProjLine((1, 0, 0), (0, 1, 0, 0))
    # a point of another dimension is not on the line
    line = ProjLine((1, 0, 0, 0), (0, 1, 0, 0))
    assert contains(line, (1, 1, 0, 0))
    assert not contains(line, (1, 0, 0))
    assert not contains(line, (1, 0, 0, 0, 0))


# ----- twisted cubic fixtures -----


def test_twisted_cubic_line_and_lambda():
    tc = twisted_cubic_congruence()
    line = line_through_point_determinantal(tc, (1, 0, 0, 1))
    assert line == ProjLine((1, 0, 0, 0), (0, 0, 0, 1))
    # lambda solves the transposed system by hand: rows evaluate to
    # (1,0), (0,0), (0,1), so only the middle row drops out.
    _, left = rank_and_kernel(RationalMatrix(tc.columns_at((1, 0, 0, 1))))
    assert left == ((0, 1, 0),)


def test_twisted_cubic_focal_slice():
    tc = twisted_cubic_congruence()
    line = line_through_point_determinantal(tc, (1, 0, 0, 1))
    assert (line.p0, line.p1) == ((1, 0, 0, 0), (0, 0, 0, 1))
    rep = focal_points_on_line(tc, line)
    assert rep.minor_degrees == (None, 2, None)
    assert rep.gcd_degree == 2
    assert not rep.focal_line
    oracle = oracle_report(tc, line)
    assert rep == without_form(oracle)
    assert oracle[1] == (0, 1, 0)
    # s*t vanishes at (s, t) = (1, 0) and (0, 1): the points p0 and p1.
    assert is_focal_point(tc, line.p0)
    assert is_focal_point(tc, line.p1)


def test_twisted_cubic_focal_points():
    tc = twisted_cubic_congruence()
    assert is_focal_point(tc, (1, 0, 0, 0))
    assert is_focal_point(tc, (1, 2, 4, 8))
    assert is_focal_point(tc, (1, 1, 1, 1))
    assert not is_focal_point(tc, (1, 0, 0, 1))
    with pytest.raises(FocalPointError):
        line_through_point_determinantal(tc, (1, 0, 0, 0))


def test_secant_line_gcd_roots_are_curve_points():
    tc = twisted_cubic_congruence()
    line = line_through_point_determinantal(tc, (2, 1, 1, 1))
    assert line == ProjLine((1, 0, 0, 0), (1, 1, 1, 1))
    rep = focal_points_on_line(tc, line)
    assert (line.p0, line.p1) == ((1, 0, 0, 0), (0, 1, 1, 1))
    assert rep.gcd_degree == 2
    oracle = oracle_report(tc, line)
    assert rep == without_form(oracle)
    # s*t - t^2 vanishes at (s, t) = (1, 0) and (1, 1): p0 and p0 + p1.
    assert oracle[1] == (0, 1, -1)
    assert is_focal_point(tc, line.p0)
    assert is_focal_point(tc, [x + y for x, y in zip(line.p0, line.p1)])


def test_line_outside_congruence_has_trivial_gcd():
    # A general line misses the twisted cubic: the oracle's minors on it
    # share no factor.  It is not a secant, and no solver returned it,
    # so the slice refuses it.
    tc = twisted_cubic_congruence()
    line = ProjLine((1, 2, 0, 1), (0, 1, 1, 3))
    _, _, gcd_degree, focal_line = oracle_report(tc, line)
    assert gcd_degree == 0
    assert not focal_line
    assert line_through_point_determinantal(tc, line.p0) != line
    message = r"^ProjLine\(.*\) is not a line that this congruence's solver returned$"
    with pytest.raises(ValueError, match=message):
        focal_points_on_line(tc, line)


# ----- random constructions -----


def test_linear_construction_shapes():
    c = random_linear_congruence(5, 42, 9)
    assert len(c.matrices) == 4
    assert all(m.rows == m.cols == 6 for m in c.matrices)
    assert all(m.is_skew_symmetric() for m in c.matrices)
    assert len(random_linear_congruence(4, 7, 9).matrices) == 3
    assert len(random_linear_congruence(3, 1, 9).matrices) == 2
    with pytest.raises(ValueError):
        random_linear_congruence(2, 1, 9)


def test_determinantal_construction_shapes():
    c = random_determinantal_congruence(4, 3, 9)
    assert len(c.rows) == 4
    assert all(len(r) == 3 for r in c.rows)
    assert all(len(coeffs) == 5 for r in c.rows for coeffs in r)


# SHA-256 of the files that construct writes for n = 3..12 and seeds
# 0..3, concatenated in that order, per kind and bound, taken when each
# entry was drawn by random.Random.randint and checked one by one.
CONSTRUCTION_SWEEP = {
    ("linear", 1): "e1f46483f2664a0be710e9afeaac66d570df87ce7d7de8b409cf1f2d41a92aaa",
    ("linear", 9): "700edd90e7f18e60034eea4fb7d996d8f536b9bf2d3514497a7aa40e2943095f",
    ("linear", 10**6): "1aebcbd7b9bed14397973ffe7ef0ffafa50a031be56e059746a92746ea7fe94c",
    ("linear", 10**18): "b8f4142b88989354188b584605d7b87418ee6288e62cd42e782d75f39563f078",
    ("determinantal", 1): "b84f6ec34e905b15e97bbf2ab6ef492ff21935c65dc31dae75d867d1ae4d4fdf",
    ("determinantal", 9): "1735f81ffe988d047d43718753103bbb166cf32ee9c07c2271223b61e7b293af",
    ("determinantal", 10**6): "21e3232d13ab00ec9ec819d881fb308a9df6a4837098bf9156e6f667012102a8",
    ("determinantal", 10**18): "262fc878875d7576181dd6e4cd38050cfb17af19b5d0703ddbd00ff65d57c138",
}


@pytest.mark.parametrize("kind, bound", sorted(CONSTRUCTION_SWEEP))
def test_construction_sweep_is_unchanged(kind, bound):
    make = random_linear_congruence if kind == "linear" else random_determinantal_congruence
    digest = hashlib.sha256()
    for n in range(3, 13):
        for seed in range(4):
            text = save_congruence(make(n, seed, bound))
            digest.update(text.encode("utf-8"))
            assert save_congruence(load_congruence(text)) == text
    assert digest.hexdigest() == CONSTRUCTION_SWEEP[kind, bound]


@pytest.mark.parametrize("bound", (1, 2, 9, 2**31 - 1, 2**31, 10**6, 10**18, 2**64))
def test_uniform_draws_are_randint_draws(bound):
    # The draws replay randint's rejection loop, so the generator must
    # give the same values and end in the same state on every Python.
    for seed in range(3):
        fast, slow = random.Random(seed), random.Random(seed)
        assert _uniform_draws(fast, bound, 500) == [slow.randint(-bound, bound) for _ in range(500)]
        assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize(
    "make", (random_linear_congruence, random_determinantal_congruence)
)
def test_negative_seed_refused(make):
    # random.Random seeds an int by its absolute value, so seed -1 would
    # draw from the stream of seed 1: the derived seeds of the first
    # draw are -1000003 and 1000003.
    assert random.Random(-1000003).random() == random.Random(1000003).random()
    for seed in (-1, -2, -(10**30)):
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            make(4, seed, 9)
    assert save_congruence(make(4, 0, 9)) != save_congruence(make(4, 1, 9))


@pytest.mark.parametrize("kind", ["linear", "determinantal"])
def test_redraws_exhausted(kind, monkeypatch, capsys):
    calls = []

    def always_focal(c, point):
        calls.append(point)
        raise FocalPointError("forced")

    # The certificate mod p is left inconclusive, so every draw goes
    # through the exact solve, which is forced to reject it.
    monkeypatch.setattr(congruence, "_generic_mod_p", lambda c, point: False)
    monkeypatch.setattr(congruence, "line_through_point_linear", always_focal)
    monkeypatch.setattr(congruence, "line_through_point_determinantal", always_focal)
    make = getattr(congruence, "random_%s_congruence" % kind)
    message = "no generic %s congruence after 32 draws (focal probe 32)" % kind
    with pytest.raises(GenericityError) as excinfo:
        make(4, 1)
    assert str(excinfo.value) == message
    assert len(calls) == MAX_REDRAWS == 32
    code = main(["construct", "--kind", kind, "--n", "4", "--seed", "1"])
    assert (code,) + tuple(capsys.readouterr()) == (1, "", "error: %s\n" % message)


def test_redraws_exhausted_counts_each_reason(monkeypatch):
    calls = []

    def alternating(c, point):
        calls.append(point)
        raise (FocalPointError if len(calls) % 2 else DegeneracyError)("forced")

    monkeypatch.setattr(congruence, "_generic_mod_p", lambda c, point: False)
    monkeypatch.setattr(congruence, "line_through_point_determinantal", alternating)
    with pytest.raises(GenericityError) as excinfo:
        random_determinantal_congruence(4, 1)
    assert str(excinfo.value) == (
        "no generic determinantal congruence after 32 draws (focal probe 16, degenerate forms 16)"
    )


def exact_only_first_generic(n, seed, bound, draw):
    """The redraw loop with no certificate, the reference: the exact
    solve decides every draw."""
    probe = tuple(range(1, n + 2))
    for attempt in range(MAX_REDRAWS):
        candidate = draw(attempt)
        try:
            line_through_point(candidate, probe)
        except (FocalPointError, DegeneracyError):
            continue
        return candidate
    raise GenericityError(candidate.kind)


def test_certificate_accepts_the_draw_the_exact_solve_accepts(monkeypatch):
    # Modulo 3 the certificate is often inconclusive, so the exact
    # fallback runs often; wherever the certificate passes it must be a
    # proof, and the accepted draw, or the exhausted redraws, must be
    # those of the exact solve alone.
    solved = []

    def counted(solve):
        def wrapper(c, point):
            try:
                line = solve(c, point)
            except (FocalPointError, DegeneracyError):
                solved.append(False)
                raise
            solved.append(True)
            return line

        return wrapper

    def outcome(make, n, seed, bound):
        try:
            return save_congruence(make(n, seed, bound))
        except GenericityError:
            return None

    makers = (random_linear_congruence, random_determinantal_congruence)
    cases = [
        (make, n, seed, bound)
        for make in makers
        for n in range(3, 8)
        for bound in (1, 9, 10**6)
        for seed in range(40)
    ]
    with monkeypatch.context() as m:
        m.setattr(congruence, "_first_generic", exact_only_first_generic)
        expected = [outcome(*case) for case in cases]
    monkeypatch.setattr(congruence, "GENERICITY_PRIME", 3)
    for name in ("line_through_point_linear", "line_through_point_determinantal"):
        monkeypatch.setattr(congruence, name, counted(getattr(congruence, name)))
    assert [outcome(*case) for case in cases] == expected
    # The fallback ran, and it both accepted and rejected draws.
    assert True in solved and False in solved


def test_certificate_decides_generic_draws_without_a_solve(monkeypatch):
    # At the module's prime, a generic draw never reaches the exact
    # solve, whose line is the heavy part of construction at large n.
    def unreachable(c, point):
        raise AssertionError("exact solve ran")

    monkeypatch.setattr(congruence, "line_through_point_linear", unreachable)
    monkeypatch.setattr(congruence, "line_through_point_determinantal", unreachable)
    assert congruence.GENERICITY_PRIME == 2**61 - 1
    for make in (random_linear_congruence, random_determinantal_congruence):
        for n in (3, 5, 8, 12, 20):
            for bound in (9, 10**18):
                make(n, 1, bound)


def test_congruence_validation():
    zero4 = [[0] * 4 for _ in range(4)]
    with pytest.raises(ValueError):
        LinearCongruence(3, [zero4])
    not_skew = RationalMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(ValueError):
        LinearCongruence(3, [not_skew, not_skew])
    with pytest.raises(ValueError):
        DeterminantalCongruence(3, [((1, 0, 0, 0),)] * 3)


def test_linear_line_membership_residuals():
    # t(p0) * A_i * p1 = 0 for every section: direct arithmetic oracle.
    for n in (3, 4, 5):
        c = random_linear_congruence(n, 42, 9)
        line = line_through_point_linear(c, tuple(range(2, n + 3)))
        for m in c.matrices:
            residual = sum(
                line.p0[j] * m.entry(j, k) * line.p1[k]
                for j in range(n + 1)
                for k in range(n + 1)
            )
            assert residual == 0
        assert contains(line, tuple(range(2, n + 3)))


def test_rational_scaling_keeps_lines_and_slices():
    # Scaling each A_i (linear) or each row of linear forms
    # (determinantal) by a positive rational scales rows of A(P) and of
    # the combined forms, so the kernels, the line and the focal slice
    # (minors up to a positive factor, normalised gcd) are unchanged:
    # each line is solved, and sliced, on its own congruence.
    rng = random.Random(8)
    for n in (3, 4, 5, 6):
        factors = [Fraction(rng.randrange(1, p), p) for p in rng.choices((2, 3, 5, 97), k=n)]
        lin = random_linear_congruence(n, n, 9)
        scaled_lin = LinearCongruence(
            n,
            [
                [[x * r for x in m.row(i)] for i in range(m.rows)]
                for m, r in zip(lin.matrices, factors)
            ],
        )
        det = random_determinantal_congruence(n, n, 9)
        scaled_det = DeterminantalCongruence(
            n, [[[x * r for x in coeffs] for coeffs in row] for row, r in zip(det.rows, factors)]
        )
        for c, scaled in ((lin, scaled_lin), (det, scaled_det)):
            for _ in range(3):
                point = [rng.randint(-9, 9) for _ in range(n + 1)]
                line = line_through_point(c, point)
                other = line_through_point(scaled, point)
                assert (other.p0, other.p1) == (line.p0, line.p1)
                assert other == line
                report = focal_points_on_line(scaled, other)
                assert report == focal_points_on_line(c, line)
                assert report.gcd_degree == n - 1


def test_two_points_determine_the_line():
    c = random_linear_congruence(5, 42, 9)
    line = line_through_point_linear(c, (1, 1, 2, 3, 5, 8))
    other = [3 * x - 2 * y for x, y in zip(line.p0, line.p1)]
    assert line_through_point_linear(c, other) == line
    d = random_determinantal_congruence(4, 3, 9)
    dline = line_through_point_determinantal(d, (1, 1, 2, 3, 5))
    other = [x + 4 * y for x, y in zip(dline.p0, dline.p1)]
    assert line_through_point_determinantal(d, other) == dline


def solved_by_whole_system(c, point):
    """(error, expected) of the two-vector solve that the line solvers
    replaced: rank_and_kernel of the whole line system, A(P)^T for the
    linear kind and the lambda-combined forms for the determinantal
    kind.  error is None and expected the primitive basis (p0, p1) when
    a line exists, else the exception class and its text."""
    pt = normalize_point(point)
    rank, kernel = rank_and_kernel(c.columns_at(pt))
    if rank < c.n - 1:
        return FocalPointError, "A(P) has rank %d < %d at %s: focal point" % (rank, c.n - 1, pt)
    if isinstance(c, DeterminantalCongruence):
        (lam,) = kernel
        forms = [
            [sum(lam[i] * c.rows[i][j][k] for i in range(c.n)) for k in range(c.n + 1)]
            for j in range(c.n - 1)
        ]
        rank, kernel = rank_and_kernel(forms)
        if rank < c.n - 1:
            return DegeneracyError, "combined forms have rank %d < %d" % (rank, c.n - 1)
    return None, kernel


@pytest.mark.parametrize("kind", ("linear", "determinantal"))
def test_line_is_the_basis_of_the_whole_system(kind):
    # One elimination through P must give the basis of rank_and_kernel
    # on the whole system, in its order, and the same error texts.  A
    # third of the random probes end in zeros, so that P's last nonzero
    # coordinate is not its last; the sweep of n = 3 points with entries
    # in {-1, 0, 1} and a last 0 hits focal and degenerate probes.
    make = getattr(congruence, "random_%s_congruence" % kind)
    cases = []
    for n in range(3, 10):
        for bound in (1, 2, 9, 10**6):
            rng = random.Random("%s %d %d" % (kind, n, bound))
            points = []
            for k in range(6):
                point = [rng.randint(-bound, bound) for _ in range(n + 1)]
                if k % 3 == 1:
                    zeros = rng.randint(1, n)
                    point[-zeros:] = [0] * zeros
                points.append(point)
            cases.append((make(n, n, bound), points))
    sweep = [p + (0,) for p in itertools.product((-1, 0, 1), repeat=3)]
    cases += [(make(3, seed, 1), sweep) for seed in (1, 2, 3)]
    if kind == "determinantal":
        cases.append((twisted_cubic_congruence(), sweep))
    outcomes = set()
    for c, points in cases:
        for point in points:
            if not any(point):
                continue
            error, expected = solved_by_whole_system(c, point)
            outcomes.add(error)
            if error is None:
                line = line_through_point(c, point)
                assert (line.p0, line.p1) == expected
                assert contains(line, point)
                continue
            with pytest.raises(error) as excinfo:
                line_through_point(c, point)
            assert str(excinfo.value) == expected
    assert outcomes == (
        {None, FocalPointError}
        if kind == "linear"
        else {None, FocalPointError, DegeneracyError}
    )


@pytest.mark.parametrize(
    "wrong_call, message",
    (
        (1, "solved line misses the probe point"),
        (2, "combined forms do not vanish on the solved line"),
    ),
)
def test_determinantal_self_checks(monkeypatch, wrong_call, message):
    # A wrong lambda (the first rank_and_kernel call) gives forms that
    # miss P; a wrong solution w of the forms (the second) misses them.
    calls = []

    def off_kernel(rows):
        calls.append(rows)
        rank, kernel = rank_and_kernel(rows)
        if len(calls) != wrong_call:
            return rank, kernel
        first = kernel[0]
        return rank, ((first[0] + 1,) + first[1:],) + kernel[1:]

    c = random_determinantal_congruence(4, 3, 9)
    monkeypatch.setattr(congruence, "rank_and_kernel", off_kernel)
    with pytest.raises(RuntimeError, match=message):
        line_through_point_determinantal(c, (1, 1, 2, 3, 5))


def test_lambda_combination_vanishes_on_line():
    # The lambda combination of the rows restricts to the zero form on
    # the returned line, column by column.
    for n in (3, 4, 5):
        c = random_determinantal_congruence(n, 3, 9)
        point = tuple(range(2, n + 3))
        line = line_through_point_determinantal(c, point)
        _, left = rank_and_kernel(RationalMatrix(c.columns_at(point)))
        lam = left[0]
        rows = restricted(c, line)
        for j in range(n - 1):
            combo = MultiPoly(2)
            for i in range(n):
                combo = combo + scaled(rows[i][j], lam[i])
            assert combo == MultiPoly(2)


def test_focal_gcd_degree_on_congruence_lines():
    for seed in (1, 2):
        for n in (3, 4, 5):
            for c in (
                random_linear_congruence(n, seed, 9),
                random_determinantal_congruence(n, seed, 9),
            ):
                for probe_seed in range(3):
                    rep = order_check(c, trials=1, seed=probe_seed)
                    assert rep.passed
                line = line_through_point(c, tuple(range(2, n + 3)))
                rep = focal_points_on_line(c, line)
                assert rep.gcd_degree == n - 1
                assert all(d in (None, n - 1) for d in rep.minor_degrees)


def test_gcd_invariant_under_reparametrization():
    # Swapping the spanning points swaps s and t: the oracle's gcd
    # degree stays n-1, the slice's, and its focal form comes out
    # reversed.
    for n in (3, 4, 5):
        c = random_linear_congruence(n, 5, 9)
        line = line_through_point_linear(c, tuple(range(2, n + 3)))
        swapped_line = ProjLine(line.p1, line.p0)
        assert focal_points_on_line(c, line).gcd_degree == n - 1
        _, form, degree, _ = oracle_report(c, line)
        _, swapped, swapped_degree, _ = oracle_report(c, swapped_line)
        assert degree == swapped_degree == n - 1
        assert swapped == normalized(form[::-1])


def test_random_points_rarely_focal():
    for seed in range(20):
        c = random_linear_congruence(4, seed, 9)
        assert not is_focal_point(c, (1, seed + 2, 3, 5, 7))


def focal_linear_congruence(n, seed):
    """A_1 = E01 - E10 has rank 2, so every point of span(e2..en) is focal."""
    a1 = [[0] * (n + 1) for _ in range(n + 1)]
    a1[0][1], a1[1][0] = 1, -1
    rest = [seeded_skew_matrix(seed * 100 + i, n + 1, 9) for i in range(n - 2)]
    return LinearCongruence(n, [a1] + rest)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_linear_focal_point(n):
    c = focal_linear_congruence(n, n)
    e2 = tuple(int(k == 2) for k in range(n + 1))
    assert is_focal_point(c, e2)
    with pytest.raises(FocalPointError):
        line_through_point(c, e2)
    cols = c.columns_at(e2)
    assert [len(col) for col in cols] == [n + 1] * (n - 1)
    assert all(x == 0 for x in cols[0])
    # Column i of A(P) is A_i * P for the linear kind, and entry (i, j)
    # evaluated at P for the determinantal kind, entry by entry; with
    # integer or Fraction data, at a point that normalizes to another
    # representative.
    rng = random.Random(n)
    point = tuple(range(3, n + 4))
    scaled_point = [Fraction(-x, 6) for x in point]
    for c in (
        c,
        random_determinantal_congruence(n, 1, 9),
        fractional_linear(n, rng),
        fractional_determinantal(n, rng),
    ):
        if isinstance(c, LinearCongruence):
            expected = [
                [sum(m.entry(k, j) * point[j] for j in range(n + 1)) for k in range(n + 1)]
                for m in c.matrices
            ]
        else:
            expected = [
                [sum(c.rows[i][j][k] * point[k] for k in range(n + 1)) for i in range(n)]
                for j in range(n - 1)
            ]
        for at in (point, scaled_point):
            assert c.columns_at(at) == tuple(map(tuple, expected))
        with pytest.raises(ValueError, match="^point has wrong length$"):
            c.columns_at(point + (1,))


def test_focal_test_agrees_with_line_solver():
    # Half the probes are drawn from the focal locus: ker A_1 for the
    # linear congruences, the curve itself for the twisted cubic.
    rng = random.Random(5)
    cases = [focal_linear_congruence(n, n) for n in (3, 4, 5)]
    cases.append(twisted_cubic_congruence())
    for c in cases:
        outcomes = set()
        for k in range(24):
            if isinstance(c, DeterminantalCongruence) and k % 2:
                t = rng.randint(-5, 5)
                point = (1, t, t * t, t ** 3)
            else:
                point = tuple(
                    0 if k % 2 and i < 2 else rng.randint(-9, 9) for i in range(c.n + 1)
                )
                if not any(point):
                    continue
            try:
                line_through_point(c, point)
                raised = False
            except FocalPointError:
                raised = True
            assert is_focal_point(c, point) is raised
            outcomes.add(raised)
        assert outcomes == {False, True}


def test_pfaffian_polynomial_degrees():
    for seed in (1, 2, 3, 4, 5):
        for n in (3, 5, 7):
            pf = pfaffian_polynomial(random_linear_congruence(n, seed, 9))
            assert pf.is_homogeneous((n + 1) // 2)
        even = random_linear_congruence(4, seed, 9)
        with pytest.raises(ValueError):
            pfaffian_polynomial(even)
        assert determinant_vanishes_identically(even)


def test_order_check_reports():
    lc = random_linear_congruence(5, 42, 9)
    rep = order_check(lc, trials=25, seed=11)
    assert rep.passed
    assert rep.successes == 25
    assert rep.unique_lines == 25
    dc = random_determinantal_congruence(4, 3, 9)
    rep = order_check(dc, trials=25, seed=5)
    assert rep.passed
    assert rep.successes == 25 and rep.focal_skips == 0
    with pytest.raises(ValueError):
        order_check(lc, trials=0, seed=1)


def test_order_check_skips_focal_probes():
    # seed 30 with bound 2 sends the first probe, (0, 0, 0, -2), onto the curve.
    tc = twisted_cubic_congruence()
    rep = order_check(tc, trials=3, seed=30, bound=2)
    assert rep.focal_skips == 1
    assert rep.successes == 2
    assert rep.passed


def test_probes_do_not_repeat_construction_draws():
    # With equal seeds, a probe drawn from the construction's own stream
    # would be the first coefficients the construction drew: entry (0, 0)
    # for the determinantal kind, row 0 of A_1 then A_1[1][2] for the
    # linear kind.
    for seed in (1, 2, 3, 4, 5):
        for n in (3, 4, 5):
            d = random_determinantal_congruence(n, seed, 9)
            (trial,) = foci_check(d, trials=1, seed=seed, bound=9)
            assert trial.point != d.rows[0][0]
            c = random_linear_congruence(n, seed, 9)
            (trial,) = foci_check(c, trials=1, seed=seed, bound=9)
            a1 = c.matrices[0]
            drawn = tuple(a1.entry(0, k) for k in range(1, n + 1)) + (a1.entry(1, 2),)
            assert trial.point != drawn


def test_serialization_roundtrip():
    lc = random_linear_congruence(5, 42, 9)
    text = save_congruence(lc)
    loaded = load_congruence(text)
    assert isinstance(loaded, LinearCongruence)
    assert loaded.n == 5
    assert loaded.matrices == lc.matrices
    assert save_congruence(loaded) == text

    dc = random_determinantal_congruence(4, 3, 9)
    text = save_congruence(dc)
    loaded = load_congruence(text)
    assert isinstance(loaded, DeterminantalCongruence)
    assert loaded.rows == dc.rows
    assert save_congruence(loaded) == text


def test_twisted_cubic_serialization_format():
    text = save_congruence(twisted_cubic_congruence())
    assert text == (
        "kind determinantal\n"
        "n 3\n"
        "row 0\n"
        "1 0 0 0\n"
        "0 1 0 0\n"
        "row 1\n"
        "0 1 0 0\n"
        "0 0 1 0\n"
        "row 2\n"
        "0 0 1 0\n"
        "0 0 0 1\n"
    )


def test_load_diagnostics():
    with pytest.raises(ValueError, match="line 1"):
        load_congruence("kine linear\nn 3\n")
    with pytest.raises(ValueError, match="kind"):
        load_congruence("kind cubic\nn 3\n")
    with pytest.raises(ValueError, match="line 2"):
        load_congruence("kind linear\nn x\n")
    good = save_congruence(twisted_cubic_congruence())
    with pytest.raises(ValueError, match="line 4"):
        load_congruence(good.replace("1 0 0 0", "1 0 0", 1))
    # Fraction reads 1_000 from Python 3.11 on; the file format never does.
    for entry in ("1/0", "1E5", "1_000"):
        with pytest.raises(ValueError, match="line 4: non-rational entry"):
            load_congruence(good.replace("1 0 0 0", "%s 0 0 0" % entry, 1))
    with pytest.raises(ValueError, match="trailing"):
        load_congruence(good + "extra stuff\n")
    with pytest.raises(ValueError, match="unexpected end"):
        load_congruence("kind determinantal\nn 3\nrow 0\n1 0 0 0\n")
    with pytest.raises(ValueError):
        load_congruence("")


def test_reimport_releases_the_old_package():
    # typing caches every typing.Union it builds, so a Union alias of the
    # congruence classes would keep each re-imported copy of the package
    # alive; the benchmark re-imports it several times in one process.
    script = textwrap.dedent(
        """
        import gc, importlib, sys, weakref

        def load():
            for name in [m for m in sys.modules if m.split(".")[0] == "quadpoint"]:
                del sys.modules[name]
            for m in ("exact", "schubert", "formulas", "congruence", "catalog", "cli"):
                importlib.import_module("quadpoint." + m)
            return sys.modules["quadpoint.congruence"].LinearCongruence

        old = weakref.ref(load())
        load()
        gc.collect()
        print(old() is None)
        """
    )
    src = str(Path(congruence.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        encoding="utf-8",
        check=True,
    )
    assert run.stdout.strip() == "True"


def test_comments_and_blank_lines_ignored():
    text = save_congruence(twisted_cubic_congruence())
    decorated = "# secant lines of the twisted cubic\n\n" + text.replace(
        "row 1", "# middle row\nrow 1"
    )
    loaded = load_congruence(decorated)
    assert loaded.rows == twisted_cubic_congruence().rows


def lambda_family_rows(c):
    """The matrix sum(lambda_i * A_i) with polynomial entries in the lambdas."""
    nvars, size = c.n - 1, c.n + 1
    return [
        [
            sum(
                (scaled(variable(nvars, i), c.matrices[i].entry(j, k)) for i in range(nvars)),
                MultiPoly(nvars),
            )
            for k in range(size)
        ]
        for j in range(size)
    ]


def test_lambda_family_matches_arithmetic_oracle():
    # The library writes each entry as one linear form; the oracle sums
    # lambda_i * A_i[j][k] with polynomial arithmetic.  Fraction-scaled
    # matrices as in test_rational_scaling_keeps_lines_and_slices.
    rng = random.Random(8)
    for n in range(3, 8):
        c = random_linear_congruence(n, n, 9)
        factors = [Fraction(rng.randrange(1, p), p) for p in rng.choices((2, 3, 5, 97), k=n - 1)]
        scaled = LinearCongruence(
            n,
            [
                [[x * r for x in m.row(i)] for i in range(m.rows)]
                for m, r in zip(c.matrices, factors)
            ],
        )
        for cong in (c, scaled):
            assert congruence._lambda_family(cong) == lambda_family_rows(cong)


def test_lambda_family_determinant_oracle():
    # The odd-order skew theorem that determinant_vanishes_identically
    # relies on, checked against a full symbolic expansion.
    for seed in (1, 2, 3):
        even = random_linear_congruence(4, seed, 9)
        det = ring_determinant(lambda_family_rows(even), MultiPoly(3))
        assert det == MultiPoly(3)
        assert determinant_vanishes_identically(even)
        odd = random_linear_congruence(3, seed, 9)
        det = ring_determinant(lambda_family_rows(odd), MultiPoly(2))
        pf = pfaffian_polynomial(odd)
        assert det == pf * pf
        with pytest.raises(ValueError, match="n odd: use pfaffian_polynomial"):
            determinant_vanishes_identically(odd)
