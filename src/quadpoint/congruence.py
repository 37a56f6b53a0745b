"""Explicit first-order line congruences in P^n, built and verified exactly.

Two constructions are provided: linear congruences cut out on the
Grassmannian G(1,n) by n-1 skew-symmetric matrices, and determinantal
congruences given by an n x (n-1) matrix of linear forms whose minors
vanish on the focal locus.  Everything runs over the rationals; the
order-one property and the focal length on lines are checked by exact
linear algebra, never numerically.

A random construction is accepted by a genericity certificate modulo
the fixed prime GENERICITY_PRIME, which is an exact proof: for integer
rows, a rank that is full mod p is full over Q, because a minor that
is nonzero mod p is a nonzero integer; and the primitive left kernel
vector lambda of a determinantal A(P) reduces mod p to a nonzero
multiple of the kernel vector mod p, since p cannot divide all of its
coprime entries.  Only a draw that the certificate leaves undecided
goes through the exact line solve (`_first_generic`).
"""

from __future__ import annotations

import operator
import random

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .exact import (
    MultiPoly,
    RationalMatrix,
    _rational,
    pfaffian,
    primitive_vector,
    rank_and_kernel,
    rank_and_kernel_mod,
    seeded_skew_matrix,
)

MAX_REDRAWS = 32
# The prime of the genericity certificate, the Mersenne prime 2^61 - 1.
GENERICITY_PRIME = (1 << 61) - 1


class FocalPointError(ValueError):
    """The probe point lies on the focal locus: no unique line exists."""


class DegeneracyError(ValueError):
    """A construction step hit a rank defect it cannot recover from."""


class GenericityError(RuntimeError):
    """Random draws kept producing degenerate data."""


def normalize_point(point: Sequence) -> tuple:
    """Canonical integer representative of a point of P^n.

    Clears denominators, divides by content, makes the first nonzero
    coordinate positive.
    """
    pt = tuple(_rational(c) for c in point)
    if len(pt) < 2 or all(c == 0 for c in pt):
        raise ValueError("point must be a nonzero homogeneous tuple")
    return primitive_vector(pt)


class ProjLine:
    """A line of P^n spanned by two independent rational points.

    The parametrization P(s,t) = s*p0 + t*p1 is fixed: restriction
    operations on a given ProjLine always use these two generators in
    this order.  Equality and hashing go through the normalized Plucker
    coordinates, so they do not depend on the chosen spanning points;
    those are computed on the first comparison or hash, since a line of
    a determinantal congruence at n = 12 and bound 10^18 has a Plucker
    vector of about 15k bits that most callers never need.

    _kernel is a line solver's record of what it proved at the probe
    point P it solved the line through: the congruence c and a basis of
    the left kernel of A(P), that is (c, P, w) for the linear kind, P
    normalized and w the solved vector with span(P, w) = ker A(P)^T,
    and (c, lambda) for the determinantal kind; None on a line that no
    solver returned.  The focal slice reads the line's minors off it,
    for c alone.  It takes no part in equality, hashing or repr.
    """

    __slots__ = ("p0", "p1", "_kernel", "_plucker")

    def __init__(self, p0: Sequence, p1: Sequence):
        a = normalize_point(p0)
        b = normalize_point(p1)
        if len(a) != len(b):
            raise ValueError("spanning points live in different spaces")
        # Two vectors in primitive normal form are proportional only
        # when they are equal.
        if a == b:
            raise ValueError("spanning points are proportional")
        self.p0 = a
        self.p1 = b
        self._kernel = None
        self._plucker = None

    def _key(self) -> tuple:
        if self._plucker is None:
            a, b = self.p0, self.p1
            self._plucker = primitive_vector(
                [a[i] * b[j] - a[j] * b[i] for i, j in combinations(range(len(a)), 2)]
            )
        return self._plucker

    def __eq__(self, other):
        if not isinstance(other, ProjLine):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "ProjLine(%r, %r)" % (self.p0, self.p1)


class LinearCongruence:
    """n-1 skew-symmetric (n+1) x (n+1) matrices A_1..A_{n-1}.

    Each matrix cuts a hyperplane section of G(1,n) in the Plucker
    embedding; together they cut a congruence of lines.  The defining
    (n+1) x (n-1) matrix A(P) has column i equal to A_i*P.  The line
    through a general point P is the kernel of A(P)^T, whose rows
    (A_i*P)^T = -tP*A_i vanish at P by skew-symmetry.
    """

    __slots__ = ("n", "matrices")

    def __init__(self, n: int, matrices: Sequence):
        if n < 3:
            raise ValueError("n must be >= 3")
        mats = tuple(
            m if isinstance(m, RationalMatrix) else RationalMatrix(m)
            for m in matrices
        )
        if len(mats) != n - 1:
            raise ValueError("expected %d matrices, got %d" % (n - 1, len(mats)))
        for k, m in enumerate(mats):
            if m.rows != n + 1 or m.cols != n + 1:
                raise ValueError("matrix %d is not (n+1) x (n+1)" % k)
            if not m.is_skew_symmetric():
                raise ValueError("matrix %d is not skew-symmetric" % k)
        self.n = n
        self.matrices = mats

    @property
    def kind(self) -> str:
        return "linear"

    def columns_at(self, point: Sequence) -> tuple:
        """The columns A_i * P of A(P), that is the rows of A(P)^T."""
        pt = normalize_point(point)
        if len(pt) != self.n + 1:
            raise ValueError("point has wrong length")
        return tuple(m.mat_vec(pt) for m in self.matrices)


class DeterminantalCongruence:
    """An n x (n-1) matrix of linear forms on P^n.

    Entry (i, j) is stored as its coefficient tuple of length n+1.  The
    line through a general point P is cut by the n-1 linear forms
    obtained from the unique (up to scale) left kernel vector of the
    evaluated n x (n-1) matrix A(P).
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence):
        if n < 3:
            raise ValueError("n must be >= 3")
        norm = []
        for i, row in enumerate(rows):
            entries = []
            for j, coeffs in enumerate(row):
                ct = tuple(_rational(c) for c in coeffs)
                if len(ct) != n + 1:
                    raise ValueError(
                        "entry (%d,%d) needs %d coefficients" % (i, j, n + 1)
                    )
                entries.append(ct)
            if len(entries) != n - 1:
                raise ValueError("row %d needs %d entries" % (i, n - 1))
            norm.append(tuple(entries))
        if len(norm) != n:
            raise ValueError("expected %d rows, got %d" % (n, len(norm)))
        self.n = n
        self.rows = tuple(norm)

    @property
    def kind(self) -> str:
        return "determinantal"

    def columns_at(self, point: Sequence) -> tuple:
        """The columns of A(P), the linear forms of one column of the
        matrix evaluated at P; that is the rows of A(P)^T."""
        pt = normalize_point(point)
        if len(pt) != self.n + 1:
            raise ValueError("point has wrong length")
        return tuple(
            tuple(sum(map(operator.mul, row[j], pt)) for row in self.rows)
            for j in range(self.n - 1)
        )


# A types.UnionType, not typing.Union: typing caches every Union it
# builds, and that cache would keep the classes of each re-imported
# copy of the package alive.
Congruence = LinearCongruence | DeterminantalCongruence


# ----- line through a point -----


def _require_off_focal(c: Congruence, pt: tuple, rank: int) -> None:
    """The focal test: P lies off the focal locus exactly when A(P) has
    rank n-1; a lower rank raises FocalPointError."""
    if rank != c.n - 1:
        raise FocalPointError(
            "A(P) has rank %d < %d at %s: focal point" % (rank, c.n - 1, pt)
        )


def _solve_through(rows: Sequence, pt: tuple) -> tuple:
    """(rank, w, line) of a line system M, the rows, that the probe
    point pt solves: M has n+1 columns and M * pt = 0.

    Let f be pt's last nonzero coordinate.  M * pt = 0 makes column f a
    combination of the columns before it, so f is never a pivot, and
    `rank_and_kernel` of M without column f gives M's rank.  At full row
    rank the kernel of M is a plane and that elimination has one kernel
    vector; with 0 put back at f it is w, the basis vector of
    `rank_and_kernel(M)` for its other free column g, w's last nonzero
    entry.  u = w[g]*pt - pt[g]*w is zero at g and not at f, so it is
    the basis vector of f.  line spans u and w, p0 the one that is zero
    at max(f, g): rank_and_kernel(M)'s basis in its order, from one
    elimination with a column fewer and one back-substitution, and pt
    lies on it by construction; each solver records its kernel at pt on
    the line once its checks pass.  Below full row rank w and line are
    None.
    """
    f = max(i for i, x in enumerate(pt) if x)
    rank, kernel = rank_and_kernel([r[:f] + r[f + 1 :] for r in rows])
    if rank < len(rows):
        return rank, None, None
    (w,) = kernel
    w = w[:f] + (0,) + w[f:]
    g = max(i for i, x in enumerate(w) if x)
    u = [w[g] * x - pt[g] * y for x, y in zip(pt, w)]
    line = ProjLine(u, w) if g > f else ProjLine(w, u)
    return rank, w, line


def _combined_forms(c: DeterminantalCongruence, lam: Sequence) -> list:
    """The n-1 linear forms lam^T * A(x), one per column of A: form j
    has coefficient k equal to sum_i lam[i] * (coefficient k of entry
    (i, j))."""
    return [
        tuple(sum(map(operator.mul, lam, col)) for col in zip(*(row[j] for row in c.rows)))
        for j in range(c.n - 1)
    ]


def line_through_point_linear(c: LinearCongruence, point: Sequence) -> ProjLine:
    """The unique congruence line through a general point P.

    Solves A(P)^T * v = 0, that is tP * A_i * v = 0 for all i.  P itself
    always solves the system, by skew-symmetry; a second independent
    solution exists because A(P)^T has n-1 rows, and `_solve_through`
    finds it in one elimination through P.  The spanning points are
    `rank_and_kernel`'s primitive basis of the whole system: the
    echelon basis of the line, fixed by the line alone whatever point
    of it is probed, and the parametrization s*p0 + t*p1 of the line.

    The line must be isotropic for every A_i, and the check runs on the
    short side: A(P)^T * w = 0, w the solved vector, products of the
    rows of A(P)^T with w.  A(P)^T * P = 0 by skew-symmetry, which
    `LinearCongruence` checks, and P and w span the line, so this
    holds exactly when A(P)^T annihilates the line; a skew form on a
    plane is fixed by its one value P^T * A_i * w, so that is exactly
    when every A_i vanishes on the line.  The line records (c, P, w):
    at rank n-1, P and w span ker A(P)^T, the left kernel of A(P).
    """
    pt = normalize_point(point)
    columns = c.columns_at(pt)
    rank, w, line = _solve_through(columns, pt)
    _require_off_focal(c, pt, rank)
    if any(sum(map(operator.mul, col, w)) for col in columns):
        raise RuntimeError("solved line is not isotropic for every A_i")
    line._kernel = (c, pt, w)
    return line


def line_through_point_determinantal(
    c: DeterminantalCongruence, point: Sequence
) -> ProjLine:
    """The unique congruence line through a general point P.

    Finds the left kernel vector lambda of A(P) (it must be unique up
    to scale), then intersects the n-1 hyperplanes given by the lambda
    combination of the columns of A, in one elimination through P
    (`_solve_through`).  As for the linear kind, the spanning points
    are `rank_and_kernel`'s primitive basis of the combined forms, the
    echelon basis of the line.  The combined forms must vanish at P
    and at w, the solved vector, which with P spans the line.  The line
    records (c, lambda), lambda the primitive left kernel vector of A(P).
    """
    pt = normalize_point(point)
    rank, kernel = rank_and_kernel(c.columns_at(pt))
    _require_off_focal(c, pt, rank)
    (lam,) = kernel
    forms = _combined_forms(c, lam)
    if any(sum(map(operator.mul, f, pt)) for f in forms):
        raise RuntimeError("solved line misses the probe point %s" % (pt,))
    rank, w, line = _solve_through(forms, pt)
    if rank != c.n - 1:
        raise DegeneracyError(
            "combined forms have rank %d < %d" % (rank, c.n - 1)
        )
    if any(sum(map(operator.mul, f, w)) for f in forms):
        raise RuntimeError("combined forms do not vanish on the solved line")
    line._kernel = (c, lam)
    return line


def line_through_point(c: Congruence, point: Sequence) -> ProjLine:
    if isinstance(c, LinearCongruence):
        return line_through_point_linear(c, point)
    return line_through_point_determinantal(c, point)


# ----- focal length on a line -----


@dataclass(slots=True)
class FocalSliceReport:
    """Outcome of slicing the defining matrix along a congruence line.

    minor_degrees lists the degree of each restricted maximal minor in
    a fixed order: n-1 for a nonzero minor, None for an identically
    zero one.  gcd_degree, the degree of the gcd of the nonzero minors
    as binary forms in the line coordinates (s, t), and focal_line,
    whether every minor vanishes, are fixed by the constant-kernel
    theorem (`foci_check`) on every line the slice serves: n-1, the
    focal length, and False.  They stay because the benchmark reads
    them.
    """

    minor_degrees: tuple
    gcd_degree: int
    focal_line: bool


def focal_points_on_line(c: Congruence, line: ProjLine) -> FocalSliceReport:
    """The focal scheme cut on a line that a solver of c returned, read
    off the solver's kernel record (`ProjLine`).

    Restricted to the line, the defining matrix is the pencil
    s*A(p0) + t*A(p1).  Its maximal minors (choices of n-1 rows, in
    ascending lexicographic order of the kept row indices) are, by the
    constant-kernel theorem, c_D * F for one form F of degree n-1, c_D
    the Plucker coordinate at D, the rows the minor deletes, of the
    recorded left kernel.  So the minor without row i is nonzero
    exactly when lambda[i] != 0, the minor without rows i < j exactly
    when P[i]*w[j] != P[j]*w[i], and the gcd degree is n-1.  The slice
    eliminates nothing and never builds F.  A line without a record, or
    with the record of another congruence, is refused: ValueError names
    the line.
    """
    kernel = line._kernel
    if kernel is None or kernel[0] is not c:
        raise ValueError("%r is not a line that this congruence's solver returned" % (line,))
    # A has n+1 (linear) or n rows, a minor keeps n-1 of them, and the
    # complements of the kept subsets in lexicographic order are the
    # deleted ones in reverse order.
    if isinstance(c, LinearCongruence):
        _, p, w = kernel
        minors = [p[i] * w[j] - p[j] * w[i] for i, j in combinations(range(c.n + 1), 2)]
    else:
        _, minors = kernel
    return FocalSliceReport(tuple(c.n - 1 if m else None for m in reversed(minors)), c.n - 1, False)


# ----- Pfaffian of the linear family -----


def _lambda_family(c: LinearCongruence) -> list:
    """The matrix sum(lambda_i * A_i) with entries in lambda_1..lambda_{n-1}:
    entry (j, k) is the linear form with coefficient A_i[j][k] on lambda_i."""
    nvars = c.n - 1
    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    return [
        [
            MultiPoly(nvars, {e: m.entry(j, k) for e, m in zip(units, c.matrices)})
            for k in range(c.n + 1)
        ]
        for j in range(c.n + 1)
    ]


def pfaffian_polynomial(c: LinearCongruence) -> MultiPoly:
    """Pfaffian of sum(lambda_i * A_i) as a form in lambda_1..lambda_{n-1}.

    Defined for odd n only: the matrices are (n+1) x (n+1), and an odd
    size would force a zero determinant.  The result is homogeneous of
    degree (n+1)/2; its vanishing locus parametrizes the singular
    members of the family.
    """
    if c.n % 2 == 0:
        raise ValueError(
            "n even: determinant of the lambda family vanishes identically"
        )
    pf = pfaffian(_lambda_family(c))
    if not pf:
        raise DegeneracyError("pfaffian vanishes identically")
    expected = (c.n + 1) // 2
    # A nonzero Pfaffian of linear forms is homogeneous of that degree.
    if not pf.is_homogeneous(expected):
        raise RuntimeError("pfaffian is not homogeneous of degree %d" % expected)
    return pf


def determinant_vanishes_identically(c: LinearCongruence) -> bool:
    """Whether det(sum(lambda_i * A_i)) is the zero polynomial, for even n.

    LinearCongruence.__init__ checks that every A_i is skew-symmetric,
    so M = sum(lambda_i * A_i) satisfies M^T = -M.  For even n, M has
    odd size n+1, and det M = det(M^T) = det(-M) = -det M forces
    det M = 0 with no expansion: the answer is True.  For odd n,
    det M = Pf(M)^2, and `pfaffian_polynomial` is the function to call.
    """
    if c.n % 2:
        raise ValueError("n odd: use pfaffian_polynomial, whose square is the determinant")
    return True


# ----- order-one verification -----


@dataclass(slots=True)
class OrderCheckReport:
    """Aggregate outcome of probing the congruence at random points.

    passed is true when at least one probe produced a line and every
    non-focal probe produced exactly one; focal probes are skipped and
    counted, never failed.
    """

    trials: int
    successes: int
    focal_skips: int
    failures: tuple
    unique_lines: int

    @property
    def passed(self) -> bool:
        return not self.failures and 0 < self.successes == self.trials - self.focal_skips


def _derived_seed(seed: int, stage: int, index: int) -> int:
    # Deterministic mix so redraw attempts are reproducible and
    # order-independent.
    return seed * 1000003 + stage * 1009 + index


def _random_point(rng: random.Random, n: int, bound: int) -> tuple:
    while True:
        coords = [rng.randint(-bound, bound) for _ in range(n + 1)]
        if any(coords):
            return tuple(coords)


def _probes(c: Congruence, trials: int, seed: int, bound: int) -> list:
    """(point, line, reason) for each trial's probe point.  line is None
    at a focal point (reason None) and at a rank defect (reason is the
    error text).

    Trial t draws from Random("probe <seed> <t>"), a string seed that no
    construction uses, so a probe never repeats the draws of a
    congruence built from the same seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    out = []
    for trial in range(trials):
        rng = random.Random("probe %d %d" % (seed, trial))
        point = _random_point(rng, c.n, bound)
        try:
            out.append((point, line_through_point(c, point), None))
        except FocalPointError:
            out.append((point, None, None))
        except DegeneracyError as err:
            out.append((point, None, str(err)))
    return out


def order_check(
    c: Congruence, trials: int = 10, seed: int = 0, bound: int = 9
) -> OrderCheckReport:
    """Probe the congruence at `trials` random points of P^n.

    Every non-focal point must yield exactly one line through it; focal
    probes are recorded as skips.  Per-trial seeds are derived from
    (seed, trial), so the report does not depend on evaluation order.
    """
    probes = _probes(c, trials, seed, bound)
    lines = [line for _, line, _ in probes if line is not None]
    failures = tuple("point %s: %s" % (p, r) for p, _, r in probes if r is not None)
    focal_skips = trials - len(lines) - len(failures)
    return OrderCheckReport(trials, len(lines), focal_skips, failures, len(set(lines)))


@dataclass(slots=True)
class FociTrial:
    """One probe of the focal-length property: the line through a
    random point must carry a focal scheme of length exactly n-1.

    reason is set when no line could be solved at a non-focal probe
    (a rank defect); such a trial fails and has no gcd degree.
    """

    point: tuple
    focal_probe: bool
    gcd_degree: Optional[int]
    expected: int
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.focal_probe or self.gcd_degree == self.expected


def foci_check(
    c: Congruence, trials: int = 10, seed: int = 0, bound: int = 9
) -> tuple:
    """The gcd degree of the restricted maximal minors on the line
    through each of `trials` probe points; probes that land on the
    focal locus are marked and skipped, and a probe whose line hits a
    rank defect is a failed trial carrying the reason, as in
    order_check.  Both draw their probes from `_probes`, so the two
    reports probe the same points, and a trial keeps its probe point.

    A trial whose line solves has gcd degree n-1, the focal length, by
    a theorem whose premise the solve proved; nothing is sliced.

    Theorem (constant kernel): if A has rank n-1 somewhere on a line
    and its left kernel is one fixed space K wherever it has rank n-1,
    the maximal minors of A restricted to the line, the Plucker
    coordinates of the annihilator of K, are fixed multiples of one
    form F of degree n-1: the minor without rows D is c_D * F, c_D the
    Plucker coordinate of K at D, and F is nonzero.  Their gcd is F up
    to scale and has degree n-1, and a minor vanishes identically
    exactly when its c_D is 0.

    The solver proved the premise: rank n-1 at the probe point P, and a
    constant left kernel on span(P, w) = span(p0, p1), w the solved
    vector.  For the linear kind K = span(P, w), and A(P)^T * w = 0
    makes the line isotropic for every A_i, so it lies in the left
    kernel of A at each of its points; for the determinantal kind
    K = lambda, and the combined forms lambda^T * A(x) vanish at P and
    at w, so on the whole line.
    """
    expected = c.n - 1
    out = []
    for point, line, reason in _probes(c, trials, seed, bound):
        solved = line is not None
        focal = not solved and reason is None
        out.append(FociTrial(point, focal, expected if solved else None, expected, reason))
    return tuple(out)


# ----- random constructions -----


def _generic_mod_p(c: Congruence, pt: tuple) -> bool:
    """Whether Gauss-Jordan mod p = GENERICITY_PRIME proves that the
    line solver of c succeeds at pt; False means only that it does not
    prove it.  The rows of c must be integers, as every draw's are.

    - Both kinds: A(P)^T has rank n-1 mod p.  A maximal minor that is
      nonzero mod p is a nonzero integer, so A(P)^T has rank n-1 over
      Q: P is off the focal locus.
    - Determinantal kind: besides, with lambda_p the one kernel vector
      of A(P)^T mod p, the combined forms lambda_p^T * A(x) have rank
      n-1 mod p.  The primitive integer kernel vector lambda over Q
      reduces mod p to a kernel vector that is not zero, since p does
      not divide all of its coprime entries, so to c * lambda_p with
      c != 0 mod p.  The combined forms of lambda then reduce to c
      times those of lambda_p and have rank n-1 over Q too.

    That is exactly what the solver checks before it returns a line:
    its other checks are self-checks of the program that never fail.
    """
    p = GENERICITY_PRIME
    rank, kernel = rank_and_kernel_mod(c.columns_at(pt), p)
    if rank != c.n - 1:
        return False
    if isinstance(c, LinearCongruence):
        return True
    (lam,) = kernel
    return rank_and_kernel_mod(_combined_forms(c, lam), p)[0] == c.n - 1


def _first_generic(n: int, seed: int, bound: int, kind: str, draw, solve):
    """The first of MAX_REDRAWS candidates draw(attempt) through whose
    fixed probe point `solve` finds a unique line.

    A candidate is accepted as soon as `_generic_mod_p` proves it
    generic.  Theorem: for a fixed prime p and integer rows, full rank
    mod p implies full rank over Q, and, for the determinantal kind,
    the primitive lambda reduces mod p to a nonzero multiple of the
    kernel vector mod p, so the combined forms keep their rank too.
    The certificate proves only one side: when it is inconclusive, the
    exact `solve` decides, and the accepted draw is the one the exact
    solve alone would accept, for every seed and bound.  Neither path
    is probabilistic.  A rejected draw is counted by the solver's
    reason, and GenericityError reports the counts.

    A negative seed is refused: `random.Random` seeds an int by its
    absolute value, so the draws of seed -s would repeat those of s.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    probe = tuple(range(1, n + 2))
    rejected = {"focal probe": 0, "degenerate forms": 0}
    for attempt in range(MAX_REDRAWS):
        candidate = draw(attempt)
        if _generic_mod_p(candidate, probe):
            return candidate
        try:
            solve(candidate, probe)
        except FocalPointError:
            rejected["focal probe"] += 1
            continue
        except DegeneracyError:
            rejected["degenerate forms"] += 1
            continue
        return candidate
    counts = ", ".join("%s %d" % item for item in rejected.items() if item[1])
    raise GenericityError(
        "no generic %s congruence after %d draws (%s)" % (kind, MAX_REDRAWS, counts)
    )


def random_linear_congruence(
    n: int, seed: int, bound: int = 9
) -> LinearCongruence:
    """Draw n-1 random integer skew matrices until they pass a
    genericity probe (unique line through a fixed point)."""

    def draw(attempt):
        seeds = [_derived_seed(seed, attempt, i) for i in range(n - 1)]
        return LinearCongruence(n, [seeded_skew_matrix(s, n + 1, bound) for s in seeds])

    return _first_generic(n, seed, bound, "linear", draw, line_through_point_linear)


def random_determinantal_congruence(
    n: int, seed: int, bound: int = 9
) -> DeterminantalCongruence:
    """Draw a random n x (n-1) tensor of integer linear forms until it
    passes a genericity probe (unique lambda and a genuine line)."""

    def draw(attempt):
        rng = random.Random(_derived_seed(seed, attempt, 0))
        rows = [
            [
                [rng.randint(-bound, bound) for _ in range(n + 1)]
                for _ in range(n - 1)
            ]
            for _ in range(n)
        ]
        return DeterminantalCongruence(n, rows)

    return _first_generic(
        n, seed, bound, "determinantal", draw, line_through_point_determinantal
    )


def twisted_cubic_congruence() -> DeterminantalCongruence:
    """The catalecticant 3 x 2 matrix ((x0,x1),(x1,x2),(x2,x3)) on P^3.

    Its 2x2 minors cut the twisted cubic; the congruence consists of
    the secant lines of the curve.
    """
    x = [tuple(1 if k == i else 0 for k in range(4)) for i in range(4)]
    rows = [(x[0], x[1]), (x[1], x[2]), (x[2], x[3])]
    return DeterminantalCongruence(3, rows)


# ----- plain-text serialization -----


def save_congruence(c: Congruence) -> str:
    """Plain-text form: kind, n, then matrix entries row by row."""
    lines = ["kind %s" % c.kind, "n %d" % c.n]
    if isinstance(c, LinearCongruence):
        for idx, m in enumerate(c.matrices):
            lines.append("matrix %d" % idx)
            for row in m:
                lines.append(" ".join(str(v) for v in row))
    else:
        for idx, row in enumerate(c.rows):
            lines.append("row %d" % idx)
            for coeffs in row:
                lines.append(" ".join(str(v) for v in coeffs))
    return "\n".join(lines) + "\n"


def _parse_entry(tok: str):
    """One entry of a congruence file, read as Fraction(tok) reads it.

    A plain ASCII integer, which is every entry that save_congruence
    writes for integral data, goes to `int`, several times cheaper than
    Fraction; every other token goes to Fraction, so the same tokens are
    accepted and refused.
    """
    digits = tok[1:] if tok[0] in "+-" else tok
    if digits.isascii() and digits.isdigit():
        return int(tok)
    return Fraction(tok)


def load_congruence(text: str) -> Congruence:
    """Parse the save_congruence format; diagnostics carry line numbers."""
    lines = text.splitlines()
    raw = [
        (no, line.strip())
        for no, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    # A short file is reported at its last line; an empty one has line 1.
    last = max(len(lines), 1)

    def fail(no, msg):
        raise ValueError("line %d: %s" % (no, msg))

    if len(raw) < 2:
        fail(last, "truncated congruence file")
    no, first = raw[0]
    parts = first.split()
    if len(parts) != 2 or parts[0] != "kind":
        fail(no, "expected 'kind linear|determinantal'")
    kind = parts[1]
    if kind not in ("linear", "determinantal"):
        fail(no, "unknown kind %r" % kind)
    no, second = raw[1]
    parts = second.split()
    digits = parts[-1].removeprefix("-")
    if len(parts) != 2 or parts[0] != "n" or not digits.isdecimal():
        fail(no, "expected 'n <integer>'")
    n = int(parts[1])
    if n < 3:
        fail(no, "n must be >= 3")

    body = raw[2:]
    pos = 0

    def next_line(expect: str):
        nonlocal pos
        if pos >= len(body):
            fail(last, "unexpected end of file: expected %s" % expect)
        item = body[pos]
        pos += 1
        return item

    def parse_vector(expect_len: int):
        no, line = next_line("%d entries" % expect_len)
        tokens = line.split()
        if len(tokens) != expect_len:
            fail(no, "expected %d entries, got %d" % (expect_len, len(tokens)))
        try:
            # Fraction expands an exponent such as 1e999999999 in full
            # before any size check could run, so exponents are refused.
            # An underscore, which Fraction reads as a digit separator
            # from Python 3.11 on, is refused on every version.
            if "e" in line.lower() or "_" in line:
                raise ValueError("exponent or underscore")
            return [_parse_entry(tok) for tok in tokens]
        except (ValueError, ZeroDivisionError):
            fail(no, "non-rational entry in %r" % line)

    # Linear: n-1 skew matrices of n+1 rows; determinantal: n rows of
    # n-1 linear forms; every line holds n+1 entries.
    cls, word, blocks, size = {
        "linear": (LinearCongruence, "matrix", n - 1, n + 1),
        "determinantal": (DeterminantalCongruence, "row", n, n - 1),
    }[kind]
    data = []
    for idx in range(blocks):
        no, header = next_line("'%s %d'" % (word, idx))
        if header.split() != [word, str(idx)]:
            fail(no, "expected '%s %d', got %r" % (word, idx, header))
        data.append([parse_vector(n + 1) for _ in range(size)])
    result = cls(n, data)
    if pos != len(body):
        no, line = body[pos]
        fail(no, "trailing content %r" % line)
    return result
