"""Explicit first-order line congruences in P^n, built and verified exactly.

Two constructions are provided: linear congruences cut out on the
Grassmannian G(1,n) by n-1 skew-symmetric matrices, and determinantal
congruences given by an n x (n-1) matrix of linear forms whose minors
vanish on the focal locus.  Everything runs over the rationals; the
order-one property and the focal length on lines are checked by exact
linear algebra and binary-form gcds, never numerically.
"""

from __future__ import annotations

import math
import random

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .exact import (
    MultiPoly,
    RationalMatrix,
    _bareiss,
    _cleared,
    _kernel,
    _maximal_minors,
    _rational,
    binary_form,
    binary_gcd,
    pfaffian,
    primitive_vector,
    rank_and_kernel,
    seeded_skew_matrix,
)

MAX_REDRAWS = 32


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
    """

    __slots__ = ("p0", "p1", "_plucker")

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
        self._plucker = None

    @property
    def ambient_dim(self) -> int:
        return len(self.p0) - 1

    def contains(self, point: Sequence) -> bool:
        pt = normalize_point(point)
        if len(pt) != len(self.p0):
            return False
        pivot_cols, _ = _bareiss([list(self.p0), list(self.p1), list(pt)])
        return len(pivot_cols) == 2

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
            tuple(sum(c * x for c, x in zip(row[j], pt)) for row in self.rows)
            for j in range(self.n - 1)
        )


# A types.UnionType, not typing.Union: typing caches every Union it
# builds, and that cache would keep the classes of each re-imported
# copy of the package alive.
Congruence = LinearCongruence | DeterminantalCongruence


# ----- line through a point -----


def _left_kernel(c: Congruence, point: Sequence) -> tuple:
    """A primitive integer basis of the left kernel of A(P).

    The rows of A(P)^T, each cleared of denominators (a row scaling,
    which keeps the kernel), go straight to the integer kernel of
    `exact`.  P lies off the focal locus exactly when A(P) has rank
    n-1; the kernel then has dimension 2 for the linear kind (it holds
    P) and 1 for the determinantal kind.  A lower rank raises
    FocalPointError.
    """
    pt = normalize_point(point)
    rows = [_cleared(list(col))[0] for col in c.columns_at(pt)]
    rank, _, _, _, vectors = _kernel(rows)
    if rank != c.n - 1:
        raise FocalPointError(
            "A(P) has rank %d < %d at %s: focal point" % (rank, c.n - 1, pt)
        )
    return tuple(map(primitive_vector, vectors))


def line_through_point_linear(c: LinearCongruence, point: Sequence) -> ProjLine:
    """The unique congruence line through a general point P.

    Solves A(P)^T * v = 0, that is tP * A_i * v = 0 for all i.  P itself
    always solves the system; a second independent solution exists
    because A(P)^T has n-1 rows.
    """
    line = ProjLine(*_left_kernel(c, point))
    pt = normalize_point(point)
    if not line.contains(pt):
        raise RuntimeError("solved line misses the probe point %s" % (pt,))
    for m in c.matrices:
        image = m.mat_vec(line.p1)
        if sum(a * b for a, b in zip(line.p0, image)) != 0:
            raise RuntimeError("solved line is not isotropic for every A_i")
    return line


def line_through_point_determinantal(
    c: DeterminantalCongruence, point: Sequence
) -> ProjLine:
    """The unique congruence line through a general point P.

    Finds the left kernel vector lambda of A(P) (it must be unique up
    to scale), then intersects the n-1 hyperplanes given by the lambda
    combination of the columns of A.
    """
    (lam,) = _left_kernel(c, point)
    forms = [
        tuple(
            sum(lam[i] * c.rows[i][j][k] for i in range(c.n))
            for k in range(c.n + 1)
        )
        for j in range(c.n - 1)
    ]
    system = RationalMatrix(forms)
    rank, kernel = rank_and_kernel(system)
    if rank != c.n - 1:
        raise DegeneracyError(
            "combined forms have rank %d < %d" % (rank, c.n - 1)
        )
    line = ProjLine(kernel[0], kernel[1])
    pt = normalize_point(point)
    if any(v != 0 for v in system.mat_vec(pt)) or not line.contains(pt):
        raise RuntimeError("solved line misses the probe point %s" % (pt,))
    return line


def line_through_point(c: Congruence, point: Sequence) -> ProjLine:
    if isinstance(c, LinearCongruence):
        return line_through_point_linear(c, point)
    return line_through_point_determinantal(c, point)


# ----- focal length on a line -----


@dataclass(slots=True)
class FocalSliceReport:
    """Outcome of slicing the defining matrix along one line.

    minor_degrees lists the degree of each restricted maximal minor in
    a fixed order: n-1 if any of its node values is nonzero, None if
    all vanish (an identically zero minor), so no minor is interpolated
    to learn its degree.  gcd_form is the monic gcd of the nonzero
    minors, a binary form (a homogeneous MultiPoly in the line
    coordinates s, t).  On a line of the congruence the gcd degree
    equals n-1, the focal length.  If every minor vanishes, the line
    lies inside the focal locus and focal_line is set; gcd_form is then
    zero and the gcd degree is None.
    """

    minor_degrees: tuple
    gcd_form: MultiPoly
    gcd_degree: Optional[int]
    focal_line: bool


def _form_from_integer_values(values: Sequence) -> MultiPoly:
    """The integer binary form of degree d = len(values) - 1 that takes
    the value values[u] at (s, t) = (1, u) for u = 0..d.

    Newton interpolation on the unit nodes 0..d, where the k-th divided
    difference is the k-th forward difference divided by k!.  Scaled by
    d!, every Newton coefficient and every Horner step is an integer;
    the form has integer coefficients (its values are those of an
    integer determinant), so the final division by d! is exact.
    """
    d = len(values) - 1
    d_factorial = math.factorial(d)
    diffs = list(values)
    newton = []
    for k in range(d + 1):
        newton.append(diffs[0] * (d_factorial // math.factorial(k)))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    # d! * p(u) = sum_k newton[k] * u(u-1)...(u-k+1), expanded by Horner;
    # coeffs[j] is the coefficient of u^j, that is of s^(d-j) * t^j.
    coeffs = [newton[d]]
    for k in range(d - 1, -1, -1):
        shifted = [0] + coeffs
        for j, cj in enumerate(coeffs):
            shifted[j] -= k * cj
        shifted[0] += newton[k]
        coeffs = shifted
    quotients = [divmod(x, d_factorial) for x in coeffs]
    if any(r for _, r in quotients):
        raise ArithmeticError("interpolated minor has non-integer coefficients")
    return binary_form([q for q, _ in quotients])


def _node_minors(c: Congruence, line: ProjLine) -> list:
    """The integer values of the maximal minors of A restricted to the
    line, at the nodes (s, t) = (1, u), u = 0..n-1: one list per node,
    one entry per minor in the order of `focal_points_on_line`.

    Column j of the restriction is a_j*s + b_j*t with a_j, b_j the
    columns of A(p0) and A(p1).  Each pair (a_j, b_j) is cleared of
    denominators together, which scales every maximal minor by the same
    positive constant.  At node u one elimination of the (n-1) x N
    matrix (a + u*b)^T gives every minor (`exact._maximal_minors`).
    """
    if line.ambient_dim != c.n:
        raise ValueError("line lives in the wrong space")
    size = c.n - 1
    pencil = [
        _cleared(list(a + b))[0]
        for a, b in zip(c.columns_at(line.p0), c.columns_at(line.p1))
    ]
    nrows = len(pencil[0]) // 2
    deleted = [
        tuple(i for i in range(nrows) if i not in kept)
        for kept in combinations(range(nrows), size)
    ]
    return [
        _maximal_minors(
            [[a + u * b for a, b in zip(r[:nrows], r[nrows:])] for r in pencil],
            deleted,
        )
        for u in range(size + 1)
    ]


def focal_points_on_line(c: Congruence, line: ProjLine) -> FocalSliceReport:
    """Focal scheme cut on a line, as the gcd of restricted minors.

    Restricts the defining matrix to s*p0 + t*p1, where it is the pencil
    s*A(p0) + t*A(p1) since A(P) is linear in P, and takes all maximal
    minors (choices of n-1 rows, in ascending lexicographic order of
    the kept row indices).  Each nonzero minor is a binary form of
    degree n-1; their gcd is the divisorial part of the focal scheme.

    Every restricted entry is a linear form a*s + b*t, so every maximal
    minor is zero or a form of degree exactly n-1, and its integer
    values at the n nodes (s, t) = (1, u), u = 0..n-1, determine it
    (`_node_minors`: one Bareiss elimination per node gives every
    minor, by Plucker duality).  The degrees are read off those values:
    n-1 if any value is nonzero, None if all vanish.  Two forms of
    degree n-1 are proportional exactly when their n values are, so the
    nonzero minors fall into classes keyed by the primitive vector of
    their values, and since the gcd ignores nonzero scalings, one exact
    Newton interpolation per class, of a member's own integer values,
    gives all the gcd needs.  On a congruence line every nonzero minor
    is a multiple of the focal form: one class, one interpolation and
    no Euclid step.  Nothing is probabilistic or modular.
    """
    columns = list(zip(*_node_minors(c, line)))
    degrees = tuple(c.n - 1 if any(v) else None for v in columns)
    classes = {}
    for values in columns:
        if any(values):
            classes.setdefault(primitive_vector(values), values)
    if not classes:
        return FocalSliceReport(degrees, MultiPoly.zero(2), None, True)
    g = binary_gcd([_form_from_integer_values(v) for v in classes.values()])
    return FocalSliceReport(degrees, g, g.total_degree(), False)


# ----- Pfaffian of the linear family -----


def _lambda_family(c: LinearCongruence) -> list:
    """The matrix sum(lambda_i * A_i) with entries in lambda_1..lambda_{n-1}."""
    nvars = c.n - 1
    size = c.n + 1
    return [
        [
            sum(
                (
                    MultiPoly.variable(nvars, i) * c.matrices[i].entry(j, k)
                    for i in range(nvars)
                    if c.matrices[i].entry(j, k) != 0
                ),
                MultiPoly.zero(nvars),
            )
            for k in range(size)
        ]
        for j in range(size)
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
    if not pf.is_homogeneous(expected):
        raise DegeneracyError("pfaffian is not homogeneous of degree %d" % expected)
    return pf


def determinant_vanishes_identically(c: LinearCongruence) -> bool:
    """Whether det(sum(lambda_i * A_i)) is the zero polynomial.

    LinearCongruence.__init__ checks that every A_i is skew-symmetric,
    so M = sum(lambda_i * A_i) satisfies M^T = -M.  For even n, M has
    odd size n+1, and det M = det(M^T) = det(-M) = -det M forces
    det M = 0 with no expansion.  For odd n, det M = Pf(M)^2, which is
    zero exactly when the Pfaffian is.
    """
    return c.n % 2 == 0 or not pfaffian(_lambda_family(c))


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
    """Slice the congruence along `trials` probe lines and report the
    gcd degree of the restricted minors for each; probes that land on
    the focal locus are marked and skipped, and a probe whose line hits
    a rank defect is a failed trial carrying the reason, as in
    order_check.  Both draw their probes from `_probes`, so the two
    reports probe the same points.
    """
    expected = c.n - 1
    out = []
    for point, line, reason in _probes(c, trials, seed, bound):
        if line is None:
            out.append(FociTrial(point, reason is None, None, expected, reason))
        else:
            report = focal_points_on_line(c, line)
            out.append(FociTrial(point, False, report.gcd_degree, expected))
    return tuple(out)


# ----- random constructions -----


def _first_generic(n: int, bound: int, kind: str, draw, solve):
    """The first of MAX_REDRAWS candidates draw(attempt) through whose
    fixed probe point `solve` finds a unique line."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    probe = tuple(range(1, n + 2))
    for attempt in range(MAX_REDRAWS):
        candidate = draw(attempt)
        try:
            solve(candidate, probe)
        except (FocalPointError, DegeneracyError):
            continue
        return candidate
    raise GenericityError(
        "no generic %s congruence after %d draws" % (kind, MAX_REDRAWS)
    )


def random_linear_congruence(
    n: int, seed: int, bound: int = 9
) -> LinearCongruence:
    """Draw n-1 random integer skew matrices until they pass a
    genericity probe (unique line through a fixed point)."""

    def draw(attempt):
        seeds = [_derived_seed(seed, attempt, i) for i in range(n - 1)]
        return LinearCongruence(n, [seeded_skew_matrix(s, n + 1, bound) for s in seeds])

    return _first_generic(n, bound, "linear", draw, line_through_point_linear)


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
        n, bound, "determinantal", draw, line_through_point_determinantal
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
            for i in range(m.rows):
                lines.append(" ".join(str(v) for v in m.row(i)))
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
            if "e" in line.lower():
                raise ValueError("exponent")
            return [_parse_entry(tok) for tok in tokens]
        except (ValueError, ZeroDivisionError):
            fail(no, "non-rational entry in %r" % line)

    if kind == "linear":
        matrices = []
        for idx in range(n - 1):
            no, header = next_line("'matrix %d'" % idx)
            if header.split() != ["matrix", str(idx)]:
                fail(no, "expected 'matrix %d', got %r" % (idx, header))
            matrices.append([parse_vector(n + 1) for _ in range(n + 1)])
        result = LinearCongruence(n, matrices)
    else:
        rows = []
        for idx in range(n):
            no, header = next_line("'row %d'" % idx)
            if header.split() != ["row", str(idx)]:
                fail(no, "expected 'row %d', got %r" % (idx, header))
            rows.append([parse_vector(n + 1) for _ in range(n - 1)])
        result = DeterminantalCongruence(n, rows)
    if pos != len(body):
        no, line = body[pos]
        fail(no, "trailing content %r" % line)
    return result
