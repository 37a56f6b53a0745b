"""Exact arithmetic substrate: rational matrices, fraction-free elimination,
sparse multivariate polynomials, Pfaffians, and binary-form gcd.

`rank_and_kernel` and `determinant` take any iterable of rows of exact
rationals, `int` or Fraction entries (a `RationalMatrix` iterates its
rows); `_integer_rows` coerces and checks them once and clears each
row of denominators.  One elimination loop, the in-place Bareiss
`_bareiss`, serves both: `determinant` is the permutation sign times
the last pivot (0 below full rank); `_kernel` adds integer
back-substitution for the kernels, and `_maximal_minors` reads every
maximal minor of a matrix with one or two more columns than rows off
that kernel.

`MultiPoly`, a sparse multivariate polynomial, is the type of the
Pfaffian.  A binary form in (s, t) is its coefficient sequence, entry k
that of s^(d-k) * t^k, and `binary_gcd` takes and returns such
sequences.

Integral data and all elimination stay in Python `int`: matrix entries,
polynomial coefficients and points that are integers are stored as
`int`, and `fractions.Fraction` appears only for input that is not
integral.  Every division is exact (checked, or a `Fraction`); no
operation introduces floating point.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence


def _rational(x):
    """An exact rational value: an `int` when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        x = Fraction(x)
    elif not isinstance(x, Fraction):
        raise TypeError("expected an exact rational value, got %r" % (x,))
    return x.numerator if x.denominator == 1 else x


def _cleared(values: list) -> tuple:
    """(integer list, multiplier): exact rationals times the lcm of their
    denominators; an all-integer list comes back as it is, multiplier 1."""
    mult = math.lcm(*(x.denominator for x in values))
    if mult == 1:
        return values, 1
    return [x.numerator * (mult // x.denominator) for x in values], mult


def primitive_vector(vec: Sequence) -> tuple:
    """Scale a nonzero rational vector to coprime integers, first nonzero positive.

    Canonical representative for projective points and kernel vectors.
    """
    ints, _ = _cleared([_rational(x) for x in vec])
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def _rational_rows(rows: Iterable[Iterable]) -> tuple:
    """The rows as a tuple of equally long, nonempty tuples of exact
    rationals (see `_rational`)."""
    data = tuple(tuple(map(_rational, row)) for row in rows)
    if not data or not data[0]:
        raise ValueError("matrix must have at least one row and one column")
    if any(len(row) != len(data[0]) for row in data):
        raise ValueError("ragged rows")
    return data


class RationalMatrix:
    """Immutable matrix of exact rationals, stored row-major; integral
    entries are stored as `int`, the others as Fraction."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows_data: Iterable[Iterable]):
        self._rows = _rational_rows(rows_data)
        self.rows = len(self._rows)
        self.cols = len(self._rows[0])

    def __iter__(self):
        return iter(self._rows)

    def entry(self, i: int, j: int):
        return self._rows[i][j]

    def row(self, i: int) -> tuple:
        return self._rows[i]

    def mat_vec(self, v: Sequence) -> tuple:
        vf = [_rational(x) for x in v]
        if len(vf) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(map(operator.mul, r, vf)) for r in self._rows)

    def is_skew_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self._rows[i][j] == -self._rows[j][i]
            for i in range(self.rows)
            for j in range(i, self.cols)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return "RationalMatrix[%s]" % body


def _integer_rows(rows: Iterable[Iterable]) -> tuple:
    """The rows (see `_rational_rows`) as lists cleared of denominators,
    with the product of the row multipliers.

    Row scaling changes neither rank nor kernel, and it multiplies the
    determinant by the returned product.
    """
    out = []
    scale = 1
    for row in _rational_rows(rows):
        ints, mult = _cleared(list(row))
        scale *= mult
        out.append(ints)
    return out, scale


def _bareiss(work: list) -> tuple:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Returns the pivot columns and the sign of the row permutation.
    Every intermediate entry is an exact minor of the input, so the
    interior division is exact; columns without a pivot are skipped.
    On return row i (i < rank) holds its pivot at pivot_cols[i], rows
    from rank on are zero, and for a square nonsingular input the last
    entry is the determinant up to the returned sign.
    """
    nrows, ncols = len(work), len(work[0])
    pivot_cols = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            sign = -sign
        for i in range(r + 1, nrows):
            for k in range(c + 1, ncols):
                num = work[i][k] * work[r][c] - work[i][c] * work[r][k]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("inexact Bareiss division")
                work[i][k] = q
            work[i][c] = 0
        prev = work[r][c]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return pivot_cols, sign


def _kernel(work: list) -> tuple:
    """Eliminate the integer matrix `work` in place and solve for its
    right kernel: (rank, sign, pivot, free_cols, vectors).

    sign is that of the row permutation and pivot the last Bareiss
    pivot D (1 at rank 0).  For each free column f, in ascending order,
    the unscaled kernel vector has v[f] = D and 0 on the other free
    columns; integer back-substitution fills in the rest.  Cramer's rule
    makes every entry a minor of the matrix, so each division is exact;
    a remainder raises ArithmeticError.
    """
    ncols = len(work[0])
    pivot_cols, sign = _bareiss(work)
    rank = len(pivot_cols)
    pivot = work[rank - 1][pivot_cols[-1]] if rank else 1
    free_cols = [f for f in range(ncols) if f not in pivot_cols]
    vectors = []
    for f in free_cols:
        v = [0] * ncols
        v[f] = pivot
        for i in range(rank - 1, -1, -1):
            p = pivot_cols[i]
            row = work[i]
            s = sum(row[k] * v[k] for k in range(p + 1, ncols) if v[k])
            q, rem = divmod(-s, row[p])
            if rem:
                raise ArithmeticError("inexact back-substitution")
            v[p] = q
        vectors.append(v)
    return rank, sign, pivot, free_cols, vectors


def rank_and_kernel(rows: Iterable[Iterable]) -> tuple:
    """Rank of the matrix with the given rows of exact rationals,
    together with a primitive integer basis of its right kernel, one
    vector per free column (see `_kernel`)."""
    work, _ = _integer_rows(rows)
    rank, _, _, _, vectors = _kernel(work)
    return rank, tuple(map(primitive_vector, vectors))


def _maximal_minors(work: list, deleted: Sequence[tuple]) -> tuple:
    """(minors, kernel) of an integer r x N matrix of N - r = 1 or 2
    more columns than rows, from one elimination of `work` (in place);
    kernel is the unscaled right kernel basis of `_kernel`.

    Entry k of minors is the determinant of the columns left after
    deleting the ascending tuple deleted[k].  The maximal minors are
    the Plucker coordinates of the right kernel up to one common
    factor (Harris, Algebraic Geometry, lecture 6); with the unscaled
    kernel of
    `_kernel` (sign s, pivot D, free columns f or f1 < f2) the factor
    is known, and Cramer's rule gives
      N - r = 1: minor without column i = s (-1)^(i+f) v[i],
      N - r = 2: minor without i < j
                 = s (-1)^(i+j+f1+f2) (v1[i] v2[j] - v1[j] v2[i]) / D,
    where the division is exact (a remainder raises ArithmeticError).
    Every minor is 0 when the rank is below r.
    """
    rank, sign, pivot, free_cols, vectors = _kernel(work)
    if rank < len(work):
        return [0] * len(deleted), vectors
    if len(free_cols) == 1:
        (f,), (v,) = free_cols, vectors
        minors = [-sign * v[i] if (i + f) & 1 else sign * v[i] for (i,) in deleted]
        return minors, vectors
    if len(free_cols) != 2:
        raise ValueError("expected one or two more columns than rows")
    (f1, f2), (v1, v2) = free_cols, vectors
    out = []
    for i, j in deleted:
        q, rem = divmod(v1[i] * v2[j] - v1[j] * v2[i], pivot)
        if rem:
            raise ArithmeticError("inexact Plucker division")
        out.append(-sign * q if (i + j + f1 + f2) & 1 else sign * q)
    return out, vectors


def determinant(rows: Iterable[Iterable]):
    """Exact determinant of the square matrix with the given rows of
    exact rationals, by fraction-free elimination: the permutation sign
    times the last Bareiss pivot over the row scaling, 0 below full
    rank; an `int` when it is integral.

    Only tests call it today, and it stays here because the
    benchmark's tracer looks it up by name.
    """
    work, scale = _integer_rows(rows)
    if len(work) != len(work[0]):
        raise ValueError("determinant requires a square matrix")
    pivot_cols, sign = _bareiss(work)
    if len(pivot_cols) < len(work):
        return 0
    return _rational(Fraction(sign * work[-1][-1], scale))


def ring_determinant(rows: Sequence[Sequence], zero):
    """Cofactor-expansion determinant for small matrices over an exact ring.

    Entries need +, -, * and truth testing, so it works for matrices of
    polynomials where elimination would require division.  Its cost is
    factorial in the size; only tests call it, as the symbolic oracle
    for determinants of polynomial matrices, and it stays here because
    the benchmark's tracer looks it up by name.
    """
    size = len(rows)
    if size == 0 or any(len(r) != size for r in rows):
        raise ValueError("square nonempty matrix required")

    def expand(row_ids, col_ids):
        if len(col_ids) == 1:
            return rows[row_ids[0]][col_ids[0]]
        total = zero
        for pos, c in enumerate(col_ids):
            entry = rows[row_ids[0]][c]
            if not entry:
                continue
            sub = expand(row_ids[1:], col_ids[:pos] + col_ids[pos + 1 :])
            term = entry * sub
            total = total + term if pos % 2 == 0 else total - term
        return total

    return expand(tuple(range(size)), tuple(range(size)))


def pfaffian(rows: Sequence[Sequence]):
    """Pfaffian of an even-size skew-symmetric matrix of ring elements.

    Convention Pf([[0,1],[-1,0]]) = +1; recursive expansion along the
    first row.  Satisfies Pf(m)^2 = det(m).
    """
    size = len(rows)
    if size == 0 or any(len(r) != size for r in rows):
        raise ValueError("square nonempty matrix required")
    if size % 2 != 0:
        raise ValueError("pfaffian requires even size")
    for i in range(size):
        for j in range(i, size):
            if rows[i][j] != -rows[j][i]:
                raise ValueError("matrix is not skew-symmetric")
    return _pfaffian_expand(rows, tuple(range(size)), {})


def _pfaffian_expand(rows, idx: tuple, memo: dict):
    """Pfaffian of the principal submatrix on idx, expanded along its
    first index.

    The same sub-Pfaffian (remaining index tuple) recurs across
    branches; memo holds each one, so it is expanded once per call of
    `pfaffian`.  This is a module-level function, not a closure: a
    recursive closure refers to itself, and that cycle would keep rows
    and the memo alive after the call until the garbage collector ran.
    """
    if len(idx) == 2:
        return rows[idx[0]][idx[1]]
    if idx in memo:
        return memo[idx]
    first, rest = idx[0], idx[1:]
    total = None
    for pos, j in enumerate(rest):
        entry = rows[first][j]
        term = entry * _pfaffian_expand(rows, rest[:pos] + rest[pos + 1 :], memo)
        if pos % 2 == 1:
            term = -term
        total = term if total is None else total + term
    memo[idx] = total
    return total


class MultiPoly:
    """Sparse multivariate polynomial over the rationals.

    Terms map exponent tuples to nonzero coefficients.  Graded
    lexicographic order fixes printing, so equal polynomials render
    identically.  +, -, * and == take polynomials in the same number of
    variables.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        self.nvars = int(nvars)
        clean = {}
        for exp, coeff in (terms or {}).items():
            c = _rational(coeff)
            if not c:
                continue
            e = tuple(int(k) for k in exp)
            if len(e) != self.nvars or any(k < 0 for k in e):
                raise ValueError("bad exponent tuple %r" % (exp,))
            clean[e] = clean[e] + c if e in clean else c
        self.terms = {e: c for e, c in clean.items() if c}

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> Optional[int]:
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, degree: Optional[int] = None) -> bool:
        if not self.terms:
            return True
        degs = {sum(e) for e in self.terms}
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.nvars, out)

    def _sorted_terms(self):
        # graded lex, highest first
        return sorted(self.terms.items(), key=lambda it: (sum(it[0]), it[0]), reverse=True)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        if names is None:
            names = ["x%d" % i for i in range(self.nvars)]
        if not self.terms:
            return "0"
        parts = []
        for e, c in self._sorted_terms():
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append("%s^%d" % (name, k))
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = "%s*%s" % (str(abs(c)), mono)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "MultiPoly(%s)" % self.render()


def _upoly_normalize(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _upoly_rem(f: list, g: list) -> list:
    """Remainder of dense little-endian rational polynomials f by g,
    where g has a nonzero leading coefficient."""
    rem = list(f)
    lead = Fraction(g[-1])
    for k in range(len(f) - len(g), -1, -1):
        coeff = rem[k + len(g) - 1] / lead
        if coeff:
            for j, gc in enumerate(g):
                rem[k + j] -= coeff * gc
    return _upoly_normalize(rem)


def binary_gcd(forms: Sequence[Sequence]) -> tuple:
    """Gcd of binary forms given by their coefficients, entry k that of
    s^(d-k) * t^k; zero forms are ignored.

    The result is a coefficient tuple whose first nonzero entry is 1,
    or () when every form is zero.  Euclid runs on the dehomogenizations
    in u = t/s, where a power of t is a power of u; only the trailing
    zero coefficients, the power of s (roots at infinity), are tracked
    apart.

    Only tests call it today, as the slice oracles' gcd, and it stays
    here because the benchmark's tracer looks it up by name.
    """
    forms = [[_rational(x) for x in f] for f in forms]
    if not forms:
        raise ValueError("empty input")
    core, s_vals = [], []
    for f in forms:
        d = len(f)
        a = _upoly_normalize(f)
        if a:
            s_vals.append(d - len(a))
            b = core
            while b:
                a, b = b, _upoly_rem(a, b)
            core = a
    if not s_vals:
        return ()
    lead = next(c for c in core if c)
    return tuple(_rational(Fraction(c, lead)) for c in core) + (0,) * min(s_vals)


def seeded_skew_matrix(seed: int, size: int, bound: int) -> RationalMatrix:
    """Skew-symmetric integer size x size matrix whose entries above the
    diagonal are uniform in [-bound, bound], drawn row by row.

    Draws come from a seeded Mersenne Twister (random.Random), so a
    fixed seed reproduces the same matrix.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if size < 1:
        raise ValueError("matrix must be nonempty")
    rng = random.Random(seed)
    data = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = rng.randint(-bound, bound)
            data[i][j] = v
            data[j][i] = -v
    return RationalMatrix(data)
