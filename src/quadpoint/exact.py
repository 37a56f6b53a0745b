"""Exact arithmetic substrate: rational matrices, fraction-free elimination,
sparse multivariate polynomials, Pfaffians, and binary-form gcd.

`RationalMatrix` stores a matrix, iterates its rows and tests
skew-symmetry; `congruence` evaluates matrices of linear forms at a
point itself (`Congruence.columns_at`).  `rank_and_kernel` and
`determinant` take any iterable of rows of exact rationals, `int` or
Fraction entries; `_integer_rows` coerces and checks them once and
clears each row of denominators.  One elimination loop, the in-place Bareiss
`_bareiss`, serves both: `determinant` is the permutation sign times
the last pivot (0 below full rank), and `rank_and_kernel` adds integer
back-substitution for a primitive kernel basis.  `rank_and_kernel_mod`
is the same job over GF(p), by forward elimination and
back-substitution on the same integer rows reduced mod p: a lower
bound on the rank over Q, whose entries never outgrow p.

`MultiPoly`, a sparse multivariate polynomial, is the type of the
Pfaffian.  A binary form in (s, t) is its coefficient sequence, entry k
that of s^(d-k) * t^k, and `binary_gcd` takes and returns such
sequences.

Integral data and all elimination stay in Python `int`: matrix entries,
polynomial coefficients and points that are integers are stored as
`int`, and `fractions.Fraction` appears only for input that is not
integral.  Every division is exact (checked, or a `Fraction`); no
operation introduces floating point.  Data that is already plain
`int` is recognised by one type scan (`_exact_tuple`) and passes
through as it is; only other entries go through `_rational` one by one.
"""

from __future__ import annotations

import itertools
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


_INT = frozenset((int,))


def _exact_tuple(values: Iterable) -> tuple:
    """The values as a tuple of exact rationals (see `_rational`).  One
    type scan finds a sequence of plain `int`s, which passes through as
    it is; bools, int subclasses and other types go through `_rational`."""
    values = tuple(values)
    if set(map(type, values)) <= _INT:
        return values
    return tuple(map(_rational, values))


def _cleared(values: Sequence) -> tuple:
    """(integers, multiplier): exact rationals (see `_exact_tuple`) times
    the lcm of their denominators; plain ints come back as they are,
    multiplier 1."""
    if set(map(type, values)) <= _INT:
        return values, 1
    mult = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (mult // x.denominator) for x in values], mult


def primitive_vector(vec: Sequence) -> tuple:
    """Scale a nonzero rational vector to coprime integers, first nonzero positive.

    Canonical representative for projective points and kernel vectors;
    a vector already in that form comes back unchanged.
    """
    ints, _ = _cleared(_exact_tuple(vec))
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(ints) if g == 1 else tuple(x // g for x in ints)


def _rational_rows(rows: Iterable[Iterable]) -> tuple:
    """The rows as a tuple of equally long, nonempty tuples of exact
    rationals (see `_exact_tuple`)."""
    data = tuple(map(_exact_tuple, rows))
    if not data or not data[0]:
        raise ValueError("matrix must have at least one row and one column")
    if len(set(map(len, data))) != 1:
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

    def is_skew_symmetric(self) -> bool:
        """Whether entry (i, j) equals minus entry (j, i) for all i, j:
        the entries row by row against those of the transpose negated."""
        if self.rows != self.cols:
            return False
        flat = itertools.chain.from_iterable
        entries, transposed = flat(self._rows), flat(zip(*self._rows))
        return all(map(operator.eq, entries, map(operator.neg, transposed)))

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


def rank_and_kernel(rows: Iterable[Iterable]) -> tuple:
    """Rank of the matrix with the given rows of exact rationals,
    together with a primitive integer basis of its right kernel, one
    vector per free column f, in ascending order of f.

    After `_bareiss`, with D the last pivot (1 at rank 0), the vector
    of f has v[f] = D and 0 on the other free columns; integer
    back-substitution fills in the rest.  Cramer's rule makes every
    entry a minor of the matrix, so each division is exact; a remainder
    raises ArithmeticError.
    """
    work, _ = _integer_rows(rows)
    ncols = len(work[0])
    pivot_cols, _ = _bareiss(work)
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
        vectors.append(primitive_vector(v))
    return rank, tuple(vectors)


def rank_and_kernel_mod(rows: Iterable[Iterable], p: int) -> tuple:
    """Rank over GF(p), p a prime, of the `_integer_rows` of the given
    rows of exact rationals, together with a basis of their right
    kernel mod p: one vector per free column f, with entries in
    [0, p), 1 at f and 0 on the other free columns.

    Forward elimination to an echelon form whose pivots are 1, every
    entry reduced mod p so that none outgrows p, then back-substitution
    for each free column.  That basis vector is fixed by the row space
    alone, so it is the one Gauss-Jordan elimination would read off.  A
    minor that is nonzero mod p is a nonzero integer, so the rank mod p
    is at most the rank over Q, and equal to it unless p divides every
    nonzero minor of that size.
    """
    work = [[x % p for x in row] for row in _integer_rows(rows)[0]]
    nrows, ncols = len(work), len(work[0])
    pivot_cols = []
    for c in range(ncols):
        r = len(pivot_cols)
        piv = next((i for i in range(r, nrows) if work[i][c]), None)
        if piv is None:
            continue
        inv = pow(work[piv][c], -1, p)
        row = [x * inv % p for x in work[piv]]
        work[piv] = work[r]
        work[r] = row
        # Rows below r are zero before column c, so only the tail changes.
        tail = row[c:]
        for i in range(r + 1, nrows):
            f = work[i][c]
            if f:
                work[i][c:] = [(x - f * y) % p for x, y in zip(work[i][c:], tail)]
        pivot_cols.append(c)
        if r + 1 == nrows:
            break
    kernel = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        v = [0] * ncols
        v[f] = 1
        # Row i is zero before its pivot c, 1 at c, and v[c] is still 0.
        for i in range(len(pivot_cols) - 1, -1, -1):
            v[pivot_cols[i]] = -sum(map(operator.mul, work[i], v)) % p
        kernel.append(tuple(v))
    return len(pivot_cols), tuple(kernel)


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


def _uniform_draws(rng: random.Random, bound: int, count: int) -> list:
    """count draws of rng.randint(-bound, bound), in order.

    The same values from the same generator state: this replays the
    rejection loop by which `random.Random.randint` draws below its
    width 2*bound + 1 (`_randbelow_with_getrandbits`, unchanged from
    CPython 3.10 to 3.13), without its per-call argument checks.
    """
    width = 2 * bound + 1
    k = width.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= width:
            r = bits(k)
        out.append(r - bound)
    return out


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
    draws = _uniform_draws(random.Random(seed), bound, size * (size - 1) // 2)
    upper, pos = [], 0
    for i in range(size):
        upper.append([0] * (i + 1) + draws[pos : pos + size - 1 - i])
        pos += size - 1 - i
    # Row i is minus column i of the upper triangle before i, then row i.
    return RationalMatrix(
        list(map(operator.neg, col[:i])) + row[i:]
        for i, (row, col) in enumerate(zip(upper, zip(*upper)))
    )
