"""Test-side oracles: the defining matrix restricted to a line.

The library slices a congruence along a line without building the
focal form: it reads the minors of a line that one of its solvers
returned off the solver's kernel record, and refuses any other line.
These oracles build the restriction of A to any line independently,
straight from the skew matrices or the linear forms: `restricted` as
a matrix of degree-1 binary forms a*s + b*t in the
parametrization s*p0 + t*p1 of the line, and `direct_node_minors` as
the node values of its maximal minors, one determinant per minor.
`oracle_report` interpolates every minor from those node values
(`_form_from_integer_values`) and takes the gcd of all of them: it
returns (minor_degrees, gcd_form, gcd_degree, focal_line), the focal
form included, and `without_form` drops the form to give the three
fields of the library's `FocalSliceReport`.  The oracles evaluate
A_i * P with `apply`, never with the library's `columns_at`, which
they check, and they read the congruence's input rationals,
`input_matrices` and `input_rows`: a congruence stores each column of
A cleared of denominators, and its input entry is the stored entry over
that column's scale.  `variable` is the coordinate polynomial the tests
build other polynomials from, and `fractional_linear` and
`fractional_determinantal` build congruences whose input entries are
Fractions, not all integral, so that their columns' scales are not 1.

A binary form is its coefficient tuple, entry k that of s^(d-k) * t^k,
as `exact.binary_gcd` takes and returns it.  The oracles also build
binary forms as homogeneous `MultiPoly`s in (s, t), with
`binary_form`, and read them back with `binary_coeffs`; `normalized`
scales coefficients the way `exact.binary_gcd` does, and `scaled`
multiplies a polynomial by a rational number.
"""

import math
from fractions import Fraction
from itertools import combinations

from quadpoint.congruence import DeterminantalCongruence, LinearCongruence
from quadpoint.exact import MultiPoly, binary_gcd


def apply(m, v):
    """The product of a matrix, given by its rows, with a vector."""
    return [sum(a * x for a, x in zip(row, v)) for row in m]


def _over(form, scale):
    """A stored form over its column's scale: the input form."""
    return form if scale == 1 else [Fraction(x, scale) for x in form]


def input_matrices(c):
    """The input A_i of a linear congruence: each stored entry over its
    matrix's scale."""
    return [[_over(row, s) for row in m] for m, s in zip(c.matrices, c.scales)]


def input_rows(c):
    """The input rows of linear forms of a determinantal congruence:
    each stored coefficient of entry (i, j) over column j's scale."""
    return [[_over(f, s) for f, s in zip(row, c.scales)] for row in c.rows]


def variable(nvars, i):
    """The polynomial x_i in nvars variables."""
    return MultiPoly(nvars, {tuple(int(j == i) for j in range(nvars)): 1})


def scaled(f, c):
    """The polynomial c * f for a rational number c."""
    return MultiPoly(f.nvars, {e: k * c for e, k in f.terms.items()})


def binary_form(coeffs):
    """The binary form sum_k coeffs[k] * s^(d-k) * t^k, d = len(coeffs) - 1,
    as a homogeneous MultiPoly in (s, t)."""
    if not coeffs:
        raise ValueError("empty coefficient list")
    d = len(coeffs) - 1
    return MultiPoly(2, {(d - k, k): c for k, c in enumerate(coeffs)})


def binary_coeffs(f):
    """Dense coefficients of a nonzero binary form: entry k belongs to
    s^(d-k) * t^k, d the degree."""
    if not isinstance(f, MultiPoly) or f.nvars != 2 or not f or not f.is_homogeneous():
        raise ValueError("expected a nonzero homogeneous form in two variables")
    out = [0] * (f.total_degree() + 1)
    for (_, k), c in f.terms.items():
        out[k] = c
    return out


def normalized(f):
    """The coefficient tuple of a binary form (a MultiPoly or a coefficient
    sequence) divided by its first nonzero entry; () for the zero form."""
    if isinstance(f, MultiPoly):
        f = binary_coeffs(f) if f else ()
    nonzero = [c for c in f if c]
    if not nonzero:
        return ()
    return tuple(Fraction(c) / nonzero[0] for c in f)


def restricted(c, line):
    """The (n+1) x (n-1) (linear) or n x (n-1) (determinantal) matrix of
    binary forms A(s*p0 + t*p1)."""
    if isinstance(c, LinearCongruence):
        cols = [(apply(m, line.p0), apply(m, line.p1)) for m in input_matrices(c)]
        return [
            [binary_form([u[k], v[k]]) for u, v in cols]
            for k in range(c.n + 1)
        ]
    return [
        [
            binary_form(
                [
                    sum(a * x for a, x in zip(coeffs, line.p0)),
                    sum(a * x for a, x in zip(coeffs, line.p1)),
                ]
            )
            for coeffs in row
        ]
        for row in input_rows(c)
    ]


def _determinant(rows):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination, row pivoting only."""
    work = [list(row) for row in rows]
    size = len(work)
    sign, previous = 1, 1
    for c in range(size):
        piv = next((i for i in range(c, size) if work[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            sign = -sign
        for i in range(c + 1, size):
            for k in range(c + 1, size):
                q, r = divmod(work[i][k] * work[c][c] - work[i][c] * work[c][k], previous)
                assert r == 0
                work[i][k] = q
        previous = work[c][c]
    return sign * previous


def direct_node_minors(c, line):
    """The maximal minors of A restricted to the line at the nodes
    (s, t) = (1, u), u = 0..n-1, one determinant per minor.

    A(s*p0 + t*p1) at (1, u) is A evaluated at the point p0 + u*p1,
    built here from the skew matrices or the linear forms.  Each row of
    it is cleared of denominators once per node, and a minor is the
    determinant of its cleared rows divided by their clearing factors.
    Minors keep n-1 rows, in ascending lexicographic order of the kept
    rows, and a list of Fractions is returned per node.
    """
    size = c.n - 1
    out = []
    for u in range(size + 1):
        pt = [a + u * b for a, b in zip(line.p0, line.p1)]
        if isinstance(c, LinearCongruence):
            cols = [apply(m, pt) for m in input_matrices(c)]
            at = [[col[k] for col in cols] for k in range(c.n + 1)]
        else:
            at = [
                [sum(a * x for a, x in zip(coeffs, pt)) for coeffs in row]
                for row in input_rows(c)
            ]
        scales = [math.lcm(*(x.denominator for x in row)) for row in at]
        cleared = [[int(x * k) for x in row] for row, k in zip(at, scales)]
        out.append(
            [
                Fraction(
                    _determinant([cleared[r] for r in kept]),
                    math.prod(scales[r] for r in kept),
                )
                for kept in combinations(range(len(at)), size)
            ]
        )
    return out


def _form_from_integer_values(values):
    """The coefficients of the integer binary form of degree
    d = len(values) - 1 that takes the value values[u] at (s, t) = (1, u)
    for u = 0..d; entry k is that of s^(d-k) * t^k.

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
    return [q for q, _ in quotients]


def oracle_report(c, line):
    """(minor_degrees, gcd_form, gcd_degree, focal_line) of the slice,
    built from `direct_node_minors` by interpolation and the library's
    `binary_gcd`.

    Every minor is interpolated and the gcd taken over all nonzero
    ones.  The node values are first scaled by one common factor, the
    lcm of their denominators times (n-1)!, so that every form has
    integer coefficients even for Fraction data; the degrees and the
    normalised gcd do not see that factor.
    """
    nodes = direct_node_minors(c, line)
    scale = math.factorial(c.n - 1) * math.lcm(*(v.denominator for vs in nodes for v in vs))
    minors = [_form_from_integer_values([int(v * scale) for v in vs]) for vs in zip(*nodes)]
    degrees = tuple(len(m) - 1 if any(m) else None for m in minors)
    if not any(map(any, minors)):
        return degrees, (), None, True
    g = binary_gcd(minors)
    return degrees, g, len(g) - 1, False


def without_form(oracle):
    """(minor_degrees, gcd_degree, focal_line) of an oracle slice: the
    fields of the library's `FocalSliceReport`, in their order."""
    degrees, _, gcd_degree, focal_line = oracle
    return degrees, gcd_degree, focal_line


def random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def fractional_linear(n, rng):
    mats = []
    for _ in range(n - 1):
        m = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
        for i, j in combinations(range(n + 1), 2):
            m[i][j] = random_fraction(rng)
            m[j][i] = -m[i][j]
        mats.append(m)
    return LinearCongruence(n, mats)


def fractional_determinantal(n, rng):
    rows = [
        [[random_fraction(rng) for _ in range(n + 1)] for _ in range(n - 1)]
        for _ in range(n)
    ]
    return DeterminantalCongruence(n, rows)
