"""Test-side oracles: the defining matrix restricted to a line.

The library slices a congruence along a line by evaluating A(P) at the
two spanning points and reads every maximal minor at a node off one
integer kernel.  These oracles build the same restriction
independently, straight from the skew matrices or the linear forms:
`restricted` as a matrix of degree-1 binary forms a*s + b*t in the
parametrization s*p0 + t*p1 of the line, and `direct_node_minors` as
the node values of its maximal minors, one determinant per minor.
`variable` is the coordinate polynomial the tests build other
polynomials from.
"""

from fractions import Fraction
from itertools import combinations

from quadpoint.congruence import LinearCongruence
from quadpoint.exact import MultiPoly, binary_form


def variable(nvars, i):
    """The polynomial x_i in nvars variables."""
    return MultiPoly(nvars, {tuple(int(j == i) for j in range(nvars)): 1})


def restricted(c, line):
    """The (n+1) x (n-1) (linear) or n x (n-1) (determinantal) matrix of
    binary forms A(s*p0 + t*p1)."""
    if isinstance(c, LinearCongruence):
        cols = [(m.mat_vec(line.p0), m.mat_vec(line.p1)) for m in c.matrices]
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
        for row in c.rows
    ]


def _fraction_determinant(rows):
    """Determinant by Gaussian elimination over Fraction, row pivoting only."""
    work = [[Fraction(x) for x in row] for row in rows]
    size = len(work)
    det = Fraction(1)
    for c in range(size):
        piv = next((i for i in range(c, size) if work[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            det = -det
        det *= work[c][c]
        for i in range(c + 1, size):
            factor = work[i][c] / work[c][c]
            if factor:
                for k in range(c, size):
                    work[i][k] -= factor * work[c][k]
    return det


def direct_node_minors(c, line):
    """The maximal minors of A restricted to the line at the nodes
    (s, t) = (1, u), u = 0..n-1, one determinant per minor.

    A(s*p0 + t*p1) at (1, u) is A evaluated at the point p0 + u*p1,
    built here from the skew matrices or the linear forms.  Minors keep
    n-1 rows, in ascending lexicographic order of the kept rows, and a
    list is returned per node, as `congruence._node_minors` does.  For
    integral congruence data no scaling is involved and the two agree
    value for value.
    """
    size = c.n - 1
    out = []
    for u in range(size + 1):
        pt = [a + u * b for a, b in zip(line.p0, line.p1)]
        if isinstance(c, LinearCongruence):
            cols = [m.mat_vec(pt) for m in c.matrices]
            at = [[col[k] for col in cols] for k in range(c.n + 1)]
        else:
            at = [
                [sum(a * x for a, x in zip(coeffs, pt)) for coeffs in row]
                for row in c.rows
            ]
        out.append(
            [
                _fraction_determinant([at[r] for r in kept])
                for kept in combinations(range(len(at)), size)
            ]
        )
    return out
