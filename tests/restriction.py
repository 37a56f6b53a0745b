"""Test-side oracle: the defining matrix restricted to a line, symbolically.

The library slices a congruence along a line by evaluating A(P) at the
two spanning points.  This oracle builds the same restriction
independently, straight from the skew matrices or the linear forms, as
a matrix of degree-1 binary forms a*s + b*t in the parametrization
s*p0 + t*p1 of the line.
"""

from quadpoint.congruence import LinearCongruence
from quadpoint.exact import binary_form


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
