"""Differential tests of the exact kernels against sympy.

sympy is an independent implementation of the same exact arithmetic:
its determinant, rank, nullspace and polynomial gcd must agree with
the package on seeded random inputs, rank-deficient ones included.
The package itself never imports sympy.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from quadpoint.exact import (  # noqa: E402
    MultiPoly,
    _bareiss,
    binary_gcd,
    determinant,
    pfaffian,
    primitive_vector,
    rank_and_kernel,
)
from restriction import binary_coeffs, binary_form  # noqa: E402

S, T, U = sympy.symbols("s t u")


def to_sympy(x):
    """A Fraction or a MultiPoly in (s, t[, u]) as a sympy expression."""
    if isinstance(x, MultiPoly):
        gens = (S, T, U)[: x.nvars]
        return sympy.Add(
            *(
                to_sympy(c) * sympy.Mul(*(g**k for g, k in zip(gens, e)))
                for e, c in x.terms.items()
            )
        )
    return sympy.Rational(x.numerator, x.denominator)


def random_rows(rng, rows, cols, rank, bound=5):
    """A rows x cols integer matrix of rank at most `rank`: a product of
    random rows x rank and rank x cols factors, rank 0 giving zero.
    Entries of the factors are at most `bound`."""
    left = [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rank)]
    return [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if rank else [0] * cols
        for row in left
    ]


def shapes(rng, trials):
    for _ in range(trials):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        yield rows, cols, rng.randint(0, min(rows, cols))


def test_determinant_matches_sympy():
    rng = random.Random(11)
    for size in range(1, 7):
        for rank in range(size + 1):
            rows = random_rows(rng, size, size, rank)
            assert to_sympy(determinant(rows)) == sympy.Matrix(rows).det()


def fraction_back_substitution(m):
    """(rank, kernel basis) by Fraction back-substitution on the Bareiss
    echelon form with v[f] = 1 for each free column f: the route of
    rank_and_kernel before it went integer-only, kept as an oracle."""
    work = [list(row) for row in m]
    ncols = len(work[0])
    pivot_cols, _ = _bareiss(work)
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_cols):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i in range(len(pivot_cols) - 1, -1, -1):
            p = pivot_cols[i]
            s = sum((work[i][k] * v[k] for k in range(p + 1, ncols)), Fraction(0))
            v[p] = -s / work[i][p]
        basis.append(primitive_vector(v))
    return len(pivot_cols), tuple(basis)


def test_rank_and_kernel_match_sympy():
    # Full-rank and rank-deficient integer matrices, small and 60-bit
    # entries.  The kernel is sympy's nullspace basis (free variable 1,
    # the other free variables 0) in primitive form, and the integer
    # back-substitution returns the very tuples of the Fraction one.
    rng = random.Random(12)
    for bound in (3, 5, 10**18, 7 * 10**18):
        for rows, cols, rank in shapes(rng, 30):
            data = random_rows(rng, rows, cols, rank, bound)
            m = sympy.Matrix(data)
            found = rank_and_kernel(data)
            assert found[0] == m.rank()
            assert found[1] == tuple(
                primitive_vector([Fraction(int(x.p), int(x.q)) for x in v])
                for v in m.nullspace()
            )
            assert found == fraction_back_substitution(data)


def test_pfaffian_squares_to_sympy_determinant():
    rng = random.Random(13)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for size in (2, 4, 6):
        for _ in range(3):
            rows = [[MultiPoly(3) for _ in range(size)] for _ in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    p = MultiPoly(3, {e: rng.randint(-3, 3) for e in units})
                    rows[i][j], rows[j][i] = p, -p
            pf = sympy.Poly(to_sympy(pfaffian(rows)), S, T, U, domain="QQ")
            m = sympy.Matrix([[to_sympy(x) for x in r] for r in rows])
            det = DomainMatrix.from_Matrix(m).convert_to(sympy.QQ[S, T, U]).det()
            assert pf**2 == sympy.Poly(det.as_expr(), S, T, U, domain="QQ")


def test_binary_gcd_matches_sympy():
    rng = random.Random(14)

    def form(degree):
        return binary_form([rng.randint(-4, 4) for _ in range(degree + 1)])

    for trial in range(30):
        common = form(rng.randint(0, 3)) if trial % 2 else binary_form([1])
        forms = [common * form(rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
        forms = [f for f in forms if f]
        if not forms:
            continue
        ours = binary_form(binary_gcd([binary_coeffs(f) for f in forms]))
        theirs = sympy.Integer(0)
        for f in forms:
            theirs = sympy.gcd(theirs, to_sympy(f))
        ours_poly = sympy.Poly(to_sympy(ours), S, T, domain="QQ")
        assert ours_poly == sympy.Poly(theirs, S, T, domain="QQ").monic()
