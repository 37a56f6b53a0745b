"""Closed-form enumerative formulas for codimension-two varieties.

Multiple-point counts of generic projections (double, triple, quadruple
points), 4-secant line counts for surfaces and curves in P^4, and
degree/genus closed forms for the focal loci of first-order line
congruences.  Every evaluator is one integer polynomial over a single
common denominator, turned into an exact Fraction (or an int) only at
the end; integrality is checked, never obtained by rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple


def _exact_quotient(num: int, den: int, what: str) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ValueError("%s is not an integer: %s" % (what, Fraction(num, den)))
    return quotient


_THREEFOLD_FIELDS = [("d", int), ("pi", int), ("chi_section", int), ("chi", int)]
_SURFACE_FIELDS = [("d", int), ("pi", int), ("chi", int), ("k_squared", int)]


class ThreefoldInvariants(NamedTuple("ThreefoldInvariants", _THREEFOLD_FIELDS)):
    """Basic invariants of a smooth threefold X in P^5.

    d: degree; pi: sectional genus; chi_section: chi(O) of the general
    hyperplane-section surface; chi: chi(O) of X itself.  An immutable
    named tuple, checked when it is made.
    """

    __slots__ = ()

    def __new__(cls, d: int, pi: int, chi_section: int, chi: int):
        if d < 1:
            raise ValueError("degree must be >= 1")
        if pi < 0:
            raise ValueError("sectional genus must be >= 0")
        return super().__new__(cls, d, pi, chi_section, chi)


class SurfaceInvariants(NamedTuple("SurfaceInvariants", _SURFACE_FIELDS)):
    """Basic invariants of a smooth surface S in P^4.

    d: degree; pi: sectional genus; chi: chi(O_S); k_squared: K.K.  An
    immutable named tuple, checked when it is made.
    """

    __slots__ = ()

    def __new__(cls, d: int, pi: int, chi: int, k_squared: int):
        if d < 1:
            raise ValueError("degree must be >= 1")
        return super().__new__(cls, d, pi, chi, k_squared)


# ----- double point formulas for threefolds in P^5 -----


def k_cubed(t: ThreefoldInvariants) -> int:
    """K^3 of a smooth threefold in P^5 from its basic invariants."""
    d, p = t.d, t.pi
    return (
        -5 * d**2 + d * (2 * p + 25) + 24 * (p - 1) - 36 * t.chi - 24 * t.chi_section
    )


def h_k_squared(t: ThreefoldInvariants) -> int:
    """H.K^2 of a smooth threefold in P^5 from its basic invariants;
    d(d+1) is even, so the halving is exact."""
    return t.d * (t.d + 1) // 2 - 9 * (t.pi - 1) + 6 * t.chi


# ----- multiple point counts -----


# A count that the catalog filter reads is written once, as a private
# integer numerator named after its denominator (`_quadruple_points24`
# is 24 q) and evaluated by Horner's rule in d; the public function
# wraps it in a Fraction, and the filter divides it out itself.


def _quadruple_points24(d: int, p: int, chi_s: int, chi: int) -> int:
    return (
        (((d - 6) * d + 11 - 12 * p) * d + 60 * p + 48 * chi_s - 54) * d
        + 12 * p**2 - 84 * p + 144 * chi - 216 * chi_s + 72
    )


def quadruple_points(t: ThreefoldInvariants) -> Fraction:
    """Apparent quadruple points of a generic projection of a smooth
    threefold X in P^5 to P^4 (quadruple-point formula)."""
    return Fraction(_quadruple_points24(t.d, t.pi, t.chi_section, t.chi), 24)


def four_secants_through_point(d: int, pi: int, chi: int) -> Fraction:
    """4-secant lines of a smooth non-scroll surface in P^4 passing
    through a general point of the surface."""
    return Fraction(
        d**3 - 9 * d**2 + d * (32 - 6 * pi) + 24 * pi + 12 * chi - 60, 6
    )


def _scroll_degree8(d: int, pi: int, chi: int) -> int:
    return (
        (((d - 10) * d + 35 - 8 * pi) * d + 56 * pi + 16 * chi - 66) * d
        + 4 * pi**2 - 100 * pi - 72 * chi + 96
    )


def foursecant_scroll_degree(d: int, pi: int, chi: int) -> Fraction:
    """Degree a_1 of the hypersurface of P^4 swept by the 4-secant lines
    of a smooth non-scroll surface."""
    return Fraction(_scroll_degree8(d, pi, chi), 8)


def _curve_foursecants12(d: int, pi: int) -> int:
    return (
        (((d - 12) * d + 53 - 6 * pi) * d + 42 * pi - 102) * d
        + 6 * pi**2 - 78 * pi + 72
    )


def curve_foursecants(d: int, pi: int) -> Fraction:
    """Number a_2 of 4-secant lines of a smooth curve of degree d and
    genus pi in P^3."""
    return Fraction(_curve_foursecants12(d, pi), 12)


def _residual24(d: int, pi: int, chi: int) -> int:
    return (
        (((3 * d - 46) * d + 249 - 24 * pi) * d + 264 * pi + 48 * chi - 710) * d
        + 12 * pi**2 - 684 * pi - 408 * chi + 1272
    )


def foursecant_constraint_residual(d: int, pi: int, chi: int) -> Fraction:
    """Residual of the constraint tying the 4-secant counts together for
    a non-scroll surface in P^4; zero exactly when the constraint holds.
    It is affine in chi with slope 2d - 17, odd and so never zero.

    Identity: 4*four_secants_through_point - 1 - foursecant_scroll_degree
    equals minus this residual for every (d, pi, chi).
    """
    return Fraction(_residual24(d, pi, chi), 24)


def _triple_points6(d: int, pi: int, chi: int, k_squared: int) -> int:
    """6 times the triple-point formula, with H.K = 2*pi - 2 - d by
    adjunction on a general curve section and the topological Euler
    characteristic c2 = 12*chi - K^2 by Noether."""
    hk = 2 * pi - 2 - d
    c2 = 12 * chi - k_squared
    return d * (d**2 - 12 * d + 44) + 4 * k_squared - 2 * c2 - 3 * hk * (d - 8)


def apparent_triple_points(s: SurfaceInvariants) -> Fraction:
    """Apparent triple points of a generic projection of a smooth
    non-scroll surface in P^4 to P^3 (triple-point formula)."""
    return Fraction(_triple_points6(s.d, s.pi, s.chi, s.k_squared), 6)


def blowup_triple_points(s: SurfaceInvariants) -> Fraction:
    """Triple-point count for the blow-up of S at one point, projected
    from the exceptional line: degree drops by one and K^2 by one, with
    pi and chi unchanged, so c2 grows by one and H.K becomes
    2*pi - d - 1.

    Equals four_secants_through_point(d, pi, chi) whenever K^2 satisfies
    the double point formula for smooth surfaces in P^4 (see
    k_squared_from_double_point); the blown-up triple points are exactly
    the 4-secants through the blown-up point.  The triple-point formula
    is taken on the bare invariants rather than on
    SurfaceInvariants(d - 1, ...), which would reject d = 1.
    """
    return Fraction(_triple_points6(s.d - 1, s.pi, s.chi, s.k_squared - 1), 6)


def k_squared_from_double_point(d: int, pi: int, chi: int) -> int:
    """K^2 forced by the double point formula for a smooth surface in
    P^4: d^2 - 10d - 5*HK - 2*K^2 + 12*chi = 0."""
    return _exact_quotient(d * d - 5 * d - 10 * pi + 12 * chi + 10, 2, "K^2")


# ----- focal locus closed forms -----


class FocalLocusInvariants(NamedTuple):
    degree: int
    sectional_genus: int
    dim: int


def linear_focal_degree(n: int) -> int:
    """Degree of the focal locus of a general linear congruence in P^n."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return _exact_quotient(n * n - 3 * n + 4, 2, "focal degree")


def pfaffian_hypersurface_degree(n: int) -> int:
    """Degree of the Pfaffian hypersurface in the parameter space of a
    linear congruence; defined for odd n only (even n gives an
    identically vanishing determinant instead)."""
    if n % 2 == 0:
        raise ValueError("n even: determinant vanishes identically, no hypersurface")
    if n < 3:
        raise ValueError("n must be >= 3")
    return (n + 1) // 2


def determinantal_invariants(n: int) -> FocalLocusInvariants:
    """Degree and sectional genus of the degeneracy locus of a general
    n x (n-1) matrix of linear forms on P^n; the locus has dimension n-2."""
    if n < 3:
        raise ValueError("n must be >= 3")
    degree = comb(n, 2)
    genus = 1 + _exact_quotient((2 * n - 7) * degree, 3, "sectional genus")
    return FocalLocusInvariants(degree, genus, n - 2)


def blowup_center_invariants(n: int) -> FocalLocusInvariants:
    """Degree and sectional genus of the center Z blown up inside
    P^(n-2) to produce the determinantal focal locus; dim Z = n-4
    (points when n=4, a curve when n=5).  Z is cut by the maximal minors
    of an n x (n+1) matrix of linear forms, so by Eagon-Northcott its
    curve section has Hilbert polynomial C(D+3,3) - (n+1)C(D+3-n,3) +
    nC(D+2-n,3), of degree C(n+1, 2) and arithmetic genus
    n(2n-5)(n+1)/6 + 1.  At n = 4, where Z is points, the genus field
    holds the same expression's value, 11."""
    if n < 4:
        raise ValueError("n must be >= 4")
    degree = comb(n + 1, 2)
    genus = _exact_quotient(n * (2 * n - 5) * (n + 1), 6, "sectional genus") + 1
    return FocalLocusInvariants(degree, genus, n - 4)


def focal_degree_bound(n: int, m: int, k: int = 1) -> bool:
    """Strict degree window (n-1)/k < m < (n-1)^2 for the focal locus of
    a first-order congruence, where k is the geometric multiplicity of
    the reduced focal locus."""
    if n < 2 or m < 1 or k < 1:
        raise ValueError("require n >= 2, m >= 1, k >= 1")
    return n - 1 < k * m and m < (n - 1) ** 2
