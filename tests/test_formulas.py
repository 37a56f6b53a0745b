import random

from fractions import Fraction
from math import comb

import pytest

from quadpoint.formulas import (
    FocalLocusInvariants,
    SurfaceInvariants,
    ThreefoldInvariants,
    apparent_triple_points,
    blowup_center_invariants,
    blowup_triple_points,
    curve_foursecants,
    determinantal_invariants,
    focal_degree_bound,
    four_secants_through_point,
    foursecant_constraint_residual,
    foursecant_scroll_degree,
    h_k_squared,
    k_cubed,
    k_squared_from_double_point,
    linear_focal_degree,
    pfaffian_hypersurface_degree,
    quadruple_points,
)


# Reference tuples: degree-7 Palatini threefold, degree-9 K3 scroll,
# degree-10 determinantal threefold, and the (2,3) complete intersection.
PALATINI = ThreefoldInvariants(7, 4, 1, 1)
K3_SCROLL = ThreefoldInvariants(9, 8, 2, 2)
DEGREE_TEN = ThreefoldInvariants(10, 11, 5, 1)
CI_23 = ThreefoldInvariants(6, 4, 2, 1)

BORDIGA = SurfaceInvariants(6, 3, 1, -1)
VERONESE = SurfaceInvariants(4, 0, 1, 9)
CI_22 = SurfaceInvariants(4, 1, 1, 4)


def test_k_cubed_examples():
    assert k_cubed(PALATINI) == -2
    assert k_cubed(K3_SCROLL) == 12
    assert k_cubed(DEGREE_TEN) == 54
    assert k_cubed(ThreefoldInvariants(1, 0, 1, 1)) == -64


def test_h_k_squared_examples():
    assert h_k_squared(PALATINI) == 7
    assert h_k_squared(DEGREE_TEN) == -29
    assert h_k_squared(ThreefoldInvariants(1, 0, 1, 1)) == 16


def test_quadruple_points_examples():
    assert quadruple_points(PALATINI) == 1
    assert quadruple_points(K3_SCROLL) == 1
    assert quadruple_points(DEGREE_TEN) == 1
    assert quadruple_points(CI_23) == 0
    assert isinstance(quadruple_points(PALATINI), Fraction)


def test_four_secants_examples():
    assert four_secants_through_point(7, 4, 1) == 1
    assert four_secants_through_point(9, 8, 2) == 2
    assert four_secants_through_point(10, 11, 5) == 4


def test_foursecant_scroll_degree_examples():
    assert foursecant_scroll_degree(7, 4, 1) == 3
    assert foursecant_scroll_degree(9, 8, 2) == 7
    assert foursecant_scroll_degree(10, 11, 5) == 15


def test_curve_foursecants_examples():
    assert curve_foursecants(7, 4) == 2
    assert curve_foursecants(9, 8) == 13
    assert curve_foursecants(10, 11) == 20


def test_residual_examples():
    assert foursecant_constraint_residual(7, 4, 1) == 0
    assert foursecant_constraint_residual(10, 11, 5) == 0
    # (2,3) complete intersection section: constraint fails.
    r = foursecant_constraint_residual(6, 4, 2)
    assert r == 1
    assert r == -(
        4 * four_secants_through_point(6, 4, 2)
        - 1
        - foursecant_scroll_degree(6, 4, 2)
    )


def test_constraint_identity_on_grid():
    # 4h - 1 - a1 = -residual must hold as a polynomial identity.
    for d in range(1, 13):
        for pi in range(0, 9):
            for chi in range(-3, 4):
                lhs = (
                    4 * four_secants_through_point(d, pi, chi)
                    - 1
                    - foursecant_scroll_degree(d, pi, chi)
                )
                assert lhs == -foursecant_constraint_residual(d, pi, chi)


def test_constraint_identity_random():
    rng = random.Random(2024)
    for _ in range(200):
        d = rng.randint(1, 60)
        pi = rng.randint(0, 80)
        chi = rng.randint(-25, 25)
        lhs = (
            4 * four_secants_through_point(d, pi, chi)
            - 1
            - foursecant_scroll_degree(d, pi, chi)
        )
        assert lhs == -foursecant_constraint_residual(d, pi, chi)


def test_apparent_triple_points_examples():
    assert apparent_triple_points(BORDIGA) == 1
    assert apparent_triple_points(VERONESE) == 1
    assert apparent_triple_points(CI_22) == 0


def _hk(s):
    """H.K by adjunction on a general curve section."""
    return 2 * s.pi - 2 - s.d


def _c2(s):
    """Topological Euler characteristic via Noether: c2 = 12*chi - K^2."""
    return 12 * s.chi - s.k_squared


def test_surface_derived_fields():
    # The Bordiga surface is P^2 blown up in ten points (c2 = 13), the
    # Veronese surface is P^2 (c2 = 3); the triple-point formula reads
    # the same H.K and c2 off the basic invariants.
    assert (_hk(BORDIGA), _c2(BORDIGA)) == (-2, 13)
    assert (_hk(VERONESE), _c2(VERONESE)) == (-6, 3)
    assert apparent_triple_points(BORDIGA) == _triple_point_oracle(6, -1, 13, -2)
    assert apparent_triple_points(VERONESE) == _triple_point_oracle(4, 9, 3, -6)


def test_blowup_matches_four_secants_on_references():
    assert blowup_triple_points(BORDIGA) == four_secants_through_point(6, 3, 1)
    assert blowup_triple_points(VERONESE) == four_secants_through_point(4, 0, 1)


def test_k_squared_from_double_point():
    assert k_squared_from_double_point(6, 3, 1) == BORDIGA.k_squared
    assert k_squared_from_double_point(4, 0, 1) == VERONESE.k_squared
    assert k_squared_from_double_point(4, 1, 1) == CI_22.k_squared
    assert k_squared_from_double_point(5, 2, 1) == 1


def test_blowup_identity_with_consistent_k_squared():
    # With K^2 pinned by the double point formula, blowing up one point
    # and counting triple points reproduces the 4-secants through it.
    for d in range(1, 11):
        for pi in range(0, 7):
            for chi in range(-2, 3):
                k2 = k_squared_from_double_point(d, pi, chi)
                s = SurfaceInvariants(d, pi, chi, k2)
                assert blowup_triple_points(s) == four_secants_through_point(
                    d, pi, chi
                )


def test_blowup_identity_random():
    rng = random.Random(77)
    for _ in range(200):
        d = rng.randint(1, 40)
        pi = rng.randint(0, 50)
        chi = rng.randint(-15, 15)
        k2 = k_squared_from_double_point(d, pi, chi)
        s = SurfaceInvariants(d, pi, chi, k2)
        assert blowup_triple_points(s) == four_secants_through_point(d, pi, chi)


# The rational expressions the integer formulas replaced, kept as
# oracles: each is the published form of its count, term by term.
def _k_cubed_oracle(d, p, chi_s, chi_x):
    return (
        Fraction(-5) * d**2 + Fraction(d) * (2 * p + 25) + 24 * (p - 1)
        - 36 * chi_x - 24 * chi_s
    )


def _h_k_squared_oracle(d, p, chi_x):
    return Fraction(d * (d + 1), 2) - 9 * (p - 1) + 6 * chi_x


def _quadruple_points_oracle(d, p, chi_s, chi_x):
    d, p = Fraction(d), Fraction(p)
    return (
        d**4 / 24 - d**3 / 4 + d**2 / 2 * (Fraction(11, 12) - p)
        + d * (Fraction(5, 2) * p + 2 * chi_s - Fraction(9, 4))
        + p**2 / 2 - Fraction(7, 2) * p + 6 * chi_x - 9 * chi_s + 3
    )


def _four_secants_oracle(d, p, chi):
    d, p = Fraction(d), Fraction(p)
    return (
        d**3 / 6 - Fraction(3, 2) * d**2 + d * (Fraction(16, 3) - p)
        + 4 * p + 2 * chi - 10
    )


def _scroll_degree_oracle(d, p, chi):
    d, p = Fraction(d), Fraction(p)
    return (
        d**4 / 8 - Fraction(5, 4) * d**3 + d**2 * (Fraction(35, 8) - p)
        + d * (7 * p + 2 * chi - Fraction(33, 4))
        + p**2 / 2 - Fraction(25, 2) * p - 9 * chi + 12
    )


def _curve_foursecants_oracle(d, p):
    d, p = Fraction(d), Fraction(p)
    return (
        d**4 / 12 - d**3 + Fraction(53, 12) * d**2 - Fraction(17, 2) * d + 6
        - p * d**2 / 2 + Fraction(7, 2) * d * p - Fraction(13, 2) * p + p**2 / 2
    )


def _residual_oracle(d, p, chi):
    d, p = Fraction(d), Fraction(p)
    return (
        d**4 / 8 - Fraction(23, 12) * d**3 - d**2 * (p - Fraction(83, 8))
        - d * (Fraction(355, 12) - 11 * p - 2 * chi)
        + p**2 / 2 - Fraction(57, 2) * p - 17 * chi + 53
    )


def _triple_point_oracle(d, k_squared, c2, hk):
    d = Fraction(d)
    return (
        d * (d**2 - 12 * d + 44) + 4 * k_squared - 2 * c2 - 3 * hk * (d - 8)
    ) / 6


def _same(value, want, kind=Fraction):
    return type(value) is kind and value == want


def test_integer_formulas_match_rational_oracles():
    # Zero and negative invariants included; the polynomials are
    # identities, so they must agree outside the geometric range too.
    for d in range(-4, 13):
        for p in range(-4, 9):
            assert _same(curve_foursecants(d, p), _curve_foursecants_oracle(d, p))
            for chi in range(-5, 6):
                args = (d, p, chi)
                assert _same(four_secants_through_point(*args), _four_secants_oracle(*args))
                assert _same(foursecant_scroll_degree(*args), _scroll_degree_oracle(*args))
                assert _same(foursecant_constraint_residual(*args), _residual_oracle(*args))
                k2 = k_squared_from_double_point(*args)
                assert _same(k2, Fraction(d * d - 5 * d - 10 * p + 12 * chi + 10, 2), int)


def test_threefold_formulas_match_rational_oracles():
    for d in range(1, 13):
        for p in range(0, 9):
            for chi_s in range(-4, 5):
                for chi_x in (-3, 0, 2):
                    t = ThreefoldInvariants(d, p, chi_s, chi_x)
                    assert _same(quadruple_points(t), _quadruple_points_oracle(d, p, chi_s, chi_x))
                    assert _same(k_cubed(t), _k_cubed_oracle(d, p, chi_s, chi_x), int)
                    assert _same(h_k_squared(t), _h_k_squared_oracle(d, p, chi_x), int)


def test_triple_point_formulas_match_rational_oracle():
    for d in range(1, 13):
        for p in range(-2, 7):
            for chi in range(-3, 4):
                for k2 in (-5, 0, 9):
                    s = SurfaceInvariants(d, p, chi, k2)
                    want = _triple_point_oracle(d, k2, _c2(s), _hk(s))
                    assert _same(apparent_triple_points(s), want)
                    blowup = _triple_point_oracle(d - 1, k2 - 1, _c2(s) + 1, 2 * p - d - 1)
                    assert _same(blowup_triple_points(s), blowup)


def test_threefold_validation():
    with pytest.raises(ValueError, match="^degree must be >= 1$"):
        ThreefoldInvariants(0, 1, 1, 1)
    with pytest.raises(ValueError, match="^sectional genus must be >= 0$"):
        ThreefoldInvariants(5, -1, 1, 1)
    with pytest.raises(ValueError, match="^degree must be >= 1$"):
        SurfaceInvariants(d=0, pi=0, chi=1, k_squared=1)


def test_invariants_are_immutable_records():
    t = ThreefoldInvariants(d=7, pi=4, chi_section=1, chi=1)
    s = SurfaceInvariants(6, 3, 1, -1)
    assert (t, s) == (PALATINI, BORDIGA)
    assert repr(t) == "ThreefoldInvariants(d=7, pi=4, chi_section=1, chi=1)"
    assert repr(s) == "SurfaceInvariants(d=6, pi=3, chi=1, k_squared=-1)"
    for record, field in ((t, "chi"), (s, "k_squared")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0
    assert len({t, PALATINI, s, BORDIGA}) == 2


def test_linear_focal_degree():
    assert linear_focal_degree(3) == 2
    assert linear_focal_degree(4) == 4
    assert linear_focal_degree(5) == 7
    with pytest.raises(ValueError):
        linear_focal_degree(2)
    for n in range(3, 11):
        assert linear_focal_degree(n) < (n - 1) ** 2


def test_pfaffian_hypersurface_degree():
    assert pfaffian_hypersurface_degree(3) == 2
    assert pfaffian_hypersurface_degree(5) == 3
    assert pfaffian_hypersurface_degree(7) == 4
    with pytest.raises(ValueError):
        pfaffian_hypersurface_degree(4)
    with pytest.raises(ValueError):
        pfaffian_hypersurface_degree(6)
    with pytest.raises(ValueError):
        pfaffian_hypersurface_degree(1)


def test_determinantal_invariants():
    assert determinantal_invariants(3) == FocalLocusInvariants(3, 0, 1)
    assert determinantal_invariants(4) == FocalLocusInvariants(6, 3, 2)
    assert determinantal_invariants(5) == FocalLocusInvariants(10, 11, 3)
    with pytest.raises(ValueError):
        determinantal_invariants(2)
    # C(n,2) < (n-1)^2 for every n >= 3: the degree window never rules
    # these loci out.
    for n in range(3, 13):
        assert determinantal_invariants(n).degree < (n - 1) ** 2


def _curve_section_degree_genus(n):
    """Degree and arithmetic genus of the curve section of the center:
    its ideal in P^3 is that of the maximal minors of an n x (n+1)
    matrix of linear forms, so by Eagon-Northcott its Hilbert polynomial
    is C(D+3,3) - (n+1)C(D+3-n,3) + nC(D+2-n,3) = degree*D + 1 - p_a.
    comb agrees with the binomial polynomial for D >= n - 2."""

    def hilbert(D):
        return comb(D + 3, 3) - (n + 1) * comb(D + 3 - n, 3) + n * comb(D + 2 - n, 3)

    degree = hilbert(n + 1) - hilbert(n)
    assert hilbert(n + 2) - hilbert(n + 1) == degree  # linear in D
    return degree, 1 + degree * n - hilbert(n)


def test_blowup_center_invariants():
    # n = 4: ten points, and the genus formula's value there.
    assert blowup_center_invariants(4) == FocalLocusInvariants(10, 11, 0)
    assert [blowup_center_invariants(n).degree for n in (5, 6)] == [15, 21]
    for n in range(5, 11):
        degree, genus = _curve_section_degree_genus(n)
        assert blowup_center_invariants(n) == FocalLocusInvariants(degree, genus, n - 4)
    with pytest.raises(ValueError):
        blowup_center_invariants(3)


def test_focal_degree_bound():
    assert focal_degree_bound(5, 9, 1) is True
    assert focal_degree_bound(5, 16, 1) is False
    assert focal_degree_bound(5, 4, 1) is False
    assert focal_degree_bound(5, 3, 2) is True
    assert focal_degree_bound(5, 2, 2) is False
    with pytest.raises(ValueError):
        focal_degree_bound(1, 1, 1)
    with pytest.raises(ValueError):
        focal_degree_bound(5, 0, 1)
    with pytest.raises(ValueError):
        focal_degree_bound(5, 9, 0)
