"""Schubert calculus tests.

The closed forms are checked against the iterated Pieri product, which
serves as the independent oracle throughout.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from quadpoint.schubert import (
    Multidegree,
    SchubertClass,
    grassmannian_degree,
    linear_congruence_multidegree,
    pieri_sigma1,
    plucker_degree,
    sigma1_power_closed,
    sigma1_power_iterative,
)


def plucker_degree_via_pieri(m):
    """Oracle route: coefficient of sigma_{n-1,n-1} in [B] * sigma_1^(n-1),
    where [B] = sum_i a_i sigma_{n-1-i,i} is the class of multidegree m."""
    c = SchubertClass(m.n, {(m.n - 1 - i, i): a for i, a in enumerate(m.degrees)})
    for _ in range(m.n - 1):
        c = pieri_sigma1(c)
    return c.coefficient(m.n - 1, m.n - 1)


def test_pieri_on_sigma_00():
    assert pieri_sigma1(SchubertClass.sigma(5, 0, 0)) == SchubertClass.sigma(5, 1, 0)


def test_pieri_closes_b_branch():
    # sigma_{1,1}: the b+1 > a branch is empty
    assert pieri_sigma1(SchubertClass.sigma(5, 1, 1)) == SchubertClass.sigma(5, 2, 1)


def test_pieri_truncates_at_ambient():
    # n=4: a+1 would exceed n-1=3
    assert pieri_sigma1(SchubertClass.sigma(4, 3, 2)) == SchubertClass.sigma(4, 3, 3)


def test_pieri_is_linear():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(3, 7)
        pairs = [(a, b) for a in range(n) for b in range(a + 1)]
        c1 = SchubertClass(n, {rng.choice(pairs): rng.randint(-5, 5) for _ in range(3)})
        c2 = SchubertClass(n, {rng.choice(pairs): rng.randint(-5, 5) for _ in range(3)})
        assert pieri_sigma1(c1 + c2) == pieri_sigma1(c1) + pieri_sigma1(c2)


def test_closed_power_examples():
    expected = SchubertClass(5, {(3, 0): 1, (2, 1): 2})
    assert sigma1_power_closed(5, 3) == expected
    assert sigma1_power_closed(4, 3) == SchubertClass(4, {(3, 0): 1, (2, 1): 2})
    assert sigma1_power_closed(9, 1) == SchubertClass.sigma(9, 1, 0)


def test_closed_power_range_check():
    with pytest.raises(ValueError):
        sigma1_power_closed(5, 0)
    with pytest.raises(ValueError):
        sigma1_power_closed(5, 5)


def test_closed_equals_iterative_in_range():
    for n in range(2, 11):
        for power in range(1, n):
            assert sigma1_power_closed(n, power) == sigma1_power_iterative(n, power)


def test_iterative_beyond_truncation():
    assert sigma1_power_iterative(3, 4) == SchubertClass(3, {(2, 2): 2})
    assert sigma1_power_iterative(4, 6) == SchubertClass(4, {(3, 3): 5})
    assert sigma1_power_iterative(7, 0) == SchubertClass.sigma(7, 0, 0)


def test_binomial_identity_for_pieri_coefficients():
    # C(l-1,i) - C(l-1,i-2) == C(l,i) * (l-2i+1) / (l-i+1), exactly
    for power in range(1, 13):
        for i in range(power // 2 + 1):
            lhs = comb(power - 1, i) - (comb(power - 1, i - 2) if i >= 2 else 0)
            rhs = Fraction(comb(power, i) * (power - 2 * i + 1), power - i + 1)
            assert Fraction(lhs) == rhs


def test_multidegree_shape_validation():
    with pytest.raises(ValueError):
        Multidegree(5, (1, 2))
    with pytest.raises(ValueError):
        Multidegree(5, (1, -1, 0))
    md = Multidegree(5, (1, 3, 2))
    assert md.order == 1
    assert Multidegree(5, (2, 0, 0)).order == 2


def test_plucker_degree_reference_values():
    assert plucker_degree(Multidegree(5, (1, 3, 2))) == 14
    assert plucker_degree(Multidegree(4, (1, 2))) == 5
    assert plucker_degree(Multidegree(3, (1, 1))) == 2
    assert plucker_degree(Multidegree(5, (1, 7, 13))) == 48
    assert plucker_degree(Multidegree(5, (1, 15, 20))) == 86


def test_plucker_degree_matches_pieri_route():
    rng = random.Random(7)
    for n in range(3, 8):
        nu = (n - 1) // 2
        for _ in range(20):
            m = Multidegree(n, [rng.randint(0, 9) for _ in range(nu + 1)])
            assert plucker_degree(m) == plucker_degree_via_pieri(m)


def test_linear_congruence_multidegrees():
    assert linear_congruence_multidegree(3) == (1, 1)
    assert linear_congruence_multidegree(4) == (1, 2)
    assert linear_congruence_multidegree(5) == (1, 3, 2)
    assert linear_congruence_multidegree(6) == (1, 4, 5)
    for n in range(2, 11):
        md = linear_congruence_multidegree(n)
        assert md.order == 1
        # a linear section preserves degree
        assert plucker_degree(md) == grassmannian_degree(n)
        # self-pairing: sum of squares of the section coefficients
        assert sum(a * a for a in md) == grassmannian_degree(n)


def test_grassmannian_degrees():
    assert [grassmannian_degree(n) for n in range(2, 9)] == [1, 2, 5, 14, 42, 132, 429]
    for n in range(2, 9):
        cls = sigma1_power_iterative(n, 2 * (n - 1))
        assert cls == SchubertClass(n, {(n - 1, n - 1): grassmannian_degree(n)})


def test_printing():
    c = SchubertClass(5, {(4, 0): 1, (3, 1): 3, (2, 2): 2})
    assert str(c) == "σ[4,0] + 3σ[3,1] + 2σ[2,2]"
    assert str(SchubertClass(4, {(2, 1): -1, (3, 0): 1})) == "σ[3,0] - σ[2,1]"
    assert str(Multidegree(5, (1, 3, 2))) == "(1,3,2)"
    assert str(SchubertClass.zero(4)) == "0"


def test_index_validation():
    with pytest.raises(ValueError):
        SchubertClass(4, {(4, 0): 1})  # a exceeds n-1
    with pytest.raises(ValueError):
        SchubertClass(4, {(1, 2): 1})  # b > a
    with pytest.raises(ValueError):
        SchubertClass(1)
