"""Schubert calculus tests.

The closed forms are checked against the iterated Pieri product, which
serves as the independent oracle throughout.  A class is a dict
{(a, b): coefficient} and a multidegree is a tuple.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from quadpoint.schubert import (
    _pieri_sigma1,
    grassmannian_degree,
    linear_congruence_multidegree,
    plucker_degree,
    render_class,
    sigma1_power_closed,
    sigma1_power_iterative,
)


def plucker_degree_via_pieri(n, degrees):
    """Oracle route: coefficient of sigma_{n-1,n-1} in [B] * sigma_1^(n-1),
    where [B] = sum_i a_i sigma_{n-1-i,i} is the class of the multidegree."""
    c = {(n - 1 - i, i): a for i, a in enumerate(degrees) if a}
    for _ in range(n - 1):
        c = _pieri_sigma1(n, c)
    return c.get((n - 1, n - 1), 0)


def add(c1, c2):
    out = dict(c1)
    for p, k in c2.items():
        out[p] = out.get(p, 0) + k
    return {p: k for p, k in out.items() if k}


def test_pieri_on_sigma_00():
    assert _pieri_sigma1(5, {(0, 0): 1}) == {(1, 0): 1}


def test_pieri_closes_b_branch():
    # sigma_{1,1}: the b+1 > a branch is empty
    assert _pieri_sigma1(5, {(1, 1): 1}) == {(2, 1): 1}


def test_pieri_truncates_at_ambient():
    # n=4: a+1 would exceed n-1=3
    assert _pieri_sigma1(4, {(3, 2): 1}) == {(3, 3): 1}
    # n=2: sigma_{1,1} is the class of a point, and sigma_1 kills it
    assert _pieri_sigma1(2, {(1, 1): 7}) == {}


def test_pieri_is_linear():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(3, 7)
        pairs = [(a, b) for a in range(n) for b in range(a + 1)]
        c1 = add({}, {rng.choice(pairs): rng.randint(-5, 5) for _ in range(3)})
        c2 = add({}, {rng.choice(pairs): rng.randint(-5, 5) for _ in range(3)})
        assert _pieri_sigma1(n, add(c1, c2)) == add(
            _pieri_sigma1(n, c1), _pieri_sigma1(n, c2)
        )
    # cancelling coefficients leave no zero entries behind
    assert _pieri_sigma1(3, {(2, 0): 1, (1, 1): -1}) == {}


def test_closed_power_examples():
    assert sigma1_power_closed(5, 3) == {(3, 0): 1, (2, 1): 2}
    assert sigma1_power_closed(4, 3) == {(3, 0): 1, (2, 1): 2}
    assert sigma1_power_closed(9, 1) == {(1, 0): 1}


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
    assert sigma1_power_iterative(3, 4) == {(2, 2): 2}
    assert sigma1_power_iterative(4, 6) == {(3, 3): 5}
    assert sigma1_power_iterative(7, 0) == {(0, 0): 1}
    assert sigma1_power_iterative(3, 5) == {}


def test_binomial_identity_for_pieri_coefficients():
    # C(l-1,i) - C(l-1,i-2) == C(l,i) * (l-2i+1) / (l-i+1), exactly
    for power in range(1, 13):
        for i in range(power // 2 + 1):
            lhs = comb(power - 1, i) - (comb(power - 1, i - 2) if i >= 2 else 0)
            rhs = Fraction(comb(power, i) * (power - 2 * i + 1), power - i + 1)
            assert Fraction(lhs) == rhs


def test_multidegree_shape_validation():
    with pytest.raises(ValueError, match="needs 3 entries, got 2"):
        plucker_degree(5, (1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        plucker_degree(5, (1, -1, 0))
    with pytest.raises(ValueError, match="ambient"):
        plucker_degree(1, (1,))
    assert plucker_degree(5, (2, 0, 0)) == 2


def test_plucker_degree_reference_values():
    assert plucker_degree(5, (1, 3, 2)) == 14
    assert plucker_degree(4, (1, 2)) == 5
    assert plucker_degree(3, (1, 1)) == 2
    assert plucker_degree(5, (1, 7, 13)) == 48
    assert plucker_degree(5, (1, 15, 20)) == 86


def test_plucker_degree_matches_pieri_route():
    rng = random.Random(7)
    for n in range(3, 8):
        nu = (n - 1) // 2
        for _ in range(20):
            degrees = tuple(rng.randint(0, 9) for _ in range(nu + 1))
            assert plucker_degree(n, degrees) == plucker_degree_via_pieri(n, degrees)


def test_linear_congruence_multidegrees():
    assert linear_congruence_multidegree(3) == (1, 1)
    assert linear_congruence_multidegree(4) == (1, 2)
    assert linear_congruence_multidegree(5) == (1, 3, 2)
    assert linear_congruence_multidegree(6) == (1, 4, 5)
    for n in range(2, 11):
        md = linear_congruence_multidegree(n)
        assert md[0] == 1
        # a linear section preserves degree
        assert plucker_degree(n, md) == grassmannian_degree(n)
        # self-pairing: sum of squares of the section coefficients
        assert sum(a * a for a in md) == grassmannian_degree(n)


def test_grassmannian_degrees():
    assert [grassmannian_degree(n) for n in range(2, 9)] == [1, 2, 5, 14, 42, 132, 429]
    for n in range(2, 9):
        top = sigma1_power_iterative(n, 2 * (n - 1))
        assert top == {(n - 1, n - 1): grassmannian_degree(n)}


def test_printing():
    assert render_class({(2, 2): 2, (4, 0): 1, (3, 1): 3}) == "σ[4,0] + 3σ[3,1] + 2σ[2,2]"
    assert render_class({(2, 1): -1, (3, 0): 1}) == "σ[3,0] - σ[2,1]"
    assert render_class({(2, 1): 1, (3, 0): -4}) == "-4σ[3,0] + σ[2,1]"
    assert render_class({(1, 1): -1}) == "-σ[1,1]"
    assert render_class({}) == "0"


def test_index_validation():
    # the power is checked before the ambient dimension n, and the
    # closed form checks its range 1 <= l <= n-1 before anything else
    with pytest.raises(ValueError, match="power must be >= 0"):
        sigma1_power_iterative(1, -1)
    with pytest.raises(ValueError, match="ambient"):
        sigma1_power_iterative(1, 0)
    with pytest.raises(ValueError, match="closed form requires"):
        sigma1_power_closed(1, 1)
    with pytest.raises(ValueError, match="n must be >= 2"):
        linear_congruence_multidegree(1)
