"""Schubert calculus for lines in P^n.

A class on the Grassmannian G(1,n) of lines is a dict mapping index
pairs (a, b), n-1 >= a >= b >= 0, of the special cycles sigma_{a,b} to
nonzero int coefficients.  A multidegree (a_0, ..., a_nu) of a
congruence, nu = floor((n-1)/2), is a tuple.  The module gives Pieri
products by sigma_1, closed-form powers of sigma_1, multidegrees of
linear congruences, and Pluecker degrees.
"""

from __future__ import annotations

from math import comb


def _pairing_coefficient(n: int, i: int) -> int:
    """Coefficient of sigma_{n-1-i,i} in sigma_1^(n-1); self-dual pairing weight."""
    high = comb(n - 2, i) if 0 <= i <= n - 2 else 0
    low = comb(n - 2, i - 2) if 2 <= i and i - 2 <= n - 2 else 0
    return high - low


def _check_ambient(n: int) -> None:
    if n < 2:
        raise ValueError("ambient projective dimension must be >= 2")


def _pieri_sigma1(n: int, c: dict) -> dict:
    """Multiply by sigma_1: sigma_{a,b} -> sigma_{a+1,b} + sigma_{a,b+1},
    keeping only pairs with n-1 >= a >= b and nonzero coefficients."""
    out = {}
    for (a, b), coeff in c.items():
        if a + 1 <= n - 1:
            out[(a + 1, b)] = out.get((a + 1, b), 0) + coeff
        if b + 1 <= a:
            out[(a, b + 1)] = out.get((a, b + 1), 0) + coeff
    return {p: k for p, k in out.items() if k}


def sigma1_power_iterative(n: int, power: int) -> dict:
    """sigma_1^power by repeated Pieri products; valid for every power >= 0."""
    if power < 0:
        raise ValueError("power must be >= 0")
    _check_ambient(n)
    out = {(0, 0): 1}
    for _ in range(power):
        out = _pieri_sigma1(n, out)
    return out


def sigma1_power_closed(n: int, power: int) -> dict:
    """Closed form sigma_1^l = sum_i (C(l-1,i) - C(l-1,i-2)) sigma_{l-i,i}.

    Only claimed for 1 <= l <= n-1, where no truncation occurs; every
    coefficient is then positive.
    """
    if not 1 <= power <= n - 1:
        raise ValueError("closed form requires 1 <= power <= n-1")
    return {
        (power - i, i): comb(power - 1, i) - (comb(power - 1, i - 2) if i >= 2 else 0)
        for i in range(power // 2 + 1)
    }


def render_class(c: dict) -> str:
    """A class in sigma notation, a descending then b descending:
    "σ[4,0] + 3σ[3,1] - σ[2,2]", and "0" for the zero class."""
    text = "".join(
        " %s %sσ[%d,%d]" % ("-" if k < 0 else "+", abs(k) if abs(k) != 1 else "", a, b)
        for (a, b), k in sorted(c.items(), reverse=True)
    )
    if not text:
        return "0"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def plucker_degree(n: int, degrees: tuple) -> int:
    """Degree in the Pluecker embedding of a congruence in P^n with
    multidegree `degrees`.

    Self-duality of the sigma_{n-1-i,i} basis reduces the degree pairing
    to sum(a_i * (C(n-2,i) - C(n-2,i-2))).  The alternative coefficient
    set C(n,i)*(n-2i+1)/(n-i+1) is not used: it fails the linear-section
    cross-check, giving 23 instead of 14 for (1,3,2) at n=5.
    """
    _check_ambient(n)
    entries = (n - 1) // 2 + 1
    if len(degrees) != entries:
        raise ValueError(
            "multidegree for n=%d needs %d entries, got %d" % (n, entries, len(degrees))
        )
    if any(a < 0 for a in degrees):
        raise ValueError("multidegree entries must be nonnegative")
    return sum(a * _pairing_coefficient(n, i) for i, a in enumerate(degrees))


def linear_congruence_multidegree(n: int) -> tuple:
    """The multidegree of the intersection of G(1,n) with n-1 general
    hyperplanes of the Pluecker space: a_i = C(n-2,i) - C(n-2,i-2)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return tuple(_pairing_coefficient(n, i) for i in range((n - 1) // 2 + 1))


def grassmannian_degree(n: int) -> int:
    """Degree of G(1,n) in the Pluecker embedding: C(2n-2,n)/(n-1)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    total = comb(2 * n - 2, n)
    q, r = divmod(total, n - 1)
    if r:
        raise ArithmeticError("C(2n-2,n) not divisible by n-1")
    return q
