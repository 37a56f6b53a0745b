"""Schubert calculus for lines in P^n.

Special cycles sigma_{a,b} on the Grassmannian G(1,n) of lines, Pieri
products by sigma_1, closed-form powers of sigma_1, multidegrees of
congruences, and Pluecker degrees.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Optional


def _pairing_coefficient(n: int, i: int) -> int:
    """Coefficient of sigma_{n-1-i,i} in sigma_1^(n-1); self-dual pairing weight."""
    high = comb(n - 2, i) if 0 <= i <= n - 2 else 0
    low = comb(n - 2, i - 2) if 2 <= i and i - 2 <= n - 2 else 0
    return high - low


class SchubertClass:
    """Integer combination of special Schubert cycles sigma_{a,b} on G(1,n).

    Pairs satisfy n-1 >= a >= b >= 0; zero coefficients are never stored.
    """

    __slots__ = ("n", "coefficients")

    def __init__(self, n: int, coefficients: Optional[dict] = None):
        if n < 2:
            raise ValueError("ambient projective dimension must be >= 2")
        self.n = int(n)
        clean = {}
        for pair, coeff in (coefficients or {}).items():
            a, b = int(pair[0]), int(pair[1])
            c = int(coeff)
            if not (n - 1 >= a >= b >= 0):
                raise ValueError("bad index pair (%d,%d) for n=%d" % (a, b, n))
            if c:
                clean[(a, b)] = clean.get((a, b), 0) + c
        self.coefficients = {p: c for p, c in clean.items() if c}

    @classmethod
    def zero(cls, n: int) -> "SchubertClass":
        return cls(n)

    @classmethod
    def sigma(cls, n: int, a: int, b: int = 0) -> "SchubertClass":
        return cls(n, {(a, b): 1})

    def coefficient(self, a: int, b: int) -> int:
        return self.coefficients.get((a, b), 0)

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def _coerce(self, other) -> "SchubertClass":
        if not isinstance(other, SchubertClass):
            raise TypeError("expected a SchubertClass")
        if other.n != self.n:
            raise ValueError("ambient dimensions differ")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coefficients)
        for p, c in other.coefficients.items():
            out[p] = out.get(p, 0) + c
        return SchubertClass(self.n, out)

    def __neg__(self):
        return SchubertClass(self.n, {p: -c for p, c in self.coefficients.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, scalar):
        k = int(scalar)
        return SchubertClass(self.n, {p: k * c for p, c in self.coefficients.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, SchubertClass)
            and self.n == other.n
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.coefficients.items()))))

    def _sorted_terms(self):
        # canonical ordering: a descending, then b descending
        return sorted(self.coefficients.items(), key=lambda it: it[0], reverse=True)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for (a, b), c in self._sorted_terms():
            body = "σ[%d,%d]" % (a, b)
            if abs(c) != 1:
                body = "%d%s" % (abs(c), body)
            parts.append(("-" if c < 0 else "+", body))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "SchubertClass(n=%d, %s)" % (self.n, self)


class Multidegree:
    """The (nu+1)-degree (a_0, ..., a_nu) of a congruence, nu = floor((n-1)/2)."""

    __slots__ = ("n", "degrees")

    def __init__(self, n: int, degrees: Iterable[int]):
        if n < 2:
            raise ValueError("ambient projective dimension must be >= 2")
        degs = tuple(int(x) for x in degrees)
        nu = (n - 1) // 2
        if len(degs) != nu + 1:
            raise ValueError(
                "multidegree for n=%d needs %d entries, got %d" % (n, nu + 1, len(degs))
            )
        if any(x < 0 for x in degs):
            raise ValueError("multidegree entries must be nonnegative")
        self.n = int(n)
        self.degrees = degs

    @property
    def order(self) -> int:
        return self.degrees[0]

    def __iter__(self):
        return iter(self.degrees)

    def __len__(self):
        return len(self.degrees)

    def __getitem__(self, i):
        return self.degrees[i]

    def __eq__(self, other):
        if isinstance(other, Multidegree):
            return self.n == other.n and self.degrees == other.degrees
        if isinstance(other, tuple):
            return self.degrees == other
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.degrees))

    def __str__(self):
        return "(%s)" % ",".join(str(x) for x in self.degrees)

    def __repr__(self):
        return "Multidegree(n=%d, %s)" % (self.n, self)


def pieri_sigma1(c: SchubertClass) -> SchubertClass:
    """Multiply by sigma_1: sigma_{a,b} -> sigma_{a+1,b} + sigma_{a,b+1},
    keeping only pairs with n-1 >= a >= b."""
    n = c.n
    out = {}
    for (a, b), coeff in c.coefficients.items():
        if a + 1 <= n - 1:
            out[(a + 1, b)] = out.get((a + 1, b), 0) + coeff
        if b + 1 <= a:
            out[(a, b + 1)] = out.get((a, b + 1), 0) + coeff
    return SchubertClass(n, out)


def sigma1_power_iterative(n: int, power: int) -> SchubertClass:
    """sigma_1^power by repeated Pieri products; valid for every power >= 0."""
    if power < 0:
        raise ValueError("power must be >= 0")
    out = SchubertClass.sigma(n, 0, 0)
    for _ in range(power):
        out = pieri_sigma1(out)
    return out


def sigma1_power_closed(n: int, power: int) -> SchubertClass:
    """Closed form sigma_1^l = sum_i (C(l-1,i) - C(l-1,i-2)) sigma_{l-i,i}.

    Only claimed for 1 <= l <= n-1, where no truncation occurs.
    """
    if not 1 <= power <= n - 1:
        raise ValueError("closed form requires 1 <= power <= n-1")
    out = {}
    for i in range(power // 2 + 1):
        c = comb(power - 1, i) - (comb(power - 1, i - 2) if i >= 2 else 0)
        out[(power - i, i)] = c
    return SchubertClass(n, out)


def plucker_degree(m: Multidegree) -> int:
    """Degree of a congruence with multidegree m in the Pluecker embedding.

    Self-duality of the sigma_{n-1-i,i} basis reduces the degree pairing
    to sum(a_i * (C(n-2,i) - C(n-2,i-2))).  The alternative coefficient
    set C(n,i)*(n-2i+1)/(n-i+1) is not used: it fails the linear-section
    cross-check, giving 23 instead of 14 for (1,3,2) at n=5.
    """
    return sum(a * _pairing_coefficient(m.n, i) for i, a in enumerate(m.degrees))


def linear_congruence_multidegree(n: int) -> Multidegree:
    """Multidegree of the intersection of G(1,n) with n-1 general
    hyperplanes of the Pluecker space: a_i = C(n-2,i) - C(n-2,i-2)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    nu = (n - 1) // 2
    return Multidegree(n, [_pairing_coefficient(n, i) for i in range(nu + 1)])


def grassmannian_degree(n: int) -> int:
    """Degree of G(1,n) in the Pluecker embedding: C(2n-2,n)/(n-1)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    total = comb(2 * n - 2, n)
    q, r = divmod(total, n - 1)
    if r:
        raise ArithmeticError("C(2n-2,n) not divisible by n-1")
    return q
