"""The benchmark's own arithmetic, used to check every program output.

Nothing here imports quadpoint.  Kernels and ranks come from a
fraction-free elimination written here, determinants from Gaussian
elimination over Fraction, and the enumerative formulas are restated
over the integers by clearing their denominators (the program
evaluates them in Fraction).
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckFailure(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# ----- exact linear algebra -----


def echelon(rows) -> tuple:
    """Fraction-free row echelon form of an integer matrix: (rows, pivot
    columns).  Each entry below a finished pivot row is an exact minor of
    the input, so the division by the previous pivot is exact."""
    work = [list(row) for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            row = work[i]
            for k in range(c + 1, ncols):
                q, rem = divmod(row[k] * work[r][c] - row[c] * work[r][k], prev)
                require(rem == 0, "inexact Bareiss division")
                row[k] = q
            row[c] = 0
        prev = work[r][c]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows) -> int:
    return len(echelon(rows)[1])


def kernel(rows) -> list:
    """Integer basis of the right kernel, one vector per free column."""
    reduced, pivots = echelon(rows)
    ncols = len(rows[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reversed(reduced), reversed(pivots)):
            v[p] = -sum((row[k] * v[k] for k in range(p + 1, ncols)), Fraction(0)) / row[p]
        scale = math.lcm(*(x.denominator for x in v))
        basis.append([int(x * scale) for x in v])
    return basis


def determinant(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
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
            f = work[i][c] / work[c][c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return det


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def mat_vec(m, v) -> list:
    return [dot(row, v) for row in m]


def transpose(m) -> list:
    return [list(col) for col in zip(*m)]


# ----- congruence lines -----


def check_on_line(p0, p1, point) -> None:
    """p0 and p1 span a line and point lies on it."""
    pair = next(
        (
            (i, j)
            for i in range(len(p0))
            for j in range(i + 1, len(p0))
            if p0[i] * p1[j] - p0[j] * p1[i]
        ),
        None,
    )
    require(pair is not None, "spanning points are proportional")
    require(len(point) == len(p0), "probe point has the wrong length")
    i, j = pair
    # Cramer's rule on coordinates i, j: minor * point = a * p0 + b * p1.
    minor = p0[i] * p1[j] - p0[j] * p1[i]
    a = point[i] * p1[j] - point[j] * p1[i]
    b = p0[i] * point[j] - p0[j] * point[i]
    require(
        all(a * x + b * y == minor * z for x, y, z in zip(p0, p1, point)),
        "probe point %s is not on the line" % (tuple(point),),
    )


def check_linear_line(matrices, p0, p1, point) -> None:
    """p0^T A_i p1 = 0 for every skew form A_i, and point on the line."""
    check_on_line(p0, p1, point)
    for k, m in enumerate(matrices):
        require(dot(p0, mat_vec(m, p1)) == 0, "p0^T A_%d p1 != 0" % k)


def evaluate_forms(rows, point) -> list:
    """The n x (n-1) matrix of linear forms evaluated at point."""
    return [[dot(coeffs, point) for coeffs in row] for row in rows]


def check_determinantal_line(rows, p0, p1, point) -> None:
    """The lambda-combined forms of A(point) vanish at p0 and p1."""
    check_on_line(p0, p1, point)
    left = kernel(transpose(evaluate_forms(rows, point)))
    require(len(left) == 1, "lambda space at the probe has dimension %d" % len(left))
    lam = left[0]
    for q in (p0, p1):
        require(
            all(v == 0 for v in mat_vec(transpose(evaluate_forms(rows, q)), lam)),
            "lambda-combined forms do not vanish on the line",
        )


def is_focal(kind, data, point) -> bool:
    """Whether a probe point lies on the focal locus (no unique line)."""
    n = len(point) - 1
    if kind == "linear":
        stacked = [mat_vec(transpose(m), point) for m in data]
        return len(kernel(stacked)) != 2
    return rank(evaluate_forms(data, point)) != n - 1


def pfaffian_value(terms: dict, lam) -> Fraction:
    total = Fraction(0)
    for exps, coeff in terms.items():
        term = Fraction(coeff)
        for x, e in zip(lam, exps):
            term *= Fraction(x) ** e
        total += term
    return total


def check_pfaffian(matrices, terms: dict, lam) -> None:
    """Homogeneous of degree (n+1)/2 and Pf(lam)^2 = det(sum lam_i A_i)."""
    size = len(matrices[0])
    degree = size // 2
    require(terms, "pfaffian is zero")
    require(
        all(sum(e) == degree for e in terms),
        "pfaffian is not homogeneous of degree %d" % degree,
    )
    combined = [
        [sum(l * m[j][k] for l, m in zip(lam, matrices)) for k in range(size)]
        for j in range(size)
    ]
    require(
        pfaffian_value(terms, lam) ** 2 == determinant(combined),
        "Pf(lambda)^2 != det(sum lambda_i A_i) at lambda = %s" % (tuple(lam),),
    )


# ----- enumerative formulas over the integers -----


def q24(d, p, chi_s, chi_x) -> int:
    """24 times the apparent quadruple point count of a threefold in P^5."""
    return (
        d**4 - 6 * d**3 + 11 * d**2 - 12 * d**2 * p + 60 * d * p
        + 48 * d * chi_s - 54 * d + 12 * p**2 - 84 * p
        + 144 * chi_x - 216 * chi_s + 72
    )


def residual24(d, p, chi) -> int:
    """24 times the 4-secant constraint residual."""
    return (
        3 * d**4 - 46 * d**3 - 24 * d**2 * p + 249 * d**2 + 264 * d * p
        + 48 * d * chi - 710 * d + 12 * p**2 - 684 * p - 408 * chi + 1272
    )


def a1_8(d, p, chi) -> int:
    """8 times the degree of the 4-secant hypersurface."""
    return (
        d**4 - 10 * d**3 + d**2 * (35 - 8 * p) + d * (56 * p + 16 * chi - 66)
        + 4 * p**2 - 100 * p - 72 * chi + 96
    )


def a2_12(d, p) -> int:
    """12 times the 4-secant count of a space curve."""
    return (
        d**4 - 12 * d**3 + 53 * d**2 - 102 * d + 72
        - 6 * p * d**2 + 42 * d * p - 78 * p + 6 * p**2
    )


def triple6(d, p, chi, k2) -> int:
    """6 times the apparent triple point count of a surface in P^4."""
    return d**3 - 12 * d**2 + 44 * d + 6 * k2 - 24 * chi - 3 * (2 * p - 2 - d) * (d - 8)


def k_cubed(d, p, chi_s, chi_x) -> int:
    return -5 * d**2 + d * (2 * p + 25) + 24 * (p - 1) - 36 * chi_x - 24 * chi_s


def h_k_squared(d, p, chi_x) -> int:
    return d * (d + 1) // 2 - 9 * (p - 1) + 6 * chi_x


def scan(d, pi_max, chi_max) -> list:
    """Survivors (pi, chi_S, chi_X) of q = 1 and residual = 0."""
    out = []
    for p in range(pi_max + 1):
        for chi_s in range(-chi_max, chi_max + 1):
            num = 24 - q24(d, p, chi_s, 0)
            if num % 144:
                continue
            chi_x = num // 144
            if -chi_max <= chi_x <= chi_max and residual24(d, p, chi_s) == 0:
                out.append((p, chi_s, chi_x))
    return out


def threefold_verdict(d, p, chi_s, chi_x, multiplicity=1) -> tuple:
    """(failed verdict names, multidegree) as the classification filter
    defines them."""
    q, a1, a2 = q24(d, p, chi_s, chi_x), a1_8(d, p, chi_s), a2_12(d, p)
    verdicts = (
        ("quadruple_point_one", q == 24),
        ("residual_zero", residual24(d, p, chi_s) == 0),
        ("degree_bound", 4 < multiplicity * d and d < 16),
        ("integral", q % 24 == 0 and a1 % 8 == 0 and a2 % 12 == 0),
    )
    failed = [name for name, ok in verdicts if not ok]
    return failed, (1, a1 // 8, a2 // 12)


def surface_verdict(d, p, chi, k2, scroll) -> list:
    verdicts = (
        ("triple_point_one", triple6(d, p, chi, k2) == 6),
        ("degree_window", 4 <= d <= 8),
        ("not_scroll", not scroll),
    )
    return [name for name, ok in verdicts if not ok]


# ----- Schubert calculus -----


def pairing(n, i) -> int:
    high = math.comb(n - 2, i) if 0 <= i <= n - 2 else 0
    low = math.comb(n - 2, i - 2) if 2 <= i <= n else 0
    return high - low


def linear_multidegree(n) -> list:
    return [pairing(n, i) for i in range((n - 1) // 2 + 1)]


def plucker_degree(n, multidegree) -> int:
    return sum(a * pairing(n, i) for i, a in enumerate(multidegree))


def sigma1_power(n, power) -> dict:
    """sigma_1^power on G(1,n) by the Pieri rule."""
    cls = {(0, 0): 1}
    for _ in range(power):
        nxt = {}
        for (a, b), c in cls.items():
            if a + 1 <= n - 1:
                nxt[(a + 1, b)] = nxt.get((a + 1, b), 0) + c
            if b + 1 <= a:
                nxt[(a, b + 1)] = nxt.get((a, b + 1), 0) + c
        cls = nxt
    return cls
