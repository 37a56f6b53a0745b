"""Tests for the exact-arithmetic substrate.

Oracles kept independent of the library paths: determinants are
re-done by permutation expansion, gcd fixtures are built as explicit
products of linear factors.
"""

import gc
import random
from fractions import Fraction
from itertools import permutations

import pytest

from quadpoint.exact import (
    MultiPoly,
    RationalMatrix,
    binary_coeffs,
    binary_form,
    binary_gcd,
    determinant,
    pfaffian,
    primitive_vector,
    rank_and_kernel,
    ring_determinant,
    seeded_skew_matrix,
)


def perm_det(rows, zero):
    """Permutation-expansion determinant, the brute-force oracle."""
    n = len(rows)
    total = zero
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        total = total + prod if inversions % 2 == 0 else total - prod
    return total


def form_from_roots(roots):
    """Product of the linear forms t0*s - s0*t over the given roots."""
    out = binary_form([1])
    for s0, t0 in roots:
        out = out * binary_form([t0, -s0])
    return out


def value_at(f, s, t):
    """f(s, t) from the dense coefficients of the binary form f."""
    cs = binary_coeffs(f)
    return sum(c * s ** (len(cs) - 1 - k) * t**k for k, c in enumerate(cs))


def random_rational(rng, bound=9):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 5))


# ----- rank and kernel -----


def test_integral_entries_are_stored_as_int():
    from_ints = RationalMatrix([[1, -2], [0, 3]])
    from_fractions = RationalMatrix([[Fraction(1), Fraction(-4, 2)], [Fraction(0), "3"]])
    assert from_fractions == from_ints
    assert hash(from_fractions) == hash(from_ints)
    assert repr(from_fractions) == repr(from_ints) == "RationalMatrix[1 -2; 0 3]"
    assert all(type(x) is int for i in range(2) for x in from_fractions.row(i))
    mixed = RationalMatrix([[Fraction(1, 2), True]])
    assert [type(x) for x in mixed.row(0)] == [Fraction, int]
    assert mixed.mat_vec([2, Fraction(1, 3)]) == (Fraction(4, 3),)
    with pytest.raises(TypeError):
        RationalMatrix([[0.5]])


def test_rank_identity():
    rank, basis = rank_and_kernel(RationalMatrix([[1, 0], [0, 1]]))
    assert rank == 2
    assert basis == ()


def test_rank_single_row():
    rank, basis = rank_and_kernel(RationalMatrix([[1, 1, 1]]))
    assert rank == 1
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


def test_kernel_of_coordinate_rows():
    m = RationalMatrix([[1, 0, 0, 0], [0, 0, 0, 1]])
    rank, basis = rank_and_kernel(m)
    assert rank == 2
    assert sorted(basis) == [(0, 0, 1, 0), (0, 1, 0, 0)]


def test_rank_equals_rank_of_transpose():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        data = [[random_rational(rng) for _ in range(cols)] for _ in range(rows)]
        transpose = RationalMatrix(zip(*data))
        assert rank_and_kernel(RationalMatrix(data))[0] == rank_and_kernel(transpose)[0]


def test_rank_nullity_and_annihilation():
    rng = random.Random(23)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        # low-rank products exercise nontrivial kernels
        inner = rng.randint(1, 3)
        a = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(inner)]
        m = RationalMatrix(
            [
                [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
                for i in range(rows)
            ]
        )
        rank, basis = rank_and_kernel(m)
        assert rank + len(basis) == cols
        for v in basis:
            assert all(x == 0 for x in m.mat_vec(v))
        if basis:
            span = RationalMatrix(basis)
            assert rank_and_kernel(span)[0] == len(basis)


def test_determinant_matches_permutation_oracle():
    rng = random.Random(5)
    cases = []
    for _ in range(25):
        n = rng.randint(1, 6)
        cases.append([[random_rational(rng) for _ in range(n)] for _ in range(n)])
    for n in (2, 3, 4, 5, 6):
        rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        repeated = [list(r) for r in rows]
        repeated[-1] = list(repeated[0])
        zero_col = [list(r) for r in rows]
        for r in zero_col:
            r[n // 2] = Fraction(0)
        # Every row but the last starts with 0, so the first pivot needs a
        # row swap.
        swapped = [[Fraction(0)] + r[1:] for r in rows[:-1]] + [rows[-1]]
        cases += [repeated, zero_col, swapped]
    for rows in cases:
        assert determinant(RationalMatrix(rows)) == perm_det(rows, Fraction(0))


def test_ring_determinant_matches_permutation_oracle():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(1, 4)
        rows = [
            [
                MultiPoly(
                    2,
                    {
                        (1, 0): rng.randint(-3, 3),
                        (0, 1): rng.randint(-3, 3),
                    },
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        zero = MultiPoly.zero(2)
        assert ring_determinant(rows, zero) == perm_det(rows, zero)


# ----- pfaffian -----


def test_pfaffian_2x2_variable():
    a = MultiPoly.variable(1, 0)
    assert pfaffian([[MultiPoly.zero(1), a], [-a, MultiPoly.zero(1)]]) == a


def test_pfaffian_4x4_generic():
    # six independent variables above the diagonal
    nv = 6
    v = [MultiPoly.variable(nv, i) for i in range(nv)]
    z = MultiPoly.zero(nv)
    a01, a02, a03, a12, a13, a23 = v
    m = [
        [z, a01, a02, a03],
        [-a01, z, a12, a13],
        [-a02, -a12, z, a23],
        [-a03, -a13, -a23, z],
    ]
    pf = pfaffian(m)
    assert pf == a01 * a23 - a02 * a13 + a03 * a12
    assert pf * pf == perm_det(m, z)


def test_pfaffian_squared_is_determinant_integers():
    for size in (2, 4, 6):
        for seed in range(3):
            m = seeded_skew_matrix(100 * size + seed, size, 9)
            rows = [list(m.row(i)) for i in range(size)]
            assert pfaffian(rows) ** 2 == perm_det(rows, Fraction(0))


def test_pfaffian_squared_is_determinant_polynomials():
    rng = random.Random(17)
    for size in (2, 4, 6):
        rows = [[MultiPoly.zero(2) for _ in range(size)] for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                p = MultiPoly(
                    2, {(1, 0): rng.randint(-3, 3), (0, 1): rng.randint(-3, 3)}
                )
                rows[i][j] = p
                rows[j][i] = -p
        assert pfaffian(rows) * pfaffian(rows) == perm_det(rows, MultiPoly.zero(2))


def expansion_pfaffian(rows, idx=None):
    """First-row expansion with no sharing of sub-Pfaffians, the oracle."""
    if idx is None:
        idx = tuple(range(len(rows)))
    if len(idx) == 2:
        return rows[idx[0]][idx[1]]
    first, rest = idx[0], idx[1:]
    total = None
    for pos, j in enumerate(rest):
        term = rows[first][j] * expansion_pfaffian(rows, rest[:pos] + rest[pos + 1 :])
        if pos % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def test_pfaffian_matches_expansion_oracle():
    # From size 8 on, sub-Pfaffians recur across branches of the expansion.
    for size in (8, 10):
        for seed in range(2):
            m = seeded_skew_matrix(7 * size + seed, size, 9)
            rows = [list(m.row(i)) for i in range(size)]
            assert pfaffian(rows) == expansion_pfaffian(rows)
            assert pfaffian(rows) ** 2 == determinant(m)
    rng = random.Random(23)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    rows = [[MultiPoly.zero(3) for _ in range(8)] for _ in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            p = MultiPoly(3, {e: rng.randint(-3, 3) for e in units})
            rows[i][j] = p
            rows[j][i] = -p
    assert pfaffian(rows) == expansion_pfaffian(rows)


def test_pfaffian_frees_its_memo_on_return():
    # The memo of sub-Pfaffians must go when pfaffian returns, not wait
    # in a reference cycle for the next run of the garbage collector.
    m = seeded_skew_matrix(5, 8, 9)
    rows = [list(m.row(i)) for i in range(8)]
    gc.collect()
    gc.disable()
    try:
        pfaffian(rows)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pfaffian_zero_matrix():
    z = MultiPoly.zero(1)
    assert pfaffian([[z, z], [z, z]]) == z


def test_pfaffian_rejects_odd_size():
    with pytest.raises(ValueError):
        pfaffian([[Fraction(0)]])


def test_pfaffian_rejects_non_skew():
    with pytest.raises(ValueError):
        pfaffian([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])


def test_odd_skew_determinant_is_zero():
    for size in (3, 5, 7):
        for seed in range(3):
            m = seeded_skew_matrix(31 * size + seed, size, 9)
            assert determinant(m) == 0


# ----- binary forms -----


def test_binary_gcd_ignores_zero_forms():
    st = binary_form([0, 1, 0])
    zero = MultiPoly.zero(2)
    g = binary_gcd([st, zero, zero])
    assert g == st


def test_binary_gcd_all_zero():
    assert binary_gcd([MultiPoly.zero(2), MultiPoly.zero(2)]) == MultiPoly.zero(2)


def test_binary_gcd_empty_input_rejected():
    with pytest.raises(ValueError):
        binary_gcd([])


def test_binary_gcd_shared_factor():
    f1 = form_from_roots([(1, 1), (1, 1), (0, 1)])  # (s-t)^2 * s
    f2 = form_from_roots([(1, 1), (0, 1), (0, 1)])  # (s-t) * s^2
    g = binary_gcd([f1, f2])
    assert g == form_from_roots([(1, 1), (0, 1)]).monic()
    assert g.total_degree() == 2


def test_binary_gcd_coprime_forms():
    g = binary_gcd([binary_form([1, 0, 0]), binary_form([0, 0, 1])])
    assert g.total_degree() == 0
    assert g == binary_form([1])


def test_binary_gcd_scaling_invariance():
    rng = random.Random(41)
    for _ in range(20):
        shared = [(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        f1 = form_from_roots(shared + [(rng.randint(-3, 3), rng.randint(1, 3))])
        f2 = form_from_roots(shared + [(rng.randint(4, 7), rng.randint(1, 3))])
        base = binary_gcd([f1, f2])
        c1 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        c2 = Fraction(-rng.randint(1, 9), rng.randint(1, 9))
        scaled = binary_gcd([f1 * c1, f2 * c2])
        assert scaled.total_degree() == base.total_degree()
        assert scaled == base  # monic output is scale-free entirely


def test_binary_gcd_divides_inputs_and_quotients_coprime():
    rng = random.Random(59)
    for _ in range(20):
        shared = [(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        # distinct extra roots keep the quotients coprime
        quots = [form_from_roots([(5 + 3 * k, 1)]) for k in range(3)]
        forms = [form_from_roots(shared) * q for q in quots]
        g = binary_gcd(forms)
        for f, q in zip(forms, quots):
            assert (g * q).monic() == f.monic()
        assert binary_gcd(quots).total_degree() == 0


def test_binary_form_reparametrized_evaluation():
    f = form_from_roots([(1, 2), (3, 4)])
    assert value_at(f, 1, 2) == 0
    assert value_at(f, 3, 4) == 0
    assert value_at(f, 1, 0) != 0


def test_binary_coeffs_round_trip():
    rng = random.Random(7)
    cases = [[0, 1, 0], [0, 0, 1], [1, 0, 0], [5], [Fraction(-2, 3), 0, 4, 0]]
    cases += [[random_rational(rng) or 1 for _ in range(rng.randint(1, 6))] for _ in range(20)]
    for coeffs in cases:
        assert binary_coeffs(binary_form(coeffs)) == coeffs
    with pytest.raises(ValueError):
        binary_form([])


def test_binary_functions_reject_non_binary_forms():
    s, t = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    three_vars = MultiPoly.variable(3, 0)
    inhomogeneous = s * s + t
    for bad in (three_vars, inhomogeneous, MultiPoly.zero(2)):
        with pytest.raises(ValueError):
            binary_coeffs(bad)
    for bad in (three_vars, inhomogeneous):
        with pytest.raises(ValueError):
            binary_gcd([binary_form([1, 1]), bad])


# ----- multivariate polynomials -----


def test_multipoly_arithmetic_and_evaluation():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert value_at(p, 3, 2) == 5
    assert p - p == MultiPoly.zero(2)
    assert p.is_homogeneous(2)
    assert not (p + x).is_homogeneous()


def test_multipoly_render_is_graded_lex():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = y + x * x * 2 - x * y
    assert str(p) == "2*x0^2 - x0*x1 + x1"
    assert p.render(["s", "t"]) == "2*s^2 - s*t + t"


def test_multipoly_monic():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert MultiPoly.zero(2).monic() == MultiPoly.zero(2)
    p = y * y * 3 - x * y * Fraction(2, 5) + y * 7
    # graded lex: x0*x1 leads among the degree-2 terms
    assert p.monic() == p * Fraction(-5, 2)
    assert p.monic().terms[(1, 1)] == 1
    for c in (Fraction(3, 7), -2, Fraction(-1, 9)):
        assert (p * c).monic() == p.monic()
    assert binary_form([0, -4, 2]).monic() == binary_form([0, 1, Fraction(-1, 2)])


def test_multipoly_rejects_mixed_variable_counts():
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 0) + MultiPoly.variable(3, 0)


# ----- random matrices and vectors -----


def test_seeded_skew_matrix_is_deterministic():
    a = seeded_skew_matrix(1, 4, 9)
    assert a == seeded_skew_matrix(1, 4, 9)
    assert all(abs(x) <= 9 and x.denominator == 1 for i in range(4) for x in a.row(i))


def test_seeded_skew_matrix_shape():
    m = seeded_skew_matrix(1, 2, 5)
    assert m.is_skew_symmetric()
    assert m.entry(0, 0) == 0
    assert abs(m.entry(0, 1)) <= 5
    for seed in (1, 2):
        assert seeded_skew_matrix(seed, 6, 9).is_skew_symmetric()


def test_seeded_skew_matrix_rejects_bad_sizes():
    with pytest.raises(ValueError):
        seeded_skew_matrix(1, 0, 9)
    with pytest.raises(ValueError):
        seeded_skew_matrix(1, 2, 0)


def test_primitive_vector_canonical_form():
    assert primitive_vector([Fraction(1, 2), Fraction(-3, 4)]) == (2, -3)
    assert primitive_vector([0, -2, 4]) == (0, 1, -2)
    with pytest.raises(ValueError):
        primitive_vector([0, 0])
