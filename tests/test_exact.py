"""Tests for the exact-arithmetic substrate.

Oracles kept independent of the library paths: determinants are
re-done by permutation expansion, gcd fixtures are built as explicit
products of linear factors.
"""

import gc
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadpoint.exact import (
    MultiPoly,
    RationalMatrix,
    _exact_tuple,
    binary_gcd,
    determinant,
    pfaffian,
    primitive_vector,
    rank_and_kernel,
    rank_and_kernel_mod,
    ring_determinant,
    seeded_skew_matrix,
)
from restriction import apply, binary_coeffs, binary_form, normalized, variable


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
    """Coefficients of the product of the linear forms t0*s - s0*t over
    the given roots."""
    out = binary_form([1])
    for s0, t0 in roots:
        out = out * binary_form([t0, -s0])
    return binary_coeffs(out)


def form_product(f, g):
    """Coefficients of the product of two binary forms."""
    return binary_coeffs(binary_form(f) * binary_form(g))


def value_at(cs, s, t):
    """The value at (s, t) of the binary form with coefficients cs."""
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
    assert mixed.row(0) == (Fraction(1, 2), 1)
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
            assert not any(apply(m, v))
        if basis:
            span = RationalMatrix(basis)
            assert rank_and_kernel(span)[0] == len(basis)


PRIMES = (2, 3, 5, 7, (1 << 61) - 1)
exact_search = settings(database=None, derandomize=True, max_examples=60, deadline=None)


@st.composite
def integer_rows(draw, entries=st.integers(-30, 30)):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def lifted_low_rank(draw):
    """(A, B) of one shape, B = U * V of rank at most 2: the rows p*A + B
    are B mod p, of rank at most 2 there, while over Q they mostly
    have full rank."""
    a = draw(integer_rows())
    inner = draw(st.integers(1, 2))
    u = [[draw(st.integers(-3, 3)) for _ in range(inner)] for _ in a]
    v = [[draw(st.integers(-3, 3)) for _ in a[0]] for _ in range(inner)]
    return a, [[sum(x * y for x, y in zip(row, col)) for col in zip(*v)] for row in u]


def assert_kernel_mod(rows, p, rank, kernel):
    """rank + nullity = columns, and every kernel vector is reduced mod
    p, has a unit at a free column no other vector has, and annihilates
    every row mod p."""
    ncols = len(rows[0])
    assert rank + len(kernel) == ncols
    units = [max(i for i, x in enumerate(v) if x) for v in kernel]
    assert len(set(units)) == len(kernel)
    for v, f in zip(kernel, units):
        assert len(v) == ncols and all(0 <= x < p for x in v) and v[f] == 1
        assert all(u[f] == 0 for u in kernel if u is not v)
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in rows)


def gauss_jordan_mod(rows, p):
    """(rank, kernel) over GF(p) of rows of exact rationals, each row
    first cleared of denominators, by full Gauss-Jordan elimination
    (eliminating above every pivot too): the oracle of
    `rank_and_kernel_mod`'s forward elimination and back-substitution."""
    work = []
    for row in rows:
        row = [Fraction(x) for x in row]
        mult = math.lcm(*(x.denominator for x in row))
        work.append([int(x * mult) % p for x in row])
    nrows, ncols = len(work), len(work[0])
    pivot_cols = []
    for c in range(ncols):
        r = len(pivot_cols)
        piv = next((i for i in range(r, nrows) if work[i][c]), None)
        if piv is None:
            continue
        inv = pow(work[piv][c], -1, p)
        row = [x * inv % p for x in work[piv]]
        work[piv] = work[r]
        work[r] = row
        for i in range(nrows):
            f = work[i][c]
            if f and i != r:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], row)]
        pivot_cols.append(c)
        if r + 1 == nrows:
            break
    kernel = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(work, pivot_cols):
            v[c] = -row[f] % p
        kernel.append(tuple(v))
    return len(pivot_cols), tuple(kernel)


@st.composite
def degenerate_rows(draw):
    """Rows of int or Fraction entries, some of them combinations of the
    others, with zero rows and zero columns mixed in."""
    ints = st.integers(-30, 30)
    entries = st.one_of(ints, st.builds(Fraction, ints, st.integers(1, 9))) if draw(st.booleans()) else ints
    ncols = draw(st.integers(1, 7))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(ints), draw(ints)
        rows.insert(draw(st.integers(0, len(rows))), [s * x + t * y for x, y in zip(a, b)])
    for _ in range(draw(st.integers(0, 1))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    return rows


@settings(exact_search, max_examples=300)
@given(degenerate_rows(), st.sampled_from((2, 3, 7, (1 << 61) - 1)))
def test_rank_mod_p_matches_gauss_jordan(rows, p):
    assert rank_and_kernel_mod(rows, p) == gauss_jordan_mod(rows, p)


@exact_search
@given(integer_rows(), st.sampled_from(PRIMES))
def test_rank_mod_p_is_at_most_the_rank_over_q(rows, p):
    rank, kernel = rank_and_kernel_mod(rows, p)
    assert rank <= rank_and_kernel(rows)[0]
    assert_kernel_mod(rows, p, rank, kernel)


@exact_search
@given(lifted_low_rank(), st.sampled_from(PRIMES[:4]))
def test_rank_mod_p_sees_only_the_residues(ab, p):
    a, b = ab
    rows = [[p * x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    rank, kernel = rank_and_kernel_mod(rows, p)
    assert (rank, kernel) == rank_and_kernel_mod(b, p)
    assert rank <= min(2, rank_and_kernel(rows)[0])
    assert_kernel_mod(rows, p, rank, kernel)


def test_rank_lost_only_mod_p():
    # det = -p(p-1): full rank over Q, rank 1 mod p, kernel (1, 1).
    for p in PRIMES:
        rows = [[1, p - 1], [1 + p, p - 1]]
        assert rank_and_kernel(rows)[0] == 2
        assert rank_and_kernel_mod(rows, p) == (1, ((1, 1),))
    # Fractions are cleared row by row first: 1/2 * (1, 2) becomes (1, 2).
    assert rank_and_kernel_mod([[Fraction(1, 2), 1]], 5) == (1, ((3, 1),))
    assert rank_and_kernel_mod([[0, 0, 0]], 7) == (0, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


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


# The row containers that rank_and_kernel and determinant accept.
ROW_CONTAINERS = {
    "list": lambda rows: [list(r) for r in rows],
    "tuple": lambda rows: tuple(tuple(r) for r in rows),
    "generator": lambda rows: (iter(r) for r in rows),
    "RationalMatrix": RationalMatrix,
}


@pytest.mark.parametrize("wrap", ROW_CONTAINERS.values(), ids=ROW_CONTAINERS)
def test_row_containers_give_the_same_results(wrap):
    rng = random.Random(29)
    for _ in range(20):
        size = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        data = [[random_rational(rng) for _ in range(cols)] for _ in range(size)]
        assert rank_and_kernel(wrap(data)) == rank_and_kernel(RationalMatrix(data))
        square = [[random_rational(rng) for _ in range(size)] for _ in range(size)]
        assert determinant(wrap(square)) == perm_det(square, Fraction(0))


@pytest.mark.parametrize("function", [rank_and_kernel, determinant])
@pytest.mark.parametrize(
    "rows, error",
    [([], ValueError), ([[]], ValueError), ([[1, 2], [3]], ValueError),
     ([[1, 0], [0, 0.5]], TypeError)],
    ids=["no-rows", "empty-row", "ragged", "float"],
)
def test_rows_are_checked(function, rows, error):
    for wrap in ROW_CONTAINERS.values():
        with pytest.raises(error):
            function(wrap(rows))


@pytest.mark.parametrize(
    "rows, value",
    [([[2, 1], [1, 1]], 1), ([[1, 2], [2, 4]], 0),
     ([[Fraction(1, 2), 0], [0, 4]], 2), ([[0, 1], [1, 0]], -1)],
)
def test_determinant_of_integer_value_is_int(rows, value):
    det = determinant(rows)
    assert type(det) is int and det == value


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
        zero = MultiPoly(2)
        assert ring_determinant(rows, zero) == perm_det(rows, zero)


# ----- pfaffian -----


def test_pfaffian_2x2_variable():
    a = variable(1, 0)
    assert pfaffian([[MultiPoly(1), a], [-a, MultiPoly(1)]]) == a


def test_pfaffian_4x4_generic():
    # six independent variables above the diagonal
    nv = 6
    v = [variable(nv, i) for i in range(nv)]
    z = MultiPoly(nv)
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
        rows = [[MultiPoly(2) for _ in range(size)] for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                p = MultiPoly(
                    2, {(1, 0): rng.randint(-3, 3), (0, 1): rng.randint(-3, 3)}
                )
                rows[i][j] = p
                rows[j][i] = -p
        assert pfaffian(rows) * pfaffian(rows) == perm_det(rows, MultiPoly(2))


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
    rows = [[MultiPoly(3) for _ in range(8)] for _ in range(8)]
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
    z = MultiPoly(1)
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
    st = (0, 1, 0)
    g = binary_gcd([st, [0, 0], [0]])
    assert g == st


def test_binary_gcd_all_zero():
    assert binary_gcd([[0, 0], [0], ()]) == ()


def test_binary_gcd_empty_input_rejected():
    with pytest.raises(ValueError):
        binary_gcd([])


def test_binary_gcd_shared_factor():
    f1 = form_from_roots([(1, 1), (1, 1), (0, 1)])  # (s-t)^2 * s
    f2 = form_from_roots([(1, 1), (0, 1), (0, 1)])  # (s-t) * s^2
    g = binary_gcd([f1, f2])
    assert g == normalized(form_from_roots([(1, 1), (0, 1)]))
    assert len(g) - 1 == 2


def test_binary_gcd_coprime_forms():
    g = binary_gcd([[1, 0, 0], [0, 0, 1]])
    assert len(g) - 1 == 0
    assert g == (1,)


def test_binary_gcd_scaling_invariance():
    rng = random.Random(41)
    for _ in range(20):
        shared = [(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        f1 = form_from_roots(shared + [(rng.randint(-3, 3), rng.randint(1, 3))])
        f2 = form_from_roots(shared + [(rng.randint(4, 7), rng.randint(1, 3))])
        base = binary_gcd([f1, f2])
        c1 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        c2 = Fraction(-rng.randint(1, 9), rng.randint(1, 9))
        scaled = binary_gcd([[c1 * x for x in f1], [c2 * x for x in f2]])
        assert len(scaled) == len(base)
        assert scaled == base  # normalised output is scale-free entirely


def test_binary_gcd_divides_inputs_and_quotients_coprime():
    rng = random.Random(59)
    for _ in range(20):
        shared = [(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        # distinct extra roots keep the quotients coprime
        quots = [form_from_roots([(5 + 3 * k, 1)]) for k in range(3)]
        forms = [form_product(form_from_roots(shared), q) for q in quots]
        g = binary_gcd(forms)
        for f, q in zip(forms, quots):
            assert normalized(form_product(g, q)) == normalized(f)
        assert len(binary_gcd(quots)) - 1 == 0


def test_binary_gcd_normalises_first_coefficient_to_one():
    # The first nonzero entry, that of the highest power of s, becomes 1;
    # integral entries come back as int.
    assert binary_gcd([[0, -4, 2]]) == (0, 1, Fraction(-1, 2))
    assert binary_gcd([[6, 4, 0]]) == (1, Fraction(2, 3), 0)
    g = binary_gcd([[Fraction(-3, 7), Fraction(6, 7)], [2, -4]])
    assert g == (1, -2)
    assert [type(c) for c in g] == [int, int]
    rng = random.Random(13)
    for _ in range(20):
        f = [random_rational(rng) for _ in range(rng.randint(1, 6))]
        if any(f):
            g = binary_gcd([f])
            assert g == normalized(f)
            assert next(c for c in g if c) == 1


def test_binary_gcd_rejects_float_entries():
    with pytest.raises(TypeError):
        binary_gcd([[1, 0.5]])
    with pytest.raises(TypeError):
        binary_gcd([[1, 1], [0.0, 1]])


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
    s, t = variable(2, 0), variable(2, 1)
    three_vars = variable(3, 0)
    inhomogeneous = s * s + t
    for bad in (three_vars, inhomogeneous, MultiPoly(2)):
        with pytest.raises(ValueError):
            binary_coeffs(bad)


# ----- multivariate polynomials -----


def test_multipoly_arithmetic_and_evaluation():
    x = variable(2, 0)
    y = variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert value_at(binary_coeffs(p), 3, 2) == 5
    assert p - p == MultiPoly(2)
    assert p.is_homogeneous(2)
    assert not (p + x).is_homogeneous()


def test_multipoly_render_is_graded_lex():
    x = variable(2, 0)
    y = variable(2, 1)
    p = y + x * x + x * x - x * y
    assert str(p) == "2*x0^2 - x0*x1 + x1"
    assert p.render(["s", "t"]) == "2*s^2 - s*t + t"


def test_multipoly_rejects_mixed_variable_counts():
    with pytest.raises(ValueError):
        variable(2, 0) + variable(3, 0)


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


class Small(int):
    """An int subclass, which the type scan of plain ints must not pass."""


def test_bools_and_int_subclasses_are_stored_as_plain_ints():
    # Rows of bools only and of int subclasses only, besides mixed rows.
    m = RationalMatrix([[True, False], [Small(3), Small(0)], [Fraction(4, 2), True]])
    assert [list(map(type, row)) for row in m] == [[int, int]] * 3
    assert list(m) == [(1, 0), (3, 0), (2, 1)]
    for vec in ([True, True], [Small(1), Small(1)], [Small(1), True]):
        assert list(map(type, _exact_tuple(vec))) == [int, int]
    for vec in ([False, True, True], [Small(0), Small(1), Small(1)]):
        v = primitive_vector(vec)
        assert v == (0, 1, 1) and list(map(type, v)) == [int, int, int]
    with pytest.raises(TypeError):
        RationalMatrix([[1, 0.5]])
