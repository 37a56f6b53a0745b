"""Acceptance suite: every check is exact, zero tolerance.

Each criterion prints its own pass/fail line via the conftest hook.
"""

from quadpoint.catalog import (
    classify_surfaces,
    classify_threefolds,
    load_builtin_catalog,
    multidegree_of_verdict,
    scan_exclusion,
)
from quadpoint.congruence import (
    _probes,
    determinant_vanishes_identically,
    focal_points_on_line,
    line_through_point,
    pfaffian_polynomial,
    random_determinantal_congruence,
    random_linear_congruence,
    twisted_cubic_congruence,
)
from quadpoint.exact import MultiPoly, RationalMatrix, rank_and_kernel
from quadpoint.formulas import (
    SurfaceInvariants,
    ThreefoldInvariants,
    apparent_triple_points,
    blowup_center_invariants,
    blowup_triple_points,
    curve_foursecants,
    determinantal_invariants,
    four_secants_through_point,
    foursecant_constraint_residual,
    foursecant_scroll_degree,
    k_squared_from_double_point,
    linear_focal_degree,
    quadruple_points,
)
from quadpoint.schubert import (
    grassmannian_degree,
    linear_congruence_multidegree,
    plucker_degree,
    sigma1_power_closed,
    sigma1_power_iterative,
)
from restriction import oracle_report, restricted, scaled, without_form

THREEFOLDS = (
    ThreefoldInvariants(7, 4, 1, 1),
    ThreefoldInvariants(9, 8, 2, 2),
    ThreefoldInvariants(10, 11, 5, 1),
)


def test_criterion_01_quadruple_point_counts():
    for t in THREEFOLDS:
        assert quadruple_points(t) == 1


def test_criterion_02_multidegree_reproduction():
    expected = {7: (1, 3, 2), 9: (1, 7, 13), 10: (1, 15, 20)}
    for t in THREEFOLDS:
        a1 = foursecant_scroll_degree(t.d, t.pi, t.chi_section)
        a2 = curve_foursecants(t.d, t.pi)
        assert (1, a1, a2) == expected[t.d]


def test_criterion_03_linear_congruence_multidegrees():
    expected = {3: ((1, 1), 2), 4: ((1, 2), 5), 5: ((1, 3, 2), 14)}
    for n, (md, degree) in expected.items():
        found = linear_congruence_multidegree(n)
        assert found == md
        assert plucker_degree(n, found) == degree
        assert degree == grassmannian_degree(n)


def test_criterion_04_closed_form_vs_oracle():
    for n in range(2, 11):
        for power in range(1, n):
            assert sigma1_power_closed(n, power) == sigma1_power_iterative(n, power)
    values = {2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 132, 8: 429}
    for n, degree in values.items():
        top = sigma1_power_iterative(n, 2 * (n - 1))
        assert top[(n - 1, n - 1)] == degree
        assert grassmannian_degree(n) == degree


def test_criterion_05_constraint_identity_full_grid():
    for d in range(1, 31):
        for pi in range(0, 41):
            for chi in range(-10, 11):
                lhs = (
                    4 * four_secants_through_point(d, pi, chi)
                    - 1
                    - foursecant_scroll_degree(d, pi, chi)
                    + foursecant_constraint_residual(d, pi, chi)
                )
                assert lhs == 0


def test_criterion_06_surface_classification_and_blowup_identity():
    assert apparent_triple_points(SurfaceInvariants(4, 0, 1, 9)) == 1
    assert apparent_triple_points(SurfaceInvariants(6, 3, 1, -1)) == 1
    assert apparent_triple_points(SurfaceInvariants(4, 1, 1, 4)) == 0
    count = 0
    for d in range(1, 11):
        for pi in range(0, 10):
            for chi in range(-4, 6):
                k2 = k_squared_from_double_point(d, pi, chi)
                s = SurfaceInvariants(d, pi, chi, k2)
                assert blowup_triple_points(s) == four_secants_through_point(
                    d, pi, chi
                )
                count += 1
    assert count == 1000


def test_criterion_07_complete_intersection_exclusion():
    assert quadruple_points(ThreefoldInvariants(6, 4, 2, 1)) == 0


def _probe_lines(kind, n, seed):
    if kind == "linear":
        c = random_linear_congruence(n, seed, 9)
    else:
        c = random_determinantal_congruence(n, seed, 9)
    lines = []
    for point, line, reason in _probes(c, 10, seed, 9):
        assert line is not None and reason is None, point
        if kind == "linear":
            for m in c.matrices:
                residual = sum(
                    line.p0[j] * m.entry(j, k) * line.p1[k]
                    for j in range(n + 1)
                    for k in range(n + 1)
                )
                assert residual == 0
        else:
            _, left = rank_and_kernel(RationalMatrix(c.columns_at(point)))
            lam = left[0]
            rows = restricted(c, line)
            for j in range(n - 1):
                combo = MultiPoly(2)
                for i in range(n):
                    combo = combo + scaled(rows[i][j], lam[i])
                assert combo == MultiPoly(2)
        lines.append((c, line))
    return lines


def test_criterion_08_construction_order_one():
    probes = 0
    for seed in (1, 2, 3, 4, 5):
        for n in (3, 4, 5):
            for kind in ("linear", "determinantal"):
                assert len(_probe_lines(kind, n, seed)) == 10
            probes += 10
    assert probes == 150


def test_criterion_09_focal_length_on_probe_lines():
    for seed in (1, 2, 3, 4, 5):
        for n in (3, 4, 5):
            for kind in ("linear", "determinantal"):
                for c, line in _probe_lines(kind, n, seed):
                    report = focal_points_on_line(c, line)
                    assert report.gcd_degree == n - 1
                    assert not report.focal_line
    tc = twisted_cubic_congruence()
    line = line_through_point(tc, (1, 0, 0, 1))
    report = focal_points_on_line(tc, line)
    assert report.minor_degrees == (None, 2, None)
    assert report.gcd_degree == 2
    # The focal form s*t, from the test oracle: the library certifies
    # its degree and never builds it.
    oracle = oracle_report(tc, line)
    assert report == without_form(oracle)
    assert oracle[1] == (0, 1, 0)


def test_criterion_10_pfaffian_degrees():
    for seed in (1, 2, 3, 4, 5):
        assert pfaffian_polynomial(
            random_linear_congruence(5, seed, 9)
        ).is_homogeneous(3)
        assert pfaffian_polynomial(
            random_linear_congruence(3, seed, 9)
        ).is_homogeneous(2)
        assert determinant_vanishes_identically(
            random_linear_congruence(4, seed, 9)
        )


def test_criterion_11_focal_degree_closed_forms():
    assert [linear_focal_degree(n) for n in (3, 4, 5)] == [2, 4, 7]
    for n, degree, genus in ((3, 3, 0), (4, 6, 3), (5, 10, 11)):
        inv = determinantal_invariants(n)
        assert (inv.degree, inv.sectional_genus) == (degree, genus)
    assert blowup_center_invariants(4).degree == 10


def test_criterion_12_catalog_end_to_end():
    records = load_builtin_catalog()
    report3 = {e.name: e for e in classify_threefolds([r for r in records if r.dim == 3])}
    passing = {name for name, e in report3.items() if e.passed}
    assert passing == {"palatini_scroll", "k3_scroll", "degree_ten_determinantal"}
    expected_md = {
        "palatini_scroll": (1, 3, 2),
        "k3_scroll": (1, 7, 13),
        "degree_ten_determinantal": (1, 15, 20),
    }
    for name, md in expected_md.items():
        assert multidegree_of_verdict(report3[name]) == md
    ci = report3["ci_2_3_threefold"]
    assert not ci.passed
    assert [k for k, v in ci.verdicts.items() if not v]

    report2 = {e.name: e for e in classify_surfaces([r for r in records if r.dim == 2])}
    passing2 = {name for name, e in report2.items() if e.passed}
    assert passing2 == {"veronese_projected", "bordiga"}
    ci2 = report2["ci_2_2_surface"]
    assert not ci2.passed
    assert not ci2.verdicts["triple_point_one"]

    assert (4, 1, 1) in scan_exclusion(7, (0, 10), (-5, 5))
    assert (8, 2, 2) in scan_exclusion(9, (0, 20), (-10, 10))
    assert (11, 5, 1) in scan_exclusion(10, (0, 20), (-10, 10))
