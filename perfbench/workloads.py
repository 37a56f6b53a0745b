"""The three benchmark workloads: inputs, operations and output checks.

Each workload has a `setup` that builds the inputs the timed phase
uses, and a `cycle` that returns the next batch of operations.  Every
input comes from a random.Random the caller seeds; the program only
receives the generated values.  An operation's `call` runs the program
and is timed; its `check` runs after the timed phase and compares the
output with the benchmark's own arithmetic in oracle.py.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from types import SimpleNamespace

import oracle
import pace
from oracle import require

KINDS = ("linear", "determinantal")

# Survivor lists frozen in the repository's catalog tests, on their ranges.
FROZEN_SCANS = (
    (7, 10, 5, ((0, -1, -3), (4, 1, 1))),
    (9, 20, 10, ((8, 2, 2),)),
    (10, 20, 10, ((8, -4, 8), (11, 5, 1))),
)


class Op:
    """One timed operation.  `top` names the largest-size group the
    operation belongs to (None otherwise)."""

    __slots__ = ("label", "top", "call", "check")

    def __init__(self, label, call, check, top=None):
        self.label = label
        self.call = call
        self.check = check
        self.top = top


class FocalProbe:
    """Output of a probe that landed on the focal locus (no unique line)."""

    __slots__ = ("point",)

    def __init__(self, point):
        self.point = point


def random_point(rng, n, bound) -> tuple:
    while True:
        point = tuple(rng.randint(-bound, bound) for _ in range(n + 1))
        if any(point):
            return point


def construct(qp, kind, n, seed, bound):
    """The write path: random_* -> save_congruence -> load_congruence."""
    cong = qp.congruence
    make = (
        cong.random_linear_congruence
        if kind == "linear"
        else cong.random_determinantal_congruence
    )
    return cong.load_congruence(cong.save_congruence(make(n, seed, bound)))


def congruence_data(c) -> tuple:
    """(kind, integer data) of a congruence, in the shape oracle.py reads."""
    if c.kind == "linear":
        return "linear", [[[int(x) for x in m.row(i)] for i in range(m.rows)] for m in c.matrices]
    return "determinantal", [[[int(x) for x in coeffs] for coeffs in row] for row in c.rows]


def probe_op(qp, c, point, label, top=None, slice_=False):
    """line_through_point at `point`; with slice_, also the focal slice
    on that line (one `verify foci` trial)."""
    cong = qp.congruence
    n = c.n

    def call():
        try:
            line = cong.line_through_point(c, point)
        except cong.FocalPointError:
            return FocalProbe(point)
        if not slice_:
            return line
        return line, cong.focal_points_on_line(c, line)

    def check(out):
        kind, data = congruence_data(c)
        if isinstance(out, FocalProbe):
            require(oracle.is_focal(kind, data, point), "FocalPointError at a non-focal point")
            return
        line = out
        if slice_:
            line, report = out
            require(report.focal_line is False, "focal_line set on a congruence line")
            require(
                report.gcd_degree == n - 1,
                "gcd degree %r, expected %d" % (report.gcd_degree, n - 1),
            )
        if kind == "linear":
            oracle.check_linear_line(data, line.p0, line.p1, point)
        else:
            oracle.check_determinantal_line(data, line.p0, line.p1, point)

    return Op(label, call, check, top)


# ----- focal-slice -----


# `repeat` sets how often a slice type runs per cycle (once otherwise).
# The n=6 even check is the dearest operation and the linear n=7 slice
# the next; a 30 s run of four cycles holds four of the one and, at
# three per cycle, twelve of the other, so the eleventh largest time,
# latency_tail_s, falls near the middle of the n=7 linear group instead
# of at its edge.  The
# linear n=5 slice runs five times: nine operation types per cycle are
# cheaper and eight dearer, so the median falls inside that group
# rather than on the edge between it and the n=4 even check, which
# costs nearly as much.  Each size draws its congruences from a pool of
# ten, in turn.
FOCAL_SLICE = {
    "full": SimpleNamespace(
        ns=range(3, 8), repeat={("linear", 5): 5, ("linear", 7): 3}, pf_ns=(3, 5, 7), even_ns=(4, 6), pool=10, bound=9
    ),
    "tiny": SimpleNamespace(ns=range(3, 5), repeat={}, pf_ns=(3,), even_ns=(4,), pool=1, bound=9),
}


def focal_slice_setup(qp, rng, p, workdir):
    pools = {
        (kind, n): [construct(qp, kind, n, rng.randrange(1 << 31), p.bound) for _ in range(p.pool)]
        for kind in KINDS
        for n in p.ns
    }
    return SimpleNamespace(pools=pools, cubic=qp.congruence.twisted_cubic_congruence())


def focal_slice_cycle(qp, state, rng, p, index):
    cong = qp.congruence
    top_n = max(p.ns)
    ops = []
    for kind in KINDS:
        for n in p.ns:
            pool = state.pools[(kind, n)]
            reps = p.repeat.get((kind, n), 1)
            for r in range(reps):
                ops.append(
                    probe_op(
                        qp, pool[(index * reps + r) % p.pool], random_point(rng, n, p.bound),
                        "slice-%s-%d" % (kind, n), top=kind if n == top_n else None, slice_=True,
                    )
                )
    for n in p.pf_ns:
        c = state.pools[("linear", n)][index % p.pool]
        lam = [rng.choice((-1, 1)) * rng.randint(1, p.bound) for _ in range(n - 1)]

        def check_pf(out, c=c, lam=lam):
            oracle.check_pfaffian(congruence_data(c)[1], out.terms, lam)

        ops.append(Op("pfaffian-%d" % n, lambda c=c: cong.pfaffian_polynomial(c), check_pf))
    for n in p.even_ns:
        c = state.pools[("linear", n)][index % p.pool]

        def check_even(out):
            require(out is True, "determinant_vanishes_identically returned %r" % (out,))

        ops.append(Op("vanishes-%d" % n, lambda c=c: cong.determinant_vanishes_identically(c), check_even))

    cubic = state.cubic

    def cubic_known():
        return cong.focal_points_on_line(cubic, cong.line_through_point(cubic, (1, 0, 0, 1)))

    def check_cubic(report):
        require(report.minor_degrees == (None, 2, None), "twisted cubic minor degrees %r" % (report.minor_degrees,))
        require(report.gcd_degree == 2, "twisted cubic gcd degree %r" % (report.gcd_degree,))

    ops.append(Op("twisted-cubic-known", cubic_known, check_cubic))
    return ops


# ----- line-probe -----


LINE_PROBE = {
    "full": SimpleNamespace(ns=range(3, 13), bounds=(9, 10**6, 10**18)),
    "tiny": SimpleNamespace(ns=range(3, 6), bounds=(9, 10**6)),
}


def bound_label(bound) -> str:
    return str(bound) if bound < 10 else "1e%d" % (len(str(bound)) - 1)


def line_probe_setup(qp, rng, p, workdir):
    congruences = {
        (kind, n, bound): construct(qp, kind, n, rng.randrange(1 << 31), bound)
        for bound in p.bounds
        for n in p.ns
        for kind in KINDS
    }
    return SimpleNamespace(congruences=congruences, cubic=qp.congruence.twisted_cubic_congruence())


def line_probe_cycle(qp, state, rng, p, index):
    top = (max(p.ns), max(p.bounds))
    ops = [
        probe_op(
            qp, c, random_point(rng, n, bound), "probe-%s-%d-%s" % (kind, n, bound_label(bound)),
            top=kind if (n, bound) == top else None,
        )
        for (kind, n, bound), c in state.congruences.items()
    ]
    # The known-answer probe also makes the number of operation types odd,
    # so the median is the middle sample of one type, not the boundary
    # between the extreme samples of two.
    ops.append(probe_op(qp, state.cubic, (1, 0, 0, 1), "probe-twisted-cubic"))
    return ops


# ----- invariant-scan -----


# Two widest scans per cycle keep at least eleven of them in a run, so
# latency_tail_s stays inside the widest-scan group.  Each of the six
# one-liner commands (schubert pow|lincong|degree, formulas
# q|double|triple) runs `one_liners` times per cycle; at 6 the one-liners
# outnumber the nine heavier commands four to one, so the median falls
# well inside the one-liner group instead of at its upper edge.
INVARIANT_SCAN = {
    "full": SimpleNamespace(
        ds=range(4, 16), scans=3, pi_range=(90, 110), chi_range=(45, 55), widest=(120, 60),
        widest_scans=2, one_liners=6, records=3000, schubert_n=30,
    ),
    "tiny": SimpleNamespace(
        ds=range(4, 8), scans=1, pi_range=(8, 10), chi_range=(4, 5), widest=(12, 6),
        widest_scans=1, one_liners=1, records=40, schubert_n=8,
    ),
}

# Invariants that pass or nearly pass the filter, mixed into the catalog
# so that both verdicts occur: (d, pi, chi_S, chi_X) and (d, pi, chi, K2).
THREEFOLD_SEEDS = ((7, 4, 1, 1), (9, 8, 2, 2), (10, 11, 5, 1), (7, 0, -1, -3), (10, 8, -4, 8), (6, 4, 2, 1))
SURFACE_SEEDS = ((4, 0, 1, 9), (6, 3, 1, -1), (4, 1, 1, 4))


def run_cli(qp, argv) -> tuple:
    """quadpoint.cli.main(argv) in process: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qp.cli.main(argv)
    return code, out.getvalue()


def generate_records(rng, count) -> list:
    """Seeded catalog rows: (name, n, dim, d, pi, chi_S, chi_X, K2, scroll)."""
    rows = []
    for i in range(count):
        if i % 2 == 0:
            if rng.random() < 0.1:
                d, pi, chi_s, chi_x = rng.choice(THREEFOLD_SEEDS)
            else:
                d, pi = rng.randint(1, 15), rng.randint(0, 20)
                chi_s, chi_x = rng.randint(-10, 10), rng.randint(-10, 10)
            rows.append(("t%05d" % i, 5, 3, d, pi, chi_s, chi_x, None, None))
        else:
            if rng.random() < 0.1:
                (d, pi, chi, k2), scroll = rng.choice(SURFACE_SEEDS), False
            else:
                d, pi, chi, k2 = rng.randint(1, 12), rng.randint(0, 15), rng.randint(-3, 3), rng.randint(-10, 10)
                scroll = rng.random() < 0.1
            rows.append(("s%05d" % i, 4, 2, d, pi, None, chi, k2, scroll))
    return rows


def invariant_scan_setup(qp, rng, p, workdir):
    """Writes the seeded catalog through the program's TSV writer."""
    cat = qp.catalog
    builtin = [
        (r.name, r.n, r.dim, r.d, r.pi, r.chi_section, r.chi, r.k_squared, r.scroll)
        for r in cat.load_builtin_catalog()
    ]
    rows = builtin + generate_records(rng, p.records)
    records = [
        cat.VarietyRecord(name, n, dim, d, pi, chi_section=cs, chi=cx, k_squared=k2, scroll=sc)
        for name, n, dim, d, pi, cs, cx, k2, sc in rows
    ]
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "catalog.tsv"
    path.write_text(cat.save_catalog(records), encoding="utf-8")
    order = rng.sample(list(p.ds), len(p.ds))
    return SimpleNamespace(rows=rows, path=str(path), order=order)


def expected_classify(rows) -> tuple:
    lines, all_pass = [], True
    for name, n, dim, d, pi, cs, cx, k2, sc in rows:
        if (n, dim) == (5, 3):
            failed, md = oracle.threefold_verdict(d, pi, cs, cx)
            detail = "pass multidegree (%s)" % ",".join(map(str, md))
            lines.append((name, failed, detail))
    for name, n, dim, d, pi, cs, cx, k2, sc in rows:
        if (n, dim) == (4, 2):
            lines.append((name, oracle.surface_verdict(d, pi, cx, k2, sc), "pass"))
    text = []
    for name, failed, detail in lines:
        all_pass = all_pass and not failed
        text.append("%s: %s" % (name, "fail [%s]" % ", ".join(failed) if failed else detail))
    text.append("result = %s" % ("pass" if all_pass else "fail"))
    return (0 if all_pass else 1), "\n".join(text) + "\n"


def cli_op(qp, label, argv, expected, top=None):
    """One CLI command; `expected` is the (exit code, stdout) pair or a
    function computing it at check time."""

    def check(out):
        want = expected() if callable(expected) else expected
        require(out[0] == want[0], "%s: exit code %r, expected %r" % (label, out[0], want[0]))
        require(out[1] == want[1], "%s: stdout differs from the expected output" % label)

    return Op(label, lambda: run_cli(qp, argv), check, top)


def scan_op(qp, d, pi_max, chi_max, label, top=None, frozen=None):
    argv = ["scan", "--d", str(d), "--pi-max", str(pi_max), "--chi-max", str(chi_max)]

    def expected():
        survivors = oracle.scan(d, pi_max, chi_max)
        if frozen is not None:
            require(tuple(survivors) == frozen, "scan d=%d: oracle disagrees with the frozen list" % d)
        return 0, "".join("%s\n" % (s,) for s in survivors)

    return cli_op(qp, label, argv, expected, top)


def invariant_scan_cycle(qp, state, rng, p, index):
    ops = []
    for j in range(p.scans):
        d = state.order[(index * p.scans + j) % len(state.order)]
        pi_max, chi_max = rng.randint(*p.pi_range), rng.randint(*p.chi_range)
        ops.append(scan_op(qp, d, pi_max, chi_max, "scan"))
    for _ in range(p.widest_scans):
        ops.append(scan_op(qp, rng.choice(state.order), *p.widest, "scan-widest", top="scan"))
    for d, pi_max, chi_max, frozen in FROZEN_SCANS:
        ops.append(scan_op(qp, d, pi_max, chi_max, "scan-frozen-%d" % d, frozen=frozen))
    ops.append(
        cli_op(qp, "classify", ["classify", "--catalog", state.path], lambda: expected_classify(state.rows))
    )

    for _ in range(p.one_liners):
        n = rng.randint(3, p.schubert_n)
        power = rng.randint(0, 2 * n - 2)
        terms = sorted(oracle.sigma1_power(n, power).items(), reverse=True)
        text = "".join("%d\t%d\t%d\n" % (a, b, c) for (a, b), c in terms if c)
        ops.append(
            cli_op(qp, "schubert-pow", ["schubert", "pow", "--n", str(n), "--l", str(power), "--format", "tsv"], (0, text))
        )
    for _ in range(p.one_liners):
        n = rng.randint(3, p.schubert_n)
        md = oracle.linear_multidegree(n)
        text = "(%s), degree %d\n" % (",".join(map(str, md)), oracle.plucker_degree(n, md))
        ops.append(cli_op(qp, "schubert-lincong", ["schubert", "lincong", "--n", str(n)], (0, text)))
    for _ in range(p.one_liners):
        n = rng.randint(3, p.schubert_n)
        md = [rng.randint(0, 50) for _ in range((n - 1) // 2 + 1)]
        argv = ["schubert", "degree", "--n", str(n), "--multidegree", ",".join(map(str, md))]
        ops.append(cli_op(qp, "schubert-degree", argv, (0, "%d\n" % oracle.plucker_degree(n, md))))

    for _ in range(p.one_liners):
        d, pi, cs, cx = rng.randint(1, 15), rng.randint(0, 20), rng.randint(-10, 10), rng.randint(-10, 10)
        inv = ["--d", str(d), "--pi", str(pi), "--chiS", str(cs), "--chiX", str(cx)]
        q = Fraction(oracle.q24(d, pi, cs, cx), 24)
        want = json.dumps({"num": str(q.numerator), "den": str(q.denominator)}) + "\n"
        ops.append(cli_op(qp, "formulas-q", ["formulas", "q"] + inv + ["--format", "json"], (0, want)))
        want = "K3 = %d\nHK2 = %d\n" % (oracle.k_cubed(d, pi, cs, cx), oracle.h_k_squared(d, pi, cx))
        ops.append(cli_op(qp, "formulas-double", ["formulas", "double"] + inv, (0, want)))
    for _ in range(p.one_liners):
        d, pi, chi, k2 = rng.randint(1, 12), rng.randint(0, 15), rng.randint(-3, 3), rng.randint(-10, 10)
        argv = ["formulas", "triple", "--d", str(d), "--pi", str(pi), "--chi", str(chi), "--K2", str(k2), "--format", "tsv"]
        want = "%s\n" % Fraction(oracle.triple6(d, pi, chi, k2), 6)
        ops.append(cli_op(qp, "formulas-triple", argv, (0, want)))
    return ops


# `reference` is what the pacer times (see pace.py).  line-probe's
# largest probes are long-integer products, which follow the host's
# speed less than short Python steps do; its mixed reference follows it
# in between, so that neither its largest nor its middle probes keep
# much of the drift.
WORKLOADS = {
    "focal-slice": SimpleNamespace(
        setup=focal_slice_setup, cycle=focal_slice_cycle, params=FOCAL_SLICE, trace_cycles=1,
        reference=pace.reference,
    ),
    "line-probe": SimpleNamespace(
        setup=line_probe_setup, cycle=line_probe_cycle, params=LINE_PROBE, trace_cycles=2,
        reference=pace.mixed,
    ),
    "invariant-scan": SimpleNamespace(
        setup=invariant_scan_setup, cycle=invariant_scan_cycle, params=INVARIANT_SCAN, trace_cycles=1,
        reference=pace.reference,
    ),
}
