"""Command line front end.

Every subcommand is deterministic: identical argv and input files give
byte-identical output.  Results go to stdout, diagnostics to stderr.
Exit codes: 0 success or all checks passed, 1 a verification or
classification failed or the data is degenerate, 2 usage or input parse
error, 3 an internal exact self-check failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import (
    _surface_verdict,
    _threefold_verdict,
    load_builtin_catalog,
    load_catalog,
    multidegree_of_verdict,
    rational_json,
    scan_exclusion,
)
from .congruence import (
    DegeneracyError,
    GenericityError,
    LinearCongruence,
    determinant_vanishes_identically,
    foci_check,
    load_congruence,
    order_check,
    pfaffian_polynomial,
    random_determinantal_congruence,
    random_linear_congruence,
    save_congruence,
)
from .formulas import (
    SurfaceInvariants,
    ThreefoldInvariants,
    apparent_triple_points,
    curve_foursecants,
    determinantal_invariants,
    four_secants_through_point,
    foursecant_constraint_residual,
    foursecant_scroll_degree,
    h_k_squared,
    k_cubed,
    linear_focal_degree,
    quadruple_points,
)
from .schubert import (
    linear_congruence_multidegree,
    plucker_degree,
    render_class,
    sigma1_power_closed,
    sigma1_power_iterative,
)


# Largest accepted values of the flags that size the work; main refuses
# larger ones before any of it.  A congruence holds about n^3 entries,
# `verify` keeps the probe of every trial, each Bareiss step grows with
# the bit size of --bound, and `schubert lincong` already takes seconds
# at n = 2000; `schubert degree` ran 70 s at n = 20001, then failed to
# print its result of more than 4300 digits.  sigma_1^l vanishes on
# G(1,n) for l > 2(n-1).  `scan` makes pi_max + 1 integer solves, one
# per sectional genus, on the numerators of the closed forms: 24 times
# the 4-secant residual has slope 24(2d - 17) in chi_S and 24 q has
# slope 144 in chi_X, so each solve is two divmods, whatever chi_max is;
# the chi_max limit is plain input validation and bounds no work.  The
# Pfaffian of an odd-n file has C(3(n-1)/2, (n+1)/2) terms, and its
# memoised expansion takes about 10 s at n = 11 on a shared 2-core host.
_MAX_CONSTRUCT_N = 64
_MAX_PFAFFIAN_N = 11
_MAX_SCHUBERT_N = 1000
_MAX_SCHUBERT_L = 2 * (_MAX_SCHUBERT_N - 1)
_MAX_TRIALS = 10_000
_MAX_BOUND = 10**18
_MAX_SCAN = 1000


def _emit(args, text_lines, json_obj, tsv_lines=None):
    """Print the requested format only, with one print: the json object,
    or the lines joined, each ending in a newline; no lines print
    nothing."""
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        print(json.dumps(json_obj))
        return
    lines = tsv_lines if fmt == "tsv" and tsv_lines is not None else text_lines
    if lines:
        print("\n".join(lines))


def _emit_fields(args, fields):
    """(name, value) pairs as `name = value` lines in text, `name<TAB>value`
    lines in tsv, and one object in json."""
    _emit(
        args,
        ["%s = %s" % f for f in fields],
        dict(fields),
        ["%s\t%s" % f for f in fields],
    )


# ----- schubert -----


def _cmd_schubert_pow(args):
    if args.closed:
        result = sigma1_power_closed(args.n, args.l)
    else:
        result = sigma1_power_iterative(args.n, args.l)
    terms = sorted(result.items(), reverse=True)
    _emit(
        args,
        [render_class(result)],
        {
            "n": args.n,
            "l": args.l,
            "terms": [{"a": a, "b": b, "coeff": c} for (a, b), c in terms],
        },
        ["%d\t%d\t%d" % (a, b, c) for (a, b), c in terms],
    )
    return 0


def _cmd_schubert_lincong(args):
    md = linear_congruence_multidegree(args.n)
    degree = plucker_degree(args.n, md)
    _emit(
        args,
        ["(%s), degree %d" % (",".join(map(str, md)), degree)],
        {"multidegree": list(md), "degree": degree},
        ["\t".join(str(a) for a in md) + "\t%d" % degree],
    )
    return 0


def _cmd_schubert_degree(args):
    parts = []
    for tok in args.multidegree.split(","):
        try:
            parts.append(int(tok))
        except ValueError:
            raise ValueError("--multidegree: not an integer: %r" % tok) from None
    degree = plucker_degree(args.n, tuple(parts))
    _emit(args, [str(degree)], {"degree": degree})
    return 0


# ----- formulas -----


# (subcommand, help, integer flags in argument order, function of their values)
RATIONAL_FORMULAS = (
    (
        "q", "apparent quadruple points", ("--d", "--pi", "--chiS", "--chiX"),
        lambda *v: quadruple_points(ThreefoldInvariants(*v)),
    ),
    (
        "h", "4-secants through a point", ("--d", "--pi", "--chi"),
        four_secants_through_point,
    ),
    (
        "a1", "4-secant hypersurface degree", ("--d", "--pi", "--chi"),
        foursecant_scroll_degree,
    ),
    ("a2", "4-secants of a space curve", ("--d", "--pi"), curve_foursecants),
    (
        "residual", "4-secant constraint residual", ("--d", "--pi", "--chi"),
        foursecant_constraint_residual,
    ),
    (
        "triple", "apparent triple points", ("--d", "--pi", "--chi", "--K2"),
        lambda *v: apparent_triple_points(SurfaceInvariants(*v)),
    ),
)


def _cmd_formulas_rational(args):
    if args.d < 1:
        raise ValueError("degree must be >= 1")
    if args.pi < 0:
        raise ValueError("sectional genus must be >= 0")
    value = args.formula(*(getattr(args, flag[2:]) for flag in args.flags))
    _emit(args, [str(value)], rational_json(value))
    return 0


def _cmd_formulas_double(args):
    t = ThreefoldInvariants(args.d, args.pi, args.chiS, args.chiX)
    _emit_fields(args, (("K3", k_cubed(t)), ("HK2", h_k_squared(t))))
    return 0


def _cmd_formulas_focal_degree(args):
    if args.kind == "linear":
        degree = linear_focal_degree(args.n)
        _emit(args, [str(degree)], {"degree": degree})
    else:
        inv = determinantal_invariants(args.n)
        _emit_fields(
            args,
            (("degree", inv.degree), ("genus", inv.sectional_genus), ("dim", inv.dim)),
        )
    return 0


# ----- constructions and verification -----


def _cmd_construct(args):
    if args.kind == "linear":
        c = random_linear_congruence(args.n, args.seed, args.bound)
    else:
        c = random_determinantal_congruence(args.n, args.seed, args.bound)
    text = save_congruence(c)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_input(path):
    with open(path, "r", encoding="utf-8") as handle:
        return load_congruence(handle.read())


def _cmd_verify_order(args):
    c = _load_input(args.infile)
    rep = order_check(c, args.trials, args.seed, args.bound)
    verdict = "pass" if rep.passed else "fail"
    counts = [
        (name, getattr(rep, name))
        for name in ("trials", "successes", "focal_skips", "unique_lines")
    ]
    text = ["%s = %d" % (name.replace("_", " "), v) for name, v in counts]
    text += ["failure: %s" % f for f in rep.failures]
    text.append("result = %s" % verdict)
    _emit(
        args,
        text,
        {**dict(counts), "failures": list(rep.failures), "pass": rep.passed},
        ["%s\t%d" % pair for pair in counts] + ["pass\t%s" % verdict],
    )
    return 0 if rep.passed else 1


def _cmd_verify_foci(args):
    c = _load_input(args.infile)
    trials = foci_check(c, args.trials, args.seed, args.bound)
    # Focal probes are skipped, so a run of them alone checks nothing.
    ok = all(t.ok for t in trials) and not all(t.focal_probe for t in trials)
    text = []
    tsv = []
    for i, t in enumerate(trials):
        if t.focal_probe:
            text.append("trial %d: focal probe skipped" % i)
            tsv.append("%d\tfocal\t" % i)
        elif t.reason is not None:
            failure = "point %s: %s" % (t.point, t.reason)
            text.append("trial %d: failure: %s" % (i, failure))
            tsv.append("%d\tfailure\t%s" % (i, failure))
        else:
            # A solved line has gcd degree n-1 by the constant-kernel
            # theorem (foci_check), so a solved trial is ok.
            text.append("trial %d: gcd degree %d (expected %d) ok" % (i, t.gcd_degree, c.n - 1))
            tsv.append("%d\t%d\tok" % (i, t.gcd_degree))
    text.append("result = %s" % ("pass" if ok else "fail"))
    _emit(
        args,
        text,
        {
            "expected": c.n - 1,
            "trials": [
                {
                    "point": list(t.point),
                    "focal_probe": t.focal_probe,
                    "gcd_degree": t.gcd_degree,
                    "ok": t.ok,
                    **({} if t.reason is None else {"reason": t.reason}),
                }
                for t in trials
            ],
            "pass": ok,
        },
        tsv,
    )
    return 0 if ok else 1


def _cmd_pfaffian(args):
    c = _load_input(args.infile)
    if not isinstance(c, LinearCongruence):
        raise ValueError("pfaffian needs a linear congruence file")
    if c.n % 2 == 0:
        _emit(
            args,
            ["n even: no pfaffian; determinant vanishes identically = true"],
            {"even_n": True, "determinant_vanishes": determinant_vanishes_identically(c)},
            ["determinant_vanishes\ttrue"],
        )
        return 0
    if c.n > _MAX_PFAFFIAN_N:
        raise ValueError("n must be <= %d" % _MAX_PFAFFIAN_N)
    pf = pfaffian_polynomial(c)
    names = ["l%d" % (i + 1) for i in range(c.n - 1)]
    _emit_fields(args, (("pf", pf.render(names)), ("degree", pf.total_degree())))
    return 0


# ----- catalog -----


def _cmd_classify(args):
    if args.multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    if args.catalog == "builtin":
        records = load_builtin_catalog()
    else:
        records = load_catalog(args.catalog)
    # One record in flight: each is classified and rendered before the
    # next one is read, and only the rendered strings are kept.  The
    # threefolds print before the surfaces, and nothing prints before
    # the last row is read, so a refused row leaves stdout empty.
    fmt = args.format
    threefolds, surfaces = [], []
    all_pass = True
    for r in records:
        if r.dim == 3 and r.n == 5 and args.dim in (None, 3):
            e, out = _threefold_verdict(r, args.multiplicity), threefolds
        elif r.dim == 2 and r.n == 4 and args.dim in (None, 2):
            e, out = _surface_verdict(r), surfaces
        else:
            continue
        passed = e.passed
        all_pass = all_pass and passed
        if fmt == "json":
            out.append(json.dumps(e.jsonable()))
        elif fmt == "tsv":
            verdict = "pass" if passed else "fail"
            out.append("%s\t%s\t%s" % (e.name, verdict, ",".join(_failed(e))))
        elif not passed:
            out.append("%s: fail [%s]" % (e.name, ", ".join(_failed(e))))
        elif out is threefolds:
            md = multidegree_of_verdict(e)
            out.append("%s: pass multidegree (%s)" % (e.name, ",".join(map(str, md))))
        else:
            out.append("%s: pass" % e.name)
    entries = threefolds + surfaces
    # A run that classifies no record checks nothing.
    all_pass = all_pass and bool(entries)
    if fmt == "json":
        # json.dumps of the list, byte for byte.
        print("[%s]" % ", ".join(entries))
    else:
        if fmt == "text":
            entries.append("result = %s" % ("pass" if all_pass else "fail"))
        if entries:
            print("\n".join(entries))
    return 0 if all_pass else 1


def _failed(entry):
    return [k for k, v in entry.verdicts.items() if not v]


def _cmd_scan(args):
    survivors = scan_exclusion(
        args.d, (0, args.pi_max), (-args.chi_max, args.chi_max)
    )
    _emit(
        args,
        [str(s) for s in survivors],
        [{"pi": pi, "chi_S": cs, "chi_X": cx} for pi, cs, cx in survivors],
        ["%d\t%d\t%d" % s for s in survivors],
    )
    return 0


# ----- parser -----


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json", "tsv"), default="text",
        help="output format (default text)",
    )

    parser = argparse.ArgumentParser(
        prog="quadpoint",
        description="Exact enumerative checks for first-order line congruences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sch = sub.add_parser("schubert", help="Schubert cycle computations on G(1,n)")
    sch = p_sch.add_subparsers(dest="subcommand", required=True)
    p_pow = sch.add_parser("pow", parents=[fmt], help="expand sigma_1^l")
    p_pow.add_argument("--n", type=int, required=True)
    p_pow.add_argument("--l", type=int, required=True)
    route = p_pow.add_mutually_exclusive_group()
    route.add_argument(
        "--closed", action="store_true",
        help="use the closed form (needs 1 <= l <= n-1)",
    )
    route.add_argument(
        "--iterative", action="store_true", help="iterate the Pieri rule (default)"
    )
    p_pow.set_defaults(
        handler=_cmd_schubert_pow,
        limits=(("n", _MAX_SCHUBERT_N), ("l", _MAX_SCHUBERT_L)),
    )
    p_lin = sch.add_parser(
        "lincong", parents=[fmt], help="multidegree of the general linear congruence"
    )
    p_lin.add_argument("--n", type=int, required=True)
    p_lin.set_defaults(
        handler=_cmd_schubert_lincong, limits=(("n", _MAX_SCHUBERT_N),)
    )
    p_deg = sch.add_parser(
        "degree", parents=[fmt], help="Plucker degree of a multidegree"
    )
    p_deg.add_argument("--n", type=int, required=True)
    p_deg.add_argument(
        "--multidegree", required=True, help="comma separated, e.g. 1,3,2"
    )
    p_deg.set_defaults(handler=_cmd_schubert_degree, limits=(("n", _MAX_SCHUBERT_N),))

    p_for = sub.add_parser("formulas", help="closed-form enumerative counts")
    fsub = p_for.add_subparsers(dest="subcommand", required=True)

    for name, description, flags, formula in RATIONAL_FORMULAS:
        p = fsub.add_parser(name, parents=[fmt], help=description)
        for flag in flags:
            p.add_argument(flag, type=int, required=True)
        p.set_defaults(handler=_cmd_formulas_rational, flags=flags, formula=formula)

    p_dbl = fsub.add_parser(
        "double", parents=[fmt], help="K^3 and H.K^2 from the double point formulas"
    )
    for flag in ("--d", "--pi", "--chiS", "--chiX"):
        p_dbl.add_argument(flag, type=int, required=True)
    p_dbl.set_defaults(handler=_cmd_formulas_double)

    p_foc = fsub.add_parser(
        "focal-degree", parents=[fmt], help="focal locus degree closed forms"
    )
    p_foc.add_argument(
        "--kind", choices=("linear", "determinantal"), required=True
    )
    p_foc.add_argument("--n", type=int, required=True)
    p_foc.set_defaults(handler=_cmd_formulas_focal_degree)

    p_con = sub.add_parser("construct", help="draw a random congruence")
    p_con.add_argument("--kind", choices=("linear", "determinantal"), required=True)
    p_con.add_argument("--n", type=int, required=True)
    p_con.add_argument("--seed", type=int, required=True)
    p_con.add_argument("--bound", type=int, default=9)
    p_con.add_argument("--out", help="write to file instead of stdout")
    p_con.set_defaults(
        handler=_cmd_construct,
        limits=(("n", _MAX_CONSTRUCT_N), ("bound", _MAX_BOUND)),
    )

    p_ver = sub.add_parser("verify", help="probe a stored congruence")
    vsub = p_ver.add_subparsers(dest="subcommand", required=True)
    for name, handler, description in (
        ("order", _cmd_verify_order, "unique line through random points"),
        ("foci", _cmd_verify_foci, "gcd degree n-1 on probe lines"),
    ):
        p = vsub.add_parser(name, parents=[fmt], help=description)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--trials", type=int, default=10)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--bound", type=int, default=9)
        p.set_defaults(
            handler=handler, limits=(("trials", _MAX_TRIALS), ("bound", _MAX_BOUND))
        )

    p_pf = sub.add_parser(
        "pfaffian", parents=[fmt], help="pfaffian of the lambda family"
    )
    p_pf.add_argument("--in", dest="infile", required=True)
    p_pf.set_defaults(handler=_cmd_pfaffian)

    p_cls = sub.add_parser(
        "classify", parents=[fmt],
        help="run the classification filter over a catalog "
        "(exit 0 only if every classified record passes)",
    )
    p_cls.add_argument(
        "--catalog", required=True,
        help="TSV file, or the literal 'builtin' for the bundled dataset",
    )
    p_cls.add_argument("--dim", type=int, choices=(2, 3))
    p_cls.add_argument(
        "--multiplicity", type=int, default=1,
        help="geometric multiplicity k in the focal degree bound",
    )
    p_cls.set_defaults(handler=_cmd_classify)

    p_scan = sub.add_parser(
        "scan", parents=[fmt], help="survivors of the quadruple-point filter"
    )
    p_scan.add_argument("--d", type=int, required=True)
    p_scan.add_argument("--pi-max", dest="pi_max", type=int, required=True)
    p_scan.add_argument("--chi-max", dest="chi_max", type=int, required=True)
    p_scan.set_defaults(
        handler=_cmd_scan, limits=(("pi_max", _MAX_SCAN), ("chi_max", _MAX_SCAN))
    )

    return parser


def main(argv=None) -> int:
    """The `quadpoint` command, in process too: the exit code of argv.

    The same argv writes the same bytes on every host (`schubert pow`
    prints a sigma): an open stdout that can be reconfigured is switched
    to UTF-8 for the command, then back.  Any other stream, such as an
    `io.StringIO`, takes the text as it is.
    """
    out = sys.stdout
    reconfigure = getattr(out, "reconfigure", None)
    if reconfigure is None or out.closed:
        return _run(argv)
    encoding, errors = out.encoding, out.errors
    reconfigure(encoding="utf-8")
    try:
        return _run(argv)
    finally:
        reconfigure(encoding=encoding, errors=errors)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        for name, limit in getattr(args, "limits", ()):
            if getattr(args, name) > limit:
                raise ValueError("%s must be <= %d" % (name, limit))
        return args.handler(args)
    except (GenericityError, DegeneracyError) as err:
        # Valid input whose data is degenerate: no generic draw within
        # the redraw limit, or a Pfaffian that vanishes identically.
        print("error: %s" % err, file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as err:
        # An exact self-check failed (an inexact division in the line
        # solve's elimination, a solved line that is not isotropic or
        # whose combined forms miss its probe or its solved point, a
        # Pfaffian of the wrong degree, or a scan solution that fails its
        # re-check): a fault of the program, not of the input or of a
        # verified property.
        print("error: internal check failed: %s" % err, file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
