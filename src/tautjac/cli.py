"""Command-line surface of the engine.

Exit codes: 0 on success / verified, 1 on a verification failure or a
negative membership answer (counterexample details on stderr), 2 on
usage errors (including expression syntax errors).  All numeric I/O is
exact rational; JSON output is byte-identical for identical flags.
"""

import argparse
import json
import sys
from fractions import Fraction

from .cache import (
    clear_cache,
    get_or_build,
    list_entries,
    resolve_cache_dir,
)
from .errors import (
    InvalidParameter,
    ParseError,
    TautjacError,
    VerificationFailure,
    check_genus,
)
from .parse import parse_poly


def _ascii(kind):
    """``kind`` (int or Fraction, which read any script's digits) on ASCII text only."""
    def parse(text):
        if not text.isascii():
            raise ValueError("%r is not ASCII" % text)
        return kind(text)
    parse.__name__ = kind.__name__
    return parse


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tautjac",
        description="Exact engine for the tautological ring of a Jacobian.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, genus=True):
        """A subcommand that runs run(args), with its required --genus unless genus is false."""
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(run=run)
        if genus:
            cmd.add_argument("--genus", type=_ascii(int), required=True)
        return cmd

    pv = command("verify", "verify exact operator identities", _cmd_verify)
    pv.add_argument("suite", choices=["lie", "sl2", "tilde", "grading", "all"])
    pv.add_argument("--max-order", type=_ascii(int), default=4)
    pv.add_argument("--window", type=_ascii(int), default=None)
    pv.add_argument("--format", choices=["table", "json"], default="table")
    pv.add_argument(
        "--verbose", action="store_true",
        help="list each identity of the sl2, tilde and grading suites",
    )

    pr = command("relations", "build and export the relation ideal", _cmd_relations)
    pr.add_argument("--weight", type=_ascii(int), default=None, help="one weight in 0..genus")
    pr.add_argument("--format", choices=["json", "md"], default="json")

    pn = command("normal-form", "reduce an expression modulo the ideal", _cmd_normal_form)
    pn.add_argument("--expr", required=True)

    pm = command("member", "ideal membership test for an expression", _cmd_member)
    pm.add_argument("--expr", required=True)

    pf = command("fourier", "transform checks on the quotient", _cmd_fourier)
    pf.add_argument("--check", choices=["s2", "conj"], required=True)
    pf.add_argument("--m", type=_ascii(int), default=None)
    pf.add_argument("--n", type=_ascii(int), default=None)
    pf.add_argument("--family", choices=["field", "density"], default="field")
    for cached in (pr, pn, pm, pf):  # the commands that read the cache
        cached.add_argument("--cache-dir", default=None)

    pw = command("newton", "convert divisor classes to p-q differences", _cmd_newton)
    group = pw.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-d", default=None, metavar="W1,W2,...")
    group.add_argument("--to-w", default=None, metavar="D1,D2,...")

    pc = command("cache", "manage the relation-ideal cache", _cmd_cache, genus=False)
    pc.add_argument("--dir", default=None)
    pc.add_argument("--clear", action="store_true")

    pd = command("dump-operator", "print an operator in debug form", _cmd_dump_operator)
    pd.add_argument("--window", type=_ascii(int), default=8)
    pd.add_argument(
        "--op",
        choices=["descent", "field", "density", "raw", "e", "f", "h"],
        required=True,
    )
    pd.add_argument("--m", type=_ascii(int), default=None)
    pd.add_argument("--n", type=_ascii(int), default=None)
    return parser


def _failed(entries):
    """Print each failed check's entry as one JSON line on stderr; the exit code 1."""
    for entry in entries:
        print(json.dumps(entry), file=sys.stderr)
    return 1


def _load_ideal(args):
    return get_or_build(args.genus, resolve_cache_dir(args.cache_dir))


def _cmd_verify(args):
    from .lie import LieContext, _require_window, run_bracket_suite, verify_bracket

    window = args.window if args.window is not None else args.max_order + 4
    _require_window(window, args.max_order, 2 if args.suite in ("sl2", "all") else 0)
    ctx = LieContext(args.genus, window)
    reports = []
    if args.suite in ("lie", "all"):
        summary = run_bracket_suite([args.genus], args.max_order, window)
        if args.format == "json":
            reports.append(summary)
        else:
            print(
                "bracket suite: genus %d, orders <= %d, window %d"
                % (args.genus, args.max_order, window)
            )
            for key, count in summary["counts"].items():
                print("  %-24s %5d checked" % (key, count))
            print("  total %d" % summary["checked"])
        if summary["failures"]:
            return _failed(summary["failures"])
    kinds = {
        "sl2": ["sl2"],
        "tilde": ["raw_field"],
        "grading": ["grading"],
        "all": ["sl2", "raw_field", "grading"],
    }.get(args.suite, [])
    for kind in kinds:
        entries = verify_bracket(kind, {"max_order": args.max_order}, ctx)
        if args.format == "json":
            reports.extend(entries)
        else:
            print("%s: %d identities verified" % (kind, len(entries)))
            if args.verbose:
                for entry in entries:
                    print("  %-48s %s" % (entry["identity"], entry["status"]))
    if args.format == "json":
        print(json.dumps(reports if len(reports) != 1 else reports[0], indent=2))
    return 0


def _cmd_relations(args):
    if args.weight is not None and not 0 <= args.weight <= args.genus:
        raise InvalidParameter(
            "--weight must be in 0..%d, got %d" % (args.genus, args.weight)
        )
    ideal = _load_ideal(args)
    data = ideal.to_json_dict()
    if args.weight is not None:
        data["weights"] = [data["weights"][args.weight]]
    if args.format == "json":
        print(json.dumps(data, indent=2))
        return 0
    print("# Derived relations, genus %d" % ideal.genus)
    print("")
    print("| weight | quotient dim | relations |")
    print("|---|---|---|")
    for block in data["weights"]:
        rows = [str(r) for r in ideal.relation_basis(block["w"])]
        print(
            "| %d | %d | %s |"
            % (block["w"], block["quotient_dim"], "; ".join(rows) or "-")
        )
    return 0


def _cmd_normal_form(args):
    ideal = _load_ideal(args)
    f = parse_poly(args.expr)
    print(ideal.normal_form(f))
    return 0


def _cmd_member(args):
    ideal = _load_ideal(args)
    remainder = ideal.normal_form(parse_poly(args.expr))
    if remainder.is_zero():
        print("true")
        return 0
    print("false")
    print("not in the derived ideal; normal form: %s" % remainder, file=sys.stderr)
    return 1


def _cmd_fourier(args):
    from .fourier import FourierMap

    if args.check == "conj" and (args.m is None or args.n is None):
        raise InvalidParameter("--check conj requires --m and --n")
    fmap = FourierMap(_load_ideal(args))
    if args.check == "s2":
        failures = fmap.check_s2()
        if failures:
            return _failed(failures)
        print(
            "S^2 = (-1)^g [-1]^* on all %d quotient basis elements"
            % len(fmap.quotient_basis())
        )
        return 0
    for entry in fmap.verify_conjugation(args.m, args.n, args.family):
        print("%s: %s" % (entry["identity"], entry["status"]))
    return 0


def _cmd_newton(args):
    from .newton import d_to_w, w_to_d

    check_genus(args.genus)
    raw = args.to_d if args.to_d is not None else args.to_w
    try:
        values = [_ascii(Fraction)(chunk.strip()) for chunk in raw.split(",")]
    except (ValueError, ZeroDivisionError) as err:
        raise InvalidParameter("bad rational list: %s" % err) from err
    if len(values) != args.genus:
        raise InvalidParameter(
            "expected %d comma-separated values, got %d" % (args.genus, len(values))
        )
    out = w_to_d(values) if args.to_d is not None else d_to_w(values)
    print(",".join(str(v) for v in out))
    return 0


def _cmd_cache(args):
    root = resolve_cache_dir(args.dir)
    if root is None:
        print("no cache directory configured (use --dir or TAUTJAC_CACHE_DIR)")
        return 0
    if root.exists() and not root.is_dir():
        raise InvalidParameter("cache directory %s is not a directory" % root)
    if args.clear:
        removed = clear_cache(root)
        print("removed %d entries from %s" % (removed, root))
        return 0
    entries = list_entries(root)
    print("cache dir: %s" % root)
    for name in entries:
        print("  %s" % name)
    if not entries:
        print("  (empty)")
    return 0


def _cmd_dump_operator(args):
    from .lie import LieContext, density_op, descent_op, field_op, raw_field_op, sl2_triple

    ctx = LieContext(args.genus, args.window)
    member = {"field": field_op, "density": density_op, "raw": raw_field_op}.get(args.op)
    if member and (args.m is None or args.n is None):
        raise InvalidParameter("--op %s requires --m and --n" % args.op)
    if member and (args.m < 0 or args.n < 0):
        raise InvalidParameter("--m and --n must be >= 0, got %d, %d" % (args.m, args.n))
    if member:
        op = member(args.m, args.n, ctx)
    elif args.op == "descent":
        op = descent_op(ctx)
    else:
        op = getattr(sl2_triple(ctx), args.op)
    print(op)
    return 0


def main(argv=None):
    # exact input, exact output: lift CPython 3.11+'s 4,300-digit int <-> str limit
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except ParseError as err:
        print("expression error: %s" % err, file=sys.stderr)
        return 2
    except InvalidParameter as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except VerificationFailure as failure:
        return _failed([failure.entry])
    except TautjacError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
