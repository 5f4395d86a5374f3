"""Command-line front end.

Commands: factor, sigma, sigma-star, sigma-2star, verify-catalog, search,
mersenne, scan.  Exit status 0 means success/verified, 1 a verification
failure, 2 a usage error, and 141 (128 + SIGPIPE, as a shell reports a
process killed by it) that standard output was closed before everything
was written, as by ``gf2bup ... | head``.

Every usage error leaves main as SystemExit(2) with one "error: ..." line
on stderr: argparse's own, and each ValueError that _library_or_exit
catches from the library (a bad or zero polynomial, a bad --max-degree).
"""

import argparse
import os
import sys
import time

from . import bup_search
from .divisor_sums import sigma, sigma_2star, sigma_star
from .factor import factorize
from .gf2poly import _nonzero, _parse_str
from .mersenne import M_SET, enumerate_mersenne_primes

_USAGE_ERROR = 2
_VERIFY_ERROR = 1
_BROKEN_PIPE = 141

# factor and the sigma commands refuse inputs above this degree: factoring
# time grows about as d^2 (a median of 0.6 to 1.0 s over seeded random
# inputs of degree 4096, in process on a shared 2-core VM, Python 3.11.7).
# The parser applies it before it expands a product or a power.
_MAX_INPUT_DEGREE = 4096

_ALIASES = sorted(
    ((f"({p})", f"M{i + 1}") for i, p in enumerate(M_SET)),
    key=lambda pair: len(pair[0]),
    reverse=True,
)


def _aliased(factored):
    for pattern, name in _ALIASES:
        factored = factored.replace(pattern, name)
    return factored


def _annotated(line, factored, records_mode):
    """line; human mode appends "# <aliased>" when aliasing changes factored."""
    aliased = _aliased(factored)
    if records_mode or aliased == factored:
        return line
    return f"{line}\t# {aliased}"


def _cmd_unary(args, func):
    """Print the factored func(poly); factor itself passes the identity."""
    n = _library_or_exit(_parse_str, args.poly, _MAX_INPUT_DEGREE)
    n = _library_or_exit(_nonzero, n, args.command)
    line = str(factorize(func(n)))
    print(_annotated(line, line, args.records))
    return 0


def _cmd_verify_catalog(args):
    failed = None
    for name, ok, factored in bup_search.verify_catalog():
        status = "PASS" if ok else "FAIL"
        print(_annotated(f"{name}\t{status}\t{factored}", factored,
                         args.records))
        if not ok and failed is None:
            failed = name
    if failed is not None:
        print(f"error: catalog entry {failed} failed verification",
              file=sys.stderr)
        return _VERIFY_ERROR
    return 0


def _record_line(rec, records_mode):
    exps = rec.candidate.exponents() if rec.candidate else None
    tuple_text = "[" + ",".join(map(str, exps)) + "]" if exps else "-"
    factored = str(rec.factorization)
    if rec.catalog_index:
        tag = f"C{rec.catalog_index}"
    elif rec.conjugate_class.startswith("C"):
        tag = f"~{rec.conjugate_class}"
    else:
        tag = "-"
    line = f"{rec.case_tag}\t{tuple_text}\t{factored}\t{tag}"
    return _annotated(line, factored, records_mode)


def _cmd_search(args):
    cases = bup_search.CASES if args.case == "all" else (args.case,)
    start = time.perf_counter()
    found = set()
    footer = []
    for case in cases:
        result = bup_search.search_case(case)
        for rec in result.records:
            print(_record_line(rec, args.records))
            found.add(rec.poly.value)
        footer.append(f"# case {case}: {result.candidate_count} candidates, "
                      f"{len(result.records)} records, {result.seconds:.2f}s")
    if not args.records:
        for line in footer:
            print(line)
        print(f"# total wall time {time.perf_counter() - start:.2f}s")
    expected = bup_search.expected_hit_values(args.case)
    if found != expected:
        for label, values in (("missing", expected - found),
                              ("unexpected", found - expected)):
            for n in sorted(values):
                print(f"{label}\t{_aliased(str(factorize(n)))}",
                      file=sys.stderr)
        print("error: search results differ from the expected catalog subset",
              file=sys.stderr)
        return _VERIFY_ERROR
    return 0


def _library_or_exit(func, *args):
    """func(*args); a ValueError (a malformed or out-of-range argument)
    prints one error line and exits with 2."""
    try:
        return func(*args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(_USAGE_ERROR) from None


def _cmd_mersenne(args):
    for form, poly in _library_or_exit(enumerate_mersenne_primes,
                                       args.max_degree):
        print(f"({form.a},{form.b})\t{poly}")
    return 0


def _cmd_scan(args):
    for rec in _library_or_exit(bup_search.exhaustive_low_degree_scan,
                                args.max_degree):
        line = str(rec.factorization)
        print(_annotated(line, line, args.records))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gf2bup",
        description="Divisor-sum arithmetic and the bi-unitary perfect "
                    "polynomial search over GF(2).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly_command(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("poly", help="polynomial expression")
        cmd.add_argument("--records", action="store_true",
                         help="machine-readable output")
        cmd.set_defaults(func=func)
        return cmd

    add_poly_command("factor", lambda a: _cmd_unary(a, lambda p: p),
                     "factor a polynomial")
    add_poly_command("sigma", lambda a: _cmd_unary(a, sigma),
                     "factored sum of all divisors")
    add_poly_command("sigma-star", lambda a: _cmd_unary(a, sigma_star),
                     "factored sum of unitary divisors")
    add_poly_command("sigma-2star", lambda a: _cmd_unary(a, sigma_2star),
                     "factored sum of bi-unitary divisors")

    cmd = sub.add_parser("verify-catalog",
                         help="check the 23 catalog polynomials")
    cmd.add_argument("--records", action="store_true")
    cmd.set_defaults(func=_cmd_verify_catalog)

    cmd = sub.add_parser("search", help="run the candidate-tuple search")
    cmd.add_argument("--case", default="all",
                     choices=list(bup_search.CASES) + ["all"])
    cmd.add_argument("--records", action="store_true")
    cmd.set_defaults(func=_cmd_search)

    cmd = sub.add_parser("mersenne", help="list Mersenne primes by degree")
    cmd.add_argument("--max-degree", type=int, required=True)
    cmd.set_defaults(func=_cmd_mersenne)

    cmd = sub.add_parser("scan",
                         help="exhaustive fixpoint scan up to a degree bound")
    cmd.add_argument("--max-degree", type=int, required=True)
    cmd.add_argument("--records", action="store_true")
    cmd.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to /dev/null, so
        # that the flush at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
