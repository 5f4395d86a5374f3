"""Command-line front end.

Commands: factor, sigma, sigma-star, sigma-2star, verify-catalog, search,
mersenne, scan.  Exit status 0 means success/verified, 1 a verification
failure, 2 a usage error, and 141 (128 + SIGPIPE, as a shell reports a
process killed by it) that standard output was closed before everything
was written, as by ``gf2bup ... | head``.

The command line is read from one table, _COMMANDS, which gives each
command's handler, positional argument and options; -h or --help prints
the usage it implies.  Every usage error leaves main as SystemExit(2) with
one "error: ..." line on stderr and nothing on stdout: a command line that
does not fit the table, and each ValueError that _library_or_exit catches
from the library (a bad or zero polynomial, a bad --max-degree).
"""

import os
import sys
import time
from types import SimpleNamespace

from . import bup_search
from .divisor_sums import sigma, sigma_2star, sigma_star
from .factor import factorize
from .gf2poly import _nonzero, _parse_str
from .mersenne import M_SET, enumerate_mersenne_primes

_USAGE_ERROR = 2
_VERIFY_ERROR = 1
_BROKEN_PIPE = 141

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
    if records_mode:
        return line
    aliased = _aliased(factored)
    if aliased == factored:
        return line
    return f"{line}\t# {aliased}"


def _cmd_unary(args, func):
    """Print the factored func(poly); factor itself passes the identity."""
    n = _library_or_exit(_parse_str, args.poly)
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
    records = []
    footer = []
    for case in cases:
        result = bup_search.search_case(case)
        for rec in result.records:
            print(_record_line(rec, args.records))
        records += result.records
        footer.append(f"# case {case}: {result.candidate_count} candidates, "
                      f"{len(result.records)} records, {result.seconds:.4f}s")
    if not args.records:
        for line in footer:
            print(line)
        print(f"# total wall time {time.perf_counter() - start:.4f}s")
    # a record's exponent tuple determines its polynomial, so the records
    # are checked by their tuples, and only a mismatch is expanded to be
    # printed; a record without a tuple is unexpected
    expected = bup_search._expected_hit_tuples(args.case)
    found = {rec.poly.value: rec.candidate and rec.candidate.exponents()
             for rec in records}
    missing = expected - set(found.values())
    unexpected = {n for n, exps in found.items() if exps not in expected}
    if missing or unexpected:
        for label, values in (
                ("missing", {bup_search.CandidateTuple(a, b, h).expand().value
                             for a, b, *h in missing}),
                ("unexpected", unexpected)):
            for n in sorted(values):
                print(f"{label}\t{_aliased(str(factorize(n)))}",
                      file=sys.stderr)
        print("error: search results differ from the expected catalog subset",
              file=sys.stderr)
        return _VERIFY_ERROR
    return 0


def _usage_error(message):
    """Print the one line of a usage error and exit with 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(_USAGE_ERROR) from None


def _library_or_exit(func, *args):
    """func(*args); a ValueError (a malformed or out-of-range argument) is
    a usage error."""
    try:
        return func(*args)
    except ValueError as exc:
        _usage_error(exc)


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


# Each command's handler, its positional argument (None or "poly") and its
# options.  An option maps to how its value is read, None for a flag, a
# tuple of the values it takes, or int, and to its value when it is not
# given; an int option without a default is required.
_FLAG = (None, False)
_MAX_DEGREE = (int, None)
_COMMANDS = {
    "factor": (lambda a: _cmd_unary(a, lambda p: p), "poly",
               {"--records": _FLAG}),
    "sigma": (lambda a: _cmd_unary(a, sigma), "poly", {"--records": _FLAG}),
    "sigma-star": (lambda a: _cmd_unary(a, sigma_star), "poly",
                   {"--records": _FLAG}),
    "sigma-2star": (lambda a: _cmd_unary(a, sigma_2star), "poly",
                    {"--records": _FLAG}),
    "verify-catalog": (_cmd_verify_catalog, None, {"--records": _FLAG}),
    "search": (_cmd_search, None,
               {"--case": (bup_search.CASES + ("all",), "all"),
                "--records": _FLAG}),
    "mersenne": (_cmd_mersenne, None, {"--max-degree": _MAX_DEGREE}),
    "scan": (_cmd_scan, None,
             {"--max-degree": _MAX_DEGREE, "--records": _FLAG}),
}


def _usage(name):
    _, positional, options = _COMMANDS[name]
    words = ["gf2bup", name] + ([positional.upper()] if positional else [])
    for option, (read, _) in options.items():
        if read is None:
            words.append(f"[{option}]")
        elif read is int:
            words.append(f"{option} N")
        else:
            words.append(f"[{option} {{{','.join(read)}}}]")
    return " ".join(words)


def _help(names):
    """Print the usage of each named command and exit 0."""
    print("usage: " + "\n       ".join(map(_usage, names)))
    sys.stdout.flush()
    raise SystemExit(0)


def _field(option):
    return option[2:].replace("-", "_")


def _is_option(arg):
    # as argparse reads them: "-" and negative numbers are values
    return arg.startswith("-") and arg != "-" and not arg[1:].isdigit()


def _parse_args(argv):
    """The command line argv as a namespace: the command, its positional
    argument and each of its options, read as _COMMANDS says.

    An option may be given as --opt value or --opt=value, by any unique
    prefix, before or after the positional and repeatedly (the last value
    counts); after "--" every argument is positional.  -h or --help prints
    the usage and exits 0; anything else that does not fit is a usage
    error.
    """
    commands = ", ".join(_COMMANDS)
    if not argv:
        _usage_error(f"missing command (choose from {commands})")
    name = argv[0]
    if name == "-h" or len(name) > 2 and "--help".startswith(name):
        _help(_COMMANDS)
    if name not in _COMMANDS:
        _usage_error(f"unknown command {name!r} (choose from {commands})")
    _, positional, options = _COMMANDS[name]
    fields = {"command": name}
    for option, (_, default) in options.items():
        fields[_field(option)] = default
    values = []
    args = iter(argv[1:])
    for arg in args:
        if arg == "--":
            values.extend(args)
        elif not _is_option(arg):
            values.append(arg)
        elif arg == "-h":
            _help([name])
        else:
            given, has_value, value = arg.partition("=")
            matches = [option for option in (*options, "--help")
                       if option.startswith(given)]
            if len(matches) != 1:
                _usage_error(f"{name}: unknown option {given!r}")
            option = matches[0]
            if option == "--help":
                _help([name])
            read, _ = options[option]
            if read is None:
                if has_value:
                    _usage_error(f"{name}: {option} takes no value")
                value = True
            elif not has_value:
                value = next(args, None)
                if value is None or _is_option(value):
                    _usage_error(f"{name}: {option} needs a value")
            if read is int:
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(
                        f"{name}: {option} needs an integer, got {value!r}")
            elif read is not None and value not in read:
                _usage_error(f"{name}: {option} must be one of "
                             f"{', '.join(read)}, got {value!r}")
            fields[_field(option)] = value
    for option in options:
        if fields[_field(option)] is None:
            _usage_error(f"{name}: {option} is required")
    if positional:
        if not values:
            _usage_error(f"{name}: missing the {positional.upper()} "
                         "argument")
        fields[positional] = values.pop(0)
    if values:
        _usage_error(f"{name}: unexpected argument {values[0]!r}")
    return SimpleNamespace(**fields)


def main(argv=None):
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        status = _COMMANDS[args.command][0](args)
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
