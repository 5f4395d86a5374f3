"""One benchmark op, run in a fresh interpreter so library caches start cold.

    python3 perfbench/op.py SRC import
    python3 perfbench/op.py SRC cli ARGV...
    python3 perfbench/op.py SRC lib WORKLOAD [HEX]

SRC is the directory holding the ``gf2bup`` package.  ``import`` only
imports ``gf2bup`` and ``gf2bup.cli``; ``cli`` calls ``gf2bup.cli.main`` on
ARGV, its records going to standard output as for a real invocation;
``lib`` makes the library call the CLI command wraps.  The
last line of standard error is ``PERFBENCH`` and a JSON report of
monotonic times, exit status and peak RSS.
"""

import sys
import time


def _lib_call(workload, rest):
    import gf2bup
    if workload == "classify":
        return len(gf2bup.run_search("all"))
    if workload == "scan":
        return len(gf2bup.exhaustive_low_degree_scan(16))
    if workload == "factor-large":
        return len(gf2bup.factorize(gf2bup.parse(rest[0])))
    raise ValueError(f"no library call for workload {workload!r}")


def main():
    src, mode, *rest = sys.argv[1:]
    sys.path.insert(0, src)
    import gf2bup
    import gf2bup.cli
    imported = time.monotonic()

    import json
    import resource
    from pathlib import Path

    report = {"imported": imported}
    if Path(gf2bup.__file__).resolve().parent != Path(src, "gf2bup").resolve():
        print(f"error: gf2bup was imported from {gf2bup.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 3

    try:
        if mode == "cli":
            report["call"] = time.monotonic()
            try:
                rc = gf2bup.cli.main(rest)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            report["return"] = time.monotonic()
            sys.stdout.flush()
            report["rc"] = rc
        elif mode == "lib":
            report["call"] = time.monotonic()
            report["count"] = _lib_call(rest[0], rest[1:])
            report["return"] = time.monotonic()
            report["rc"] = 0
        elif mode != "import":
            raise ValueError(f"unknown mode {mode!r}")
    except Exception as exc:  # the op failed; the parent counts it
        import traceback
        traceback.print_exc()
        report["rc"] = None
        report["error"] = f"{type(exc).__name__}: {exc}"
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write("\nPERFBENCH " + json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
