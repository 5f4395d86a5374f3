"""Benchmark of the gf2bup CLI: three workloads, checked by oracles.

    python3 perfbench/run.py --workload {classify,scan,factor-large} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/gf2bup``.  Every op calls
``gf2bup.cli.main`` in a fresh interpreter, one op at a time (a closed loop
with one client), until S seconds have passed.  After the timed window each
op's output goes through the oracles in ``oracles.py``.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` the run alternates CLI ops with the direct
library calls they wrap, then replays each layer (``layers.py``) with a
span around every call and times each module's import, and the last line
carries the per-layer metrics.  The line before it records the
environment and each metric's unit and sample count; the same, with every
span of a traced run, goes to ``.perfbench_out/``.  See README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
from layers import GROUPS, factor_large_inputs
from spans import FIELDS, Spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("classify", "scan", "factor-large")
CLASSIFY_ARGV = ("search", "--case", "all", "--records")
SCAN_ARGV = ("scan", "--max-degree", "16", "--records")

TAIL_SAMPLES = 10         # samples a tail percentile needs beyond it
MIN_TRACE_ROUNDS = 3
IMPORT_SPAWNS = 7         # interpreters run under -X importtime
OP_TIMEOUT_S = 60         # keeps a hung op from holding the run past 180 s
IMPORT_MODULES = {
    "gf2bup.gf2poly": "gf2poly", "gf2bup.factor": "factor",
    "gf2bup.divisor_sums": "divisor_sums", "gf2bup.mersenne": "mersenne",
    "gf2bup.bup_search": "bup_search", "gf2bup.cli": "cli",
    "concurrent.futures.process": "concurrent.futures.process",
}


# Children may write bytecode caches, as an installed package has them, so
# that setup_s measures imports and not compiling the sources every time.
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k != "PYTHONDONTWRITEBYTECODE"}


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, broken child)."""


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=_nonnegative_int)
    parser.add_argument("--seconds", required=True, type=_positive_int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# workloads

def workload_ops(workload, seed):
    """Endless (cli argv, library-call args, oracle) triples, one per op.
    Only factor-large draws its inputs from the seed: the other two ops are
    fixed commands."""
    if workload == "classify":
        while True:
            yield CLASSIFY_ARGV, (), oracles.check_classify
    if workload == "scan":
        while True:
            yield SCAN_ARGV, (), oracles.check_scan
    for n in factor_large_inputs(seed):
        text = hex(n)
        yield (("factor", text, "--records"), (text,),
               lambda rc, out, n=n: oracles.check_factor(rc, out, n))


# ---------------------------------------------------------------------------
# child processes

def spawn(*args, flags=()):
    """Run op.py in a fresh interpreter; returns its report plus the
    spawn time, standard output and exit status."""
    cmd = [sys.executable, *flags, str(HERE / "op.py"), str(SRC), *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"spawned": spawned, "error": "timeout"}
    report = {}
    lines = proc.stderr.splitlines()
    if lines and lines[-1].startswith("PERFBENCH "):
        report = json.loads(lines[-1][len("PERFBENCH "):])
    report.update(spawned=spawned, exit=proc.returncode, stdout=proc.stdout,
                  stderr=proc.stderr)
    return report


def judge(report, check):
    """Problems with one op; an empty list means it succeeded."""
    if "error" in report:
        return [report["error"]]
    if report["exit"] != 0 or "return" not in report:
        return [f"op process failed: {report['stderr'][-500:]}"]
    return check(report["rc"], report["stdout"])


def setup_seconds(report):
    if report.get("exit") != 0 or "imported" not in report:
        raise BenchError("cannot import gf2bup from the checkout: "
                         + report.get("stderr", report.get("error", ""))[-500:])
    return report["imported"] - report["spawned"]


def op_seconds(report):
    return report["return"] - report["call"]


def run_layer_group(group, seed):
    cmd = [sys.executable, str(HERE / "layers.py"), str(SRC), group,
           str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"layer group {group} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"layer group {group} failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout)


def import_times():
    """Median cumulative import time of each module, from -X importtime."""
    samples = {key: [] for key in IMPORT_MODULES.values()}
    for _ in range(IMPORT_SPAWNS):
        report = spawn("import", flags=("-X", "importtime"))
        setup_seconds(report)
        seen = {}
        for line in report["stderr"].splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name in IMPORT_MODULES and parts[1].strip().isdigit():
                    seen[IMPORT_MODULES[name]] = int(parts[1]) / 1e6
        for key in samples:
            # A module that is no longer imported costs nothing.
            samples[key].append(seen.get(key, 0.0))
    return {f"setup.import_s.{key}": [statistics.median(v), "s", len(v)]
            for key, v in samples.items()}


# ---------------------------------------------------------------------------
# statistics

def quantile(values, q):
    """Linear interpolation between the closest ranks."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_quantile(n):
    """p90 when at least TAIL_SAMPLES samples lie beyond it; otherwise the
    highest percentile that has them, and never below the median."""
    return max(0.5, min(0.9, 1 - TAIL_SAMPLES / n))


# ---------------------------------------------------------------------------
# runs

def warm_up():
    """One untimed import, so that bytecode is compiled before timing."""
    if not (SRC / "gf2bup" / "cli.py").is_file():
        raise BenchError(f"no gf2bup sources under {SRC}")
    setup_seconds(spawn("import"))


def run_untraced(workload, seed, seconds):
    warm_up()
    ops = []
    start = time.monotonic()
    for argv, _, check in workload_ops(workload, seed):
        if ops and time.monotonic() - start >= seconds:
            break
        ops.append((spawn("cli", *argv), check))
    elapsed = time.monotonic() - start
    failed, metrics, notes = end_to_end(ops, elapsed)
    return len(ops), failed, metrics, notes, []


def end_to_end(ops, elapsed):
    """Judge the (report, oracle) pairs of a timed window, after it ended,
    and compute the end-to-end metrics; a failed op still counts as
    attempted.  Every op sets up its own interpreter, so set-up is sampled
    across the whole window."""
    failed = sum(bool(judge(report, check)) for report, check in ops)
    timed = [r for r, _ in ops if "return" in r]
    if not timed:
        raise BenchError("no op returned: " + judge(*ops[0])[0])
    setup = [setup_seconds(r) for r in timed]
    op_s = [op_seconds(r) for r in timed]
    q = tail_quantile(len(op_s))
    metrics = {
        "setup_s": [statistics.median(setup), "s", len(setup)],
        "op_s.p50": [statistics.median(op_s), "s", len(op_s)],
        "op_s.p90": [quantile(op_s, q), "s", len(op_s)],
        "ops_per_s": [(len(ops) - failed) / elapsed, "1/s", len(ops)],
        "ok_ratio": [(len(ops) - failed) / len(ops), "ratio", len(ops)],
        "peak_rss_mb": [max(r["rss_kb"] for r in timed) / 1024, "MB",
                        len(timed)],
    }
    notes = {"op_s.p90": f"percentile {round(100 * q)} of {len(op_s)} ops",
             "elapsed_s": elapsed, "op_s": op_s, "setup_s": setup}
    return failed, metrics, notes


def run_traced(workload, seed, seconds):
    warm_up()
    spans = Spans(prefix="run.")
    plain, lib = [], []
    failed = 0
    with spans.span(f"run.{workload}"):
        ops = workload_ops(workload, seed)
        start = time.monotonic()
        while (len(plain) < MIN_TRACE_ROUNDS
               or time.monotonic() - start < seconds):
            argv, lib_args, check = next(ops)
            with spans.span("op.cli"):
                plain.append(spawn("cli", *argv))
            with spans.span("op.lib"):
                lib.append(spawn("lib", workload, *lib_args))
            failed += bool(judge(plain[-1], check))
            if "return" not in lib[-1]:
                failed += 1
        attempted = len(plain) + len(lib)

        metrics = {}
        trace_s = []
        for group in GROUPS:
            with spans.span(f"layer.{group}") as sid:
                result = run_layer_group(group, seed)
            spans.adopt(result["spans"], sid)
            trace_s.append(result["metrics"].pop("trace.overhead_s"))
            metrics.update(result["metrics"])
        metrics["trace.overhead_s"] = [sum(v for v, _, _ in trace_s), "s",
                                       sum(n for _, _, n in trace_s)]
        with spans.span("layer.setup"):
            metrics.update(import_times())

    # Median over rounds of the op-time difference on the same input.
    overhead = [op_seconds(a) - op_seconds(b) for a, b in zip(plain, lib)
                if "return" in a and "return" in b]
    if not overhead:
        raise BenchError("no op returned in the traced run")
    metrics["cli.overhead_s"] = [statistics.median(overhead), "s",
                                 len(overhead)]
    notes = {"cli.overhead_s": f"on {workload}: cold cli.main minus the "
                               "cold library call",
             "trace.overhead_s": "layer replays: spans recorded times the "
                                 "cost of one empty span"}
    return attempted, failed, metrics, notes, spans.records


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        out = ""
    return out or "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    args = parse_args(argv)
    run = run_traced if args.trace else run_untraced
    try:
        attempted, failed, metrics, notes, spans = run(
            args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    environment = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
    }
    samples = {name: {"unit": unit, "samples": n}
               for name, (_, unit, n) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as f:
        json.dump({"environment": environment, "notes": notes,
                   "metrics": metrics,
                   "span_fields": FIELDS, "spans": spans}, f)
    print(json.dumps({"environment": environment, "samples": samples,
                      "notes": notes}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
