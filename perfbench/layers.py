"""Per-layer replays of gf2bup's public API, one group per fresh interpreter.

    python3 perfbench/layers.py SRC GROUP SEED

Each group calls one module's public functions on the inputs a workload
feeds that layer, with a span around every call (or around a timed batch
of calls, for kernels too fast to time one at a time).  The numbers are
replays of public APIs, not shares of an op: public ``factorize`` builds
wrapper objects that the search and the scan never build.  Prints one JSON
object: ``{"metrics": {name: [value, unit, samples]}, "spans": [...]}``;
``trace.overhead_s`` among the metrics is the group's span count times the
cost of one empty span, measured in the same interpreter.
"""

import json
import random
import statistics
import sys
import time

import oracles
from spans import Spans

SCAN_DEGREE = 16
SCAN_INPUTS = (1 << (SCAN_DEGREE + 1)) - 1
FACTOR_DEGREE = 1024
FACTOR_INPUTS = 16        # degree-1024 inputs replayed per traced run
SIGMA_SAMPLE = 16384      # scan inputs replayed through sigma_2star
KERNEL_BATCHES = 15
KERNEL_BATCH_S = 0.004    # each kernel batch runs for about this long
EMPTY_SPANS = 2000        # empty spans per batch when pricing a span


def _random_poly(rng, degree):
    return (1 << degree) | rng.getrandbits(degree)


def factor_large_inputs(seed):
    """The factor-large workload's inputs: random monic degree-1024
    polynomials, a fresh one per op."""
    rng = random.Random(f"factor-large/{seed}")
    while True:
        yield _random_poly(rng, FACTOR_DEGREE)


def _median_us(spans, name):
    values = spans.per_call_us(name)
    return [statistics.median(values), "us", len(values)]


def _factorize_calls(gf, workload):
    """Calls the program made to its factorization cache so far in this
    interpreter, and how many of them factored a new input.  Zero once the
    program no longer factors through that cache."""
    calls = distinct = 0
    cached = getattr(gf.factor, "_factorize_cached", None)
    if cached is not None:
        info = cached.cache_info()
        calls, distinct = info.hits + info.misses, info.misses
    return {f"factor.factorize.calls.{workload}": [calls, "count", 1],
            f"factor.factorize.distinct.{workload}": [distinct, "count", 1]}


def _empty_span_s():
    """Median wall time of one empty span."""
    spans = Spans()
    batches = []
    for _ in range(KERNEL_BATCHES):
        t = time.perf_counter()
        for _ in range(EMPTY_SPANS):
            with spans.span("empty"):
                pass
        batches.append((time.perf_counter() - t) / EMPTY_SPANS)
    return statistics.median(batches)


def group_gf2poly(gf, spans, seed):
    rng = random.Random(f"gf2poly/{seed}")
    P = gf.Gf2Poly
    kernels = {}
    pairs = [(P(_random_poly(rng, 16)), P(_random_poly(rng, 16)))
             for _ in range(KERNEL_BATCHES)]
    kernels["mul_us.d16"] = (gf.mul, pairs)
    pairs = [(P(_random_poly(rng, 1024)), P(_random_poly(rng, 1024)))
             for _ in range(KERNEL_BATCHES)]
    kernels["mul_us.d1024"] = (gf.mul, pairs)
    kernels["square_us.d1024"] = (gf.power, [(a, 2) for a, _ in pairs])
    kernels["gcd_us.d1024"] = (gf.gcd, pairs)
    kernels["divrem_us.d2048_by_d1024"] = (gf.divrem, [
        (P(_random_poly(rng, 2048)), P(_random_poly(rng, 1024)))
        for _ in range(KERNEL_BATCHES)])
    kernels["conjugate_us.d64"] = (gf.conjugate, [
        (P(_random_poly(rng, 64)),) for _ in range(KERNEL_BATCHES)])
    kernels["parse_us.d1024"] = (gf.parse, [
        (hex(_random_poly(rng, 1024)),) for _ in range(KERNEL_BATCHES)])

    metrics = {}
    for name, (func, operands) in kernels.items():
        # Calibrate the batch size on the first operands, untraced.
        calls = 1
        while True:
            t = time.perf_counter()
            for _ in range(calls):
                func(*operands[0])
            if time.perf_counter() - t >= KERNEL_BATCH_S:
                break
            calls *= 2
        span_name = f"gf2poly.{name}"
        for args in operands:
            with spans.span(span_name, count=calls):
                for _ in range(calls):
                    func(*args)
        metrics[span_name] = _median_us(spans, span_name)
    return metrics


def group_factor_scan(gf, spans, seed):
    # The scan factors the odd part of each input once; the odd parts of
    # all polynomials of degree <= 16 are exactly the odd polynomials
    # (coprime to x(x+1)) of degree 1..16.
    inputs = [gf.Gf2Poly(m) for m in range(3, SCAN_INPUTS + 1)
              if m & 1 and m.bit_count() & 1]
    for p in inputs:
        with spans.span("factor.factorize.scan"):
            gf.factorize(p)
    return {"factor.factorize_us.p50.scan": _median_us(
        spans, "factor.factorize.scan")}


def _touched_prime_powers(gf):
    """Every (support prime, exponent > 0) pair the four cases enumerate."""
    pairs = set()
    for case in gf.CASES:
        for ct in gf.candidate_tuples(case):
            pairs.update((base, e) for base, e
                         in zip(oracles.SUPPORT, ct.exponents()) if e)
    return sorted(pairs)


def group_factor_classify(gf, spans, seed):
    pairs = _touched_prime_powers(gf)
    values = []
    for base, e in pairs:
        pp = gf.PrimePower(gf.Gf2Poly(base), e)
        with spans.span("divisor_sums.sigma_2star_prime_power"):
            values.append(gf.sigma_2star_prime_power(pp))
    admissible = 0
    for value in values:
        with spans.span("factor.factorize.classify"):
            fac = gf.factorize(value)
        admissible += all(int(q) in oracles.SUPPORT for q, _ in fac)
    table_us = spans.per_call_us("divisor_sums.sigma_2star_prime_power")
    return {
        "divisor_sums.pp_table_s.classify": [
            sum(table_us) / 1e6, "s", len(table_us)],
        "factor.factorize_us.p50.classify": _median_us(
            spans, "factor.factorize.classify"),
        "bup_search.admissible_ratio": [
            admissible / len(pairs), "ratio", len(pairs)],
    }


def group_factor_large(gf, spans, seed):
    inputs = factor_large_inputs(seed)
    factorizations = []
    for _ in range(FACTOR_INPUTS):
        p = gf.Gf2Poly(next(inputs))
        with spans.span("factor.factorize.factor-large"):
            factorizations.append(gf.factorize(p))
    factors = 0
    for fac in factorizations:
        for q, _ in fac:
            factors += 1
            with spans.span("factor.is_irreducible.factor-large"):
                ok = gf.is_irreducible(q)
            if not ok:
                raise AssertionError(f"factorize returned reducible {q!r}")
    return {
        "factor.factorize_us.p50.factor-large": _median_us(
            spans, "factor.factorize.factor-large"),
        "factor.is_irreducible_us.factor-large": _median_us(
            spans, "factor.is_irreducible.factor-large"),
        "factor.factors_per_input.factor-large": [
            factors / FACTOR_INPUTS, "count", FACTOR_INPUTS],
    }


def group_sigma_scan(gf, spans, seed):
    rng = random.Random(f"sigma-scan/{seed}")
    for n in rng.sample(range(1, SCAN_INPUTS + 1), SIGMA_SAMPLE):
        p = gf.Gf2Poly(n)
        with spans.span("divisor_sums.sigma_2star.scan"):
            gf.sigma_2star(p)
    return {"divisor_sums.sigma_2star_us.scan": _median_us(
        spans, "divisor_sums.sigma_2star.scan")}


def group_bup_search(gf, spans, seed):
    metrics = {}
    candidates = records = 0
    for case in gf.CASES:
        with spans.span(f"bup_search.candidate_gen.{case}"):
            n = sum(1 for _ in gf.candidate_tuples(case))
        metrics[f"bup_search.candidates.{case}"] = [n, "count", 1]
        candidates += n
    for case in gf.CASES:
        with spans.span(f"bup_search.search_case.{case}"):
            records += len(gf.search_case(case).records)
    metrics.update(_factorize_calls(gf, "classify"))
    for _, name, start, end, _, _ in spans.records:
        kind, _, case = name.rpartition(".")
        metrics[f"{kind}_s.{case}"] = [(end - start) / 1e9, "s", 1]
    metrics["bup_search.hit_ratio"] = [records / candidates, "ratio",
                                       candidates]
    return metrics


def group_scan(gf, spans, seed):
    with spans.span("bup_search.exhaustive_low_degree_scan"):
        found = gf.exhaustive_low_degree_scan(SCAN_DEGREE)
    if {r.poly.value for r in found} != oracles.SCAN16_FIXPOINTS:
        raise AssertionError("the scan replay found a different fixpoint set")
    _, _, start, end, _, _ = spans.records[-1]
    return {
        "bup_search.scan_s": [(end - start) / 1e9, "s", 1],
        "bup_search.scan.fixpoint_ratio": [
            len(found) / SCAN_INPUTS, "ratio", SCAN_INPUTS],
        **_factorize_calls(gf, "scan"),
    }


GROUPS = {
    "gf2poly": group_gf2poly,
    "factor-scan": group_factor_scan,
    "factor-classify": group_factor_classify,
    "factor-large": group_factor_large,
    "sigma-scan": group_sigma_scan,
    "bup_search": group_bup_search,
    "scan": group_scan,
}


def main():
    src, group, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    import gf2bup
    import gf2bup.factor

    spans = Spans(prefix=f"{group}.")
    metrics = GROUPS[group](gf2bup, spans, seed)
    metrics["trace.overhead_s"] = [len(spans.records) * _empty_span_s(),
                                   "s", len(spans.records)]
    json.dump({"metrics": metrics, "spans": spans.records}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
