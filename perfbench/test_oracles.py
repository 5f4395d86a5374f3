"""Self-tests of the benchmark: the oracles reject corrupted output, a
rejected op is counted in the failure ratio, and bad arguments exit 2.

    python3 -m pytest perfbench/test_oracles.py
    python3 perfbench/test_oracles.py

Each test that needs real output runs the op once through the same child
process the benchmark uses.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402


def format_sum(n):
    terms = [("1" if i == 0 else "x" if i == 1 else f"x^{i}")
             for i in range(n.bit_length() - 1, -1, -1) if (n >> i) & 1]
    return "+".join(terms)


def format_factored(pairs):
    parts = []
    for base, e in pairs:
        text = format_sum(base)
        if "+" in text:
            text = f"({text})"
        parts.append(text if e == 1 else f"{text}^{e}")
    return "*".join(parts)


def run_op(workload):
    """(report, oracle) for the first real op of a workload."""
    argv, _, check = next(run.workload_ops(workload, seed=0))
    return run.spawn("cli", *argv), check


def with_stdout(report, stdout):
    return dict(report, stdout=stdout)


class OracleSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.classify = run_op("classify")
        cls.scan = run_op("scan")
        cls.factor = run_op("factor-large")

    def assert_counted(self, good, corrupted_stdout):
        """The corrupted op fails its oracle and shows in ok_ratio."""
        report, check = good
        self.assertEqual(run.judge(report, check), [])
        bad = (with_stdout(report, corrupted_stdout), check)
        self.assertNotEqual(run.judge(*bad), [])
        failed, metrics, _ = run.end_to_end([good, bad, good, good],
                                            elapsed=1.0)
        self.assertEqual(failed, 1)
        self.assertEqual(metrics["ok_ratio"][0], 0.75)

    def test_metric_names_match_benchmark_json(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        _, metrics, _ = run.end_to_end([self.scan], elapsed=1.0)
        self.assertEqual(
            {name: unit for name, (_, unit, _) in metrics.items()},
            {m["name"]: m["unit"] for m in bench["end_to_end"]})

    def test_catalog_closure_is_frozen_size(self):
        self.assertEqual(len(oracles.catalog_closure()),
                         oracles.CATALOG_CLOSURE_SIZE)

    def test_classify_dropped_record(self):
        lines = self.classify[0]["stdout"].splitlines()
        dropped = [line for line in lines if not line.endswith("\tC3")]
        self.assertEqual(len(dropped), len(lines) - 1)
        self.assert_counted(self.classify, "\n".join(dropped) + "\n")

    def test_classify_wrong_exponent(self):
        lines = self.classify[0]["stdout"].splitlines()
        case, tuple_text, factored, tag = lines[0].split("\t")
        pairs = oracles.parse_factored(factored)
        pairs[-1] = (pairs[-1][0], pairs[-1][1] + 1)
        lines[0] = "\t".join((case, tuple_text, format_factored(pairs), tag))
        self.assert_counted(self.classify, "\n".join(lines) + "\n")

    def test_classify_nonzero_exit(self):
        report, check = self.classify
        self.assertNotEqual(check(1, report["stdout"]), [])

    def test_scan_dropped_record(self):
        lines = self.scan[0]["stdout"].splitlines()
        self.assert_counted(self.scan, "\n".join(lines[1:]) + "\n")

    def test_scan_wrong_exponent(self):
        stdout = self.scan[0]["stdout"].replace("x^7*(x+1)^7", "x^7*(x+1)^8")
        self.assert_counted(self.scan, stdout)

    def test_factor_reducible_factor(self):
        pairs = oracles.parse_factored(self.factor[0]["stdout"])
        (p, e), (q, f) = pairs[-2], pairs[-1]
        # Replacing one p and one q by the factor p*q keeps the product.
        merged = [(b, k) for b, k in pairs[:-2] + [
            (p, e - 1), (q, f - 1), (oracles.clmul(p, q), 1)] if k]
        self.assert_counted(self.factor, format_factored(merged) + "\n")

    def test_factor_wrong_exponent(self):
        pairs = oracles.parse_factored(self.factor[0]["stdout"])
        pairs[0] = (pairs[0][0], pairs[0][1] + 1)
        self.assert_counted(self.factor, format_factored(pairs) + "\n")

    def test_rabin_against_known_polynomials(self):
        for p in oracles.SUPPORT:
            self.assertTrue(oracles.is_irreducible(p))
        self.assertTrue(oracles.is_irreducible((1 << 127) | 3))   # x^127+x+1
        self.assertFalse(oracles.is_irreducible(oracles.clmul(
            oracles.M2, oracles.M3)))
        self.assertFalse(oracles.is_irreducible((1 << 8) | 1))    # (x+1)^8


class ArgumentTest(unittest.TestCase):

    def run_bench(self, *args, cwd=None):
        return subprocess.run(
            [sys.executable, str(HERE / "run.py"), *args],
            cwd=cwd or HERE.parent, capture_output=True, text=True,
            timeout=120)

    def test_malformed_arguments_exit_2(self):
        good = {"--workload": "scan", "--seed": "1", "--seconds": "1",
                "--trace": "0"}
        for key, value in (("--seed", "abc"), ("--seed", "-1"),
                           ("--workload", "bogus"), ("--trace", "2"),
                           ("--seconds", "0")):
            args = dict(good, **{key: value})
            proc = self.run_bench(*(x for kv in args.items() for x in kv))
            self.assertEqual(proc.returncode, 2, (key, value))
            self.assertEqual(proc.stdout, "")

    def test_fails_without_the_program(self):
        bare = HERE.parent / ".perfbench_out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload",
                 "classify", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class StatisticsTest(unittest.TestCase):

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail_quantile(100), 0.9)
        self.assertAlmostEqual(run.tail_quantile(50), 0.8)
        self.assertEqual(run.tail_quantile(12), 0.5)
        self.assertEqual(run.quantile([1, 2, 3, 4, 5], 0.5), 3)
        self.assertAlmostEqual(run.quantile(list(range(11)), 0.9), 9.0)


if __name__ == "__main__":
    unittest.main()
