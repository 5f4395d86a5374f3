"""The whole benchmark in one command: the oracle self-tests, then for
every workload an untraced run (end-to-end metrics, outputs checked by the
oracles after the timed window) and a traced run (per-layer metrics).
Prints every metric by name with its unit and sample count.

    python3 perfbench/report.py [--seed N]

Each run lasts ``run_seconds`` from BENCHMARK.json.  Exits 1 if a
self-test, a run or an oracle fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    ok = subprocess.run([sys.executable, str(HERE / "test_oracles.py")],
                        cwd=ROOT).returncode == 0
    print(f"oracle self-tests: {'passed' if ok else 'FAILED'}")
    for workload in (w["name"] for w in config["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(config["run_seconds"]),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: run failed\n{proc.stderr}")
                ok = False
                continue
            meta, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"\n== {workload}, trace {trace}: correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                n = meta["samples"][name]["samples"]
                print(f"  {name:<44} {metric['value']:>14.6g} "
                      f"{metric['unit']:<6} n={n}")
            env = meta["environment"]
            print(f"  (seed {env['seed']}, {env['git_sha'][:12]}, Python "
                  f"{env['python']}, nproc {env['nproc']}, {env['cpu']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
