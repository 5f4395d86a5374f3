import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 6


def run_demo(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr


def test_catalog_demo_times_each_case():
    # four decimals, as the CLI footers print, so no case reads zero
    result = run_demo(ROOT / "demos" / "05_catalog_and_search.py")
    assert result.returncode == 0, result.stderr
    times = re.findall(r"^ +[a-z-]+: +\d+ candidates -> .* in (\d+\.\d+)s$",
                       result.stdout, re.MULTILINE)
    assert len(times) == 4, result.stdout
    assert all(len(t.split(".")[1]) == 4 and t != "0.0000" for t in times)
