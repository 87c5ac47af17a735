"""Each script under scripts/ runs to exit 0 at its smallest arguments.

The scripts import private names of the library (``_scans``,
``_divmod``, ``_DIVMOD_BITS``, ``_node``), so a rename there breaks them silently
unless they run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import padic

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "code_lines.py": [],
    "digit_tables.py": ["-p", "5", "-N", "4"],
    "large_k_lift.py": ["--cases", "5,x^2-6,1,50", "--bits", "4000", "--reps", "1"],
    "lift_vs_oracle.py": ["--primes", "3", "--trials", "2", "-k", "3"],
    "root_split_timings.py": ["--points", "101,3", "--polys", "1", "--reps", "1"],
    "tree_depth.py": ["--bits", "8", "--reps", "1"],
}


def test_every_script_is_listed():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPTS)


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *SCRIPTS[name]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_code_lines_prints_the_size_of_all():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"__all__ {len(padic.__all__)}"
