"""Smoke tests of the scripts under scripts/, each run as its own process."""
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_full_verification_runs_clean():
    done = run_script("full_verification.py", "--max-e", "4", "--order", "128")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith("all suites clean")
    assert "Traceback" not in done.stderr


def test_kernel_growth_prints_every_target():
    done = run_script("kernel_growth.py", "--depth", "3")
    assert done.returncode == 0, done.stderr
    headers = [line for line in done.stdout.splitlines() if not line.startswith(" ")]
    assert headers == ["stern", "H", "C", "binpart"]
    assert done.stdout.count("ranks [") == 12
