"""The scripts under scripts/ run `sterntwist` argv through `cli.run`: each
prints exactly what those runs print, and exits as they do."""
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from sterntwist import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

FULL_VERIFICATION_ARGVS = [
    ["verify", "--suite", "all", "--max-e", "4", "--max-n", "128"],
    ["conjecture", "--which", "gen", "--max-e", "6", "--order", "192"],
    ["conjecture", "--which", "ab", "--max-e", "6", "--order", "128"],
] + [["kernel", "--target", target, "--depth", "3", "--order", "128"]
     for target in ("stern", "H", "C", "binpart")]


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )


def cli_output(capsys, argvs):
    capsys.readouterr()
    for argv in argvs:
        assert cli.run(argv) == 0, argv
    return capsys.readouterr().out


def test_full_verification_prints_its_argvs_cli_output(capsys):
    done = run_script("full_verification.py", "--max-e", "4", "--order", "128", "--json")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    want = cli_output(capsys, [argv + ["--format", "json"] for argv in FULL_VERIFICATION_ARGVS])
    assert done.stdout == want + (
        "all suites clean (flagged-typo records and conjectures reported above)\n")


def test_kernel_growth_prints_every_target(capsys):
    # one kernel line per target and order, target by target
    done = run_script("kernel_growth.py", "--depth", "3")
    assert done.returncode == 0, done.stderr
    assert done.stdout == cli_output(capsys, [
        ["kernel", "--target", target, "--depth", "3", "--order", str(order)]
        for target in ("stern", "H", "C", "binpart") for order in (512, 1024, 2048)])


@pytest.mark.parametrize("name, args, command", [
    ("full_verification.py", ("--max-e", "-1"), "verify"),
    ("full_verification.py", ("--order", "3000000"), "verify"),
    ("kernel_growth.py", ("--depth", "-1"), "kernel"),
])
def test_bad_arguments_exit_2(name, args, command):
    done = run_script(name, *args)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"{command}: ")
    assert done.stdout == ""


@pytest.mark.parametrize("codes, exit_code, runs", [
    ({}, 0, 7),
    ({"verify": 1}, 1, 7),
    ({"verify": 1, "conjecture": 2}, 2, 2),
    ({"kernel": 2}, 2, 4),
])
def test_full_verification_exits_as_its_runs_do(capsys, monkeypatch, codes, exit_code, runs):
    # 2 at the first run that exits 2, else 1 if any run returned 1
    made = []

    def fake_run(argv):
        made.append(argv)
        return codes.get(argv[0], 0)

    monkeypatch.setattr(cli, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["full_verification.py", "--max-e", "4", "--order", "128"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPTS / "full_verification.py"), run_name="__main__")
    assert stop.value.code == exit_code
    assert made == FULL_VERIFICATION_ARGVS[:runs]
    captured = capsys.readouterr()
    if exit_code == 1:
        assert captured.err == ("BLOCKING FAILURES: "
                                "verify --suite all --max-e 4 --max-n 128\n")
    assert captured.out.startswith("all suites clean") == (exit_code == 0)
