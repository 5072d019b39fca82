#!/usr/bin/env python3
"""Run every verification suite, the conjecture evidence sweeps, and the
kernel probes in one go, as `sterntwist` subcommands; print their output and
exit 1 on any blocking failure.

Usage: python scripts/full_verification.py [--max-e E] [--order N] [--json]
"""
import argparse
import sys
from pathlib import Path

try:
    import sterntwist  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sterntwist.cli import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-e", type=int, default=10)
    parser.add_argument("--order", type=int, default=1024)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    probe_order = max(args.order, 128)
    # the deepest depth whose sections keep at least 16 terms
    depth = min(6, probe_order.bit_length() - 5)
    argvs = [
        ["verify", "--suite", "all", "--max-e", str(args.max_e), "--max-n", str(args.order)],
        ["conjecture", "--which", "gen", "--max-e", "6", "--order", str(max(args.order, 3 << 6))],
        ["conjecture", "--which", "ab", "--max-e", "6", "--order", str(max(args.order, 2 << 6))],
    ] + [
        ["kernel", "--target", target, "--depth", str(depth), "--order", str(probe_order)]
        for target in ("stern", "H", "C", "binpart")
    ]
    failed = []
    for argv in argvs:
        code = run(argv + ["--format", "json"] if args.json else argv)
        if code == 2:
            return 2
        if code:
            failed.append(" ".join(argv))
    if failed:
        print(f"BLOCKING FAILURES: {'; '.join(failed)}", file=sys.stderr)
        return 1
    print("all suites clean (flagged-typo records and conjectures reported above)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
