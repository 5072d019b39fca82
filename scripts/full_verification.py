#!/usr/bin/env python3
"""Run every verification suite, the conjecture evidence sweeps, and the
kernel probes in one go; print a combined table and exit 1 on any blocking
failure.

Usage: python scripts/full_verification.py [--max-e E] [--order N] [--json]
"""
import argparse
import sys
from pathlib import Path

try:
    import sterntwist  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sterntwist import verify
from sterntwist.regularity import (
    binary_partition_series,
    c_series,
    h_series,
    kernel_rank,
)
from sterntwist.series import stern_series


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-e", type=int, default=10)
    parser.add_argument("--order", type=int, default=1024)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    try:
        reports = verify.run_suite("all", args.max_e, args.order)
        reports.append(verify.check_conjecture_gen(6, max(args.order, 3 << 6)))
        reports.append(verify.check_conjecture_ab(6, max(args.order, 2 << 6)))
    except ValueError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2

    for report in reports:
        print(report.to_json() if args.json else report.summary_line())

    probe_order = max(args.order, 128)
    # keep the deepest prefix at least 16 long so the probe stays reliable
    depth = min(6, probe_order.bit_length() - 5)
    probes = [
        kernel_rank("stern", stern_series(probe_order - 1).coeffs, 2, depth, probe_order),
        kernel_rank("H", h_series(probe_order - 1).coeffs, 2, depth, probe_order),
        kernel_rank("C", c_series(probe_order - 1).coeffs, 2, depth, probe_order),
        kernel_rank(
            "binpart", binary_partition_series(probe_order - 1).coeffs, 2, depth, probe_order
        ),
    ]
    for probe in probes:
        if args.json:
            print(probe.to_json())
        else:
            stability = "stable" if probe.stable else "UNSTABLE"
            print(
                f"{probe.target:<14} ranks {list(probe.ranks)} "
                f"({stability} against half order)"
            )

    blocking = [r.identity for r in reports if r.blocking]
    if blocking:
        print(f"BLOCKING FAILURES: {', '.join(blocking)}", file=sys.stderr)
        return 1
    print("all suites clean (flagged-typo records and conjectures reported above)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
