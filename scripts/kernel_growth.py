#!/usr/bin/env python3
"""Contrast section-rank growth of the catalogued targets at a few orders,
one `sterntwist kernel` line per target and order.

Bounded, stabilising ranks are evidence of base-2 regularity (stern, H, C);
the binary-partition counts grow rank by rank instead.

Usage: python scripts/kernel_growth.py [--depth D]
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
    parser.add_argument("--depth", type=int, default=6)
    args = parser.parse_args()

    worst = 0
    for target in ("stern", "H", "C", "binpart"):
        for order in (512, 1024, 2048):
            # the deepest depth whose sections keep at least 16 terms
            depth = min(args.depth, order.bit_length() - 5)
            code = run(["kernel", "--target", target, "--depth", str(depth),
                        "--order", str(order)])
            if code == 2:
                return 2
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
