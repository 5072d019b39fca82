#!/usr/bin/env python3
"""Contrast section-rank growth of the catalogued targets at a few orders.

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

from sterntwist.regularity import (
    binary_partition_series,
    c_series,
    h_series,
    kernel_rank,
)
from sterntwist.series import stern_series


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=6)
    args = parser.parse_args()

    orders = [512, 1024, 2048]
    targets = {
        "stern": lambda order: stern_series(order - 1).coeffs,
        "H": lambda order: h_series(order - 1).coeffs,
        "C": lambda order: c_series(order - 1).coeffs,
        "binpart": lambda order: binary_partition_series(order - 1).coeffs,
    }
    try:
        for name, values_of in targets.items():
            lines = [name]
            for order in orders:
                depth = args.depth
                while 2**depth * 16 > order:
                    depth -= 1
                probe = kernel_rank(name, values_of(order), 2, depth, order)
                stability = "stable" if probe.stable else "UNSTABLE"
                lines.append(f"  order {order:>5}: ranks {list(probe.ranks)} ({stability})")
            print("\n".join(lines))
    except ValueError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
