"""Request pools and seeded request lists of the sterntwist benchmark.

Every request a seed can generate comes from a fixed pool, and every pool
entry has a recorded reference output (`references.json`), so any seed can
be checked.  A request is `("cli", argv)` for a fresh `sterntwist` process or
`("lib", key)` for one library call; `key` is `"<call> <arg> ..."` as
understood by `worker.py`.

The known-bad argv of the exit-code contract (negative `--n`, `--max-n`,
`--e`, `--max-e`) are deliberately not in any pool: their exit codes today
are defects, and recording them would make the fix read as a failure.
"""
from __future__ import annotations

import random

WORKLOADS = ("verify-sweep", "series-large", "library-small")

VERIFY_ARGV = ("verify", "--suite", "all", "--max-e", "13", "--max-n", "65536")

#: verify-sweep scans: `scan --e 14` of the eight identities whose scans
#: took 0.6-0.75 s when the references were recorded.  A sweep scans four
#: distinct ones, so the seed changes which scans run but hardly their load.
#: At `--e 12` a scan is two thirds interpreter start-up, and the median
#: request (always a scan) then mostly times the start-up that `setup_s`
#: already covers.
SCAN_IDENTITIES = ("STID-T", "MF1", "MF2", "ID3", "ID5", "ID9", "MOD2-S", "MOD2-T")
SCANS_PER_SWEEP = 4
SCAN_E = 14

#: series-large: one request per family per list; the seed picks the order.
#: The `u` series (one `div_exact` at order ~4096, about 1.3 s) sits between
#: the two short and the two long requests, so a list has a middle request
#: and its median latency is one request's time, not a blend of two.
LARGE_FAMILIES = (
    (("series", "--name", "H", "--order"), (8064, 8128, 8192)),
    (("conjecture", "--which", "gen", "--max-e", "6", "--order"), (3968, 4032, 4096)),
    (("series", "--name", "u", "--order"), (3968, 4032, 4096)),
    (("series", "--name", "binpart", "--order"), (8064, 8128, 8192)),
    (("kernel", "--target", "binpart", "--depth", "6", "--order"), (1920, 1984, 2048)),
)

#: library-small: light calls drawn afresh from a pool of arguments each
#: round, as (call, how many per round).
LIGHT_CALLS = (
    ("stern", 30),
    ("twisted", 30),
    ("weighted_stern", 20),
    ("weighted_even", 15),
    ("weighted_stern_alt", 10),
    ("count", 40),
)
PATTERNS = ("admissible-w", "admissible", "ones", "factor11")
IDENTITIES = (
    "STID-S", "STID-T", "STID-T3", "STID-T3S", "MF1", "MF2", "REC-S", "REC-T", "ID3", "ID4",
    "ID5", "ID6", "ID7", "ID7C", "ID8", "ID9", "DIV-S", "DIV-T", "MOD2-S", "MOD2-T",
)
SERIES_CALLS = ("carlitz_series", "h_series", "binary_partition_series", "gen_quotient_series")
SERIES_ORDERS = tuple(range(128, 1025, 128))
KERNEL_ORDER = 1024

#: library-small: the same multiset of heavier calls every round, so every
#: round does the same series, kernel and sweep work; the seed only decides
#: where they fall among the light calls.
HEAVY_CALLS = (
    tuple(f"psi {e}" for e in range(2, 11)) * 3
    + tuple(f"{name} {order}" for name in SERIES_CALLS for order in SERIES_ORDERS) * 2
    + tuple(f"kernel_rank {target} {depth} {KERNEL_ORDER}"
            for target in ("stern", "H", "binpart") for depth in range(3, 7))
    + tuple(f"check_identity {i} {e}" for i in IDENTITIES for e in (4, 6, 8))
)


def light_pool() -> dict[str, list[str]]:
    """Argument pool of the light calls: 64-bit n for s and t, 40-bit n for
    the weighted recursions and the pattern counts.  Fixed, not seeded: the
    references cover exactly these keys."""
    rng = random.Random(20100527)

    def draw(bits, count):
        return [rng.getrandbits(bits) | (1 << (bits - 1)) for _ in range(count)]

    pool = {
        "stern": [f"stern {n}" for n in draw(64, 256)],
        "twisted": [f"twisted {n}" for n in draw(64, 256)],
        "weighted_stern": [f"weighted_stern {n}" for n in draw(40, 128)],
        "weighted_even": [f"weighted_even {n}" for n in draw(40, 128)],
        "weighted_stern_alt": [f"weighted_stern_alt {n}" for n in draw(40, 128)],
        "count": [f"count {p} {n}" for p in PATTERNS for n in draw(40, 64)],
    }
    return pool


def cli_pool(workload: str) -> list[tuple[str, ...]]:
    """Every argv a seed can generate for a CLI workload."""
    if workload == "verify-sweep":
        return [VERIFY_ARGV] + [
            ("scan", "--identity", i, "--e", str(SCAN_E)) for i in SCAN_IDENTITIES
        ]
    return [head + (str(order),) for head, orders in LARGE_FAMILIES for order in orders]


def library_pool() -> list[str]:
    """Every library call key a seed can generate."""
    keys = [key for keys in light_pool().values() for key in keys]
    return keys + sorted(set(HEAVY_CALLS))


def pool(workload: str) -> list[tuple[str, object]]:
    if workload == "library-small":
        return [("lib", key) for key in library_pool()]
    return [("cli", argv) for argv in cli_pool(workload)]


def request_list(workload: str, rng: random.Random) -> list[tuple[str, object]]:
    """One seeded list of requests (one sweep, or one library round)."""
    if workload == "verify-sweep":
        argvs = [VERIFY_ARGV] + [
            ("scan", "--identity", i, "--e", str(SCAN_E))
            for i in rng.sample(SCAN_IDENTITIES, SCANS_PER_SWEEP)
        ]
        rng.shuffle(argvs)
        return [("cli", argv) for argv in argvs]
    if workload == "series-large":
        argvs = [head + (str(rng.choice(orders)),) for head, orders in LARGE_FAMILIES]
        rng.shuffle(argvs)
        return [("cli", argv) for argv in argvs]
    if workload == "library-small":
        light = light_pool()
        keys = list(HEAVY_CALLS)
        for name, count in LIGHT_CALLS:
            keys.extend(rng.sample(light[name], count))
        rng.shuffle(keys)
        return [("lib", key) for key in keys]
    raise ValueError(f"unknown workload {workload!r}")


def reference_key(request: tuple[str, object]) -> str:
    kind, what = request
    return f"cli {' '.join(what)}" if kind == "cli" else f"lib {what}"
