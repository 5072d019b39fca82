"""Command-line front end: sequence and series emission, verification
suites, scans, kernel probes, conjecture evidence, pattern counting, and
b-file cross-checks.

Exit codes: 0 all checks pass / output produced; 1 a verification found a
counterexample outside conjectures and flagged typos; 2 usage or input
error, which a subcommand raises as ValueError or OSError (a refused
argument, an unreadable b-file, a failed write) for `run` alone to report.
All numeric output is decimal strings; nothing is ever a float.  A run
reads its argv and nothing else (besides the b-file an argv names), so one
argv always prints the same output.
"""
from __future__ import annotations

import argparse
import functools
import importlib.util
import sys


def _lazy(name: str):
    """The module sterntwist.<name>.  One already imported is returned as it
    is; any other is registered in sys.modules, and its code runs on the
    first read of one of its attributes.  So a process compiles only the
    modules its subcommand reaches, and `--help` none of them."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return module


ratwords = _lazy("ratwords")
regularity = _lazy("regularity")
sequences = _lazy("sequences")
series = _lazy("series")
verify = _lazy("verify")


# ---------------------------------------------------------------------------
# b-files.
# ---------------------------------------------------------------------------


class BFileFormatError(ValueError):
    pass


def parse_bfile(text: str) -> tuple[tuple[int, int], ...]:
    """The `(index, value)` pairs of an OEIS-style b-file: `index value`
    lines, strictly increasing natural indices, # comments allowed."""
    entries = []
    last = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileFormatError(f"line {lineno}: expected 'index value'")
        try:
            idx = int(parts[0])
            val = int(parts[1])
        except ValueError as exc:
            raise BFileFormatError(f"line {lineno}: {exc}") from None
        if idx < 0:
            raise BFileFormatError(f"line {lineno}: negative index")
        if last is not None and idx <= last:
            raise BFileFormatError(f"line {lineno}: indices must be strictly increasing")
        last = idx
        entries.append((idx, val))
    return tuple(entries)


#: Per-id comparison defaults: index cap and how a file index maps onto ours.
_OEIS_TARGETS = {
    "A002487": {"limit": 1 << 16, "describe": "Stern values s(n)"},
    "A163659": {"limit": 2048, "describe": "log-derivative series coefficients"},
    "A000123": {"limit": 2048, "describe": "binary partition counts at doubled index"},
}


def _oeis_reference_values(oeis_id: str, max_index: int):
    """index -> expected value, for indices up to max_index.  A series
    reference is refused, before it is built, unless its order lies below
    MAX_ORDER."""
    if oeis_id == "A002487":
        return sequences.stern
    # A000123: entry n counts partitions of 2n into powers of two, which is
    # our coefficient at index 2n.
    stride = 2 if oeis_id == "A000123" else 1
    if stride * max_index >= MAX_ORDER:
        raise ValueError(f"index {max_index} is past {(MAX_ORDER - 1) // stride}, "
                         f"the largest index {oeis_id} is checked at")
    if oeis_id == "A163659":
        coeffs = regularity.h_series(max_index).coeffs
        return lambda i: coeffs[i]
    coeffs = regularity.binary_partition_series(2 * max_index).coeffs
    return lambda i: coeffs[2 * i]


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------


def _emit_reports(reports, fmt: str) -> None:
    if fmt == "json":
        for r in reports:
            print(r.to_json())
    else:
        for r in reports:
            print(r.summary_line())


#: Truncation order of the series when --order is not given.
TRUNCATION_ORDER = 1024

#: Default --max-e of `verify`.
MAX_E = 10

#: Default --max-n of `verify`.
MAX_N = 1024


#: sequences.MAX_TABLE, the most entries a prefix table may hold, stated
#: here so that importing cli runs no module; a test pins the two.
MAX_TABLE = 1 << 21

#: Orders lie below this.  The widest reader, the u series, takes the first
#: order + 5 entries of t, so no order-taking command passes MAX_TABLE.
MAX_ORDER = MAX_TABLE - 8


def _order(args) -> int:
    """--order, else TRUNCATION_ORDER; refused unless 0 <= order < MAX_ORDER."""
    order = args.order if args.order is not None else TRUNCATION_ORDER
    if order < 0:
        raise ValueError("order must be a natural number")
    if order >= MAX_ORDER:
        raise ValueError(f"order must be below {MAX_ORDER}")
    return order


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_seq(args) -> int:
    if args.start < 0 or args.end < args.start:
        raise ValueError("need 0 <= from <= to")
    if args.end - args.start >= MAX_TABLE:
        raise ValueError(f"a range holds at most {MAX_TABLE} values")
    producers = {
        "s": sequences.stern,
        "t": sequences.twisted,
        "S": sequences.weighted_stern,
        "Se": sequences.weighted_even,
    }
    produce = producers[args.kind]
    values = [(n, produce(n)) for n in range(args.start, args.end + 1)]
    if args.format == "json":
        import json

        if args.kind in ("s", "t"):
            payload = [str(v) for _, v in values]
        else:
            payload = [[str(c) for c in v.coeffs] for _, v in values]
        print(
            json.dumps(
                {
                    "kind": args.kind,
                    "from": args.start,
                    "to": args.end,
                    "values": payload,
                },
                sort_keys=True,
            )
        )
    elif args.format == "csv":
        for n, v in values:
            print(f"{n},{v}")
    else:
        for n, v in values:
            print(f"{n} {v}")
    return 0


def _series_by_name(name: str, order: int):
    if name == "stern":
        return series.stern_series(order)
    if name == "twisted":
        return series.twisted_series(order)
    if name == "carlitz":
        return series.carlitz_series(order)
    if name == "H":
        return regularity.h_series(order)
    if name == "C":
        return regularity.c_series(order)
    if name == "binpart":
        return regularity.binary_partition_series(order)
    if name in verify.WINDOW_FORMS:
        return verify.quotient_series(name, order)
    raise ValueError(f"unknown series {name!r}")


def _cmd_series(args) -> int:
    if args.name == "psi":
        if args.order is not None:
            raise ValueError("--order does not apply to psi, whose --e sets its degree")
        if args.e is None:
            raise ValueError("series psi needs --e")
        result = series.psi(args.e)
    elif args.e is not None:
        raise ValueError(f"--e applies only to psi, not to {args.name}")
    else:
        result = _series_by_name(args.name, _order(args))
    if args.format == "json":
        import json

        print(
            json.dumps(
                {
                    "name": args.name,
                    "order": result.order,
                    "ring": "integer",
                    "coefficients": result.to_json_coeffs(),
                },
                sort_keys=True,
            )
        )
    else:
        print(result.to_text())
    return 0


def _cmd_verify(args) -> int:
    reports = verify.run_suite(args.suite, args.max_e, args.max_n)
    _emit_reports(reports, args.format)
    return 1 if any(r.blocking for r in reports) else 0


def _cmd_scan(args) -> int:
    if args.identity not in verify.REGISTRY:
        raise ValueError(f"unknown identity {args.identity!r}")
    report = verify.check_identity(args.identity, args.e, verify.SCAN)
    _emit_reports([report], args.format)
    return 0


def _cmd_kernel(args) -> int:
    order = _order(args)
    regularity.check_kernel_probe(args.k, args.depth, order)
    values = _series_by_name(args.target, order - 1).coeffs
    report = regularity.kernel_rank(args.target, values, args.k, args.depth, order)
    if args.format == "json":
        print(report.to_json())
    else:
        ranks = ", ".join(str(r) for r in report.ranks)
        stability = "stable" if report.stable else "UNSTABLE"
        print(
            f"{report.target}: k={report.k} order={report.order} "
            f"ranks by depth [{ranks}] ({stability} against half order)"
        )
    return 0


#: The largest window offset of each sweep, as in verify.WINDOW_FORMS (a
#: test pins the two): a sweep to e needs an order of at least reach*2^e.
CONJECTURE_REACH = {"gen": 3, "ab": 2}


def _cmd_conjecture(args) -> int:
    reach = CONJECTURE_REACH[args.which]
    largest = ((MAX_ORDER - 1) // reach).bit_length() - 1
    if args.max_e > largest:
        raise ValueError(f"--max-e must be at most {largest}: a sweep to e needs an order "
                         f"of at least {reach}*2^e, and orders lie below {MAX_ORDER}")
    check = verify.check_conjecture_gen if args.which == "gen" else verify.check_conjecture_ab
    _emit_reports([check(args.max_e, _order(args))], args.format)
    return 0


def _cmd_count(args) -> int:
    if args.weighted and args.pattern != "admissible":
        raise ValueError("--weighted only applies to the admissible pattern")
    if args.pattern == "admissible":
        rep = ratwords.subsequence_transform(
            ratwords.admissible_representation(weighted=args.weighted)
        )
    elif args.pattern == "ones":
        rep = ratwords.subsequence_transform(ratwords.word_indicator((1,), 2))
    else:  # factor11
        rep = ratwords.subfactor_transform(ratwords.word_indicator((1, 1), 2))
    print(str(ratwords.count_in_expansion(rep, args.n, 2)))
    return 0


def _cmd_oeis_check(args) -> int:
    target = _OEIS_TARGETS[args.oeis_id]
    limit = args.limit if args.limit is not None else target["limit"]
    with open(args.bfile, "r", encoding="utf-8") as handle:
        entries = parse_bfile(handle.read())
    usable = [(i, v) for i, v in entries if i <= limit]
    if not usable:
        raise ValueError(f"no entries with index <= {limit}")
    reference = _oeis_reference_values(args.oeis_id, max(i for i, _ in usable))
    mismatches = [(i, v, reference(i)) for i, v in usable if reference(i) != v]
    checked = len(usable)
    if mismatches:
        i, got, want = mismatches[0]
        print(
            f"{args.oeis_id}: {len(mismatches)}/{checked} mismatches "
            f"(first at index {i}: file {got}, computed {want})"
        )
        return 1
    print(f"{args.oeis_id}: {checked} entries match ({target['describe']})")
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process, so that a script's many `run`
    calls pay for it once.  Each subcommand's handler is bound when it is
    built: patching a `_cmd_*` function afterwards changes nothing (no test
    does)."""
    parser = argparse.ArgumentParser(
        prog="sterntwist",
        description="Exact sequences, series and verification sweeps for the "
        "Stern diatomic sequence and its sign-twisted companion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="emit sequence values")
    p.add_argument("--kind", choices=["s", "t", "S", "Se"], required=True)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("series", help="emit a named series")
    p.add_argument(
        "--name",
        choices=["stern", "twisted", "carlitz", "psi", "H", "C", "u", "A", "B", "binpart"],
        required=True,
    )
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--e", type=int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=["all", "identities", "matrices", "divisibility", "mod2", "palindrome"],
        default="all",
    )
    p.add_argument("--max-e", dest="max_e", type=int, default=MAX_E)
    p.add_argument("--max-n", dest="max_n", type=int, default=MAX_N)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="scan an identity for its true n-range")
    p.add_argument("--identity", required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("kernel", help="probe section ranks of a sequence")
    p.add_argument("--target", choices=["stern", "H", "C", "binpart"], required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("conjecture", help="run a conjecture evidence sweep")
    p.add_argument("--which", choices=["gen", "ab"], required=True)
    p.add_argument("--max-e", dest="max_e", type=int, default=6)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("count", help="count patterns in a binary expansion")
    p.add_argument("--pattern", choices=["admissible", "ones", "factor11"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weighted", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("oeis-check", help="cross-check a local b-file")
    p.add_argument("--id", dest="oeis_id", choices=sorted(_OEIS_TARGETS), required=True)
    p.add_argument("--bfile", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_oeis_check)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
