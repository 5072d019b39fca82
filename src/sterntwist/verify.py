"""Identity registry and sweep/scan checkers.

The registry is data: each catalogued identity stores its two closed forms
as plain functions of (s, t, e, n), the parameter range it was stated for,
and a status flag.  Sweeps and scans call each side once per block of at
most BLOCK consecutive n, with n a `columns.Span` and s, t column readers:
each read of s or t is one (possibly strided) slice of a flat prefix of the
sequence (`sequences.prefix`), which the recursion fills in O(length) and
which grows only as far as a check reads, and never past MAX_TABLE.
Indices from MAX_TABLE on, and sparse strided reads, are looked up one by
one.  The dedicated checkers read the same prefixes BLOCK n at a time and
walk n by n only a block that disagrees.
Entries whose printed statement disagrees with exhaustive computation are
kept verbatim and flagged ``suspected-typo``; their failures are
documented, not hidden, and never fail the build.  Conjecture checkers
likewise only ever produce evidence reports.
"""
from __future__ import annotations

import json
from collections.abc import Callable
from itertools import chain, repeat
from operator import add, and_, mul, sub

from .columns import Column, Reader, Span, column_reader
from .sequences import MAX_TABLE, Frozen, Kind, prefix, stern, twisted
from .series import (
    DivisionError,
    TruncatedSeries,
    div_stern,
    mul_stern,
    window_series,
)


# ---------------------------------------------------------------------------
# Identity sides.
# ---------------------------------------------------------------------------

#: One side of an identity: (s, t, e, n) -> value, with n a Span of a block
#: and the value a Column over it.
Side = Callable[[Reader, Reader, int, Span], Column]


def _readers(limit: int) -> tuple[Reader, Reader]:
    """(s, t): column readers over the first `limit` values of both
    sequences."""
    return (column_reader(Kind.STERN, stern, limit),
            column_reader(Kind.TWISTED, twisted, limit))


def _sign(x: int) -> int:
    """(-1)**x."""
    return -1 if x % 2 else 1


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

AS_PRINTED = "as-printed"
SUSPECTED_TYPO = "suspected-typo"
CORRECTED = "corrected"


class IdentityRecord(Frozen):
    """One catalogued identity: closed forms, the parameter range it was
    stated for, and the statement as printed (kept verbatim even when the
    sweep shows it wrong, in which case status says so)."""

    __slots__ = ("identity", "lhs", "rhs", "n_range", "anchor", "e_min", "status")

    def __init__(self, identity: str, lhs: Side, rhs: Side,
                 n_range: Callable[[int], tuple[int, int]], anchor: str,
                 e_min: int = 0, status: str = AS_PRINTED):
        self._set_fields(identity, lhs, rhs, n_range, anchor, e_min, status)


def _half_pow(e: int) -> int:
    """floor(2^(e-1)); 0 at e = 0."""
    return 1 << (e - 1) if e >= 1 else 0


REGISTRY: dict[str, IdentityRecord] = {}


def _register(record: IdentityRecord) -> None:
    if record.identity in REGISTRY:
        raise ValueError(f"duplicate registry id {record.identity}")
    REGISTRY[record.identity] = record


_register(IdentityRecord(
    "STID-S",
    lambda s, t, e, n: s((1 << e) + n),
    lambda s, t, e, n: s((1 << e) - n) + s(n),
    lambda e: (0, 1 << e),
    "s(2^e+n) = s(2^e-n) + s(n), 0 <= n <= 2^e",
))
_register(IdentityRecord(
    "STID-T",
    lambda s, t, e, n: t((1 << e) + n),
    lambda s, t, e, n: _sign(e) * (s((1 << e) - n) - s(n)),
    lambda e: (0, 1 << e),
    "t(2^e+n) = (-1)^e (s(2^e-n) - s(n)), 0 <= n <= 2^e",
))
_register(IdentityRecord(
    "STID-T3",
    lambda s, t, e, n: t((3 << e) + n),
    lambda s, t, e, n: t((6 << e) - n),
    lambda e: (0, 2 << e),
    "t(3*2^e+n) = t(6*2^e-n), 0 <= n <= 2^(e+1)",
))
_register(IdentityRecord(
    "STID-T3S",
    lambda s, t, e, n: t((3 << e) + n),
    lambda s, t, e, n: _sign(e) * s(n),
    lambda e: (0, 2 << e),
    "t(3*2^e+n) = (-1)^e s(n), 0 <= n <= 2^(e+1)",
))
_register(IdentityRecord(
    "MF1",
    lambda s, t, e, n: s((2 << e) + n),
    lambda s, t, e, n: s((1 << e) + n) + s(n),
    lambda e: (0, 1 << e),
    "s(2^(e+1)+n) = s(2^e+n) + s(n), 0 <= n <= 2^e",
))
_register(IdentityRecord(
    "MF2",
    lambda s, t, e, n: t((2 << e) + n) + t((1 << e) + n),
    lambda s, t, e, n: _sign(e + 1) * s(n),
    lambda e: (0, 1 << e),
    "t(2^(e+1)+n) + t(2^e+n) = (-1)^(e+1) s(n), 0 <= n <= 2^e",
))
_register(IdentityRecord(
    "REC-S",
    lambda s, t, e, n: s(n),
    lambda s, t, e, n: -s(n - (1 << e)) + s(n - (2 << e)) + 2 * s(n - (3 << e)),
    lambda e: (4 << e, 7 << e),
    "s(n) = -s(n-2^e) + s(n-2*2^e) + 2s(n-3*2^e), 2^(e+2) <= n <= 2^(e+3)-2^e",
))
_register(IdentityRecord(
    "REC-T",
    lambda s, t, e, n: t(n),
    lambda s, t, e, n: t(n - (1 << e)) - t(n - (2 << e)),
    lambda e: (4 << e, 8 << e),
    "t(n) = t(n-2^e) - t(n-2^(e+1)), 2^(e+2) <= n <= 2^(e+3)",
))
_register(IdentityRecord(
    "ID3",
    lambda s, t, e, n: s((3 << e) + n),
    lambda s, t, e, n: s((3 << e) - n),
    lambda e: (0, 1 << e),
    "s(3*2^e+n) = s(3*2^e-n); stated for 0 <= e <= 2^n, "
    "swept as 0 <= n <= 2^e (the stated range reads transposed)",
    status=SUSPECTED_TYPO,
))
_register(IdentityRecord(
    "ID4",
    lambda s, t, e, n: s((3 << e) + n),
    lambda s, t, e, n: s((3 << (e - 1)) + n) + 2 * s(n),
    lambda e: (0, _half_pow(e)),
    "s(3*2^e+n) = s(3*2^(e-1)+n) + 2s(n), 0 <= n <= 2^(e-1)",
    e_min=1,
))
_register(IdentityRecord(
    "ID5",
    lambda s, t, e, n: t((1 << e) + n),
    lambda s, t, e, n: t((1 << e) + n - (1 << (e - 2))) - t((1 << e) + n - (1 << (e - 1))),
    lambda e: (1, 1 << e),
    "t(2^e+n) = t(2^e+n-2^(e-2)) - t(2^e+n-2^(e-1)), e >= 2, 1 <= n <= 2^e",
    e_min=2,
))
_register(IdentityRecord(
    "ID6",
    lambda s, t, e, n: s((1 << e) + n),
    lambda s, t, e, n: _sign(e) * t((1 << e) + n) + 2 * s(n),
    lambda e: (0, 2 << e),
    "s(2^e+n) = (-1)^e t(2^e+n) + 2s(n), 0 <= n <= 2^(e+1)",
))
_register(IdentityRecord(
    "ID7",
    lambda s, t, e, n: s((1 << e) + n),
    lambda s, t, e, n: _sign(e) * t((1 << e) - n) - 3 * s(n),
    lambda e: (0, _half_pow(e)),
    "s(2^e+n) = (-1)^e t(2^e-n) - 3s(n), 0 <= n <= 2^(e-1) "
    "(fails; see ID7C for the sign-corrected form)",
    status=SUSPECTED_TYPO,
))
_register(IdentityRecord(
    "ID7C",
    lambda s, t, e, n: s((1 << e) + n),
    lambda s, t, e, n: _sign(e) * t((1 << e) - n) + 3 * s(n),
    lambda e: (0, _half_pow(e)),
    "s(2^e+n) = (-1)^e t(2^e-n) + 3s(n), 0 <= n <= 2^(e-1) "
    "(sign-corrected form of ID7)",
    status=CORRECTED,
))
_register(IdentityRecord(
    "ID8",
    lambda s, t, e, n: s((1 << e) - n),
    lambda s, t, e, n: _sign(e) * t((1 << e) - n) + 2 * s(n),
    lambda e: (0, _half_pow(e)),
    "s(2^e-n) = (-1)^e t(2^e-n) + 2s(n), 0 <= n <= 2^(e-1)",
))
_register(IdentityRecord(
    "ID9",
    lambda s, t, e, n: s((1 << e) - n),
    lambda s, t, e, n: _sign(e) * t((1 << e) + n) + s(n),
    lambda e: (0, 1 << e),
    "s(2^e-n) = (-1)^e t(2^e+n) + s(n), 0 <= n <= 2^e",
))
_register(IdentityRecord(
    "DIV-S",
    lambda s, t, e, n: s(((2 * n + 1) << e) - 1) + s(((2 * n + 1) << e) + 1),
    lambda s, t, e, n: (1 + 2 * e) * s((2 * n + 1) << e),
    lambda e: (0, 1 << max(12 - e, 0)),
    "s(m-1) + s(m+1) = (1+2v2(m)) s(m) for all m >= 1, "
    "written with m = 2^e(2n+1) and swept to a cap",
))
_register(IdentityRecord(
    "DIV-T",
    lambda s, t, e, n: t(((2 * n + 1) << e) - 1) + t(((2 * n + 1) << e) + 1),
    lambda s, t, e, n: (1 + 2 * e) * t((2 * n + 1) << e),
    lambda e: (2, max(2, 1 << max(12 - e, 0))),
    "t(m-1) + t(m+1) = (1+2v2(m)) t(m) for m = 2^e(2n+1) with 2n+1 >= 5, "
    "outside the exceptional families m in 2^N and 3*2^N",
))
_register(IdentityRecord(
    "MOD2-S",
    lambda s, t, e, n: s(n) % 2,
    lambda s, t, e, n: n * n % 3,
    lambda e: (0, 1 << e),
    "s(n) is even iff 3 divides n (n^2 mod 3 is that indicator)",
))
_register(IdentityRecord(
    "MOD2-T",
    lambda s, t, e, n: t(n) % 2,
    lambda s, t, e, n: n * n % 3,
    lambda e: (0, 1 << e),
    "t(n) is even iff 3 divides n (n^2 mod 3 is that indicator)",
))


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------

MAX_COUNTEREXAMPLES = 10


class VerificationReport:
    """What one check found: points passed and failed, the first
    MAX_COUNTEREXAMPLES counterexamples, and a scan's ranges."""

    __slots__ = ("identity", "params", "passes", "failures", "counterexamples",
                 "scanned", "conjecture", "status")

    def __init__(self, identity: str, params: str, passes: int = 0, failures: int = 0,
                 counterexamples: list | None = None, scanned: dict | None = None,
                 conjecture: bool = False, status: str = AS_PRINTED):
        self.identity, self.params = identity, params
        self.passes, self.failures = passes, failures
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.scanned, self.conjecture, self.status = scanned, conjecture, status

    @property
    def ok(self) -> bool:
        return self.failures == 0

    @property
    def blocking(self) -> bool:
        """A failure that should flip the exit code: neither conjecture
        evidence nor a catalogued suspected typo."""
        return (not self.ok) and (not self.conjecture) and self.status != SUSPECTED_TYPO

    def record_failure(self, example) -> None:
        self.failures += 1
        if len(self.counterexamples) < MAX_COUNTEREXAMPLES:
            self.counterexamples.append(tuple(example))

    def record(self, good: bool, example) -> None:
        """Count one point: a pass, or a failure shown by `example`."""
        if good:
            self.passes += 1
        else:
            self.record_failure(example)

    def to_json_dict(self) -> dict:
        return {
            "id": self.identity,
            "params": self.params,
            "status": self.status,
            "passes": self.passes,
            "failures": self.failures,
            "counterexamples": [list(c) for c in self.counterexamples],
            "scanned_range": None if self.scanned is None else {
                str(e): dict(r) for e, r in self.scanned.items()},
            "conjecture": self.conjecture,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def summary_line(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        extra = ""
        if self.counterexamples:
            extra = f" first-counterexample={self.counterexamples[0]}"
        if self.scanned is not None:
            ranges = ", ".join(
                f"e={e}:[{r['lo']},{r['hi']}]" + ("+" if r["open_right"] else "")
                for e, r in sorted(self.scanned.items())
            )
            extra += f" scanned({ranges})"
        flags = ["conjecture"] if self.conjecture else []
        if self.status != AS_PRINTED:
            flags.append(self.status)
        tag = f" [{','.join(flags)}]" if flags else ""
        return (
            f"{self.identity:<14} {verdict:<4} passes={self.passes}"
            f" failures={self.failures}{tag}{extra}"
        )


# ---------------------------------------------------------------------------
# Identity sweeps and scans.
# ---------------------------------------------------------------------------

PRINTED_RANGE = "printed-range"
SCAN = "scan"

#: Most points of n that one call of a side covers.  The block size bounds
#: the memory the columns take, not the time: with one block per printed
#: range, `verify --suite all --max-e 13 --max-n 65536` peaked at 22.7 MiB
#: RSS against 20.7 MiB point by point; blocks of 2^10 or 2^12 points
#: peaked at 21.0 MiB, and all three swept equally fast.
BLOCK = 1 << 10

#: What a counterexample shows for both sides of a point where some read
#: left the natural numbers.
OUT_OF_DOMAIN = "out-of-domain"


def _failures(record: IdentityRecord, s: Reader, t: Reader, e: int,
              start: int, count: int) -> list[tuple]:
    """(n, lhs, rhs) of every point n in [start, start + count) where the
    two sides differ, in n order.  Both sides are called once, on the whole
    block; a point where some read left the natural numbers shows
    OUT_OF_DOMAIN on both sides."""
    n = Span(start, 1, count)
    lhs = record.lhs(s, t, e, n)
    rhs = record.rhs(s, t, e, n)
    lo, hi = max(lhs.lo, rhs.lo), min(lhs.hi, rhs.hi)
    a, b = lhs.values, rhs.values
    if lo == 0 and hi == count and a == b:
        return []
    out = []
    for k in range(count):
        if not lo <= k < hi:
            out.append((start + k, OUT_OF_DOMAIN, OUT_OF_DOMAIN))
        elif a[k] != b[k]:
            out.append((start + k, a[k], b[k]))
    return out


def _blocks(lo: int, hi: int):
    """(start, stop) of the blocks of at most BLOCK n that cover [lo, hi)."""
    return ((start, min(start + BLOCK, hi)) for start in range(lo, hi, BLOCK))


def _bound_tables(e_max: int, n_limit: int = 0) -> None:
    """Refuse, before any table grows, an e_max or n_limit whose tables
    (9*2^e_max + 1 or n_limit + 1 entries) would pass MAX_TABLE;
    `verify --suite all` at both caps (e_max <= 17, n_limit < 2^21) peaks
    at 159 MiB (its own getrusage peak, CPython 3.11.7)."""
    cap = f"(tables are capped at {MAX_TABLE} entries)"
    if e_max > MAX_TABLE.bit_length() or (9 << e_max) + 1 > MAX_TABLE:
        raise ValueError(f"e_max must be at most {((MAX_TABLE - 1) // 9).bit_length() - 1} {cap}")
    if n_limit >= MAX_TABLE:
        raise ValueError(f"n_limit must be below {MAX_TABLE} {cap}")


def _sweep_one_e(record: IdentityRecord, s: Reader, t: Reader, e: int,
                 report: VerificationReport) -> None:
    lo, hi = record.n_range(e)
    for start, stop in _blocks(lo, hi + 1):
        failures = _failures(record, s, t, e, start, stop - start)
        report.passes += stop - start - len(failures)
        for n, left, right in failures:
            report.record_failure((e, n, left, right))


def _scan_one_e(record: IdentityRecord, s: Reader, t: Reader, e: int) -> dict:
    """Maximal contiguous valid interval around the stated range's centre.

    The scan runs outward from the centre, a block at a time, until the
    first failure on each side; the hard right cap (one extra range-width
    plus 64) is reported as open_right when reached without failing.
    """
    lo, hi = record.n_range(e)
    centre = (lo + hi) // 2
    cap = hi + (hi - lo + 1) + 64
    right, open_right = cap, True
    for start, stop in _blocks(centre, cap + 1):
        failures = _failures(record, s, t, e, start, stop - start)
        if failures:
            right, open_right = failures[0][0] - 1, False
            break
    if right < centre:
        return {"lo": centre, "hi": centre - 1, "open_right": False}
    left = 0
    for stop in range(centre, 0, -BLOCK):
        start = max(0, stop - BLOCK)
        failures = _failures(record, s, t, e, start, stop - start)
        if failures:
            left = failures[-1][0] + 1
            break
    return {"lo": left, "hi": right, "open_right": open_right}


def check_identity(identity: str, e_max: int, n_policy: str = PRINTED_RANGE
                   ) -> VerificationReport:
    """Sweep one catalogued identity over record.e_min <= e <= e_max.

    printed-range compares both sides on the stated n interval; scan finds
    the maximal contiguous valid interval instead and reports it per e.
    Each side is called once per block of at most BLOCK consecutive n.  A
    block whose sides agree everywhere passes whole; any other is walked in
    n order, so passes, failures and counterexamples are those of a
    point-by-point sweep, and a scan stops at the block holding its first
    failure.  Both sides read s and t from the prefix tables, which grow
    only as far as the reads go; an index from MAX_TABLE on, or a sparse
    strided read (see `columns.SPARSE_FILL`), is looked up on its own.
    """
    record = REGISTRY[identity]
    if n_policy not in (PRINTED_RANGE, SCAN):
        raise ValueError(f"unknown sweep policy {n_policy!r}")
    if e_max < 0:
        raise ValueError("e_max must be a natural number")
    if e_max < record.e_min:
        raise ValueError(f"{identity} is stated for e >= {record.e_min}")
    _bound_tables(e_max)
    report = VerificationReport(
        identity,
        params=f"e in [{record.e_min}, {e_max}], policy={n_policy}",
        status=record.status,
    )
    s, t = _readers(MAX_TABLE)
    if n_policy == SCAN:
        report.scanned = {}
    for e in range(record.e_min, e_max + 1):
        if n_policy == PRINTED_RANGE:
            _sweep_one_e(record, s, t, e, report)
        else:
            found = _scan_one_e(record, s, t, e)
            report.scanned[e] = found
            report.passes += max(0, found["hi"] - found["lo"] + 1)
    return report


def check_all_identities(e_max: int) -> list[VerificationReport]:
    """Printed-range sweep, in registry order, of every registry entry
    stated for some e <= e_max."""
    return [check_identity(i, e_max) for i, record in REGISTRY.items()
            if record.e_min <= e_max]


# ---------------------------------------------------------------------------
# Dedicated checkers.
# ---------------------------------------------------------------------------


def _tally(report: VerificationReport, size: int, ok: bool, points) -> None:
    """Pass a block of `size` points whole when `ok`; otherwise walk
    `points`, a lazy iterable of (good, counterexample) in n order."""
    if ok:
        report.passes += size
    else:
        for good, example in points:
            report.record(good, example)


def check_partial_sums(e_max: int) -> VerificationReport:
    """The four closed forms for partial sums up to 2^e, against direct
    summation."""
    if e_max < 0:
        raise ValueError("e_max must be a natural number")
    report = VerificationReport("PARTIAL-SUMS", params=f"e <= {e_max}")
    s, t = prefix(Kind.STERN, (1 << e_max) + 1), prefix(Kind.TWISTED, (1 << e_max) + 1)
    sum_s = alt_s = sum_t = alt_t = 0
    for e in range(e_max + 1):
        # the sums grow by the n in (2^(e-1), 2^e]: n = 1 at e = 0
        for start, stop in _blocks((1 << e >> 1) + 1, (1 << e) + 1):
            even, odd = start + start % 2, start + 1 - start % 2  # first even, odd n
            sum_s += sum(s[start:stop])
            alt_s += sum(s[even:stop:2]) - sum(s[odd:stop:2])
            sum_t += sum(t[start:stop])
            alt_t += sum(t[even:stop:2]) - sum(t[odd:stop:2])
        checks = [
            ("sum-s", sum_s, (3**e + 1) // 2),
            ("sum-t", sum_t, ((-1) ** e + 1) // 2),
            ("alt-t", alt_t, (-3 + (-1) ** e) // 2),
        ]
        if e >= 1:
            checks.append(("alt-s", alt_s, (1 - 3 ** (e - 1)) // 2))
        for tag, got, want in checks:
            report.record(got == want, (e, tag, got, want))
    return report


def det_m(n: int) -> int:
    """Determinant of [[s(n), s(n+1)], [t(n), t(n+1)]]."""
    if n < 1:
        raise ValueError("the determinant family starts at n = 1")
    return stern(n) * twisted(n + 1) - stern(n + 1) * twisted(n)


def _tally_dets(report: VerificationReport, top: list[int], bottom: list[int],
                shift: int, lo: int, hi: int, want: int, e: int, *tag: str) -> None:
    """Tally top[n]*bottom[shift+n+1] - top[n+1]*bottom[shift+n] == want over
    lo <= n < hi; a failure records (e, n, det, want, *tag)."""
    for start, stop in _blocks(lo, hi):
        a, b = start + shift, stop + shift
        dets = list(map(sub, map(mul, top[start:stop], bottom[a + 1:b + 1]),
                        map(mul, top[start + 1:stop + 1], bottom[a:b])))
        _tally(report, stop - start, dets.count(want) == stop - start,
               ((det == want, (e, n, det, want, *tag)) for n, det in enumerate(dets, start)))


def check_det_m(limit: int) -> VerificationReport:
    """det M(n) = -2*(-1)^k on 2^k <= n < 2^(k+1), and |det| = 2."""
    if limit < 2:
        raise ValueError("limit must be at least 2")
    report = VerificationReport("DET-M", params=f"1 <= n < {limit}")
    s, t = prefix(Kind.STERN, limit + 1), prefix(Kind.TWISTED, limit + 1)
    for k in range((limit - 1).bit_length()):
        _tally_dets(report, s, t, 0, 1 << k, min(2 << k, limit), 2 if k % 2 else -2, k)
    return report


def _det_families(e: int):
    """(tag, sequence feeding the top row, sequence feeding the shifted row,
    pieces) of the four families at e; a piece (lo, hi, det) states the
    determinant on lo <= n < hi."""
    p = 1 << e
    sign = 1 if e % 2 else -1  # (-1)^(e+1)
    return (
        ("SS", Kind.STERN, Kind.STERN, [(0, p, -1), (p, 2 * p, 1)]),
        ("ST", Kind.STERN, Kind.TWISTED, [(0, p, sign), (p, 4 * p, -sign)]),
        ("TS", Kind.TWISTED, Kind.STERN, [(2 * p + 1, 5 * p, sign)]),
        # 1 on [ceil(2^(e-2)), 2^e) and [7*2^e, 2^(e+3)); -1 on [2^e, 7*2^e)
        ("TT", Kind.TWISTED, Kind.TWISTED, [((p + 3) // 4, p, 1), (p, 7 * p, -1), (7 * p, 8 * p, 1)]),
    )


def check_det_families(e_max: int) -> VerificationReport:
    """The four two-row determinant families over their stated ranges: the
    top row reads n and n+1, the shifted row 2^e+n and 2^e+n+1."""
    if e_max < 0:
        raise ValueError("e_max must be a natural number")
    report = VerificationReport("DET-FAMILIES", params=f"e <= {e_max}")
    # the TT family reads up to index 2^e + 8*2^e
    tables = {kind: prefix(kind, (9 << e_max) + 1) for kind in Kind}
    for family in range(4):
        for e in range(e_max + 1):
            tag, top, bottom, pieces = _det_families(e)[family]
            for lo, hi, want in pieces:
                _tally_dets(report, tables[top], tables[bottom], 1 << e, lo, hi, want, e, tag)
    return report


def check_divisibility(limit: int) -> VerificationReport:
    """Divisibility laws for both sequences up to `limit`.

    For s: s(n) divides s(n-1)+s(n+1) with quotient 1+2*v2(n).  For t the
    three-case law: both sides vanish exactly on n = 3*2^j; the quotient is
    -1 at n = 1, 1+2(e-2) at n = 2^e (e >= 1), and 1+2*v2(n) elsewhere.
    A block's column of 1+2*v2(n) is built by strided slice assignment.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    report = VerificationReport("DIVISIBILITY", params=f"1 <= n < {limit}")
    s, t = prefix(Kind.STERN, limit + 1), prefix(Kind.TWISTED, limit + 1)
    # t's quotient where it is not 1+2*v2(n); 0 marks the both-zero points
    exceptions = {1: -1, **{1 << e: 2 * e - 3 for e in range(1, limit.bit_length())},
                  **{3 << j: 0 for j in range(limit.bit_length())}}
    for start, stop in _blocks(1, limit):
        size = stop - start
        quotient = [1] * size
        for v in range(1, stop.bit_length()):
            first = -start % (1 << v)
            quotient[first::1 << v] = [1 + 2 * v] * len(range(first, size, 1 << v))
        s_n, t_n = s[start:stop], t[start:stop]
        s_sum = list(map(add, s[start - 1:stop - 1], s[start + 1:stop + 1]))
        s_want = list(map(mul, quotient, s_n))
        for n, q in exceptions.items():
            if start <= n < stop:
                quotient[n - start] = q
        t_sum = list(map(add, t[start - 1:stop - 1], t[start + 1:stop + 1]))
        t_want = list(map(mul, quotient, t_n))
        # t(n) = 0 exactly where the quotient is 0 (n = 1 is not asked)
        ok = (s_sum == s_want and min(s_n) > 0 and t_sum == t_want
              and list(map(bool, t_n)) == list(map(bool, quotient)))
        _tally(report, 2 * size, ok, chain.from_iterable(
            ((sv > 0 and ss == sw, (0, n, ss, sw, "s")),
             ((n == 1 or (tv == 0) == (q == 0)) and ts == tw, (0, n, ts, tw, "t")))
            for n, (sv, ss, sw, tv, ts, tw, q)
            in enumerate(zip(s_n, s_sum, s_want, t_n, t_sum, t_want, quotient), start)
        ))
    return report


def check_mod2(limit: int) -> VerificationReport:
    """s(n) mod 2 = t(n) mod 2 = the 3-periodic indicator, for n < limit."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    report = VerificationReport("MOD2", params=f"0 <= n < {limit}")
    s, t = prefix(Kind.STERN, limit), prefix(Kind.TWISTED, limit)
    period = [0, 1, 1] * (BLOCK // 3 + 2)  # the indicator from n = 0 on
    for start, stop in _blocks(0, limit):
        want = period[start % 3:start % 3 + stop - start]
        s_bit = list(map(and_, s[start:stop], repeat(1)))
        t_bit = list(map(and_, t[start:stop], repeat(1)))
        _tally(report, stop - start, s_bit == want == t_bit,
               ((sv == tv == w, (0, n, (sv, tv), w))
                for n, (sv, tv, w) in enumerate(zip(s_bit, t_bit, want), start)))
    return report


def check_palindrome(e_max: int) -> VerificationReport:
    """The sign-corrected twisted window over [3*2^e, 6*2^e] is a palindrome
    of non-negative values with zero ends, and its centre (e >= 1) is 2.
    Each block of the window is compared with its mirror block."""
    if e_max < 0:
        raise ValueError("e_max must be a natural number")
    report = VerificationReport("PALINDROME", params=f"e <= {e_max}")
    t = prefix(Kind.TWISTED, (6 << e_max) + 1)
    for e in range(e_max + 1):
        m = 3 << e
        sign = -1 if e % 2 else 1
        for start, stop in _blocks(0, m + 1):
            got = list(map(mul, t[m + start:m + stop], repeat(sign)))
            mirror = list(map(mul, reversed(t[2 * m + 1 - stop:2 * m + 1 - start]), repeat(sign)))
            _tally(report, stop - start, got == mirror and min(got) >= 0,
                   ((value == other and value >= 0, (e, n, value, other))
                    for n, (value, other) in enumerate(zip(got, mirror), start)))
        report.record(t[m] == 0 == t[2 * m], (e, 0, sign * t[m], 0))
        if e >= 1:
            centre = sign * t[m + (3 << (e - 1))]
            report.record(centre == 2, (e, 3 << (e - 1), centre, 2))
    return report


# ---------------------------------------------------------------------------
# Conjecture evidence.
# ---------------------------------------------------------------------------

#: The conjectured window forms, name -> (terms, alternating, leading
#: coefficients).  The terms (c, kind, a) give the windows
#: W_e(z) = sum of c*x(a*2^e + n)*z^n over the terms and n >= 0, x the
#: sequence of `kind`.  The conjecture: Q = W_0/S is integral, with S the
#: Stern series, starts with the leading coefficients, and
#: W_e = (-1)^(e*alternating) Q(z^(2^e)) S for every e.
WINDOW_FORMS = {
    "u": (((1, Kind.TWISTED, 3),), True, (1, 0, -2, 0, 0, -2, 4, 2, -6, 4, 2, -6, 8)),
    "A": (((1, Kind.STERN, 2), (-1, Kind.STERN, 1)), False, (1, -2, 2, 0, -4, 4, 2)),
    "B": (((-1, Kind.TWISTED, 2), (-1, Kind.TWISTED, 1)), True, (1, -2, -2, 4, 0, 0, 6, -6)),
}


def _window(name: str, e: int, order: int) -> TruncatedSeries:
    """W_e of the window form `name`, to `order`.  Each term is added or,
    for c < 0, subtracted as read; only an |c| other than 1 scales it."""
    out = None
    for c, kind, a in WINDOW_FORMS[name][0]:
        w = window_series(kind, a << e, (a << e) + order + 1)
        w = w if abs(c) == 1 else w.scale(abs(c))
        out = (w if c > 0 else -w) if out is None else (out + w if c > 0 else out - w)
    return out


def quotient_series(name: str, order: int) -> TruncatedSeries:
    """The integral quotient Q = W_0/S of the window form `name`, through
    the product form of S."""
    return div_stern(_window(name, 0, order + 1))


def gen_quotient_series(order: int) -> TruncatedSeries:
    """u, the quotient of the twisted windows at offset 3."""
    return quotient_series("u", order)


def _compare_sides(report: VerificationReport, e: int, sides) -> None:
    """Tally coefficients 0..order of each (lhs, rhs) pair of equal-order
    series in `sides`.  Equal coefficient tuples pass all at once; otherwise
    the walk goes n by n, pair by pair, recording (e, n, lhs, rhs) for each
    disagreement in that order."""
    _tally(report, sum(len(lhs.coeffs) for lhs, _ in sides),
           all(lhs.coeffs == rhs.coeffs for lhs, rhs in sides),
           ((lhs.coeffs[n] == rhs.coeffs[n], (e, n, lhs.coeffs[n], rhs.coeffs[n]))
            for n in range(len(sides[0][0].coeffs)) for lhs, rhs in sides))


def _doubled(r: TruncatedSeries, n: int) -> TruncatedSeries:
    """(z^-1 + 1 + z) r(z^2) to order n, for r(0) = 0 known to (n+1)//2."""
    p, out = r.coeffs, [0] * (n + 1)
    out[0::2] = p[: n // 2 + 1]
    out[1::2] = map(add, p[: (n + 1) // 2], p[1 : (n + 1) // 2 + 1])
    return TruncatedSeries(tuple(out))


def _conjecture(identity: str, names, e_max: int, order: int) -> VerificationReport:
    """Evidence sweep of the window forms `names`, each with its quotient
    `quotient_series(name, order)`: the leading coefficients of each, then,
    for e <= e_max, W_e against (-1)^(e*alternating) Q(z^(2^e)) S
    coefficient-exactly to order - reach*2^e, with reach the largest offset
    a of the forms.  The right side R_0 = Q S is one `mul_stern`, which walks
    the Mahler equation of S, not the product form that divided, so it
    checks the division.  S(z) = (z^-1 + 1 + z) S(z^2), as s(0) = 0,
    s(2n) = s(n) and s(2n+1) = s(n) + s(n+1); so, exactly and for any Q,
    R_{e+1}(z) = (z^-1 + 1 + z) R_e(z^2), which `_doubled` forms."""
    forms = [WINDOW_FORMS[name] for name in names]
    if e_max < 0:
        raise ValueError("e_max must be a natural number")
    reach = max(a for terms, _, _ in forms for _, _, a in terms)
    if order < reach << e_max:
        raise ValueError(f"order must be at least {reach << e_max} ({reach}*2^e_max)")
    least = max(len(lead) for _, _, lead in forms) - 1
    if order < least:
        raise ValueError(f"order must be at least {least} "
                         f"to check the leading coefficients of {' and '.join(names)}")
    report = VerificationReport(
        identity, params=f"e <= {e_max}, order {order}", conjecture=True
    )
    try:
        qs = [quotient_series(name, order) for name in names]
    except DivisionError as exc:
        report.record_failure(("division", 0, str(exc), "integral quotient"))
        return report
    for name, q, (_, _, lead) in zip(names, qs, forms):
        for i, want in enumerate(lead):
            report.record(q.coeffs[i] == want, (f"{name}-prefix", i, q.coeffs[i], want))
    rhs = [mul_stern(q.truncate(order - reach)) for q in qs]
    for e in range(e_max + 1):
        cutoff = order - (reach << e)
        rhs = [_doubled(r, cutoff) if e else r for r in rhs]
        _compare_sides(report, e, [
            (_window(name, e, cutoff), -r if alternating and e % 2 else r)
            for name, r, (_, alternating, _) in zip(names, rhs, forms)
        ])
    return report


def check_conjecture_gen(e_max: int, order: int) -> VerificationReport:
    """Evidence sweep: one integral quotient u reproduces the twisted series
    over every window [3*2^e, ...] as (-1)^e u(z^(2^e)) times the Stern
    series, coefficient-exactly to order-3*2^e."""
    return _conjecture("CONJ-GEN", ("u",), e_max, order)


def check_conjecture_ab(e_max: int, order: int) -> VerificationReport:
    """Evidence sweep for the doubling-step quotients A and B over e <= e_max."""
    return _conjecture("CONJ-AB", ("A", "B"), e_max, order)


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------

SUITES = ("all", "identities", "matrices", "divisibility", "mod2", "palindrome")


def run_suite(suite: str, e_max: int, n_limit: int) -> list[VerificationReport]:
    """Run one named verification suite; `all` also appends the partial-sum
    checks.  Tables past MAX_TABLE are refused before any table grows."""
    if e_max < 0:
        raise ValueError("e_max must be a natural number")
    if n_limit < 2:
        raise ValueError("n_limit must be at least 2")
    _bound_tables(e_max, n_limit)
    if suite == "identities":
        return check_all_identities(e_max)
    if suite == "matrices":
        return [check_det_m(n_limit), check_det_families(e_max)]
    if suite == "divisibility":
        return [check_divisibility(n_limit)]
    if suite == "mod2":
        return [check_mod2(n_limit)]
    if suite == "palindrome":
        return [check_palindrome(e_max)]
    if suite == "all":
        return check_all_identities(e_max) + [
            check_det_m(n_limit), check_det_families(e_max),
            check_divisibility(n_limit), check_mod2(n_limit),
            check_palindrome(e_max), check_partial_sums(e_max),
        ]
    raise ValueError(f"unknown suite {suite!r}")
