"""Identity registry and sweep/scan checkers.

The registry is data: each catalogued identity stores its two closed forms
as plain functions of (s, t, e, n), the parameter range it was stated for,
and a status flag.  `s` and `t` are readers over flat prefixes of the two
sequences (`sequences.prefix`), which the recursion fills in O(length) and
which grow only as far as a check reads; the dedicated checkers index the
same prefixes.
Entries whose printed statement disagrees with exhaustive computation are
kept verbatim and flagged ``suspected-typo``; their failures are
documented, not hidden, and never fail the build.  Conjecture checkers
likewise only ever produce evidence reports.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Callable

from .sequences import Kind, mod2, prefix, stern, twisted, v2
from .series import (
    DivisionError,
    TruncatedSeries,
    div_exact,
    stern_series,
    substitute_power,
)


# ---------------------------------------------------------------------------
# Identity sides.
# ---------------------------------------------------------------------------


class _OutOfDomain(Exception):
    """An argument left the natural numbers; the point is out of range."""


Reader = Callable[[int], int]
#: One side of an identity: (s, t, e, n) -> value.
Side = Callable[[Reader, Reader, int, int], int]


def _reader(kind: Kind, point: Reader, limit: int) -> Reader:
    """x -> value(x) of one sequence.  Below `limit` the value comes from
    the kind's prefix, extended on demand by at least an eighth, so that it
    grows at most an eighth past the furthest read; from `limit` on,
    point(x) looks the value up on its own.  A negative x puts the point
    out of domain."""
    table = prefix(kind, 0)
    end = min(len(table), limit)

    def read(x: int) -> int:
        nonlocal end
        if 0 <= x < end:
            return table[x]
        if x < 0:
            raise _OutOfDomain
        if x >= limit:
            return point(x)
        end = min(limit, max(end + (end >> 3), x + 1))
        prefix(kind, end)
        return table[x]

    return read


def _readers(limit: int) -> tuple[Reader, Reader]:
    """(s, t): readers over the first `limit` values of both sequences."""
    return _reader(Kind.STERN, stern, limit), _reader(Kind.TWISTED, twisted, limit)


def _sign(x: int) -> int:
    """(-1)**x."""
    return -1 if x % 2 else 1


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

AS_PRINTED = "as-printed"
SUSPECTED_TYPO = "suspected-typo"
CORRECTED = "corrected"


@dataclass(frozen=True)
class IdentityRecord:
    """One catalogued identity: closed forms, the parameter range it was
    stated for, and the statement as printed (kept verbatim even when the
    sweep shows it wrong, in which case status says so)."""

    identity: str
    lhs: Side
    rhs: Side
    n_range: Callable[[int], tuple[int, int]]
    anchor: str
    e_min: int = 0
    status: str = AS_PRINTED


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


@dataclass
class VerificationReport:
    identity: str
    params: str
    passes: int = 0
    failures: int = 0
    counterexamples: list = field(default_factory=list)
    scanned: dict | None = None
    conjecture: bool = False
    status: str = AS_PRINTED

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

    def to_json_dict(self) -> dict:
        out = {
            "id": self.identity,
            "params": self.params,
            "status": self.status,
            "passes": self.passes,
            "failures": self.failures,
            "counterexamples": [list(c) for c in self.counterexamples],
            "scanned_range": (
                {str(e): dict(r) for e, r in self.scanned.items()}
                if self.scanned is not None
                else None
            ),
            "conjecture": self.conjecture,
        }
        return out

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
        flags = []
        if self.conjecture:
            flags.append("conjecture")
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


def _holds(record: IdentityRecord, s: Reader, t: Reader, e: int, n: int):
    """(lhs, rhs) or None when the point is out of domain."""
    try:
        return record.lhs(s, t, e, n), record.rhs(s, t, e, n)
    except _OutOfDomain:
        return None


def _sweep_one_e(record: IdentityRecord, s: Reader, t: Reader, e: int,
                 report: VerificationReport) -> None:
    lo, hi = record.n_range(e)
    for n in range(lo, hi + 1):
        pair = _holds(record, s, t, e, n)
        if pair is None or pair[0] != pair[1]:
            report.record_failure(
                (e, n) + (pair if pair is not None else ("out-of-domain", "out-of-domain"))
            )
        else:
            report.passes += 1


def _scan_one_e(record: IdentityRecord, s: Reader, t: Reader, e: int) -> dict:
    """Maximal contiguous valid interval around the stated range's centre.

    The scan runs outward until the first failure on each side; the hard
    right cap (one extra range-width plus 64) is reported as open_right
    when reached without failing.
    """
    lo, hi = record.n_range(e)
    centre = (lo + hi) // 2
    width = hi - lo + 1
    cap = hi + width + 64
    pair = _holds(record, s, t, e, centre)
    if pair is None or pair[0] != pair[1]:
        return {"lo": centre, "hi": centre - 1, "open_right": False}
    left = centre
    while left > 0:
        pair = _holds(record, s, t, e, left - 1)
        if pair is None or pair[0] != pair[1]:
            break
        left -= 1
    right = centre
    open_right = True
    while right < cap:
        pair = _holds(record, s, t, e, right + 1)
        if pair is None or pair[0] != pair[1]:
            open_right = False
            break
        right += 1
    return {"lo": left, "hi": right, "open_right": open_right}


def check_identity(identity: str, e_max: int, n_policy: str = PRINTED_RANGE
                   ) -> VerificationReport:
    """Sweep one catalogued identity over record.e_min <= e <= e_max.

    printed-range compares both sides on the stated n interval; scan finds
    the maximal contiguous valid interval instead and reports it per e.
    Both sides read s and t from the prefixes below 9*2^e_max + 1 (the
    length the determinant families use, past every printed range once
    e_max >= 11); an index beyond that (scans of REC-S, REC-T and the DIV
    pair) is looked up on its own.
    """
    record = REGISTRY[identity]
    if n_policy not in (PRINTED_RANGE, SCAN):
        raise ValueError(f"unknown sweep policy {n_policy!r}")
    if e_max < 0:
        raise ValueError("e_max must be a natural number")
    if e_max < record.e_min:
        raise ValueError(f"{identity} is stated for e >= {record.e_min}")
    report = VerificationReport(
        identity,
        params=f"e in [{record.e_min}, {e_max}], policy={n_policy}",
        status=record.status,
    )
    s, t = _readers((9 << e_max) + 1)
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


def check_all_identities(e_max: int, jobs: int = 1) -> list[VerificationReport]:
    """Printed-range sweep of every registry entry stated for some
    e <= e_max, optionally fanned out over at most one worker process per
    identity; output order is registry order either way.  When no process
    pool can be had, the sweep runs serially and says so on stderr."""
    ids = [i for i, record in REGISTRY.items() if record.e_min <= e_max]
    workers = min(jobs, len(ids))
    if workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_identity_job, [(i, e_max) for i in ids]))
        except (ImportError, OSError) as exc:
            print(f"verify: process pool unavailable ({exc}); ran serially",
                  file=sys.stderr)
    return [check_identity(i, e_max) for i in ids]


def _identity_job(args) -> VerificationReport:
    identity, e_max = args
    return check_identity(identity, e_max)


# ---------------------------------------------------------------------------
# Dedicated checkers.
# ---------------------------------------------------------------------------


def check_partial_sums(e_max: int) -> VerificationReport:
    """The four closed forms for partial sums up to 2^e, against direct
    summation."""
    if e_max < 0:
        raise ValueError("e_max must be a natural number")
    report = VerificationReport("PARTIAL-SUMS", params=f"e <= {e_max}")
    s = prefix(Kind.STERN, (1 << e_max) + 1)
    t = prefix(Kind.TWISTED, (1 << e_max) + 1)
    sum_s = alt_s = sum_t = alt_t = 0
    n = 0
    for e in range(e_max + 1):
        target = 1 << e
        while n < target:
            n += 1
            sv, tv = s[n], t[n]
            sgn = -1 if n % 2 else 1
            sum_s += sv
            alt_s += sgn * sv
            sum_t += tv
            alt_t += sgn * tv
        checks = [
            ("sum-s", sum_s, (3**e + 1) // 2),
            ("sum-t", sum_t, ((-1) ** e + 1) // 2),
            ("alt-t", alt_t, (-3 + (-1) ** e) // 2),
        ]
        if e >= 1:
            checks.append(("alt-s", alt_s, (1 - 3 ** (e - 1)) // 2))
        for tag, got, want in checks:
            if got == want:
                report.passes += 1
            else:
                report.record_failure((e, tag, got, want))
    return report


def det_m(n: int) -> int:
    """Determinant of [[s(n), s(n+1)], [t(n), t(n+1)]]."""
    if n < 1:
        raise ValueError("the determinant family starts at n = 1")
    return stern(n) * twisted(n + 1) - stern(n + 1) * twisted(n)


def check_det_m(limit: int) -> VerificationReport:
    """det M(n) = -2*(-1)^k on 2^k <= n < 2^(k+1), and |det| = 2."""
    report = VerificationReport("DET-M", params=f"1 <= n < {limit}")
    s = prefix(Kind.STERN, limit + 1)
    t = prefix(Kind.TWISTED, limit + 1)
    for n in range(1, limit):
        d = s[n] * t[n + 1] - s[n + 1] * t[n]
        k = n.bit_length() - 1
        want = 2 if k % 2 else -2
        if d == want and abs(d) == 2:
            report.passes += 1
        else:
            report.record_failure((k, n, d, want))
    return report


_DET_FAMILIES = (
    # (tag, sequence feeding the top row, sequence feeding the shifted row)
    ("SS", Kind.STERN, Kind.STERN),
    ("ST", Kind.STERN, Kind.TWISTED),
    ("TS", Kind.TWISTED, Kind.STERN),
    ("TT", Kind.TWISTED, Kind.TWISTED),
)


def _family_ranges(tag: str, e: int):
    """(lo, hi_exclusive, expected determinant) pieces for one family."""
    p = 1 << e
    if tag == "SS":
        return [(0, p, -1), (p, 2 * p, 1)]
    if tag == "ST":
        sign = -1 if (e + 1) % 2 else 1
        return [(0, p, sign), (p, 4 * p, -sign)]
    if tag == "TS":
        sign = -1 if (e + 1) % 2 else 1
        return [(2 * p + 1, 5 * p, sign)]
    # TT: 1 on [2^(e-2), 2^e) and [7*2^e, 2^(e+3)); -1 on [2^e, 7*2^e)
    lo = (p + 3) // 4  # ceil(2^(e-2)) stays 1 for e < 2
    return [(lo, p, 1), (p, 7 * p, -1), (7 * p, 8 * p, 1)]


def check_det_families(e_max: int) -> VerificationReport:
    """The four two-row determinant families over their stated ranges."""
    if e_max < 0:
        raise ValueError("e_max must be a natural number")
    report = VerificationReport("DET-FAMILIES", params=f"e <= {e_max}")
    # the TT family reads up to index 2^e + 8*2^e
    tables = {kind: prefix(kind, (9 << e_max) + 1) for kind in Kind}
    for tag, top_kind, bottom_kind in _DET_FAMILIES:
        top, bottom = tables[top_kind], tables[bottom_kind]
        for e in range(e_max + 1):
            p = 1 << e
            for lo, hi, want in _family_ranges(tag, e):
                for n in range(lo, hi):
                    det = top[n] * bottom[p + n + 1] - top[n + 1] * bottom[p + n]
                    if det == want:
                        report.passes += 1
                    else:
                        report.record_failure((e, n, det, want, tag))
    return report


def check_divisibility(limit: int) -> VerificationReport:
    """Divisibility laws for both sequences up to `limit`.

    For s: s(n) divides s(n-1)+s(n+1) with quotient 1+2*v2(n).  For t the
    three-case law: both sides vanish exactly on n = 3*2^j; the quotient is
    -1 at n = 1, 1+2(e-2) at n = 2^e (e >= 1), and 1+2*v2(n) elsewhere.
    """
    if limit < 4:
        raise ValueError("limit must be at least 4")
    report = VerificationReport("DIVISIBILITY", params=f"1 <= n < {limit}")
    s = prefix(Kind.STERN, limit + 1)
    t = prefix(Kind.TWISTED, limit + 1)
    for n in range(1, limit):
        v = v2(n)
        odd_part = n >> v
        sv = s[n]
        s_sum = s[n - 1] + s[n + 1]
        want = (1 + 2 * v) * sv
        if sv > 0 and s_sum == want:
            report.passes += 1
        else:
            report.record_failure((0, n, s_sum, want, "s"))
        tv = t[n]
        t_sum = t[n - 1] + t[n + 1]
        if odd_part == 3:
            good = tv == 0 and t_sum == 0
            want = 0
        elif n == 1:
            good = t_sum == -1 * tv
            want = -tv
        elif odd_part == 1:
            want = (1 + 2 * (v - 2)) * tv
            good = tv != 0 and t_sum == want
        else:
            want = (1 + 2 * v) * tv
            good = tv != 0 and t_sum == want
        if good:
            report.passes += 1
        else:
            report.record_failure((0, n, t_sum, want, "t"))
    return report


def check_mod2(limit: int) -> VerificationReport:
    """s(n) mod 2 = t(n) mod 2 = the 3-periodic indicator, for n < limit."""
    report = VerificationReport("MOD2", params=f"0 <= n < {limit}")
    s = prefix(Kind.STERN, limit)
    t = prefix(Kind.TWISTED, limit)
    for n in range(limit):
        expected = mod2(n)
        sv = s[n] % 2
        tv = t[n] % 2
        if sv == tv == expected:
            report.passes += 1
        else:
            report.record_failure((0, n, (sv, tv), expected))
    return report


def check_palindrome(e_max: int) -> VerificationReport:
    """The sign-corrected twisted window over [3*2^e, 6*2^e] is a palindrome
    of non-negative values with zero ends, and its centre (e >= 1) is 2."""
    if e_max < 0:
        raise ValueError("e_max must be a natural number")
    report = VerificationReport("PALINDROME", params=f"e <= {e_max}")
    t = prefix(Kind.TWISTED, (6 << e_max) + 1)
    for e in range(e_max + 1):
        m = 3 << e
        sign = -1 if e % 2 else 1
        window = [sign * value for value in t[m:2 * m + 1]]
        for n, value in enumerate(window):
            if value == window[m - n] and value >= 0:
                report.passes += 1
            else:
                report.record_failure((e, n, value, window[m - n]))
        if window[0] == 0 and window[m] == 0:
            report.passes += 1
        else:
            report.record_failure((e, 0, window[0], 0))
        if e >= 1:
            centre = window[3 << (e - 1)]
            if centre == 2:
                report.passes += 1
            else:
                report.record_failure((e, 3 << (e - 1), centre, 2))
    return report


# ---------------------------------------------------------------------------
# Conjecture evidence.
# ---------------------------------------------------------------------------

#: Leading quotient coefficients the evidence sweeps cross-check.
EXPECTED_GEN_QUOTIENT = (1, 0, -2, 0, 0, -2, 4, 2, -6, 4, 2, -6, 8)
EXPECTED_AB_A = (1, -2, 2, 0, -4, 4, 2)
EXPECTED_AB_B = (1, -2, -2, 4, 0, 0, 6, -6)


def gen_quotient_series(order: int) -> TruncatedSeries:
    """The integral quotient of the shifted twisted series (offset 3) by the
    Stern series."""
    num = TruncatedSeries.from_coeffs([twisted(3 + n) for n in range(order + 2)])
    return div_exact(num, stern_series(order + 2))


def ab_quotient_series(order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The two integral quotients behind the doubling conjecture: the s-step
    quotient A and the sign-flipped t-step quotient B."""
    s = stern_series(order + 2)
    num_a = TruncatedSeries.from_coeffs(
        [stern(2 + n) - stern(1 + n) for n in range(order + 2)]
    )
    num_b = TruncatedSeries.from_coeffs(
        [-(twisted(2 + n) + twisted(1 + n)) for n in range(order + 2)]
    )
    return div_exact(num_a, s), div_exact(num_b, s)


def _compare_prefix(report: VerificationReport, got: TruncatedSeries, want, tag: str) -> None:
    for i, expected in enumerate(want):
        if got.coeff(i) == expected:
            report.passes += 1
        else:
            report.record_failure((tag, i, got.coeff(i), expected))


def check_conjecture_gen(e_max: int, order: int) -> VerificationReport:
    """Evidence sweep: one integral quotient u reproduces the twisted series
    over every window [3*2^e, ...] as (-1)^e u(z^(2^e)) times the Stern
    series, coefficient-exactly to order-3*2^e."""
    if e_max < 0:
        raise ValueError("e_max must be a natural number")
    if order < 3 << e_max:
        raise ValueError("order must be at least 3*2^e_max")
    report = VerificationReport(
        "CONJ-GEN", params=f"e <= {e_max}, order {order}", conjecture=True
    )
    try:
        u = gen_quotient_series(order)
    except DivisionError as exc:
        report.record_failure(("division", 0, str(exc), "integral quotient"))
        return report
    _compare_prefix(report, u, EXPECTED_GEN_QUOTIENT, "u-prefix")
    s = stern_series(order)
    for e in range(e_max + 1):
        m = 3 << e
        cutoff = order - m
        lhs = TruncatedSeries.from_coeffs([twisted(m + n) for n in range(cutoff + 1)])
        u_sub = u if e == 0 else substitute_power(u, 1 << e, cutoff)
        rhs = u_sub * s
        if e % 2:
            rhs = -rhs
        for n in range(cutoff + 1):
            if lhs.coeff(n) == rhs.coeff(n):
                report.passes += 1
            else:
                report.record_failure((e, n, lhs.coeff(n), rhs.coeff(n)))
    return report


def check_conjecture_ab(e_max: int, order: int) -> VerificationReport:
    """Evidence sweep for the doubling-step quotients A and B over e <= e_max."""
    if e_max < 0:
        raise ValueError("e_max must be a natural number")
    if order < 2 << e_max:
        raise ValueError("order must be at least 2^(e_max+1)")
    report = VerificationReport(
        "CONJ-AB", params=f"e <= {e_max}, order {order}", conjecture=True
    )
    try:
        a, b = ab_quotient_series(order)
    except DivisionError as exc:
        report.record_failure(("division", 0, str(exc), "integral quotient"))
        return report
    _compare_prefix(report, a, EXPECTED_AB_A, "A-prefix")
    _compare_prefix(report, b, EXPECTED_AB_B, "B-prefix")
    s = stern_series(order)
    for e in range(e_max + 1):
        step = 1 << e
        cutoff = order - 2 * step
        lhs_a = TruncatedSeries.from_coeffs(
            [stern(2 * step + n) - stern(step + n) for n in range(cutoff + 1)]
        )
        sign = -1 if (e + 1) % 2 else 1
        lhs_b = TruncatedSeries.from_coeffs(
            [sign * (twisted(2 * step + n) + twisted(step + n)) for n in range(cutoff + 1)]
        )
        a_sub = a if e == 0 else substitute_power(a, step, cutoff)
        b_sub = b if e == 0 else substitute_power(b, step, cutoff)
        rhs_a = a_sub * s
        rhs_b = b_sub * s
        for n in range(cutoff + 1):
            if lhs_a.coeff(n) == rhs_a.coeff(n):
                report.passes += 1
            else:
                report.record_failure((e, n, lhs_a.coeff(n), rhs_a.coeff(n)))
            if lhs_b.coeff(n) == rhs_b.coeff(n):
                report.passes += 1
            else:
                report.record_failure((e, n, lhs_b.coeff(n), rhs_b.coeff(n)))
    return report


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------

SUITES = ("all", "identities", "matrices", "divisibility", "mod2", "palindrome")


def run_suite(suite: str, e_max: int, n_limit: int, jobs: int = 1
              ) -> list[VerificationReport]:
    """Run one named verification suite; `all` also appends the partial-sum
    checks."""
    if e_max < 0:
        raise ValueError("e_max must be a natural number")
    if n_limit < 2:
        raise ValueError("n_limit must be at least 2")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if suite == "identities":
        return check_all_identities(e_max, jobs=jobs)
    if suite == "matrices":
        return [check_det_m(n_limit), check_det_families(e_max)]
    if suite == "divisibility":
        return [check_divisibility(max(n_limit, 4))]
    if suite == "mod2":
        return [check_mod2(n_limit)]
    if suite == "palindrome":
        return [check_palindrome(e_max)]
    if suite == "all":
        out = check_all_identities(e_max, jobs=jobs)
        out.extend(
            [
                check_det_m(n_limit),
                check_det_families(e_max),
                check_divisibility(max(n_limit, 4)),
                check_mod2(n_limit),
                check_palindrome(e_max),
                check_partial_sums(e_max),
            ]
        )
        return out
    raise ValueError(f"unknown suite {suite!r}")
