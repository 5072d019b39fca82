import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sterntwist
import sterntwist.sequences as sequences
import sterntwist.series as series
from sterntwist.columns import Column, Span
from sterntwist.series import (
    DivisionError,
    TruncatedSeries,
    div_exact,
    log_derivative,
    stern_series,
    substitute_power,
)
from sterntwist.sequences import Kind, mod2, stern, twisted, v2
import sterntwist.verify as verify
from sterntwist.verify import (
    AS_PRINTED,
    CORRECTED,
    REGISTRY,
    SCAN,
    SUSPECTED_TYPO,
    VerificationReport,
    check_conjecture_ab,
    check_conjecture_gen,
    check_det_families,
    check_det_m,
    check_divisibility,
    check_identity,
    check_mod2,
    check_palindrome,
    check_partial_sums,
    det_m,
    run_suite,
)

CLEAN_IDS = [
    "STID-S", "STID-T", "STID-T3", "STID-T3S", "MF1", "MF2",
    "REC-S", "REC-T", "ID3", "ID4", "ID5", "ID6", "ID7C", "ID8", "ID9",
    "DIV-S", "DIV-T", "MOD2-S", "MOD2-T",
]


def test_registry_contents():
    assert set(REGISTRY) == set(CLEAN_IDS) | {"ID7"}
    assert REGISTRY["ID7"].status == SUSPECTED_TYPO
    assert REGISTRY["ID3"].status == SUSPECTED_TYPO
    assert REGISTRY["ID7C"].status == CORRECTED
    assert all(r.anchor for r in REGISTRY.values())
    assert REGISTRY["ID5"].e_min == 2
    assert REGISTRY["ID4"].e_min == 1


def test_identity_sides():
    record = REGISTRY["STID-S"]
    assert record.lhs(stern, twisted, 2, 1) == stern(5) == 3
    assert record.rhs(stern, twisted, 2, 1) == stern(3) + stern(1) == 3


class _Outside(Exception):
    """A read at a negative index: the point is out of domain."""


def _point_reader(value):
    def read(x):
        if x < 0:
            raise _Outside
        return value(x)
    return read


_S, _T = _point_reader(stern), _point_reader(twisted)


def _point(record, e, n):
    """(lhs, rhs) at one point, the registry sides called with an int n,
    or None when a read leaves the domain: the per-point oracle."""
    try:
        return record.lhs(_S, _T, e, n), record.rhs(_S, _T, e, n)
    except _Outside:
        return None


def _holds(record, e, n):
    pair = _point(record, e, n)
    return pair is not None and pair[0] == pair[1]


def _oracle_scan(record, e):
    lo, hi = record.n_range(e)
    centre = (lo + hi) // 2
    cap = hi + (hi - lo + 1) + 64
    if not _holds(record, e, centre):
        return {"lo": centre, "hi": centre - 1, "open_right": False}
    left = centre
    while left > 0 and _holds(record, e, left - 1):
        left -= 1
    right = centre
    while right < cap and _holds(record, e, right + 1):
        right += 1
    return {"lo": left, "hi": right, "open_right": right == cap}


def _oracle(record, e_max, policy):
    """check_identity's report, computed one point at a time."""
    report = VerificationReport(
        record.identity,
        params=f"e in [{record.e_min}, {e_max}], policy={policy}",
        status=record.status,
    )
    if policy == SCAN:
        report.scanned = {}
    for e in range(record.e_min, e_max + 1):
        if policy == SCAN:
            found = report.scanned[e] = _oracle_scan(record, e)
            report.passes += max(0, found["hi"] - found["lo"] + 1)
            continue
        lo, hi = record.n_range(e)
        for n in range(lo, hi + 1):
            pair = _point(record, e, n)
            if pair is None:
                report.record_failure((e, n, "out-of-domain", "out-of-domain"))
            elif pair[0] != pair[1]:
                report.record_failure((e, n) + pair)
            else:
                report.passes += 1
    return report


@pytest.mark.parametrize("identity", list(REGISTRY))
def test_columns_match_point_oracle(identity):
    record = REGISTRY[identity]
    for e_max in range(record.e_min, 10):
        for policy in (verify.PRINTED_RANGE, SCAN):
            want = _oracle(record, e_max, policy).to_json()
            assert check_identity(identity, e_max, policy).to_json() == want


#: Prepended to a fresh-interpreter script: records the index of every
#: `SequenceCache.value` call in `calls`.
_COUNT_POINT_LOOKUPS = """
from sterntwist import sequences
calls = []
point = sequences.SequenceCache.value
sequences.SequenceCache.value = lambda cache, n: calls.append(n) or point(cache, n)
"""

#: Scans DIV-x at e = 14 in a fresh interpreter, then again with strided
#: reads always filling the prefix tables; prints both reports and the table
#: lengths after each.
_FRESH_DIV_SCAN = """
import json, sys
from sterntwist import columns, verify
from sterntwist.sequences import _PREFIXES
got = verify.check_identity(sys.argv[1], 14, verify.SCAN).to_json()
sizes = [len(t) for t in _PREFIXES.values()]
columns.SPARSE_FILL = float("inf")
want = verify.check_identity(sys.argv[1], 14, verify.SCAN).to_json()
print(json.dumps([got, want, sizes, [len(t) for t in _PREFIXES.values()]]))
"""


@pytest.mark.parametrize("identity", ["DIV-S", "DIV-T"])
def test_sparse_strided_scans_leave_the_tables_small(identity):
    env = dict(os.environ, PYTHONPATH=str(Path(sterntwist.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_DIV_SCAN, identity],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    got, want, sizes, filled = json.loads(done.stdout)
    assert got == want
    assert max(sizes) < 1 << 15
    assert max(filled) == verify.MAX_TABLE


_FRESH_DIV_SWEEPS = _COUNT_POINT_LOOKUPS + """
from sterntwist import verify
for identity in ("DIV-S", "DIV-T"):
    for e in (4, 6, 8):
        assert verify.check_identity(identity, e).ok
print(len(calls))
"""


def test_div_sweeps_read_only_the_tables():
    # the DIV pair reads s and t up to 9*2^14 at every e; the tables serve
    # all of it, so no value is looked up point by point
    env = dict(os.environ, PYTHONPATH=str(Path(sterntwist.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_DIV_SWEEPS],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def _block_at(record, e, points):
    """(lhs, rhs) or None at each of `points`, read off one block of the
    column route that spans them all."""
    lo = min(points)
    count = max(points) - lo + 1
    s, t = verify._readers(9 << 3)
    n = Span(lo, 1, count)
    lhs = record.lhs(s, t, e, n)
    rhs = record.rhs(s, t, e, n)
    out = []
    for x in points:
        k = x - lo
        inside = max(lhs.lo, rhs.lo) <= k < min(lhs.hi, rhs.hi)
        out.append((lhs.values[k], rhs.values[k]) if inside else None)
    return out


#: Both sides at e = 3 for every registry id at three points: one inside
#: the printed range, the first point past the scanned range (the sides
#: differ there, or leave the domain, except for the open-right scans of
#: DIV-S, DIV-T and the MOD2 pair), and one point out of domain.
SIDES_AT_E3 = [
    ("STID-S", 4, (2, 2), 9, None, 9),
    ("STID-T", 4, (0, 0), 9, None, 9),
    ("STID-T3", 8, (-1, -1), 33, (4, 2), 49),
    ("STID-T3S", 8, (-1, -1), 17, (-3, -5), -1),
    ("MF1", 4, (3, 3), 9, (7, 9), -1),
    ("MF2", 4, (1, 1), 9, (2, 4), -1),
    ("REC-S", 44, (5, 5), 57, (10, 14), 0),
    ("REC-T", 48, (0, 0), 65, (5, 3), 0),
    ("ID3", 4, (3, 3), 9, (6, 4), 25),
    ("ID4", 2, (5, 5), 5, (7, 11), -1),
    ("ID5", 4, (0, 0), 9, (3, 1), -5),
    ("ID6", 8, (1, 1), 17, (7, 11), -1),
    ("ID7", 2, (3, -3), 2, (3, -3), 9),
    ("ID7C", 2, (3, 3), 5, (5, 9), 9),
    ("ID8", 2, (2, 2), 5, (2, 6), 9),
    ("ID9", 4, (1, 1), 9, None, 9),
    ("DIV-S", 256, (70, 70), 1090, (574, 574), -1),
    ("DIV-T", 257, (91, 91), 1088, (161, 161), -1),
    ("MOD2-S", 4, (1, 1), 82, (1, 1), -1),
    ("MOD2-T", 4, (1, 1), 82, (1, 1), -1),
]


def test_sides_table_covers_the_registry():
    assert [row[0] for row in SIDES_AT_E3] == list(REGISTRY)


@pytest.mark.parametrize("identity, inside, inside_pair, past, past_pair, outside",
                         SIDES_AT_E3)
def test_identity_sides_at_e3(identity, inside, inside_pair, past, past_pair, outside):
    record = REGISTRY[identity]
    lo, hi = record.n_range(3)
    assert lo <= inside <= hi
    assert check_identity(identity, 3, SCAN).scanned[3]["hi"] + 1 == past
    points = (inside, past, outside)
    expected = [inside_pair, past_pair, None]
    assert [_point(record, 3, n) for n in points] == expected
    assert _block_at(record, 3, points) == expected
    for n, pair in zip(points, expected):
        assert _block_at(record, 3, [n]) == [pair]


def _synthetic(lhs, rhs, n_range, e_min=0):
    return verify.IdentityRecord("SYNTH", lhs, rhs, n_range, "built in the test", e_min)


def _check_against_oracle(monkeypatch, record, e_max=1):
    monkeypatch.setitem(REGISTRY, record.identity, record)
    reports = []
    for policy in (verify.PRINTED_RANGE, SCAN):
        got = check_identity(record.identity, e_max, policy)
        assert got.to_json() == _oracle(record, e_max, policy).to_json()
        reports.append(got)
    return reports


B = verify.BLOCK
#: (lo, number of points) of the synthetic printed ranges: one short of a
#: block, one block, one past, starting on and off a multiple of a block.
SYNTH_RANGES = [(lo, size) for lo in (0, 5, B + 3) for size in (B - 1, B, B + 1)]
#: A prime past every index a synthetic scan reads.
PRIME = 65537


def _spots(lo, size):
    """n worth a failure: the ends of each block of the sweep and of the
    scan, which runs outward from the centre to its right cap, and points
    next to them."""
    hi = lo + size - 1
    centre = (lo + hi) // 2
    cap = hi + size + 64
    near = {lo, hi, lo + B - 1, lo + B, centre, centre + 1, centre - 1,
            centre + B - 1, centre + B, centre - B, centre - B - 1, hi + 1, hi + 2,
            cap - 1, cap, cap + 1}
    return sorted(x for x in near if x >= 0)


@pytest.mark.parametrize("lo, size", SYNTH_RANGES)
def test_synthetic_failures_at_block_edges(monkeypatch, lo, size):
    for c in _spots(lo, size):
        # (n-c)^2 mod a prime vanishes only at n = c, where rhs reads PRIME
        record = _synthetic(
            lambda s, t, e, n, c=c: s(n) + (n - c) * (n - c) % PRIME,
            lambda s, t, e, n, c=c: s(n) + ((n - c) * (n - c) + PRIME - 1) % PRIME + 1,
            lambda e: (lo, lo + size - 1),
        )
        printed, _ = _check_against_oracle(monkeypatch, record)
        # one failure at each of e = 0 and e = 1 when c is in the range
        assert printed.failures == (2 if lo <= c < lo + size else 0)


@pytest.mark.parametrize("lo, size", SYNTH_RANGES)
def test_synthetic_domain_edges_inside_blocks(monkeypatch, lo, size):
    hi = lo + size - 1
    for cut in (lo + 7, lo + B // 2, (lo + hi) // 2 + 3, hi - 9):
        sides = [
            # out of domain below the cut, above it, or both, as read by
            # ascending, descending and strided spans
            (lambda s, t, e, n: s(n - cut), lambda s, t, e, n: s(n - cut) + 0 * t(n)),
            (lambda s, t, e, n: t(cut - n) * 2, lambda s, t, e, n: 2 * t(cut - n)),
            (lambda s, t, e, n: s(3 * n - cut) - t((hi - n) << 1),
             lambda s, t, e, n: -t(2 * hi - (n << 1)) + s(3 * n - cut)),
            (lambda s, t, e, n: s(cut - n), lambda s, t, e, n: s(n - lo - 11)),
        ]
        for lhs, rhs in sides:
            _check_against_oracle(monkeypatch, _synthetic(lhs, rhs, lambda e: (lo, hi)))


@pytest.mark.parametrize("lo, size", SYNTH_RANGES)
def test_synthetic_failures_past_the_counterexample_cap(monkeypatch, lo, size):
    record = _synthetic(
        lambda s, t, e, n: (n - 1) * (n - 1) % 3,
        lambda s, t, e, n: n * n % 1 + 1,
        lambda e: (lo, lo + size - 1),
    )
    printed, _ = _check_against_oracle(monkeypatch, record)
    assert printed.failures > verify.MAX_COUNTEREXAMPLES
    assert len(printed.counterexamples) == verify.MAX_COUNTEREXAMPLES
    # out-of-domain points and failures interleaved in n order
    record = _synthetic(
        lambda s, t, e, n: s(n - lo - 5) % 2,
        lambda s, t, e, n: n * n % 3,
        lambda e: (lo, lo + size - 1),
    )
    printed, _ = _check_against_oracle(monkeypatch, record, e_max=0)
    assert printed.counterexamples[0][2] == "out-of-domain"


def test_block_bound():
    assert 1 <= verify.BLOCK <= 1 << 12


@pytest.mark.parametrize("identity", CLEAN_IDS)
def test_clean_identities_pass_printed_range(identity):
    report = check_identity(identity, 12)
    assert report.ok, report.counterexamples[:3]
    assert report.passes > 0


def test_stid_spot_values():
    # e=2, n=1 instances
    assert stern(5) == stern(3) + stern(1)
    assert twisted(10) == twisted(8) == -stern(4)


def test_id7_as_printed_fails():
    report = check_identity("ID7", 12)
    assert not report.ok
    assert (2, 1, 3, -3) in report.counterexamples
    assert report.status == SUSPECTED_TYPO
    assert not report.blocking
    assert len(report.counterexamples) <= verify.MAX_COUNTEREXAMPLES


def test_id7_corrected_passes():
    report = check_identity("ID7C", 12)
    assert report.ok
    assert report.blocking is False


def test_id3_scan_boundary():
    for e in range(9):
        report = check_identity("ID3", e, SCAN)
        found = report.scanned[e]
        assert found == {"lo": 0, "hi": 2**e, "open_right": False}


def test_t3_window_scan_boundary():
    report = check_identity("STID-T3S", 5, SCAN)
    for e in range(6):
        assert report.scanned[e]["hi"] == 2 ** (e + 1)


def test_unknown_identity_and_policy():
    with pytest.raises(KeyError):
        check_identity("NOPE", 3)
    with pytest.raises(ValueError):
        check_identity("ID3", 3, "guess")


def test_empty_sweeps_are_rejected():
    for policy in (verify.PRINTED_RANGE, SCAN):
        with pytest.raises(ValueError, match="e_max must be a natural number"):
            check_identity("ID3", -1, policy)
    with pytest.raises(ValueError, match="e_max must be a natural number"):
        run_suite("identities", -1, 64)
    with pytest.raises(ValueError, match="n_limit must be at least 2"):
        run_suite("matrices", 3, 1)


def test_partial_sums():
    report = check_partial_sums(12)
    assert report.ok
    assert sum(stern(n) for n in range(1, 9)) == 14 == (3**3 + 1) // 2
    assert twisted(1) + twisted(2) == 0
    assert sum(stern(n) for n in range(1, 2)) == 1


def test_det_m():
    assert det_m(1) == -2
    assert det_m(2) == 2
    assert det_m(4) == -2
    with pytest.raises(ValueError):
        det_m(0)
    assert check_det_m(1 << 12).ok


def test_det_m_sign_relations():
    for n in range(1, (1 << 15) + 1):
        assert det_m(n) * det_m(2 * n) < 0
        if n >= 2:
            assert det_m(2 * n - 1) == -det_m(n - 1)


def test_det_family_spot_values():
    # family rows: (top sequence at n, n+1), (bottom sequence at 2^e+n, 2^e+n+1)
    assert stern(0) * stern(3) - stern(1) * stern(2) == -1
    assert stern(0) * twisted(3) - stern(1) * twisted(2) == 1
    assert twisted(1) * twisted(6) - twisted(2) * twisted(5) == 1
    assert check_det_families(8).ok


def test_divisibility():
    report = check_divisibility(1 << 12)
    assert report.ok
    assert (stern(3) + stern(5)) // stern(4) == 5
    assert twisted(2) + twisted(4) == 0 and twisted(3) == 0
    assert (twisted(3) + twisted(5)) // twisted(4) == 1
    with pytest.raises(ValueError):
        check_divisibility(1)


def test_divisibility_exceptional_sets():
    # every n = 3*2^j is the both-zero case; 2^e takes the shifted quotient
    for j in range(10):
        n = 3 << j
        assert twisted(n) == 0 and twisted(n - 1) + twisted(n + 1) == 0
    for e in range(1, 12):
        n = 1 << e
        assert twisted(n - 1) + twisted(n + 1) == (1 + 2 * (e - 2)) * twisted(n)
    assert twisted(0) + twisted(2) == -twisted(1)


def test_mod2_and_palindrome():
    assert check_mod2(3 << 10).ok
    report = check_palindrome(8)
    assert report.ok
    # centre elements are 2
    for e in range(1, 9):
        sign = -1 if e % 2 else 1
        assert sign * twisted(3 * (1 << e) + 3 * (1 << (e - 1))) == 2


def test_conjecture_gen():
    report = check_conjecture_gen(4, 256)
    assert report.ok
    assert report.conjecture
    assert not report.blocking
    with pytest.raises(ValueError):
        check_conjecture_gen(8, 100)


def test_conjecture_ab():
    report = check_conjecture_ab(4, 256)
    assert report.ok
    assert report.conjecture
    with pytest.raises(ValueError):
        check_conjecture_ab(8, 100)


def test_conjecture_sweeps_refuse_orders_below_their_checked_prefix():
    for order in (3, 11):
        with pytest.raises(ValueError, match="order must be at least 12 "):
            check_conjecture_gen(0, order)
    for order in (2, 6):
        with pytest.raises(ValueError, match="order must be at least 7 "):
            check_conjecture_ab(0, order)
    assert check_conjecture_gen(0, 12).ok and check_conjecture_ab(0, 7).ok


def _perturbed(series_, index):
    return TruncatedSeries(
        series_.coeffs[:index] + (series_.coeffs[index] + 1,) + series_.coeffs[index + 1:]
    )


def test_conjecture_gen_failures_walk_the_points(monkeypatch):
    # a wrong u fails every window; the counterexamples are those of a
    # point-by-point walk of twisted(3*2^e + n) against (-1)^e u(z^(2^e)) s
    order, e_max = 200, 3
    bad = _perturbed(verify.quotient_series("u", order), 20)
    monkeypatch.setattr(verify, "quotient_series", lambda name, o: bad)
    monkeypatch.setattr(verify, "MAX_COUNTEREXAMPLES", 10 ** 6)  # keep every record
    report = check_conjecture_gen(e_max, order)
    s = TruncatedSeries.from_coeffs([stern(n) for n in range(order + 1)])
    passes, want = 13, []  # the leading coefficients of u pass
    for e in range(e_max + 1):
        m = 3 << e
        rhs = substitute_power(bad, 1 << e, order - m) * s
        for n in range(order - m + 1):
            lhs, right = twisted(m + n), (-1) ** e * rhs.coeff(n)
            if lhs == right:
                passes += 1
            else:
                want.append((e, n, lhs, right))
    assert want and (report.passes, report.failures) == (passes, len(want))
    assert report.counterexamples == want


def test_a_form_with_a_nonzero_constant_window_has_no_integral_quotient(monkeypatch):
    # W_0 = sum of s(n+1)*z^n opens with s(1) = 1, below the valuation 1 of
    # the Stern series: the division refuses it, and the sweep records that
    # as its one failure
    monkeypatch.setitem(verify.WINDOW_FORMS, "u", (((1, Kind.STERN, 1),), True, (1,)))
    message = "numerator valuation is below denominator valuation"
    with pytest.raises(DivisionError, match=message):
        verify.quotient_series("u", 64)
    report = check_conjecture_gen(2, 64)
    assert (report.passes, report.failures) == (0, 1)
    assert report.counterexamples == [("division", 0, message, "integral quotient")]


def test_conjecture_ab_failures_walk_the_points(monkeypatch):
    # the walk compares each window with its signed right side, A's
    # s(2^(e+1) + n) - s(2^e + n) against A(z^(2^e)) s and B's
    # -(t(2^(e+1) + n) + t(2^e + n)) against (-1)^e B(z^(2^e)) s
    order, e_max = 200, 3
    bad_a = _perturbed(verify.quotient_series("A", order), 30)
    bad_b = _perturbed(verify.quotient_series("B", order), 17)
    monkeypatch.setattr(verify, "quotient_series", lambda name, o: {"A": bad_a, "B": bad_b}[name])
    monkeypatch.setattr(verify, "MAX_COUNTEREXAMPLES", 10 ** 6)  # keep every record
    report = check_conjecture_ab(e_max, order)
    s = TruncatedSeries.from_coeffs([stern(n) for n in range(order + 1)])
    passes, want = 7 + 8, []  # the leading coefficients of A and B pass
    for e in range(e_max + 1):
        step = 1 << e
        rhs_a = substitute_power(bad_a, step, order - 2 * step) * s
        rhs_b = substitute_power(bad_b, step, order - 2 * step) * s
        for n in range(order - 2 * step + 1):
            sides = (
                (stern(2 * step + n) - stern(step + n), rhs_a.coeff(n)),
                (-(twisted(2 * step + n) + twisted(step + n)), (-1) ** e * rhs_b.coeff(n)),
            )
            for lhs, right in sides:
                if lhs == right:
                    passes += 1
                else:
                    want.append((e, n, lhs, right))
    assert want and (report.passes, report.failures) == (passes, len(want))
    assert report.counterexamples == want


def _oracle_right_side(q, e, cutoff, order):
    """Q(z^(2^e)) S to `cutoff` as one product per e: the route the sweeps
    took before they doubled R_e, kept as the oracle of the doubling."""
    return substitute_power(q, 1 << e, cutoff) * stern_series(order)


def _oracle_sweep(identity, names, qs, e_max, order):
    """The whole conjecture sweep with `_oracle_right_side` as every right
    side, records in the same order as `verify._conjecture`."""
    forms = [verify.WINDOW_FORMS[name] for name in names]
    reach = max(a for terms, _, _ in forms for _, _, a in terms)
    report = VerificationReport(identity, params=f"e <= {e_max}, order {order}", conjecture=True)
    for name, q, (_, _, lead) in zip(names, qs, forms):
        for i, want in enumerate(lead):
            report.record(q.coeffs[i] == want, (f"{name}-prefix", i, q.coeffs[i], want))
    for e in range(e_max + 1):
        cutoff = order - (reach << e)
        sides = []
        for name, q, (_, alternating, _) in zip(names, qs, forms):
            rhs = _oracle_right_side(q, e, cutoff, order)
            sides.append((verify._window(name, e, cutoff), -rhs if alternating and e % 2 else rhs))
        verify._compare_sides(report, e, sides)
    return report


@pytest.mark.parametrize("reach", [2, 3])
@settings(max_examples=5, deadline=None)
@given(q0=st.integers(-(1 << 64), 1 << 64), bits=st.sampled_from([0, 1, 8, 64]),
       seed=st.integers(0, 1 << 32))
def test_doubled_right_sides_match_one_product_per_e(reach, q0, bits, seed):
    # R_0 = Q S is one product; each R_e after it comes from R_(e-1) by the
    # Stern recursion, and must equal Q(z^(2^e)) S as its own product, for
    # any integer Q (any constant term, both signs, coefficients to 2^64),
    # at every e <= e_max <= 10 on orders from the refusal bound reach*2^e_max
    # to bound + 3, and at 1024 and 4096
    rnd = random.Random(seed)
    q = TruncatedSeries((q0,) + tuple(rnd.randint(-(1 << bits), 1 << bits) for _ in range(4096)))
    orders = {(reach << e_max) + d for e_max in range(11) for d in range(4)} | {1024, 4096}
    for order in sorted(orders):
        r = q.truncate(order - reach) * stern_series(order - reach)
        for e in range(min(10, (order // reach).bit_length() - 1) + 1):
            cutoff = order - (reach << e)
            if e:
                r = verify._doubled(r, cutoff)
            assert r.coeffs == _oracle_right_side(q, e, cutoff, order).coeffs, (order, e)


#: check, identity, window forms and reach of both sweeps
_SWEEPS = {
    "gen": (check_conjecture_gen, "CONJ-GEN", ("u",), 3),
    "ab": (check_conjecture_ab, "CONJ-AB", ("A", "B"), 2),
}


def _pin_quotients(monkeypatch, names, order):
    """The quotients of `names` to `order`, which the sweeps then read in
    place of dividing; the dict may be changed before the sweep runs."""
    pinned = {name: verify.quotient_series(name, order) for name in names}
    monkeypatch.setattr(verify, "quotient_series", lambda name, o: pinned[name])
    return pinned


@pytest.mark.parametrize("which", ["gen", "ab"])
@pytest.mark.parametrize("e_max, order", [(0, 12), (3, 27), (4, 49), (6, 195), (8, 1024), (9, 1536)])
@pytest.mark.parametrize("index", [None, 0, 5, 40, -1])
def test_conjecture_reports_match_the_product_per_e_sweep(monkeypatch, which, e_max, order, index):
    # the same records, in the same order, as the sweep that formed each
    # right side as its own product, for the true quotients and for ones
    # with one coefficient perturbed (index -1: the last one the sweep sees,
    # order - reach - 1, as R_0's coefficient order - reach is q's times s(0) = 0)
    check, identity, names, reach = _SWEEPS[which]
    pinned = _pin_quotients(monkeypatch, names, order)
    if index is not None:
        at = min(order - reach - 1, order if index < 0 else index)
        name = names[at % len(names)]
        pinned[name] = _perturbed(pinned[name], at)
    monkeypatch.setattr(verify, "MAX_COUNTEREXAMPLES", 10 ** 6)  # keep every record
    got = check(e_max, order)
    qs = [pinned[name] for name in names]
    assert got.to_json() == _oracle_sweep(identity, names, qs, e_max, order).to_json()
    assert got.ok == (index is None)


@pytest.mark.parametrize("which", ["gen", "ab"])
@pytest.mark.parametrize("e_max", [0, 1, 5, 9])
def test_a_sweep_makes_one_product_per_quotient(monkeypatch, which, e_max):
    # only R_0 is a product, one `mul_stern` per quotient; no right side
    # takes the product kernel, divides or walks Carlitz's product
    check, _, names, reach = _SWEEPS[which]
    order = max(1024, 3 << e_max)
    _pin_quotients(monkeypatch, names, order)
    products = []
    mul_stern = verify.mul_stern
    monkeypatch.setattr(verify, "mul_stern", lambda q: products.append(q.order) or mul_stern(q))

    def refuse(*args):
        raise AssertionError("a right side took the product kernel or the product form")

    for module, name in ((sequences, "_mul_coeffs"), (series, "_mul_coeffs"),
                         (verify, "div_stern"), (series, "div_stern"),
                         (series, "infinite_product"), (series, "carlitz_series")):
        monkeypatch.setattr(module, name, refuse)
    assert check(e_max, order).ok
    assert products == [order - reach] * len(names)


@pytest.mark.parametrize("which", ["gen", "ab"])
@pytest.mark.parametrize("k", [1, 2, 5, 8, 13])
def test_a_corrupted_stern_coefficient_is_the_first_counterexample(monkeypatch, which, k):
    # the multiplier's base holds the only s(k) that R_0 reads; one wrong
    # value there shows at e = 0, as the windows read the tables
    check, _, names, _ = _SWEEPS[which]
    base = list(series._STERN_HEAD)
    base[k] += 1
    monkeypatch.setattr(series, "_STERN_HEAD", tuple(base))
    report = check(2, 1024)
    assert not report.ok
    e, n, lhs, rhs = report.counterexamples[0]
    assert e == 0 and lhs != rhs
    assert lhs in {verify._window(name, 0, n).coeffs[n] for name in names}


#: Runs every range builder over s and t in a fresh interpreter and prints
#: the results with the number of point lookups they made.
_FRESH_RANGE_BUILDERS = _COUNT_POINT_LOOKUPS + """
import json
from sterntwist import regularity, series, verify
out = {
    "stern": series.stern_series(700).coeffs,
    "twisted": series.twisted_series(700).coeffs,
    "psi": [series.psi_from_twisted(e).coeffs for e in range(11)],
    "H": regularity.h_series(400).coeffs,
    "u": verify.gen_quotient_series(400).coeffs,
    "gen": verify.check_conjecture_gen(5, 400).to_json(),
    "ab": verify.check_conjecture_ab(5, 400).to_json(),
    "point_lookups": len(calls),
}
print(json.dumps(out))
"""


def test_range_builders_read_tables_and_match_point_lookups():
    env = dict(os.environ, PYTHONPATH=str(Path(sterntwist.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_RANGE_BUILDERS],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["point_lookups"] == 0

    def series_of(values):
        return TruncatedSeries.from_coeffs(list(values))

    assert got["stern"] == [stern(n) for n in range(701)]
    assert got["twisted"] == [twisted(n) for n in range(701)]
    for e, coeffs in enumerate(got["psi"]):
        m = 3 << e
        # the window without its last entry, t(6*2^e) = 0
        assert tuple(coeffs) == tuple((-1) ** e * twisted(m + i) for i in range(m))
    h = log_derivative(series_of(stern(n + 1) for n in range(402)))
    assert tuple(got["H"]) == h.coeffs
    u = div_exact(series_of(twisted(3 + n) for n in range(402)),
                  series_of(stern(n) for n in range(403)))
    assert tuple(got["u"]) == u.coeffs
    s = series_of(stern(n) for n in range(401))
    points = 13  # the leading coefficients of u
    for e in range(6):
        m = 3 << e
        rhs = substitute_power(u, 1 << e, 400 - m) * s
        assert [twisted(m + n) for n in range(401 - m)] == [
            (-1) ** e * c for c in rhs.coeffs[: 401 - m]
        ]
        points += 401 - m
    assert json.loads(got["gen"])["passes"] == points
    a = div_exact(series_of(stern(2 + n) - stern(1 + n) for n in range(402)),
                  series_of(stern(n) for n in range(403)))
    b = div_exact(series_of(-(twisted(2 + n) + twisted(1 + n)) for n in range(402)),
                  series_of(stern(n) for n in range(403)))
    points = 7 + 8  # the leading coefficients of A and B
    for e in range(6):
        step = 1 << e
        cutoff = 400 - 2 * step
        rhs_a = substitute_power(a, step, cutoff) * s
        rhs_b = substitute_power(b, step, cutoff) * s
        for n in range(cutoff + 1):
            assert stern(2 * step + n) - stern(step + n) == rhs_a.coeff(n)
            sides = twisted(2 * step + n) + twisted(step + n)
            assert (-1) ** (e + 1) * sides == rhs_b.coeff(n)
        points += 2 * (cutoff + 1)
    assert json.loads(got["ab"])["passes"] == points


def test_quotient_prefixes():
    u = verify.gen_quotient_series(16)
    assert u.coeffs[:13] == (1, 0, -2, 0, 0, -2, 4, 2, -6, 4, 2, -6, 8)
    a, b = verify.quotient_series("A", 16), verify.quotient_series("B", 16)
    assert a.coeffs[:7] == (1, -2, 2, 0, -4, 4, 2)
    assert b.coeffs[:8] == (1, -2, -2, 4, 0, 0, 6, -6)


def test_reports_serialise():
    reports = run_suite("all", 5, 256)
    assert not any(r.blocking for r in reports)
    failing = [r.identity for r in reports if not r.ok]
    assert failing == ["ID7"]
    for r in reports:
        parsed = json.loads(r.to_json())
        assert parsed == r.to_json_dict()
        assert r.summary_line()
    with pytest.raises(ValueError):
        run_suite("everything", 3, 64)


def test_scan_report_serialises():
    report = check_identity("ID3", 3, SCAN)
    parsed = json.loads(report.to_json())
    assert parsed["scanned_range"]["3"] == {"lo": 0, "hi": 8, "open_right": False}
    assert "scanned" in report.summary_line()


@pytest.mark.parametrize("limit", [0, 1, 16, 1000])
def test_reader_domain_and_fallback(limit):
    s, t = verify._readers(limit)
    for read, x in ((s, -1), (t, -5)):
        column = read(Span(x, 1, 1))
        assert column.lo >= column.hi
    # below the limit from the prefix (growing it), at and past it point by point
    for n in (limit - 1, 0, limit // 2, limit, limit + 1, 5000, (1 << 64) + 3):
        if n >= 0:
            assert s(Span(n, 1, 1)).values == [stern(n)]
            assert t(Span(n, 1, 1)).values == [twisted(n)]
    # strided, descending and constant spans across 0 and across the limit
    for start, step in ((-7, 1), (-7, 3), (limit + 7, -1), (limit + 7, -3),
                        (limit - 5, 2), (-2, -1)):
        span = Span(start, step, 20)
        for read, value in ((s, stern), (t, twisted)):
            column = read(span)
            inside = [k for k in range(20) if start + step * k >= 0]
            assert list(range(column.lo, column.hi)) == inside
            assert [column.values[k] for k in inside] == [
                value(start + step * k) for k in inside
            ]


def test_span_and_column_arithmetic():
    n = Span(3, 2, 4)  # 3, 5, 7, 9
    assert n.column().values == [3, 5, 7, 9]
    for got, want in (
        (n + 1, [4, 6, 8, 10]), (1 + n, [4, 6, 8, 10]), (n - 4, [-1, 1, 3, 5]),
        (10 - n, [7, 5, 3, 1]), (-n, [-3, -5, -7, -9]), (3 * n, [9, 15, 21, 27]),
        (n * 3, [9, 15, 21, 27]), (n << 2, [12, 20, 28, 36]),
    ):
        assert got.column().values == want
    assert (n * n).values == [9, 25, 49, 81] and (n * n % 4).values == [1] * 4
    c = Column([1, 2, 3, 4], 1, 4)
    d = Column([5, 6, 7, 8], 0, 3)
    assert (c + d).values == [6, 8, 10, 12] and ((c + d).lo, (c + d).hi) == (1, 3)
    assert (c - d).values == [-4] * 4 and (d - c).values == [4] * 4
    assert (c * 2).values == (2 * c).values == [2, 4, 6, 8]
    assert (1 - c).values == [0, -1, -2, -3] and (c - 1).values == [0, 1, 2, 3]
    assert (-c).values == [-1, -2, -3, -4] and ((-c).lo, (-c).hi) == (1, 4)
    assert (c % 2).values == [1, 0, 1, 0]
    with pytest.raises(TypeError):
        n + 0.5
    with pytest.raises(TypeError):
        c * "x"


@pytest.mark.parametrize("policy", [verify.PRINTED_RANGE, SCAN])
@pytest.mark.parametrize("identity", list(REGISTRY))
def test_tables_match_point_lookups(monkeypatch, identity, policy):
    table_route = check_identity(identity, 7, policy).to_json()
    # readers with limit 0 take the point-lookup route at every index
    readers = verify._readers
    monkeypatch.setattr(verify, "_readers", lambda limit: readers(0))
    assert check_identity(identity, 7, policy).to_json() == table_route


def test_checkers_reject_negative_e_max():
    for checker in (check_det_families, check_palindrome, check_partial_sums):
        with pytest.raises(ValueError, match="e_max must be a natural number"):
            checker(-1)


def test_identities_below_their_e_min():
    for policy in (verify.PRINTED_RANGE, SCAN):
        with pytest.raises(ValueError, match="ID5 is stated for e >= 2"):
            check_identity("ID5", 1, policy)
        with pytest.raises(ValueError, match="ID4 is stated for e >= 1"):
            check_identity("ID4", 0, policy)
    at_0 = [r.identity for r in run_suite("identities", 0, 64)]
    assert at_0 == [i for i in REGISTRY if i not in ("ID4", "ID5")]
    at_1 = [r.identity for r in run_suite("identities", 1, 64)]
    assert at_1 == [i for i in REGISTRY if i != "ID5"]


def test_check_all_identities_is_the_registry_sweep():
    for e_max in (1, 3):
        swept = [r.to_json() for r in verify.check_all_identities(e_max)]
        one_by_one = [check_identity(i, e_max).to_json() for i, record in REGISTRY.items()
                      if record.e_min <= e_max]
        assert swept == one_by_one
    assert [r.identity for r in verify.check_all_identities(1)] == [
        i for i in REGISTRY if i != "ID5"]


# ---------------------------------------------------------------------------
# The dedicated checkers against their former point-by-point bodies.
# ---------------------------------------------------------------------------
#
# The oracles read the tables through `verify.prefix` at call time, so a
# monkeypatched prefix feeds both routes the same (possibly corrupted) copy.


def _oracle_partial_sums(e_max):
    report = VerificationReport("PARTIAL-SUMS", params=f"e <= {e_max}")
    s = verify.prefix(Kind.STERN, (1 << e_max) + 1)
    t = verify.prefix(Kind.TWISTED, (1 << e_max) + 1)
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


def _oracle_det_m(limit):
    report = VerificationReport("DET-M", params=f"1 <= n < {limit}")
    s = verify.prefix(Kind.STERN, limit + 1)
    t = verify.prefix(Kind.TWISTED, limit + 1)
    for n in range(1, limit):
        d = s[n] * t[n + 1] - s[n + 1] * t[n]
        k = n.bit_length() - 1
        want = 2 if k % 2 else -2
        if d == want and abs(d) == 2:
            report.passes += 1
        else:
            report.record_failure((k, n, d, want))
    return report


def _oracle_family_ranges(tag, e):
    p = 1 << e
    if tag == "SS":
        return [(0, p, -1), (p, 2 * p, 1)]
    if tag == "ST":
        sign = -1 if (e + 1) % 2 else 1
        return [(0, p, sign), (p, 4 * p, -sign)]
    if tag == "TS":
        sign = -1 if (e + 1) % 2 else 1
        return [(2 * p + 1, 5 * p, sign)]
    lo = (p + 3) // 4
    return [(lo, p, 1), (p, 7 * p, -1), (7 * p, 8 * p, 1)]


def _oracle_det_families(e_max):
    report = VerificationReport("DET-FAMILIES", params=f"e <= {e_max}")
    tables = {kind: verify.prefix(kind, (9 << e_max) + 1) for kind in Kind}
    families = (("SS", Kind.STERN, Kind.STERN), ("ST", Kind.STERN, Kind.TWISTED),
                ("TS", Kind.TWISTED, Kind.STERN), ("TT", Kind.TWISTED, Kind.TWISTED))
    for tag, top_kind, bottom_kind in families:
        top, bottom = tables[top_kind], tables[bottom_kind]
        for e in range(e_max + 1):
            p = 1 << e
            for lo, hi, want in _oracle_family_ranges(tag, e):
                for n in range(lo, hi):
                    det = top[n] * bottom[p + n + 1] - top[n + 1] * bottom[p + n]
                    if det == want:
                        report.passes += 1
                    else:
                        report.record_failure((e, n, det, want, tag))
    return report


def _oracle_divisibility(limit):
    report = VerificationReport("DIVISIBILITY", params=f"1 <= n < {limit}")
    s = verify.prefix(Kind.STERN, limit + 1)
    t = verify.prefix(Kind.TWISTED, limit + 1)
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


def _oracle_mod2(limit):
    report = VerificationReport("MOD2", params=f"0 <= n < {limit}")
    s = verify.prefix(Kind.STERN, limit)
    t = verify.prefix(Kind.TWISTED, limit)
    for n in range(limit):
        expected = mod2(n)
        sv = s[n] % 2
        tv = t[n] % 2
        if sv == tv == expected:
            report.passes += 1
        else:
            report.record_failure((0, n, (sv, tv), expected))
    return report


def _oracle_palindrome(e_max):
    report = VerificationReport("PALINDROME", params=f"e <= {e_max}")
    t = verify.prefix(Kind.TWISTED, (6 << e_max) + 1)
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


#: (block route, point-by-point oracle), by what the checker takes
CHECKERS_BY_LIMIT = [
    (check_det_m, _oracle_det_m),
    (check_divisibility, _oracle_divisibility),
    (check_mod2, _oracle_mod2),
]
CHECKERS_BY_E = [
    (check_det_families, _oracle_det_families),
    (check_palindrome, _oracle_palindrome),
    (check_partial_sums, _oracle_partial_sums),
]


@pytest.mark.parametrize("limit", [2, 3, 4, 1023, 1024, 1025, 3 << 10, 1 << 16])
@pytest.mark.parametrize("checker, oracle", CHECKERS_BY_LIMIT)
def test_limit_checkers_match_their_oracles(checker, oracle, limit):
    report = checker(limit)
    assert report.ok and report.passes > 0
    assert report.to_json() == oracle(limit).to_json()


@pytest.mark.parametrize("e_max", range(14))
@pytest.mark.parametrize("checker, oracle", CHECKERS_BY_E)
def test_e_max_checkers_match_their_oracles(checker, oracle, e_max):
    report = checker(e_max)
    assert report.ok and report.passes > 0
    assert report.to_json() == oracle(e_max).to_json()


def _corrupt(monkeypatch, edits):
    """Make `verify.prefix` hand out copies of the true tables with
    table[i] = edit(table[i]) for each (kind, i): edit in `edits`."""
    real = verify.prefix

    def corrupted(kind, length):
        table = list(real(kind, length))
        for (edited, i), edit in edits.items():
            if edited is kind and i < len(table):
                table[i] = edit(table[i])
        return table

    monkeypatch.setattr(verify, "prefix", corrupted)


def _bump(x):
    return x + 1


def _zero(x):
    return 0


LIMIT, E_MAX = 3 << 10, 9  # blocks end at n = 1025, 2049; tables reach 9*2^9 + 1


def _lawful_restart(kind, lo, hi, first):
    """Edits that set value(lo) = first(value(lo)) and continue the sequence
    by the divisibility law's own recurrence value(n+1) = q(n) value(n) -
    value(n-1) up to index hi.  Every sum the divisibility check compares on
    lo <= n < hi still agrees; only a sign or a zero it also asks about is
    wrong."""
    table = list(verify.prefix(kind, hi + 1))
    table[lo] = first(table[lo])
    for n in range(lo, hi):
        q = 1 + 2 * v2(n)
        if kind is Kind.TWISTED and n >> v2(n) in (1, 3):
            q = 2 * v2(n) - 3 if n >> v2(n) == 1 else 0
        table[n + 1] = q * table[n] - table[n - 1]
    return {(kind, i): (lambda x, v=table[i]: v) for i in range(lo, hi + 1)}


CORRUPTIONS = {
    "one-entry": {(Kind.STERN, 700): _bump},
    "several-blocks": {(Kind.STERN, 5): _bump, (Kind.TWISTED, 1500): _bump,
                       (Kind.STERN, 2900): _bump, (Kind.TWISTED, 4000): _bump},
    "past-the-cap-in-one-block": {
        **{(Kind.STERN, i): _bump for i in range(1100, 1120)},
        **{(Kind.TWISTED, i): _bump for i in range(1101, 1121, 3)},
    },
    "first-and-last-n": {
        **{(kind, i): _bump for kind in Kind for i in (0, 1, LIMIT - 1, LIMIT)},
        (Kind.TWISTED, 6 << E_MAX): _bump, (Kind.TWISTED, 3 << E_MAX): _bump,
        (Kind.STERN, 9 << E_MAX): _bump, (Kind.TWISTED, 9 << E_MAX): _bump,
    },
    "zero-away-from-3-2^j": {(Kind.TWISTED, 1000): _zero, (Kind.TWISTED, 1024): _zero,
                             (Kind.TWISTED, 5): _zero},
    "zero-at-n-1": {(Kind.TWISTED, 1): _zero},
    # t(1) = 0 breaks no law at n = 1 itself, only at the n after it
    "lawful-zeros-from-n-1": _lawful_restart(Kind.TWISTED, 1, 8, _zero),
    "nonzero-at-3-2^j": {(Kind.TWISTED, 768): _bump, (Kind.TWISTED, 1536): _bump},
    # the second block [1025, 2049) agrees on every sum and quotient
    "lawful-zero-in-t": _lawful_restart(Kind.TWISTED, 1025, 2049, _zero),
    "lawful-negative-s": _lawful_restart(Kind.STERN, 1025, 2049, lambda x: -x),
    "negated-mirror-pair": {(Kind.TWISTED, (3 << 8) + 5): lambda x: -x,
                            (Kind.TWISTED, (6 << 8) - 5): lambda x: -x,
                            (Kind.STERN, 333): lambda x: -x},
}


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_checkers_match_their_oracles_on_corrupted_tables(monkeypatch, case):
    _corrupt(monkeypatch, CORRUPTIONS[case])
    failing = 0
    for checker, oracle, arg in (
        [(c, o, LIMIT) for c, o in CHECKERS_BY_LIMIT] + [(c, o, E_MAX) for c, o in CHECKERS_BY_E]
    ):
        report = checker(arg)
        assert report.to_json() == oracle(arg).to_json(), checker.__name__
        failing += not report.ok
    assert failing


def test_counterexamples_stop_at_the_cap_within_one_block(monkeypatch):
    _corrupt(monkeypatch, CORRUPTIONS["past-the-cap-in-one-block"])
    report = check_divisibility(LIMIT)
    assert report.failures > verify.MAX_COUNTEREXAMPLES
    assert len(report.counterexamples) == verify.MAX_COUNTEREXAMPLES
    # each n shows its s-failure before its t-failure
    assert [c[4] for c in report.counterexamples[:2]] == ["s", "s"]
    assert report.counterexamples[0][1] == 1099
    assert report.to_json() == _oracle_divisibility(LIMIT).to_json()


def test_empty_checker_ranges_are_rejected():
    for limit in (1, 0, -3):
        with pytest.raises(ValueError, match="limit must be at least 2"):
            check_det_m(limit)
    for limit in (0, -1):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            check_mod2(limit)
    assert check_det_m(2).passes == 1
    assert check_mod2(1).passes == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--max-e", "18"],
    ["verify", "--suite", "divisibility", "--max-n", str(verify.MAX_TABLE)],
    ["verify", "--suite", "mod2", "--max-e", "60", "--max-n", str(10**30)],
    ["verify", "--suite", "identities", "--max-e", str(10**30)],
    ["scan", "--identity", "ID3", "--e", "18"],
    ["scan", "--identity", "REC-S", "--e", str(10**30)],
])
def test_oversized_tables_are_refused_before_any_fill(capsys, argv):
    from sterntwist.cli import run
    from sterntwist.sequences import _PREFIXES

    before = {kind: len(table) for kind, table in _PREFIXES.items()}
    assert run(argv) == 2
    assert "capped at" in capsys.readouterr().err
    assert {kind: len(table) for kind, table in _PREFIXES.items()} == before


def test_table_cap_bounds():
    verify._bound_tables(17, verify.MAX_TABLE - 1)
    assert (9 << 17) + 1 <= verify.MAX_TABLE < (9 << 18) + 1
    with pytest.raises(ValueError, match="capped at"):
        verify._bound_tables(18)
    with pytest.raises(ValueError, match="capped at"):
        verify._bound_tables(0, verify.MAX_TABLE)
    with pytest.raises(ValueError, match="capped at"):
        run_suite("all", 18, 64)
    with pytest.raises(ValueError, match="capped at"):
        check_identity("ID3", 18, SCAN)
