"""Acceptance gate: one test per criterion, each printing a PASS line and
holding its stated time budget.  Run with `pytest tests/test_acceptance.py -v`
(add -s to see the per-criterion lines)."""
import os
import time

import pytest

from sterntwist.cli import run as cli_run
from sterntwist.ratwords import (
    admissible_representation,
    count_in_expansion,
    subsequence_transform,
    word_indicator,
)
from sterntwist.regularity import (
    AffineSystem,
    binary_partition_series,
    c_series,
    degree_reduce,
    h_series,
    kernel_rank,
    solve_affine_system,
)
from sterntwist.sequences import (
    Kind,
    SequenceCache,
    WeightPolynomial,
    count_admissible,
    enumerate_admissible,
    stern,
    twisted,
    v2,
    weighted_count_direct,
    weighted_even,
    weighted_stern,
    weighted_stern_alt,
)
from sterntwist.series import (
    DensePolynomial,
    carlitz_series,
    div_exact,
    infinite_product,
    log_derivative,
    psi,
    psi_factored_plain,
    psi_factored_signed,
    psi_from_twisted,
    stern_series,
    substitute_power,
    twisted_series,
    twisted_series_expansion,
)
import sterntwist.verify as verify


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number, label, timer, budget=None):
    line = f"criterion {number:>2}: PASS ({timer.elapsed:.3f}s) {label}"
    print(line)
    if budget is not None:
        assert timer.elapsed < budget, f"criterion {number} exceeded {budget}s budget"


@pytest.fixture(scope="module")
def h2048():
    return h_series(2048)


def test_criterion_01_first_terms(capsys, stern_first_terms, twisted_first_terms):
    with Timer() as t:
        fresh_s = SequenceCache(Kind.STERN)
        fresh_t = SequenceCache(Kind.TWISTED)
        s_values = [fresh_s.value(n) for n in range(29)]
        t_values = [fresh_t.value(n) for n in range(26)]
    assert s_values == stern_first_terms
    assert t_values == twisted_first_terms
    assert cli_run(["seq", "--kind", "s", "--from", "0", "--to", "28"]) == 0
    out = capsys.readouterr().out
    assert [int(line.split()[1]) for line in out.strip().splitlines()] == stern_first_terms
    assert cli_run(["seq", "--kind", "t", "--from", "0", "--to", "25"]) == 0
    out = capsys.readouterr().out
    assert [int(line.split()[1]) for line in out.strip().splitlines()] == twisted_first_terms
    with capsys.disabled():
        report(1, "first terms of both sequences", t, budget=0.001)


def test_criterion_02_subsequence_count_oracle(capsys):
    with Timer() as t:
        for n in range(1 << 16):
            assert count_admissible(n) == stern(n)
        for n in range(1 << 12):
            assert len(enumerate_admissible(n)) == count_admissible(n)
    with capsys.disabled():
        report(2, "pattern count equals the sequence; enumeration agrees", t, budget=5.0)


def test_criterion_03_weighted_polynomials(capsys):
    with Timer() as t:
        assert weighted_stern(11) == WeightPolynomial((3, 2))
        for n in range(1 << 12):
            reference = weighted_stern(n)
            assert weighted_stern_alt(n) == reference
            direct_s, direct_se = weighted_count_direct(n)
            assert direct_s == reference
            assert direct_se == weighted_even(n)
    with capsys.disabled():
        report(3, "weighted polynomial routes agree", t, budget=10.0)


def test_criterion_04_power_window_identities(capsys):
    with Timer() as t:
        for identity in ("STID-S", "STID-T"):
            result = verify.check_identity(identity, 13)
            assert result.ok and result.failures == 0, result.counterexamples[:3]
        for identity in ("STID-T3", "STID-T3S"):
            result = verify.check_identity(identity, 12)
            assert result.ok and result.failures == 0, result.counterexamples[:3]
    with capsys.disabled():
        report(4, "power-window identity sweeps", t, budget=10.0)


def test_criterion_05_factorisations(capsys):
    with Timer() as t:
        for e in range(11):
            a = psi_from_twisted(e)
            assert a == psi_factored_plain(e) == psi_factored_signed(e)
            assert a == psi(e)
        assert psi(10).degree == 3 * 2**10 - 1
        assert carlitz_series(4096) == stern_series(4096)
        assert twisted_series_expansion(4096) == twisted_series(4096)
    with capsys.disabled():
        report(5, "window polynomial three ways; product factorisations", t, budget=10.0)


def test_criterion_06_log_derivative(capsys, h2048):
    with Timer() as t:
        h = h2048  # both internal routes agreed at construction
        assert h.order == 2048
        inhom = div_exact(DensePolynomial((1, 2)).to_series(2047),
                          DensePolynomial((1, 1, 1)).to_series(2047))
        rhs = inhom + substitute_power(h, 2, 2046).shift(1).scale(2)
        assert h == rhs  # functional-equation residual vanishes to order 2047
        bfile_note = "no b-file supplied, prefix clause skipped"
        bfile_path = os.environ.get("STERNTWIST_A163659_BFILE")
        if bfile_path and os.path.exists(bfile_path):
            coeffs = h.coeffs
            mismatches = []
            with open(bfile_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    idx_text, value_text = line.split()
                    idx = int(idx_text)
                    if idx <= 2048 and coeffs[idx] != int(value_text):
                        mismatches.append(idx)
            assert not mismatches
            bfile_note = "b-file prefix matched"
    with capsys.disabled():
        report(6, f"log-derivative two-path + functional equation ({bfile_note})", t)


def test_criterion_07_divisibility(capsys):
    with Timer() as t:
        c = c_series(4096)
        for n in range(1, 4097):
            expected = 1 + 2 * v2(n)
            assert c.coeff(n) == expected
            assert stern(n - 1) + stern(n + 1) == expected * stern(n)
        result = verify.check_divisibility(1 << 14)
        assert result.ok, result.counterexamples[:3]
    with capsys.disabled():
        report(7, "divisibility quotients for both sequences", t, budget=5.0)


def test_criterion_08_determinants(capsys):
    with Timer() as t:
        result = verify.check_det_m(1 << 16)
        assert result.ok, result.counterexamples[:3]
        families = verify.check_det_families(10)
        assert families.ok, families.counterexamples[:3]
    with capsys.disabled():
        report(8, "determinant closed form and the four families", t, budget=10.0)


def test_criterion_09_affine_solver(capsys, h2048):
    with Timer() as t:
        # solver output against the independent route for H ...
        direct = log_derivative(stern_series(2050), strip_valuation=True)
        assert h2048 == direct
        # ... and against the valuation law for C
        c = c_series(2048)
        assert all(c.coeff(n) == 1 + 2 * v2(n) for n in range(1, 2049))
        # degree reduction on a degree-3 system preserves the solution
        inhom = div_exact(DensePolynomial((1,)).to_series(64),
                          DensePolynomial((1, -1)).to_series(64))
        system = AffineSystem.of(2, [inhom], [[(0, 0, 0, 1)]], [1])
        baseline = solve_affine_system(system, 64)[0]
        reduced = degree_reduce(system)
        while reduced.max_form_degree() >= reduced.k:
            reduced = degree_reduce(reduced)
        assert solve_affine_system(reduced, 64)[0] == baseline
        # one extra fixed-point round is a no-op
        again = inhom.truncate(64) + substitute_power(baseline, 2, 61).shift(3)
        assert again == baseline
    with capsys.disabled():
        report(9, "affine fixed-point solver and degree reduction", t)


def test_criterion_10_regularity_evidence(capsys, h2048):
    with Timer() as t:
        signs = infinite_product(DensePolynomial((1, -1)), 2, 2047)
        for n in range(1 << 11):
            assert signs.coeff(n) == (-1) ** bin(n).count("1")
        stern_probe = kernel_rank(
            "stern", [stern(n) for n in range(2048)], 2, 6, 2048
        )
        assert stern_probe.ranks[1:] == (2,) * 6
        assert stern_probe.stable
        h_probe = kernel_rank("H", h2048.coeffs[:2048], 2, 6, 2048)
        assert max(h_probe.ranks) <= 8
        assert len(set(h_probe.ranks[3:])) == 1
        partition_probe = kernel_rank(
            "binpart", binary_partition_series(2047).coeffs, 2, 6, 2048
        )
        growing = partition_probe.ranks
        assert all(growing[d] < growing[d + 1] for d in range(1, 6))
    with capsys.disabled():
        report(10, "sign product; bounded vs growing section ranks (evidence)", t)


def test_criterion_11_conjecture_evidence(capsys):
    with Timer() as t:
        u = verify.gen_quotient_series(16)
        assert u.coeffs[:13] == (1, 0, -2, 0, 0, -2, 4, 2, -6, 4, 2, -6, 8)
        gen = verify.check_conjecture_gen(6, 1024)
        assert gen.ok and gen.conjecture, gen.counterexamples[:3]
        a, b = verify.quotient_series("A", 16), verify.quotient_series("B", 16)
        assert a.coeffs[:7] == (1, -2, 2, 0, -4, 4, 2)
        assert b.coeffs[:8] == (1, -2, -2, 4, 0, 0, 6, -6)
        ab = verify.check_conjecture_ab(6, 1024)
        assert ab.ok and ab.conjecture, ab.counterexamples[:3]
    with capsys.disabled():
        report(11, "conjecture evidence sweeps (non-blocking)", t)


def test_criterion_12_typo_ledger(capsys):
    with Timer() as t:
        printed = verify.check_identity("ID7", 12)
        assert not printed.ok
        assert (2, 1, 3, -3) in printed.counterexamples
        assert printed.status == "suspected-typo"
        assert not printed.blocking
        corrected = verify.check_identity("ID7C", 12)
        assert corrected.ok, corrected.counterexamples[:3]
        scan = verify.check_identity("ID3", 10, verify.SCAN)
        for e in range(11):
            assert scan.scanned[e]["hi"] == 2**e
            assert scan.scanned[e]["lo"] == 0
        assert verify.REGISTRY["ID3"].status == "suspected-typo"
        # flagged records never flip the suite outcome
        reports = verify.run_suite("identities", 6, 256)
        assert not any(r.blocking for r in reports)
        assert any(r.identity == "ID7" and not r.ok for r in reports)
    with capsys.disabled():
        report(12, "typo ledger: printed failures recorded, corrections pass", t)


def test_criterion_13_partial_sums(capsys):
    with Timer() as t:
        result = verify.check_partial_sums(16)
        assert result.ok, result.counterexamples[:3]
    with capsys.disabled():
        report(13, "partial-sum closed forms", t, budget=5.0)
