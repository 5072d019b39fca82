"""The package's value classes: immutability, equality, hashing, pickling."""
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sterntwist.cli import BFile, parse_bfile
from sterntwist.ratwords import LinearRepresentation, admissible_representation
from sterntwist.regularity import AffineSystem, KernelProbeReport
from sterntwist.sequences import W, BinaryWord, IntPolynomial, WeightPolynomial
from sterntwist.series import DensePolynomial, TruncatedSeries
from sterntwist.verify import REGISTRY, VerificationReport, check_identity

FROZEN = {
    "BinaryWord": (lambda: BinaryWord.of(5), "bits"),
    "WeightPolynomial": (lambda: WeightPolynomial((1, 2)), "coeffs"),
    "DensePolynomial": (lambda: DensePolynomial((1, 2)), "coeffs"),
    "TruncatedSeries": (lambda: TruncatedSeries.from_coeffs((1, 2)), "coeffs"),
    "LinearRepresentation": (admissible_representation, "init"),
    "AffineSystem": (
        lambda: AffineSystem.of(2, [TruncatedSeries.one(4)], [[(0, 1)]], [1]), "k"),
    "KernelProbeReport": (
        lambda: KernelProbeReport("t", 2, 64, 2, (1, 2, 2), (1, 2, 2), True), "stable"),
    "IdentityRecord": (lambda: REGISTRY["STID-S"], "e_min"),
    "BFile": (lambda: BFile("A002487", ((0, 0), (1, 1))), "entries"),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_classes_refuse_assignment(name):
    build, field = FROZEN[name]
    obj = build()
    value = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, value)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1  # no __dict__ to put it in either
    assert getattr(obj, field) is value


# an IdentityRecord's sides are lambdas, which do not pickle
@pytest.mark.parametrize("name", sorted(set(FROZEN) - {"IdentityRecord"}))
def test_frozen_values_pickle(name):
    build, field = FROZEN[name]
    obj = build()
    copy = pickle.loads(pickle.dumps(obj))
    assert type(copy) is type(obj)
    assert getattr(copy, field) == getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(copy, field, getattr(obj, field))


def test_binary_word_and_bfile_equality_and_hash():
    assert BinaryWord.of(6) == BinaryWord((1, 1, 0))
    assert hash(BinaryWord.of(6)) == hash(BinaryWord((1, 1, 0)))
    assert BinaryWord.of(6) != BinaryWord.of(3)
    assert BinaryWord.of(1) != (1,)
    assert len({BinaryWord.of(n) for n in (0, 1, 6, 6, 3)}) == 4
    a = parse_bfile("0 0\n1 1\n", "A002487")
    assert a == BFile("A002487", ((0, 0), (1, 1)))
    assert hash(a) == hash(BFile("A002487", ((0, 0), (1, 1))))
    assert a != BFile(None, ((0, 0), (1, 1)))
    assert a != BFile("A002487", ((0, 0),))
    assert a != (("A002487", ((0, 0), (1, 1))))
    assert len({a, BFile("A002487", ((0, 0), (1, 1))), BFile(None, ())}) == 2


def test_polynomial_and_series_reprs():
    # a message may show them (ratwords names a bad entry by its repr)
    assert repr(WeightPolynomial((1, 2, 0))) == "WeightPolynomial(coeffs=(1, 2))"
    assert repr(TruncatedSeries.from_coeffs((1, 0))) == "TruncatedSeries(coeffs=(1, 0))"
    with pytest.raises(TypeError, match=r"^DensePolynomial\(coeffs=\(1,\)\) is neither"):
        LinearRepresentation.of((W,), (((DensePolynomial((1,)),),),), (1,))


@given(st.lists(st.integers(-3, 3), max_size=6),
       st.sampled_from([IntPolynomial, WeightPolynomial, DensePolynomial]))
def test_trusted_constructor_matches_the_checked_one(coeffs, cls):
    got, want = cls._of_ints(tuple(coeffs)), cls(coeffs)
    assert type(got) is cls
    assert got.coeffs == want.coeffs


def test_reports_do_not_share_counterexamples():
    a, b = VerificationReport("A", "p"), VerificationReport("B", "p")
    a.record_failure((0, 1, 2))
    assert a.counterexamples == [(0, 1, 2)]
    assert b.counterexamples == [] and b.failures == 0


def test_report_survives_a_pickle_round_trip():
    # reports cross the --jobs process pool this way
    scan = check_identity("ID3", 3, "scan")
    sweep = check_identity("ID7", 4)
    assert sweep.counterexamples and scan.scanned
    for report in (scan, sweep):
        copy = pickle.loads(pickle.dumps(report))
        assert type(copy) is VerificationReport
        assert copy.to_json() == report.to_json()
        assert copy.summary_line() == report.summary_line()
        assert (copy.conjecture, copy.status, copy.blocking) == (
            report.conjecture, report.status, report.blocking)
