"""The package's value classes: immutability, equality, hashing, pickling
and copying."""
import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sterntwist.ratwords import LinearRepresentation, admissible_representation
from sterntwist.regularity import AffineSystem, KernelProbeReport
from sterntwist.sequences import W, WeightPolynomial
from sterntwist.series import TruncatedSeries
from sterntwist.verify import REGISTRY, VerificationReport, check_identity

FROZEN = {
    "WeightPolynomial": (lambda: WeightPolynomial((1, 2)), "coeffs"),
    "TruncatedSeries": (lambda: TruncatedSeries.from_coeffs((1, 2)), "coeffs"),
    "LinearRepresentation": (admissible_representation, "init"),
    "AffineSystem": (
        lambda: AffineSystem.of(2, [TruncatedSeries.one(4)], [[(0, 1)]], [1]), "k"),
    "KernelProbeReport": (
        lambda: KernelProbeReport("t", 2, 64, 2, (1, 2, 2), (1, 2, 2), True), "stable"),
    "IdentityRecord": (lambda: REGISTRY["STID-S"], "e_min"),
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
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is type(obj)
        assert getattr(twin, field) == getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(twin, field, getattr(obj, field))


def test_polynomial_and_series_reprs():
    # a message may show them (ratwords names a bad entry by its repr)
    assert repr(WeightPolynomial((1, 2, 0))) == "WeightPolynomial(coeffs=(1, 2))"
    assert str(WeightPolynomial((1, 2, 0))) == "1 + 2*w"
    assert repr(TruncatedSeries.from_coeffs((1, 0))) == "TruncatedSeries(coeffs=(1, 0))"
    with pytest.raises(TypeError, match=r"^TruncatedSeries\(coeffs=\(1,\)\) is neither"):
        LinearRepresentation.of((W,), (((TruncatedSeries((1,)),),),), (1,))


@given(st.lists(st.integers(-3, 3), max_size=6))
def test_trusted_constructor_matches_the_checked_one(coeffs):
    got, want = WeightPolynomial._of_ints(tuple(coeffs)), WeightPolynomial(coeffs)
    assert type(got) is WeightPolynomial
    assert got.coeffs == want.coeffs


def test_reports_do_not_share_counterexamples():
    a, b = VerificationReport("A", "p"), VerificationReport("B", "p")
    a.record_failure((0, 1, 2))
    assert a.counterexamples == [(0, 1, 2)]
    assert b.counterexamples == [] and b.failures == 0


def test_report_survives_a_pickle_round_trip():
    # pickling is library protocol: a caller may store or send its reports
    scan = check_identity("ID3", 3, "scan")
    sweep = check_identity("ID7", 4)
    assert sweep.counterexamples and scan.scanned
    for report in (scan, sweep):
        twin = pickle.loads(pickle.dumps(report))
        assert type(twin) is VerificationReport
        assert twin.to_json() == report.to_json()
        assert twin.summary_line() == report.summary_line()
        assert (twin.conjecture, twin.status, twin.blocking) == (
            report.conjecture, report.status, report.blocking)
