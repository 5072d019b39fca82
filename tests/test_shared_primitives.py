"""The two shared slice primitives hide no fault.

`sequences._times_sparse` is the package's one product by a sparse factor,
and `series._over_one_minus` its one division by 1 - z^L.  Each serves
routes that are played against each other, so one wrong coefficient out of
either must still show as a disagreement, and the routes that check each
other must not share the primitive that would hide it.
"""
import pytest

import sterntwist.regularity as regularity
import sterntwist.sequences as sequences
import sterntwist.series as series
from sterntwist.ratwords import (
    admissible_representation,
    count_in_expansion,
    subsequence_transform,
)
from sterntwist.regularity import AffineSystem, h_series, p_product_logderiv, solve_affine_system
from sterntwist.sequences import weighted_stern, weighted_stern_alt
from sterntwist.series import DensePolynomial, InternalCheckError, TruncatedSeries, psi
from sterntwist.verify import check_conjecture_gen


def _corrupt(monkeypatch, name, modules, returns):
    """Rebind `name` in each module to one that adds 1 to coefficient 2 of
    the real result: the returned list, or else the list it divides in
    place."""
    real = getattr(modules[0], name)

    def faulty(cs, *args):
        out = real(cs, *args)
        target = out if returns else cs
        if len(target) > 2:
            target[2] += 1
        return out

    for module in modules:
        monkeypatch.setattr(module, name, faulty)


@pytest.fixture
def faulty_product(monkeypatch):
    _corrupt(monkeypatch, "_times_sparse", (sequences, series), returns=True)


@pytest.fixture
def faulty_division(monkeypatch):
    _corrupt(monkeypatch, "_over_one_minus", (series, regularity), returns=False)


@pytest.mark.usefixtures("faulty_product")
def test_a_wrong_slice_product_makes_every_cross_check_fail():
    # psi's table window and the product's log derivative take no slice
    # product; the other side of each check does
    with pytest.raises(InternalCheckError):
        psi(4)
    with pytest.raises(InternalCheckError):
        p_product_logderiv(DensePolynomial((1, 1, 1)), 2, 128)
    # the digit fold adds and never multiplies; the mod-4 recursion and the
    # weighted automaton multiply w-polynomials
    automaton = subsequence_transform(admissible_representation(weighted=True))
    assert any(weighted_stern_alt(n) != weighted_stern(n) for n in range(1 << 12))
    assert any(count_in_expansion(automaton, n, 2) != weighted_stern(n) for n in range(1 << 12))


@pytest.mark.usefixtures("faulty_division")
def test_a_wrong_division_by_one_minus_z_l_makes_every_cross_check_fail():
    # the fixed point of H and the sweeps' Mahler multiply-back divide by
    # nothing, so they disagree with the quotients the helper gave
    with pytest.raises(InternalCheckError):
        h_series(64)
    assert not check_conjecture_gen(3, 256).ok


def test_the_routes_that_check_each_other_share_no_primitive(monkeypatch):
    def refused(*args):
        raise AssertionError("a checked route reached the primitive of its check")

    monkeypatch.setattr(series, "_times_sparse", refused)
    series.div_stern(TruncatedSeries.from_coeffs(range(300)))
    monkeypatch.undo()
    for module in (series, regularity):
        monkeypatch.setattr(module, "_over_one_minus", refused)
    ones = TruncatedSeries.from_coeffs([1] * 301)
    system = AffineSystem.of(2, [ones, ones], [[(0, 2), (1, -1)], [(0,), (0, 0, 3)]], [2, 1])
    solve_affine_system(system, 300)
