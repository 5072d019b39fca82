import pytest

from sterntwist.series import TruncatedSeries

# First terms of the two sequences, used as ground truth across the suite.
STERN_FIRST_TERMS = [
    0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4,
    1, 5, 4, 7, 3, 8, 5, 7, 2, 7, 5, 8, 3,
]
TWISTED_FIRST_TERMS = [
    0, 1, -1, 0, 1, 1, 0, -1, -1, -2, -1, -1, 0, 1,
    1, 2, 1, 3, 2, 3, 1, 2, 1, 1, 0, -1,
]


@pytest.fixture(scope="session")
def stern_first_terms():
    return list(STERN_FIRST_TERMS)


@pytest.fixture(scope="session")
def twisted_first_terms():
    return list(TWISTED_FIRST_TERMS)


def exact_product(a, b) -> tuple:
    """Coefficients of the polynomial product a*b, zeros included: both
    operands padded to the product's full order and multiplied through the
    public `TruncatedSeries.__mul__`."""
    n = len(a) + len(b) - 2
    return (TruncatedSeries.from_coeffs(a, n) * TruncatedSeries.from_coeffs(b, n)).coeffs
