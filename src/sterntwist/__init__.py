"""Exact arithmetic and a verification harness for the Stern diatomic
sequence, its sign-twisted companion, and the series identities that tie
the two together.

Each exported name is imported from its module on first access (PEP 562),
so `import sterntwist` alone runs no module and `sterntwist --help` stays
cheap; `from sterntwist import stern` imports `sequences` there and then.
"""

import importlib

#: Exported name -> the module that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("sequences", "WeightPolynomial count_admissible enumerate_admissible mod2 stern "
                      "twisted v2 weighted_count_direct weighted_even weighted_stern "
                      "weighted_stern_alt"),
        ("series", "TruncatedSeries carlitz_series div_exact "
                   "infinite_product log_derivative psi section stern_series "
                   "substitute_power twisted_series twisted_series_expansion"),
        ("regularity", "AffineSystem KernelProbeReport binary_partition_series c_series "
                       "degree_reduce exact_rank h_series kernel_rank p_product_logderiv "
                       "solve_affine_system"),
        ("ratwords", "LinearRepresentation admissible_representation count_in_expansion "
                     "subfactor_transform subsequence_transform word_indicator"),
        ("verify", "IdentityRecord REGISTRY VerificationReport check_conjecture_ab "
                   "check_conjecture_gen check_det_families check_det_m check_divisibility "
                   "check_identity check_mod2 check_palindrome check_partial_sums det_m "
                   "run_suite"),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    """An exported name, imported from its module on first access."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
