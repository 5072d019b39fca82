"""The prefix tables are shared and grow in place: `sequences.prefix`
returns the whole table, which may be longer than the prefix asked for.  Every
reader must slice what it asked for, so no output may depend on how far the
tables have grown."""
import json
import os
import subprocess
import sys

import sterntwist
from sterntwist import verify
from sterntwist.sequences import _PREFIXES, Kind, prefix
from sterntwist.series import psi_from_twisted, stern_series, twisted_series, window_series

GROWN = 1 << 17


def small_outputs() -> dict:
    """Outputs of the table readers at small sizes, as JSON values: every
    coefficient list keeps its length."""
    out = {}
    for order in (0, 1, 2, 37, 199):
        out[f"stern_series {order}"] = list(stern_series(order).coeffs)
        out[f"twisted_series {order}"] = list(twisted_series(order).coeffs)
        for name in verify.WINDOW_FORMS:
            out[f"quotient_series {name} {order}"] = list(
                verify.quotient_series(name, order).coeffs)
    for kind in Kind:
        for start, stop in ((0, 1), (5, 40), (100, 300)):
            out[f"window_series {kind.name} {start} {stop}"] = list(
                window_series(kind, start, stop).coeffs)
    for e in range(9):
        out[f"psi_from_twisted {e}"] = list(psi_from_twisted(e).coeffs)
    for check, size in ((verify.check_palindrome, 5), (verify.check_partial_sums, 8),
                        (verify.check_mod2, 500), (verify.check_det_m, 300),
                        (verify.check_divisibility, 300)):
        out[f"{check.__name__} {size}"] = check(size).to_json()
    return out


def test_outputs_do_not_depend_on_how_far_the_tables_have_grown():
    for kind in Kind:
        prefix(kind, GROWN)
    grown = json.loads(json.dumps(small_outputs()))
    assert all(len(table) >= GROWN for table in _PREFIXES.values())
    src = os.path.dirname(os.path.dirname(os.path.abspath(sterntwist.__file__)))
    code = ("import json, sys; sys.path[:0] = sys.argv[1:]; "
            "from test_prefix_contract import small_outputs; "
            "from sterntwist.sequences import _PREFIXES; "
            "print(json.dumps([small_outputs(), [len(t) for t in _PREFIXES.values()]]))")
    done = subprocess.run(
        [sys.executable, "-c", code, src, os.path.dirname(os.path.abspath(__file__))],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    fresh, lengths = json.loads(done.stdout)
    assert max(lengths) < GROWN  # the fresh tables hold only what was asked of them
    assert grown.keys() == fresh.keys()
    for key, values in fresh.items():
        assert grown[key] == values, key
