"""The conjecture window forms of `verify.WINDOW_FORMS` against point
lookups, and the CLI outputs that read them, with H, the other quotient by
the Stern series, pinned byte for byte."""
import hashlib

import pytest

import sterntwist.verify as verify
from sterntwist.cli import run
from sterntwist.sequences import Kind, stern, twisted
from sterntwist.series import TruncatedSeries, div_exact

#: Each form's window coefficient n at step 2^e, written out by hand.
POINTWISE = {
    "u": lambda step, n: twisted(3 * step + n),
    "A": lambda step, n: stern(2 * step + n) - stern(step + n),
    "B": lambda step, n: -(twisted(2 * step + n) + twisted(step + n)),
}

#: "<argv> -> first 16 hex digits of the sha256 of its stdout"; every run
#: exits 0 and writes nothing to stderr.
STDOUT_DIGESTS = {
    "series --name u --order 0 --format text": "4355a46b19d348dc",
    "series --name u --order 0 --format json": "27dde369f8e4fcae",
    "series --name u --order 1 --format text": "0b789b842bfc1d43",
    "series --name u --order 1 --format json": "0beb8d3989c94163",
    "series --name u --order 6 --format text": "63ab7fafa8cfeaf4",
    "series --name u --order 6 --format json": "b6d672542ad65719",
    "series --name u --order 7 --format text": "21430388aceb601c",
    "series --name u --order 7 --format json": "7e17b1b953f86e5b",
    "series --name u --order 12 --format text": "5e06a7db15de9bfd",
    "series --name u --order 12 --format json": "68d53ab9da830f0a",
    "series --name u --order 13 --format text": "475cbc6a2a2af4f1",
    "series --name u --order 13 --format json": "aa60a236f3054850",
    "series --name u --order 127 --format text": "7f15d2dcc4448ef1",
    "series --name u --order 127 --format json": "18b3d20387dd7bee",
    "series --name u --order 1024 --format text": "85f4f2ad7346e3a9",
    "series --name u --order 1024 --format json": "4e60f8d06d01f04a",
    "series --name u --order 4100 --format text": "ff6f61f9d552802c",
    "series --name u --order 4100 --format json": "7cf65be9691b297b",
    "series --name A --order 0 --format text": "4355a46b19d348dc",
    "series --name A --order 0 --format json": "75c80920ed83fb8f",
    "series --name A --order 1 --format text": "64227c7a1a2c70c8",
    "series --name A --order 1 --format json": "539efc93a2e4f1ec",
    "series --name A --order 6 --format text": "b94af69e6bb5f280",
    "series --name A --order 6 --format json": "1347969b0d9611be",
    "series --name A --order 7 --format text": "118ee0d00be0e947",
    "series --name A --order 7 --format json": "16bd8899816212fd",
    "series --name A --order 12 --format text": "0ddbf6e52fd84a76",
    "series --name A --order 12 --format json": "48b0bd4975b9e9d0",
    "series --name A --order 13 --format text": "4463d6af4875569f",
    "series --name A --order 13 --format json": "9e022117154af8a9",
    "series --name A --order 127 --format text": "60f51c4c26e65e9c",
    "series --name A --order 127 --format json": "319f37689a1f4597",
    "series --name A --order 1024 --format text": "6726ebd57d5f3476",
    "series --name A --order 1024 --format json": "a62fcdbdd1674676",
    "series --name A --order 4100 --format text": "b2109532020b30fa",
    "series --name A --order 4100 --format json": "005c4d9c7591c2c1",
    "series --name B --order 0 --format text": "4355a46b19d348dc",
    "series --name B --order 0 --format json": "a709513aa7b7f4bb",
    "series --name B --order 1 --format text": "64227c7a1a2c70c8",
    "series --name B --order 1 --format json": "4cddc2c012dc71e6",
    "series --name B --order 6 --format text": "840b6a338d754cf0",
    "series --name B --order 6 --format json": "8ac1f855bd670b3d",
    "series --name B --order 7 --format text": "86a3dda365ca221f",
    "series --name B --order 7 --format json": "af1afcf293c976d5",
    "series --name B --order 12 --format text": "a66ed0d712a934c0",
    "series --name B --order 12 --format json": "2b3e94724893ad8f",
    "series --name B --order 13 --format text": "6974adde94027528",
    "series --name B --order 13 --format json": "53e4f34e88da1a5c",
    "series --name B --order 127 --format text": "c6a090b4e8ce078a",
    "series --name B --order 127 --format json": "e0e4d7f2f5da8e7b",
    "series --name B --order 1024 --format text": "4856dfc80c129551",
    "series --name B --order 1024 --format json": "fa0f026a2ed7491b",
    "series --name B --order 4100 --format text": "30ed7e44ac5a1514",
    "series --name B --order 4100 --format json": "20813f651603ef6c",
    "series --name H --order 0 --format text": "4355a46b19d348dc",
    "series --name H --order 0 --format json": "409c62d2f9fb3146",
    "series --name H --order 1 --format text": "a697ef26533be2e3",
    "series --name H --order 1 --format json": "1870af4b767f7613",
    "series --name H --order 2 --format text": "338c41ec5a275937",
    "series --name H --order 2 --format json": "39972bdf5dd66534",
    "series --name H --order 127 --format text": "cb5542f078dabd35",
    "series --name H --order 127 --format json": "ab2f3ff15700d2e5",
    "series --name H --order 1024 --format text": "18b96b3a7b50624c",
    "series --name H --order 1024 --format json": "37c42b6828de02f2",
    "series --name H --order 4100 --format text": "6b98229157830588",
    "series --name H --order 4100 --format json": "3a35c1400a1a4e04",
    "conjecture --which gen --max-e 0 --order 12 --format table": "aca267fef6a83f90",
    "conjecture --which gen --max-e 0 --order 12 --format json": "4b31ba151ed1ce16",
    "conjecture --which gen --max-e 3 --order 24 --format table": "201cd39856f3f101",
    "conjecture --which gen --max-e 3 --order 24 --format json": "a57d5a18632e8dae",
    "conjecture --which gen --max-e 6 --order 1024 --format table": "3fa262d3002de24a",
    "conjecture --which gen --max-e 6 --order 1024 --format json": "cc6fd0e900a27455",
    "conjecture --which gen --max-e 6 --order 4096 --format table": "9831a3e9b08440fb",
    "conjecture --which gen --max-e 6 --order 4096 --format json": "10361f22d47639e4",
    "conjecture --which ab --max-e 0 --order 12 --format table": "90f7c2362525582e",
    "conjecture --which ab --max-e 0 --order 12 --format json": "bb1a1a249eb5bad0",
    "conjecture --which ab --max-e 3 --order 24 --format table": "6ca0f74d64322ae2",
    "conjecture --which ab --max-e 3 --order 24 --format json": "48c37de8471c20d4",
    "conjecture --which ab --max-e 6 --order 1024 --format table": "758ac058b243bc53",
    "conjecture --which ab --max-e 6 --order 1024 --format json": "5754726d2a39eaab",
    "conjecture --which ab --max-e 6 --order 4096 --format table": "05dfdd6b16e00b3b",
    "conjecture --which ab --max-e 6 --order 4096 --format json": "30350c4ed8870483",
}


@pytest.mark.parametrize("name", sorted(POINTWISE))
@pytest.mark.parametrize("e", range(7))
def test_windows_match_point_lookups(name, e):
    coeff = POINTWISE[name]
    order = 150
    got = verify._window(name, e, order)
    assert got.coeffs == tuple(coeff(1 << e, n) for n in range(order + 1))


def test_windows_scale_only_coefficients_other_than_one(monkeypatch):
    # the terms of u, A and B have c = +-1, so their windows take no scale pass
    scaled = []
    scale = TruncatedSeries.scale
    monkeypatch.setattr(TruncatedSeries, "scale", lambda self, c: scaled.append(c) or scale(self, c))
    for name in ("u", "A", "B"):
        verify._window(name, 3, 100)
    assert scaled == []
    # any other c still scales, and its sign picks the addition or subtraction
    terms = ((-3, Kind.TWISTED, 2), (1, Kind.STERN, 1), (2, Kind.STERN, 3), (-1, Kind.TWISTED, 1))
    monkeypatch.setitem(verify.WINDOW_FORMS, "X", (terms, False, (1,)))
    got = verify._window("X", 2, 50)
    assert got.coeffs == tuple(-3 * twisted(8 + n) + stern(4 + n) + 2 * stern(12 + n)
                               - twisted(4 + n) for n in range(51))
    assert scaled == [3, 2]


@pytest.mark.parametrize("order", [0, 1, 6, 7, 12, 100])
def test_quotients_divide_the_point_lookup_windows(order):
    den = TruncatedSeries.from_coeffs([stern(n) for n in range(order + 3)])
    want = {
        name: div_exact(TruncatedSeries.from_coeffs([coeff(1, n) for n in range(order + 2)]), den)
        for name, coeff in POINTWISE.items()
    }
    for name in POINTWISE:
        assert verify.quotient_series(name, order).coeffs == want[name].coeffs
    assert verify.gen_quotient_series(order).coeffs == want["u"].coeffs
    a, b = verify.quotient_series("A", order), verify.quotient_series("B", order)
    assert (a.coeffs, b.coeffs) == (want["A"].coeffs, want["B"].coeffs)


@pytest.mark.parametrize("argv", sorted(STDOUT_DIGESTS))
def test_series_and_conjecture_stdout_is_pinned(capsys, argv):
    code = run(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest()[:16] == STDOUT_DIGESTS[argv]
