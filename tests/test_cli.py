import ast
import io
import json
import os
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sterntwist
import sterntwist.cli as cli
import sterntwist.regularity as regularity
import sterntwist.series as series
import sterntwist.verify as verify
from sterntwist.cli import MAX_ORDER, BFileFormatError, parse_bfile, run
from sterntwist.regularity import binary_partition_series, h_series
from sterntwist.sequences import MAX_TABLE, _PREFIXES, stern
from sterntwist.verify import REGISTRY, SUITES


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_seq_text_matches_first_terms(capsys, stern_first_terms, twisted_first_terms):
    code, out = invoke(capsys, ["seq", "--kind", "s", "--from", "0", "--to", "28"])
    assert code == 0
    assert [int(line.split()[1]) for line in out.strip().splitlines()] == stern_first_terms
    code, out = invoke(capsys, ["seq", "--kind", "t", "--from", "0", "--to", "25"])
    assert code == 0
    assert [int(line.split()[1]) for line in out.strip().splitlines()] == twisted_first_terms


def test_seq_formats(capsys):
    code, out = invoke(capsys, ["seq", "--kind", "s", "--from", "2", "--to", "4", "--format", "csv"])
    assert code == 0 and out == "2,1\n3,2\n4,1\n"
    code, out = invoke(capsys, ["seq", "--kind", "s", "--from", "2", "--to", "4", "--format", "json"])
    payload = json.loads(out)
    assert payload == {"kind": "s", "from": 2, "to": 4, "values": ["1", "2", "1"]}
    code, out = invoke(capsys, ["seq", "--kind", "S", "--from", "11", "--to", "11"])
    assert out.strip() == "11 3 + 2*w"
    code, out = invoke(capsys, ["seq", "--kind", "Se", "--from", "6", "--to", "6", "--format", "json"])
    assert json.loads(out)["values"] == [["1", "2"]]


def test_seq_weighted_far_past_the_recursion_limit(capsys):
    n = 1 << 1500
    code, out = invoke(capsys, ["seq", "--kind", "S", "--from", str(n + 1), "--to", str(n + 1)])
    assert code == 0 and out == f"{n + 1} 2 + 1499*w\n"
    code, out = invoke(capsys, ["seq", "--kind", "Se", "--from", str(n), "--to", str(n)])
    assert code == 0 and out == f"{n} 1 + 1500*w\n"


def test_seq_bad_range(capsys):
    code, _ = invoke(capsys, ["seq", "--kind", "s", "--from", "5", "--to", "1"])
    assert code == 2


def test_series_output(capsys):
    code, out = invoke(capsys, ["series", "--name", "stern", "--order", "5"])
    assert code == 0
    assert out.strip() == "0 + 1*z + 1*z^2 + 2*z^3 + 1*z^4 + 3*z^5"
    code, out = invoke(capsys, ["series", "--name", "u", "--order", "12", "--format", "json"])
    payload = json.loads(out)
    assert payload["coefficients"] == [
        "1", "0", "-2", "0", "0", "-2", "4", "2", "-6", "4", "2", "-6", "8",
    ]
    code, out = invoke(capsys, ["series", "--name", "A", "--order", "6", "--format", "json"])
    assert json.loads(out)["coefficients"] == ["1", "-2", "2", "0", "-4", "4", "2"]
    code, out = invoke(capsys, ["series", "--name", "B", "--order", "7", "--format", "json"])
    assert json.loads(out)["coefficients"] == ["1", "-2", "-2", "4", "0", "0", "6", "-6"]


def count_stern_divisions(monkeypatch):
    """The orders of every `div_stern` call the window forms make; any
    Karp-Markstein division (`_quotient`) fails the test."""
    calls = []
    div_stern = verify.div_stern

    def counted(num):
        calls.append(num.order)
        return div_stern(num)

    def refused(*args):
        raise AssertionError("a quotient by the Stern series took Karp-Markstein division")

    monkeypatch.setattr(verify, "div_stern", counted)
    monkeypatch.setattr(series, "_quotient", refused)
    return calls


@pytest.mark.parametrize("name", ["u", "A", "B"])
def test_quotient_series_divide_through_the_product_form(monkeypatch, capsys, name):
    calls = count_stern_divisions(monkeypatch)
    code, out = invoke(capsys, ["series", "--name", name, "--order", "300"])
    assert code == 0 and out
    assert calls == [301]


def test_conjecture_ab_divides_through_the_product_form(monkeypatch, capsys):
    calls = count_stern_divisions(monkeypatch)
    code, out = invoke(capsys, ["conjecture", "--which", "ab", "--max-e", "3", "--order", "300"])
    assert code == 0 and "CONJ-AB" in out
    # one division each for A and B
    assert calls == [301, 301]


@pytest.mark.parametrize("which", ["gen", "ab"])
def test_conjecture_multiplies_back_a_wrong_division(monkeypatch, capsys, which):
    # one wrong coefficient of each quotient, past the leading ones: the
    # e = 0 window, Q*s through the Mahler equation, disagrees from z^41 on
    div_stern = verify.div_stern

    def wrong(num):
        q = div_stern(num).coeffs
        return series.TruncatedSeries(q[:40] + (q[40] + 1,) + q[41:])

    monkeypatch.setattr(verify, "div_stern", wrong)
    code, out = invoke(capsys, ["conjecture", "--which", which, "--max-e", "3",
                                "--order", "200", "--format", "json"])
    payload = json.loads(out)
    # conjecture evidence never flips the exit code
    assert code == 0 and payload["failures"] > 0
    e, n, lhs, rhs = payload["counterexamples"][0]
    assert (e, n, rhs - lhs) == (0, 41, 1)


def test_series_psi_needs_e(capsys):
    code, _ = invoke(capsys, ["series", "--name", "psi"])
    assert code == 2
    code, out = invoke(capsys, ["series", "--name", "psi", "--e", "1", "--format", "json"])
    assert code == 0
    assert json.loads(out)["coefficients"] == ["0", "1", "1", "2", "1", "1"]


@pytest.mark.parametrize("argv, message", [
    (["--name", "psi", "--e", "2", "--order", "5"],
     "--order does not apply to psi, whose --e sets its degree"),
    (["--name", "psi", "--order", "5"], "--order does not apply to psi, whose --e sets its degree"),
    (["--name", "stern", "--e", "3"], "--e applies only to psi, not to stern"),
    (["--name", "u", "--order", "8", "--e", "0"], "--e applies only to psi, not to u"),
])
def test_series_refuses_a_flag_its_name_does_not_take(capsys, argv, message):
    code = run(["series", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"series: {message}\n"


def _bfile(path, oeis_id):
    """A short b-file of `oeis_id` with correct values."""
    if oeis_id == "A002487":
        values = [stern(n) for n in range(33)]
    elif oeis_id == "A163659":
        values = h_series(32).coeffs
    else:
        values = binary_partition_series(64).coeffs[::2]
    path.write_text("".join(f"{n} {v}\n" for n, v in enumerate(values)))
    return str(path)


def test_no_command_reaches_the_product_kernel(capsys, monkeypatch, tmp_path):
    # sparse factors multiply by slices, the Stern series is divided and
    # multiplied through its product and Mahler forms, and H and C take
    # periodic inhomogeneous terms, so no subcommand makes a Kronecker
    # product or calls div_exact
    argvs = [["series", "--name", name, "--order", "300"] for name in
             ("stern", "twisted", "carlitz", "H", "C", "u", "A", "B", "binpart")]
    argvs += [["series", "--name", "psi", "--e", "10"]]
    argvs += [["kernel", "--target", target, "--depth", "3", "--order", "256"]
              for target in ("stern", "H", "C", "binpart")]
    argvs += [["conjecture", "--which", which, "--max-e", "3", "--order", "300"]
              for which in ("gen", "ab")]
    argvs += [["verify", "--max-e", "6", "--max-n", "2048"],
              ["scan", "--identity", "ID3", "--e", "4"],
              ["seq", "--kind", "t", "--from", "0", "--to", "40"],
              ["count", "--pattern", "admissible", "--n", "12345", "--weighted"]]
    argvs += [["oeis-check", "--id", oeis_id, "--bfile", _bfile(tmp_path / oeis_id, oeis_id)]
              for oeis_id in ("A002487", "A163659", "A000123")]
    calls = []
    for module, name in [(series, "_mul_coeffs"), (series, "_quotient"),
                         (series, "div_exact"), (regularity, "div_exact")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for argv in argvs:
        code, out = invoke(capsys, argv)
        assert code == 0 and out, argv
        assert calls == [], argv


def test_series_default_order(capsys):
    code, out = invoke(capsys, ["series", "--name", "stern", "--format", "json"])
    assert json.loads(out)["order"] == 1024
    code, out = invoke(capsys, ["series", "--name", "stern", "--order", "3", "--format", "json"])
    assert json.loads(out)["order"] == 3


@pytest.mark.parametrize("value", ["7", "abc", "-3", ""])
@pytest.mark.parametrize("argv", [
    ["series", "--name", "stern"],
    ["series", "--name", "psi", "--e", "2"],
    ["verify", "--suite", "mod2"],
    ["kernel", "--target", "stern"],
    ["conjecture", "--which", "gen", "--max-e", "2"],
])
def test_the_environment_changes_no_output(capsys, monkeypatch, argv, value):
    # a run reads its argv alone: no value of STERNTWIST_ORDER changes the
    # exit code or stdout
    monkeypatch.delenv("STERNTWIST_ORDER", raising=False)
    want = invoke(capsys, argv)
    monkeypatch.setenv("STERNTWIST_ORDER", value)
    assert invoke(capsys, argv) == want


def test_verify_exit_codes_and_formats(capsys):
    code, out = invoke(capsys, ["verify", "--suite", "matrices", "--max-e", "6", "--max-n", "512"])
    assert code == 0
    assert "DET-M" in out and "DET-FAMILIES" in out
    code, out = invoke(
        capsys,
        ["verify", "--suite", "identities", "--max-e", "5", "--format", "json"],
    )
    assert code == 0  # ID7 fails but is a flagged typo
    lines = [json.loads(line) for line in out.strip().splitlines()]
    by_id = {entry["id"]: entry for entry in lines}
    assert by_id["ID7"]["failures"] > 0
    assert by_id["ID7"]["status"] == "suspected-typo"
    assert by_id["STID-S"]["failures"] == 0
    code, _ = invoke(capsys, ["verify", "--suite", "mod2", "--max-n", "512"])
    assert code == 0
    code, _ = invoke(capsys, ["verify", "--suite", "palindrome", "--max-e", "6"])
    assert code == 0


def test_verify_deterministic_output(capsys):
    args = ["verify", "--suite", "identities", "--max-e", "4", "--format", "json"]
    _, first = invoke(capsys, args)
    _, second = invoke(capsys, args)
    assert first == second


@pytest.mark.parametrize("fmt, shown", [("table", "first-counterexample=(1, 1, 2, -4)"),
                                        ("json", '"counterexamples": [[1, 1, 2, -4], ')])
def test_verify_shows_counterexamples_and_writes_no_stderr(capsys, fmt, shown):
    code = run(["verify", "--suite", "identities", "--max-e", "4", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0
    assert shown in captured.out
    assert captured.err == ""


def test_scan(capsys):
    code, out = invoke(capsys, ["scan", "--identity", "ID3", "--e", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["scanned_range"]["4"] == {"lo": 0, "hi": 16, "open_right": False}
    code, _ = invoke(capsys, ["scan", "--identity", "NOPE", "--e", "2"])
    assert code == 2


def test_kernel(capsys):
    code, out = invoke(
        capsys,
        ["kernel", "--target", "stern", "--k", "2", "--depth", "4", "--order", "256",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == [1, 2, 2, 2, 2]
    assert payload["stable"] is True
    code, out = invoke(
        capsys, ["kernel", "--target", "C", "--depth", "3", "--order", "128"]
    )
    assert code == 0 and "ranks by depth" in out
    code, _ = invoke(capsys, ["kernel", "--target", "stern", "--depth", "9", "--order", "16"])
    assert code == 2


def test_kernel_refuses_a_deep_probe_before_forming_k_to_the_depth(capsys):
    # 3^7 > 1024, so 6 is the deepest probe at the default order; neither
    # 3^1000000 (past the int-to-str digit limit) nor 3^100000000 (minutes
    # to compute) is ever formed
    for depth in ("1000000", "100000000"):
        code = run(["kernel", "--target", "stern", "--k", "3", "--depth", depth])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "kernel: depth must be at most 6, since order 1024 < 3^7\n"


HALF_ORDER_REFUSAL = ("order must be at least 2, "
                      "so that the half-order probe has a prefix to compare")


@pytest.mark.parametrize("target", ["stern", "H", "C", "binpart"])
@pytest.mark.parametrize("argv, message", [
    (["--order", "0"], HALF_ORDER_REFUSAL),
    (["--order", "1"], HALF_ORDER_REFUSAL),
    (["--depth", "100", "--order", "65536"], "depth must be at most 16, since order 65536 < 2^17"),
    (["--k", "1"], "base k must be at least 2"),
    (["--depth", "-1"], "depth must be a natural number"),
])
def test_kernel_refuses_its_arguments_before_building_the_series(capsys, monkeypatch, target,
                                                                 argv, message):
    def unbuilt(*args):
        raise AssertionError("the target series was built")

    monkeypatch.setattr(cli, "_series_by_name", unbuilt)
    code = run(["kernel", "--target", target, *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"kernel: {message}\n"


def test_conjecture(capsys):
    code, out = invoke(
        capsys, ["conjecture", "--which", "gen", "--max-e", "3", "--order", "128",
                 "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["conjecture"] is True and payload["failures"] == 0
    code, _ = invoke(capsys, ["conjecture", "--which", "ab", "--max-e", "2", "--order", "64"])
    assert code == 0
    code, _ = invoke(capsys, ["conjecture", "--which", "gen", "--max-e", "9", "--order", "64"])
    assert code == 2
    for which in ("gen", "ab"):
        code = run(["conjecture", "--which", which, "--max-e", "-1"])
        assert code == 2
        assert capsys.readouterr().err == "conjecture: e_max must be a natural number\n"


@pytest.mark.parametrize("which, window, least", [("gen", 3, 12), ("ab", 2, 7)])
@pytest.mark.parametrize("e_max", [0, 1])
def test_conjecture_below_the_checked_prefix_names_the_least_order(capsys, which, window, least,
                                                                   e_max):
    # orders below the window bound window*2^e_max name that bound
    for order in range(window << e_max):
        code = run(["conjecture", "--which", which, "--max-e", str(e_max), "--order", str(order)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (f"conjecture: order must be at least {window << e_max} "
                                f"({window}*2^e_max)\n")
    # orders from the window bound window*2^e_max on still miss the leading
    # quotient coefficients the sweep compares, up to `least`
    for order in range(window << e_max, least):
        code = run(["conjecture", "--which", which, "--max-e", str(e_max), "--order", str(order)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"conjecture: order must be at least {least} ")
    code, out = invoke(capsys, ["conjecture", "--which", which, "--max-e", str(e_max),
                                "--order", str(least)])
    assert code == 0 and out


@pytest.mark.parametrize("which", ["gen", "ab"])
def test_conjecture_refuses_a_max_e_no_order_below_the_cap_can_sweep(capsys, which):
    # 19 is the largest e_max whose least order, reach*2^e_max, lies below
    # MAX_ORDER, for both sweeps; a larger one is refused before any table
    # grows, whatever the order
    reach = cli.CONJECTURE_REACH[which]
    assert reach << 19 < MAX_ORDER <= reach << 20
    lengths = {kind: len(table) for kind, table in _PREFIXES.items()}
    for max_e, order in [(20, MAX_ORDER - 1), (20, None), (1 << 70, 5)]:
        argv = ["conjecture", "--which", which, "--max-e", str(max_e)]
        code = run(argv + ([] if order is None else ["--order", str(order)]))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (f"conjecture: --max-e must be at most 19: a sweep to e needs "
                                f"an order of at least {reach}*2^e, and orders lie below "
                                f"{MAX_ORDER}\n")
    code = run(["conjecture", "--which", which, "--max-e", "19", "--order", "9"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"conjecture: order must be at least {reach << 19} ({reach}*2^e_max)\n"
    assert {kind: len(table) for kind, table in _PREFIXES.items()} == lengths


def test_conjecture_reach_matches_the_window_forms():
    # cli states each sweep's reach so that it refuses before verify runs
    for which, names in [("gen", ("u",)), ("ab", ("A", "B"))]:
        offsets = [a for name in names for _, _, a in verify.WINDOW_FORMS[name][0]]
        assert cli.CONJECTURE_REACH[which] == max(offsets)


def test_count(capsys):
    code, out = invoke(capsys, ["count", "--pattern", "admissible", "--n", "11"])
    assert code == 0 and out.strip() == "5"
    code, out = invoke(capsys, ["count", "--pattern", "admissible", "--n", "11", "--weighted"])
    assert out.strip() == "3 + 2*w"
    code, out = invoke(capsys, ["count", "--pattern", "ones", "--n", "21"])
    assert out.strip() == "3"
    code, out = invoke(capsys, ["count", "--pattern", "factor11", "--n", "255"])
    assert out.strip() == "7"
    code, _ = invoke(capsys, ["count", "--pattern", "ones", "--n", "3", "--weighted"])
    assert code == 2
    code = run(["count", "--pattern", "ones", "--n", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "count: expansions encode natural numbers\n"


def test_parse_bfile():
    assert parse_bfile("0 0\n1 1\n2 1\n") == ((0, 0), (1, 1), (2, 1))
    assert parse_bfile("# comment\n5 3\n") == ((5, 3),)
    assert parse_bfile("  3   7  \n\n") == ((3, 7),)
    with pytest.raises(BFileFormatError):
        parse_bfile("1 2 3\n")
    with pytest.raises(BFileFormatError):
        parse_bfile("abc def\n")
    with pytest.raises(BFileFormatError):
        parse_bfile("2 1\n1 1\n")
    assert parse_bfile("") == ()


def test_oeis_check_stern(capsys, tmp_path, stern_first_terms):
    path = tmp_path / "b002487.txt"
    lines = [f"{n} {v}" for n, v in enumerate(stern_first_terms)]
    path.write_text("# header\n" + "\n".join(lines) + "\n")
    code, out = invoke(capsys, ["oeis-check", "--id", "A002487", "--bfile", str(path)])
    assert code == 0 and "29 entries match" in out
    path.write_text("\n".join(lines) + "\n29 999\n")
    code, out = invoke(capsys, ["oeis-check", "--id", "A002487", "--bfile", str(path)])
    assert code == 1 and "mismatch" in out


def test_oeis_check_binary_partitions(capsys, tmp_path):
    # independent oracle: coin-style dynamic program for partitions into
    # powers of two, emitted at doubled index like the catalogued sequence
    dp = [1] + [0] * 64
    power = 1
    while power <= 64:
        for n in range(power, 65):
            dp[n] += dp[n - power]
        power *= 2
    path = tmp_path / "b000123.txt"
    path.write_text("".join(f"{n} {dp[2 * n]}\n" for n in range(33)))
    code, out = invoke(capsys, ["oeis-check", "--id", "A000123", "--bfile", str(path)])
    assert code == 0, out


def test_oeis_check_h_series(capsys, tmp_path):
    coeffs = h_series(64).coeffs
    path = tmp_path / "b163659.txt"
    path.write_text("".join(f"{n} {coeffs[n]}\n" for n in range(65)))
    code, out = invoke(capsys, ["oeis-check", "--id", "A163659", "--bfile", str(path)])
    assert code == 0, out


def test_oeis_check_errors(capsys, tmp_path):
    code, _ = invoke(capsys, ["oeis-check", "--id", "A002487", "--bfile", str(tmp_path / "nope")])
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n1 2\n")
    code, _ = invoke(capsys, ["oeis-check", "--id", "A002487", "--bfile", str(bad)])
    assert code == 2
    empty = tmp_path / "far.txt"
    empty.write_text("999999999 1\n")
    code, _ = invoke(capsys, ["oeis-check", "--id", "A002487", "--bfile", str(empty), "--limit", "10"])
    assert code == 2


@pytest.mark.parametrize("oeis_id, largest", [
    ("A163659", MAX_ORDER - 1),
    ("A000123", (MAX_ORDER - 1) // 2),
])
def test_oeis_check_refuses_an_index_past_the_order_cap(capsys, monkeypatch, tmp_path,
                                                         oeis_id, largest):
    def unbuilt(order):
        raise AssertionError("the reference series was built")

    monkeypatch.setattr(regularity, "h_series", unbuilt)
    monkeypatch.setattr(regularity, "binary_partition_series", unbuilt)
    path = tmp_path / "far.txt"
    path.write_text(f"0 1\n{largest + 1} 5\n")
    code = run(["oeis-check", "--id", oeis_id, "--bfile", str(path),
                "--limit", str(largest + 1)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"oeis-check: index {largest + 1} is past {largest}, "
                            f"the largest index {oeis_id} is checked at\n")


@pytest.mark.parametrize("oeis_id, stride", [("A163659", 1), ("A000123", 2)])
def test_oeis_check_runs_up_to_the_order_cap(capsys, monkeypatch, tmp_path, oeis_id, stride):
    # the cap lowered to 64, so that the largest index accepted is cheap
    monkeypatch.setattr(cli, "MAX_ORDER", 64)
    largest = 63 // stride
    build = regularity.h_series if stride == 1 else regularity.binary_partition_series
    coeffs = build(stride * (largest + 1)).coeffs
    path = tmp_path / "edge.txt"
    path.write_text("".join(f"{n} {coeffs[stride * n]}\n" for n in range(largest + 1)))
    code, out = invoke(capsys, ["oeis-check", "--id", oeis_id, "--bfile", str(path)])
    assert code == 0 and f"{largest + 1} entries match" in out
    with path.open("a") as handle:
        handle.write(f"{largest + 1} {coeffs[stride * (largest + 1)]}\n")
    code = run(["oeis-check", "--id", oeis_id, "--bfile", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"past {largest}," in captured.err


def test_usage_errors(capsys):
    assert run(["nonsense"]) == 2
    assert run([]) == 2
    assert run(["seq", "--kind", "x", "--from", "0", "--to", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--max-e", "-1"],
    ["verify", "--max-n", "-5"],
    ["verify", "--max-n", "1"],
    ["verify", "--jobs", "2"],  # no such option: argparse refuses it
    ["verify", "--jobs", "-3"],
    ["verify", "--jobs", "0"],
    ["scan", "--identity", "ID3", "--e", "-1"],
    ["series", "--name", "psi", "--e", "30"],
    ["kernel", "--target", "stern", "--depth", "2", "--order", "400000000"],
    ["series", "--name", "binpart", "--order", str(MAX_TABLE)],
    ["kernel", "--target", "H", "--order", str(MAX_TABLE)],
    ["conjecture", "--which", "gen", "--order", str(MAX_TABLE)],
    ["series", "--name", "u", "--order", str(MAX_TABLE - 1)],
    ["conjecture", "--which", "ab", "--order", str(MAX_TABLE - 1)],
    ["seq", "--kind", "s", "--from", "1", "--to", str(MAX_TABLE + 1)],
])
def test_bad_argv_exits_2(capsys, argv):
    # each is rejected before any sweep runs or either prefix table grows
    before = [len(table) for table in _PREFIXES.values()]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    if "--jobs" in argv:
        unknown = " ".join(argv[1:])
        assert captured.err.endswith(f"sterntwist: error: unrecognized arguments: {unknown}\n")
    else:
        assert captured.err.startswith(f"{argv[0]}: ")
    assert "Traceback" not in captured.err
    assert [len(table) for table in _PREFIXES.values()] == before


def test_psi_past_its_largest_e_names_it(capsys):
    # the window of psi_e reads t up to 6*2^e, so 18 is the largest e whose
    # reads fit in the tables
    assert series.MAX_PSI_E == 18
    assert (6 << series.MAX_PSI_E) + 1 <= MAX_TABLE < (6 << (series.MAX_PSI_E + 1)) + 1
    before = [len(table) for table in _PREFIXES.values()]
    for e in (series.MAX_PSI_E + 1, 40):
        code = run(["series", "--name", "psi", "--e", str(e)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("series: e must be at most 18 ")
    assert [len(table) for table in _PREFIXES.values()] == before


def test_caps_sit_at_their_bounds(capsys, monkeypatch):
    # a range of MAX_TABLE values still runs, and so does every
    # order-taking command at MAX_ORDER - 1: its widest read stays inside
    # the tables' cap
    import sterntwist.cli as cli
    import sterntwist.sequences as sequences

    monkeypatch.setattr(cli, "MAX_TABLE", 8)
    code, out = invoke(capsys, ["seq", "--kind", "s", "--from", "3", "--to", "10"])
    assert (code, len(out.splitlines())) == (0, 8)
    assert run(["seq", "--kind", "s", "--from", "3", "--to", "11"]) == 2
    margin = MAX_TABLE - cli.MAX_ORDER
    monkeypatch.setattr(sequences, "MAX_TABLE", 64 + margin)
    monkeypatch.setattr(cli, "MAX_ORDER", 64)
    argvs = [["series", "--name", name] for name in
             ("stern", "twisted", "carlitz", "H", "C", "u", "A", "B", "binpart")]
    argvs += [["kernel", "--target", target, "--depth", "2"]
              for target in ("stern", "H", "C", "binpart")]
    argvs += [["conjecture", "--which", which, "--max-e", "2"] for which in ("gen", "ab")]
    for argv in argvs:
        code, out = invoke(capsys, argv + ["--order", "63"])
        assert code == 0 and out, argv
        assert run(argv + ["--order", "64"]) == 2
        assert capsys.readouterr().err == f"{argv[0]}: order must be below 64\n"


def test_identity_below_its_e_min(capsys):
    code = run(["scan", "--identity", "ID5", "--e", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "scan: ID5 is stated for e >= 2\n"
    # the sweep leaves out the identities stated for larger e only
    code, out = invoke(capsys, ["verify", "--suite", "identities", "--max-e", "0"])
    assert code == 0
    listed = [line.split()[0] for line in out.splitlines()]
    assert "ID4" not in listed and "ID5" not in listed
    assert len(listed) == 18


# ---------------------------------------------------------------------------
# The exit-code contract over generated argv: 0 ok, 1 only with a FAIL line,
# 2 for usage or input errors, never a traceback.  Sizes stay small and
# every order is given on the command line.
# ---------------------------------------------------------------------------

#: n of about 1500 and 6000 bits.  Hypothesis raises the recursion limit by
#: about 2000 frames while a test runs, so only the larger one still
#: overflows a recursion that is one frame deep per binary digit.
BIG = (1 << 1500, 1 << 6000)


def _num(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(["x", "1.5", ""]))


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _near_big():
    return st.tuples(st.sampled_from(BIG), st.integers(-2, 2)).map(sum)


def _fmt(*choices):
    return _opt("--format", st.sampled_from(choices))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["seq", "series", "verify", "scan", "kernel", "conjecture", "count"]))
    if command == "seq":
        start = draw(st.one_of(st.integers(-3, 300), _near_big()))
        end = start + draw(st.integers(-2, 6))
        return (["seq", "--kind", draw(st.sampled_from(["s", "t", "S", "Se"])),
                 "--from", str(start), "--to", str(end)] + draw(_fmt("text", "csv", "json")))
    if command == "series":
        name = draw(st.sampled_from(
            ["stern", "twisted", "carlitz", "psi", "H", "C", "u", "A", "B", "binpart"]))
        order = ["--order", draw(_num(-2, 256))]
        if name == "psi":  # psi reads no order, so it may go without one
            order = draw(st.sampled_from([[], order]))
        return (["series", "--name", name, *order]
                + draw(_opt("--e", _num(-2, 5))) + draw(_fmt("text", "json")))
    if command == "verify":
        return (["verify", "--suite", draw(st.sampled_from(SUITES)),
                 "--max-e", draw(_num(-2, 5)), "--max-n", draw(_num(-5, 512))]
                + draw(_fmt("table", "json")))
    if command == "scan":
        identity = draw(st.sampled_from(list(REGISTRY) + ["NOPE"]))
        return ["scan", "--identity", identity, "--e", draw(_num(-2, 5))] + draw(
            _fmt("table", "json"))
    if command == "kernel":
        target = draw(st.sampled_from(["stern", "H", "C", "binpart"]))
        return (["kernel", "--target", target, "--order", draw(_num(-2, 256))]
                + draw(_opt("--k", _num(-1, 4))) + draw(_opt("--depth", _num(-1, 6)))
                + draw(_fmt("table", "json")))
    if command == "conjecture":
        return (["conjecture", "--which", draw(st.sampled_from(["gen", "ab"])),
                 "--max-e", draw(_num(-2, 5)), "--order", draw(_num(-2, 256))]
                + draw(_fmt("table", "json")))
    n = draw(st.one_of(st.integers(-3, 1 << 64), _near_big()))
    pattern = draw(st.sampled_from(["admissible", "ones", "factor11"]))
    return ["count", "--pattern", pattern, "--n", str(n)] + draw(
        st.sampled_from([[], ["--weighted"]]))


def run_like_main(argv):
    """(exit code, stdout, stderr) as `sterntwist <argv>` would give them:
    an escaping exception prints its traceback and exits 1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(_argv())
@example(["seq", "--kind", "S", "--from", str(BIG[0] + 1), "--to", str(BIG[0] + 1)])
@example(["seq", "--kind", "Se", "--from", str(BIG[0]), "--to", str(BIG[0])])
@example(["seq", "--kind", "S", "--from", str(BIG[1] + 1), "--to", str(BIG[1] + 1)])
@example(["seq", "--kind", "Se", "--from", str(BIG[1]), "--to", str(BIG[1])])
def test_exit_code_contract(argv):
    code, out, err = run_like_main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        assert any("FAIL" in line for line in out.splitlines()), (argv, out)


#: argv -> the sterntwist modules, besides the package and cli, that it runs.
_FRONT = {"regularity", "sequences", "series"}
_SWEEP = {"columns", "sequences", "series", "verify"}
LOAD_MAP = [
    (["--help"], set()),
    (["seq", "--kind", "s", "--from", "0", "--to", "8"], {"sequences"}),
    (["oeis-check", "--id", "A002487", "--bfile", "{bfile}"], {"sequences"}),
    (["count", "--pattern", "ones", "--n", "5"], {"ratwords", "sequences"}),
    (["series", "--name", "psi", "--e", "3"], {"series", "sequences"}),
    (["series", "--name", "carlitz"], {"series", "sequences"}),
    (["series", "--name", "H", "--order", "40"], _FRONT),
    (["series", "--name", "C"], _FRONT),
    (["series", "--name", "binpart", "--order", "40"], _FRONT),
    (["kernel", "--target", "binpart", "--depth", "3", "--order", "64"], _FRONT),
    (["series", "--name", "u"], _SWEEP),
    (["scan", "--identity", "ID3", "--e", "3"], _SWEEP),
    (["verify", "--max-e", "3", "--max-n", "20"], _SWEEP),
    (["conjecture", "--which", "gen", "--max-e", "2", "--order", "64"], _SWEEP),
]


@pytest.mark.parametrize("argv,runs", LOAD_MAP, ids=[" ".join(argv) for argv, _ in LOAD_MAP])
def test_cli_runs_only_the_modules_its_subcommand_reaches(argv, runs, tmp_path):
    # cli registers the modules lazily: a module runs on the first read of
    # one of its attributes, and turns from a lazy module into a plain one.
    # Series are integer-only, so no subcommand needs fractions; the
    # classes are plain slotted ones, so none needs dataclasses or the
    # inspect it pulls in; products take CPython ints, so none needs
    # decimal or numbers; nor typing.  -S keeps the imports of `site` out,
    # which could load or hide any of them, and the cli run is the one
    # under src
    bfile = tmp_path / "b.txt"
    bfile.write_text("0 0\n1 1\n2 1\n")
    argv = [arg.format(bfile=bfile) for arg in argv]
    src = os.path.dirname(os.path.dirname(os.path.abspath(sterntwist.__file__)))
    code = ("import sys, types; sys.path.insert(0, sys.argv[1]); import sterntwist.cli; "
            "print(sterntwist.cli.__file__); "
            "code = sterntwist.cli.run(sys.argv[2:]); "
            "print(code, sorted(name for name, module in sys.modules.items() "
            "if name.startswith('sterntwist') and type(module) is types.ModuleType), "
            "sorted({'typing', 'fractions', 'dataclasses', 'inspect', 'decimal', 'numbers'}"
            " & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, src, *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith(src)
    want = sorted({"sterntwist", "sterntwist.cli"} | {f"sterntwist.{m}" for m in runs})
    assert lines[-1] == f"0 {want} []"


def test_no_module_starts_a_process():
    # sterntwist runs in one process: no module imports a way to start another
    starters = {"concurrent", "multiprocessing", "subprocess"}
    for path in Path(sterntwist.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not {name.split(".")[0] for name in names} & starters, path.name


def test_cli_keeps_the_modules_already_imported():
    # a library user, or the benchmark's worker, imports the modules before
    # cli; cli must use those objects, not lazy copies of them
    src = os.path.dirname(os.path.dirname(os.path.abspath(sterntwist.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from sterntwist import ratwords, regularity, sequences, series, verify; "
            "imported = [ratwords, regularity, sequences, series, verify]; "
            "import sterntwist.cli as cli; "
            "print(all(m is sys.modules[m.__name__] is getattr(cli, m.__name__[11:]) "
            "for m in imported))")
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, src],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


def test_cli_literals_match_their_modules(capsys):
    # the table cap and the suite names are stated in cli, so that importing
    # cli and building its parser run no module
    import sterntwist.sequences as sequences

    assert cli.MAX_TABLE == sequences.MAX_TABLE
    assert cli.MAX_ORDER == sequences.MAX_TABLE - 8
    code, out = invoke(capsys, ["verify", "--help"])
    assert code == 0 and f"--suite {{{','.join(SUITES)}}}" in out
