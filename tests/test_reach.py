"""Every named function and method in src/sterntwist runs, or is allowed.

The reach set is the traffic the package serves: one argv of every
subcommand, option, format and edge order; every library call of the
benchmark's library-small pool (perfbench/pool.py); both scripts; one call
of each documented library function that none of those reach; and a star
import and a dir() of the package, whose exports load on first access.  It
runs in a fresh interpreter under `sys.setprofile`, from before the package
is imported, and every code object called is collected.  A function that
does not run must be on one of two short lists:

- ORACLES: cross-check routes and test references, each named in tests/;
- GUARDS: refusals and protocol methods that no correct run calls.

Anything else is dead code and fails the test, as does a list entry that
now runs or names nothing, and a README "Library API" list that differs
from what `sterntwist` exports.  Lambdas and comprehensions are not
counted.  Code objects are keyed by (file, first line, name), since
`co_qualname` only exists from Python 3.11.

Run it as a script to print the reach of the running interpreter as JSON:

    PYTHONPATH=src python tests/test_reach.py
"""
import contextlib
import importlib.util
import io
import json
import os
import pickle
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sterntwist"

#: Oracle name -> the functions only it runs.  The name must appear in some
#: file under tests/ besides this one.
ORACLES = {
    "count_admissible": ("sequences.count_admissible",),
    "enumerate_admissible": (
        "sequences.enumerate_admissible",
        "sequences.enumerate_admissible.grow_with_zero",
        "sequences._check_guard",
        "sequences._digit_positions",
    ),
    "weighted_count_direct": (
        "sequences.weighted_count_direct",
        "sequences.weighted_count_direct.poly",
    ),
    "twisted_series_expansion": ("series.twisted_series_expansion",),
}

#: Refusals, reflected operators, __hash__ beside __eq__, __repr__ and
#: __str__: kept for the protocols they complete, not for any traffic.
GUARDS = (
    "columns.Column.__rsub__",
    "columns.Span.__neg__",  # a side may negate n, as it may an int
    "sequences.Frozen.__delattr__",
    "sequences.Frozen.__setattr__",
    "sequences.WeightPolynomial.__hash__",
    "sequences.WeightPolynomial.__repr__",
    "sequences.WeightPolynomial.__rsub__",
    "series.TruncatedSeries.__repr__",
    "series.TruncatedSeries.__rmul__",
)

_NOT_COUNTED = {"<lambda>", "<listcomp>", "<genexpr>", "<dictcomp>", "<setcomp>"}
_CO_OPTIMIZED = 0x1  # set on function code, clear on class and module bodies


def _key(code) -> tuple:
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def defined_functions() -> dict:
    """Key -> dotted name (module, then enclosing classes and functions) of
    every named function in the package, from its compiled source."""
    names = {}

    def walk(code, path):
        for const in code.co_consts:
            if not hasattr(const, "co_code") or const.co_name in _NOT_COUNTED:
                continue
            name = f"{path}.{const.co_name}"
            if const.co_flags & _CO_OPTIMIZED:
                if name in names.values():
                    raise AssertionError(f"two functions are named {name}")
                names[_key(const)] = name
            walk(const, name)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)
    return names


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_bfiles(folder: Path) -> dict:
    """Small b-files for `oeis-check`: good ones for each id, one with a
    wrong value and one that does not parse."""
    from sterntwist.regularity import binary_partition_series, h_series
    from sterntwist.sequences import stern

    h = h_series(20).coeffs
    binpart = binary_partition_series(40).coeffs
    files = {
        "A002487": [f"{n} {stern(n)}" for n in range(30)],
        "A163659": ["# H coefficients"] + [f"{n} {h[n]}" for n in range(21)],
        "A000123": [f"{n} {binpart[2 * n]}" for n in range(21)],
        "wrong": ["0 0", "1 1", "2 2"],
        "garbled": ["0 0 0"],
    }
    for name, lines in files.items():
        (folder / f"{name}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {name: str(folder / f"{name}.txt") for name in files}


def cli_argvs(bfiles: dict) -> list:
    """One argv of every subcommand, option, format and edge order, and the
    refusals."""
    argvs = [["--help"], [], ["seq", "--kind", "x"]]
    for kind in ("s", "t", "S", "Se"):
        for fmt in ("text", "csv", "json"):
            argvs.append(["seq", "--kind", kind, "--from", "0", "--to", "12", "--format", fmt])
    argvs += [["seq", "--kind", "s", "--from", "5", "--to", "1"],
              ["seq", "--kind", "s", "--from", "0", "--to", str(1 << 22)]]
    for name in ("stern", "twisted", "carlitz", "H", "C", "u", "A", "B", "binpart"):
        for fmt in ("text", "json"):
            argvs.append(["series", "--name", name, "--order", "40", "--format", fmt])
        argvs.append(["series", "--name", name, "--order", "0"])
    argvs += [["series", "--name", "psi", "--e", "3"],
              ["series", "--name", "psi", "--e", "2", "--format", "json"],
              ["series", "--name", "psi", "--e", "19"],
              ["series", "--name", "psi"],
              ["series", "--name", "psi", "--e", "2", "--order", "5"],
              ["series", "--name", "stern", "--e", "2"],
              ["series", "--name", "H", "--order", "-1"],
              ["series", "--name", "H", "--order", str(1 << 21)],
              ["series", "--name", "H"]]
    for suite in ("all", "identities", "matrices", "divisibility", "mod2", "palindrome"):
        argvs.append(["verify", "--suite", suite, "--max-e", "4", "--max-n", "64"])
    argvs += [["verify", "--suite", "all", "--max-e", "3", "--max-n", "2", "--format", "json"],
              ["verify", "--suite", "divisibility", "--max-n", "3"],
              ["verify", "--suite", "mod2", "--max-e", "2"],
              ["verify", "--max-n", "1"], ["verify", "--max-e", "-1"],
              ["verify", "--max-e", "18"]]
    argvs += [["scan", "--identity", "ID3", "--e", "5"],
              ["scan", "--identity", "DIV-T", "--e", "4", "--format", "json"],
              ["scan", "--identity", "NOPE", "--e", "2"],
              ["scan", "--identity", "ID5", "--e", "1"]]
    for target in ("stern", "H", "C", "binpart"):
        argvs.append(["kernel", "--target", target, "--depth", "3", "--order", "128"])
    argvs += [["kernel", "--target", "stern", "--k", "3", "--depth", "2", "--order", "100",
               "--format", "json"],
              ["kernel", "--target", "stern", "--order", "1"],
              ["kernel", "--target", "stern", "--k", "1", "--order", "64"],
              ["kernel", "--target", "stern", "--depth", "-1", "--order", "64"],
              ["kernel", "--target", "stern", "--depth", "7", "--order", "64"],
              ["kernel", "--target", "binpart", "--depth", "5", "--order", "32"]]
    argvs += [["conjecture", "--which", "gen", "--max-e", "2", "--order", "64"],
              ["conjecture", "--which", "ab", "--max-e", "2", "--order", "64",
               "--format", "json"],
              ["conjecture", "--which", "gen", "--max-e", "4", "--order", "20"],
              ["conjecture", "--which", "ab", "--max-e", "0", "--order", "3"],
              ["conjecture", "--which", "gen", "--max-e", "-1"]]
    argvs += [["count", "--pattern", "admissible", "--n", "11"],
              ["count", "--pattern", "admissible", "--n", "11", "--weighted"],
              ["count", "--pattern", "ones", "--n", "0"],
              ["count", "--pattern", "factor11", "--n", "1023"],
              ["count", "--pattern", "ones", "--n", "5", "--weighted"],
              ["count", "--pattern", "ones", "--n", "-1"]]
    for oeis_id in ("A002487", "A163659", "A000123"):
        argvs.append(["oeis-check", "--id", oeis_id, "--bfile", bfiles[oeis_id]])
    argvs += [["oeis-check", "--id", "A002487", "--bfile", bfiles["A002487"], "--limit", "9"],
              ["oeis-check", "--id", "A002487", "--bfile", bfiles["wrong"]],
              ["oeis-check", "--id", "A002487", "--bfile", bfiles["garbled"]],
              ["oeis-check", "--id", "A002487", "--bfile", bfiles["A002487"], "--limit", "-1"],
              ["oeis-check", "--id", "A000123", "--bfile", bfiles["A000123"],
               "--limit", str(1 << 21)],
              ["oeis-check", "--id", "A163659", "--bfile", bfiles["wrong"] + ".missing"]]
    return argvs


def _call_the_rest() -> None:
    """One call of each documented library function that neither the CLI,
    the benchmark nor the scripts make, a pickle round trip of two reports
    (pickling is library protocol), and a star import and dir() of the
    package."""
    import sterntwist
    from sterntwist import (
        AffineSystem,
        TruncatedSeries,
        check_det_m,
        degree_reduce,
        det_m,
        div_exact,
        exact_rank,
        kernel_rank,
        log_derivative,
        mod2,
        p_product_logderiv,
        section,
        stern_series,
    )

    dense = TruncatedSeries(tuple(range(1, 81)))
    assert div_exact(dense * dense, dense) == dense
    p, q = TruncatedSeries((1, 1, 1, 0, 0)), TruncatedSeries((1, -1, 1, 0, 0))
    assert (p * q).coeffs == (1, 0, 1, 0, 1)
    assert log_derivative(TruncatedSeries((1, 1, 0))).coeffs == (1, -1)
    assert section(stern_series(8), 1, 2).coeffs == (1, 2, 3, 3)
    p_product_logderiv((1, 1, 1), 2, 128)
    degree_reduce(AffineSystem.of(2, [stern_series(8)], [[(0, 0, 1)]], [0]))
    assert (det_m(5), mod2(5), exact_rank([[1, 2], [2, 4], [0, 1]])) == (-2, 1, 2)
    for report in (check_det_m(16), kernel_rank("stern", stern_series(63).coeffs, 2, 2, 64)):
        assert pickle.loads(pickle.dumps(report)).to_json() == report.to_json()
    namespace = {}
    exec("from sterntwist import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sterntwist.__all__) <= set(dir(sterntwist))


def run_reach_set() -> set:
    """Keys of the code objects that the reach set calls."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    pool, worker = _load("pool"), _load("worker")
    out, argv = io.StringIO(), sys.argv
    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            from sterntwist import cli

            for args in cli_argvs(_write_bfiles(Path(tmp))):
                cli.run(args)
            sys.argv = ["sterntwist", "count", "--pattern", "ones", "--n", "7"]
            with contextlib.suppress(SystemExit):
                cli.main()
            calls = worker._library_calls()
            for key in pool.library_pool():
                name, *args = key.split()
                fn, render = calls[name]
                render(fn(*args))
            for script, args in (("full_verification.py", ["--max-e", "4", "--order", "128"]),
                                 ("kernel_growth.py", ["--depth", "3"])):
                sys.argv = [script, *args]
                with contextlib.suppress(SystemExit):
                    runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
            _call_the_rest()
    finally:
        sys.setprofile(None)
        sys.argv = argv
    return {_key(code) for code in called}


def readme_api() -> set:
    """The names in the bullets of the README's "Library API" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+)`", section[section.index("\n- "):]))


def exported_names() -> set:
    import sterntwist

    return {name for name in dir(sterntwist) if not name.startswith("_")
            and not isinstance(getattr(sterntwist, name), type(sterntwist))}


def problems(defined, unreached, oracles, guards, test_text, readme, exported) -> list:
    """What the reach check finds wrong, as sentences; [] when all is well."""
    found = []
    allowed = {name: "guard" for name in guards}
    for oracle, names in oracles.items():
        allowed.update(dict.fromkeys(names, "oracle"))
        if not re.search(rf"\b{oracle}\b", test_text):
            found.append(f"oracle {oracle} is named in no test")
    for name in sorted(unreached - set(allowed)):
        found.append(f"{name} never runs and is not allowed")
    for name, reason in sorted(allowed.items()):
        if name not in defined:
            found.append(f"{reason} entry {name} names no function")
        elif name not in unreached:
            found.append(f"{reason} entry {name} runs, so it needs no entry")
    for name in sorted(readme - exported):
        found.append(f"README lists {name}, which sterntwist does not export")
    for name in sorted(exported - readme):
        found.append(f"sterntwist exports {name}, which the README does not list")
    return found


def _test_text() -> str:
    return "\n".join(path.read_text(encoding="utf-8")
                     for path in sorted(ROOT.glob("tests/*.py"))
                     if path.name != Path(__file__).name)


def reach() -> dict:
    """Run the reach set in this interpreter: the defined and the unreached
    function names, and the package's exports."""
    defined = defined_functions()
    reached = run_reach_set()
    return {
        "python": sys.version.split()[0],
        "defined": sorted(defined.values()),
        "unreached": sorted(name for key, name in defined.items() if key not in reached),
        "exported": sorted(exported_names()),
    }


def test_every_function_runs_or_is_allowed():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name in ("STERNTWIST_ORDER", "STERNTWIST_A163659_BFILE"):
        env.pop(name, None)
    done = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert problems(set(result["defined"]), set(result["unreached"]), ORACLES, GUARDS,
                    _test_text(), readme_api(), set(result["exported"])) == []


def test_an_unknown_name_is_an_attribute_error():
    import sterntwist

    try:
        sterntwist.stern_value
    except AttributeError as exc:
        assert str(exc) == "module 'sterntwist' has no attribute 'stern_value'"
    else:
        raise AssertionError("sterntwist.stern_value resolved")


def test_the_reach_check_catches_each_kind_of_rot():
    defined = {"m.run", "m.oracle", "m.helper", "m.guard"}
    unreached = {"m.oracle", "m.helper", "m.guard"}
    oracles, guards = {"oracle": ("m.oracle", "m.helper")}, ("m.guard",)
    tests, api = "assert oracle(1) == 1", {"run", "oracle"}
    args = (defined, unreached, oracles, guards, tests, api, api)
    assert problems(*args) == []
    cases = [
        ("planted", (defined | {"m.dead"}, unreached | {"m.dead"}),
         "m.dead never runs and is not allowed"),
        ("guard runs", (defined, unreached - {"m.guard"}),
         "guard entry m.guard runs, so it needs no entry"),
        ("helper gone", (defined - {"m.helper"}, unreached - {"m.helper"}),
         "oracle entry m.helper names no function"),
    ]
    for label, (d, u), want in cases:
        assert problems(d, u, *args[2:]) == [want], label
    assert problems(*args[:4], "assert other(1)", api, api) == [
        "oracle oracle is named in no test"]
    assert problems(*args[:5], api | {"gone"}, api) == [
        "README lists gone, which sterntwist does not export"]
    assert problems(*args[:5], api, api | {"extra"}) == [
        "sterntwist exports extra, which the README does not list"]


if __name__ == "__main__":
    print(json.dumps(reach()))
