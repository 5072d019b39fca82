"""The names of the package that perfbench/worker.py and perfbench/tracer.py
read, pinned by running the worker as the benchmark does: a renamed
function, class or attribute fails here, not in a benchmark run."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from sterntwist.regularity import h_series

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

#: Every layer the tracer installs; the worker's trace lists each one.
LAYERS = 16


def _pool():
    spec = importlib.util.spec_from_file_location("perfbench_pool", PERFBENCH / "pool.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _worker(args, stdin=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name in ("STERNTWIST_ORDER", "STERNTWIST_A163659_BFILE"):
        env.pop(name, None)
    return subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), *args],
        input=stdin, capture_output=True, text=True, timeout=120, env=env,
    )


def test_traced_library_calls_match_the_references(tmp_path):
    keys = {}
    for key in _pool().library_pool():
        keys.setdefault(key.split()[0], key)
    keys = list(keys.values())
    trace = tmp_path / "lib.json"
    done = _worker(["lib", "--trace", str(trace)], json.dumps(keys) + "\n")
    assert done.returncode == 0, done.stderr
    ready, results = done.stdout.splitlines()
    assert ready == "ready"
    refs = json.loads((PERFBENCH / "references.json").read_text())["outputs"]
    assert [digest for digest, _ in json.loads(results)] == [refs[f"lib {k}"] for k in keys]
    layers = json.loads(trace.read_text())["layers"]
    assert len(layers) == LAYERS
    assert layers["sequences.value"]["calls"] > 0
    assert layers["sequences.value"]["cache_entries"] == 0


def test_traced_cli_request_runs(tmp_path):
    trace = tmp_path / "cli.json"
    done = _worker(["cli", "--trace", str(trace), "--", "series", "--name", "H", "--order", "64"])
    assert done.returncode == 0, done.stderr
    assert done.stdout == h_series(64).to_text() + "\n"
    layers = json.loads(trace.read_text())["layers"]
    assert len(layers) == LAYERS and "sequences.value" in layers
    assert layers["cli.run"]["calls"] == 1


def test_traced_quotient_makes_no_general_division(tmp_path):
    # u divides by the Stern series through its product form, not div_exact
    trace = tmp_path / "lib.json"
    done = _worker(["lib", "--trace", str(trace)], json.dumps(["gen_quotient_series 1024"]) + "\n")
    assert done.returncode == 0, done.stderr
    division = json.loads(trace.read_text())["layers"]["series.div_exact"]
    assert (division["calls"], division["coeffs"]) == (0, 0)


def test_traced_conjecture_is_one_sweep(tmp_path):
    trace = tmp_path / "cli.json"
    done = _worker(["cli", "--trace", str(trace), "--",
                    "conjecture", "--which", "ab", "--max-e", "2", "--order", "64"])
    assert done.returncode == 0, done.stderr
    assert "CONJ-AB" in done.stdout
    assert json.loads(trace.read_text())["layers"]["verify.conjecture"]["calls"] == 1
