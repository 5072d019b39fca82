#!/usr/bin/env python3
"""sterntwist benchmark.

Timed run (end-to-end metrics, tracing off):
    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0
Traced run (per-layer metrics):
    python3 perfbench/run.py --workload series-large --seed 1 --trace 1
Every end-to-end metric of every workload, by name with its unit:
    python3 perfbench/run.py --workload all
Outputs against the references only, nothing timed (exit 1 on a mismatch):
    python3 perfbench/run.py --check [--workload NAME]
Re-record the references from the current source:
    python3 perfbench/run.py --record

Run from the repository root.  The program is timed from outside: fresh
`python3 -m sterntwist.cli` processes for the CLI workloads, one
`perfbench/worker.py` interpreter per round for library-small.  Load is a
closed loop with one client.  The last line of standard output is one JSON
object: `{"correct", "attempted", "failed", "metrics"}`.  See README.md.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import pool  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
REFERENCES = BENCH_DIR / "references.json"
SPEC = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"

CHILD_TIMEOUT_S = 150
SETUP_PROBES_PER_LIST = 5
#: Environment variables that would change the work a child does.
SCRUBBED_ENV = ("STERNTWIST_ORDER", "STERNTWIST_A163659_BFILE", "PYTHONPATH", "PYTHONSTARTUP")

_clock = time.perf_counter


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """Hermetic environment: the repository's src on the path, no stray
    sterntwist settings, no bytecode written under src/."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    return env


@dataclass
class Finished:
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    rss_mb: float


class Child:
    """One child process with a stderr reader and a kill timer, reaped with
    `os.wait4` so its own peak RSS is known (never RUSAGE_CHILDREN, which
    is a high-water mark over every child reaped so far)."""

    def __init__(self, cmd, env, stdin=subprocess.DEVNULL):
        self.start = _clock()
        self.proc = subprocess.Popen(
            [str(c) for c in cmd], stdin=stdin, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env, cwd=ROOT,
        )
        self._stderr = []
        self._reader = threading.Thread(
            target=lambda: self._stderr.append(self.proc.stderr.read()), daemon=True)
        self._reader.start()
        self._timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._timer.start()

    def finish(self, stdout_head: bytes = b"") -> Finished:
        proc = self.proc
        try:
            out = stdout_head + proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            self._timer.cancel()
        elapsed = _clock() - self.start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._reader.join()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        return Finished(proc.returncode, out, self._stderr[0] if self._stderr else b"",
                        elapsed, usage.ru_maxrss / 1024)

    def abort(self) -> None:
        self.proc.kill()
        self.finish()


def run_cli(argv, env) -> Finished:
    return Child([sys.executable, "-m", "sterntwist.cli", *argv], env).finish()


# ---------------------------------------------------------------------------
# Request lists.
# ---------------------------------------------------------------------------


@dataclass
class ListResult:
    """One request list run once: latencies and what each request output.

    `outputs` holds `(reference key, output, stderr tail)`; a CLI output is
    `{"exit": code, "sha256": stdout digest}`, a library output the digest
    of the call's canonical rendering."""

    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    rss_mb: float = 0.0
    stdout_bytes: int = 0
    traces: list = field(default_factory=list)

    def failures(self, refs) -> list:
        return [(key, refs.get(key), got, tail) for key, got, tail in self.outputs
                if refs.get(key) != got]


def _trace_path(index: int) -> Path:
    return TRACE_DIR / f"trace-{os.getpid()}-{index}.json"


def _take_trace(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None
    finally:
        path.unlink(missing_ok=True)


def run_list(requests, env, trace=False) -> ListResult:
    if requests[0][0] == "lib":
        return _run_library(requests, env, trace)
    result = ListResult()
    if trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
    start = _clock()
    for index, request in enumerate(requests):
        argv = request[1]
        if trace:
            path = _trace_path(index)
            done = Child([sys.executable, WORKER, "cli", "--trace", path, "--", *argv], env).finish()
            snapshot = _take_trace(path)
            if snapshot is not None:
                result.traces.append(snapshot)
        else:
            done = run_cli(argv, env)
        result.latencies.append(done.seconds)
        result.rss_mb = max(result.rss_mb, done.rss_mb)
        result.stdout_bytes += len(done.stdout)
        got = {"exit": done.code, "sha256": hashlib.sha256(done.stdout).hexdigest()}
        tail = done.stderr[-400:].decode(errors="replace")
        result.outputs.append((pool.reference_key(request), got, tail))
    result.wall_s = _clock() - start
    return result


def _run_library(requests, env, trace=False) -> ListResult:
    keys = [key for _, key in requests]
    result = ListResult()
    cmd = [sys.executable, WORKER, "lib"]
    path = None
    if trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = _trace_path(0)
        cmd += ["--trace", path]
    child = Child(cmd, env, stdin=subprocess.PIPE)
    try:
        head = child.proc.stdout.readline()
        start = _clock()
        child.proc.stdin.write((json.dumps(keys) + "\n").encode())
        child.proc.stdin.close()
        line = child.proc.stdout.readline()
        result.wall_s = _clock() - start
    except BaseException:
        child.abort()
        raise
    done = child.finish(head + line)
    result.rss_mb = done.rss_mb
    if trace:
        snapshot = _take_trace(path)
        if snapshot is not None:
            result.traces.append(snapshot)
    try:
        answers = json.loads(line) if head == b"ready\n" else []
    except ValueError:
        answers = []
    if done.code != 0 or len(answers) != len(keys):
        tail = done.stderr[-400:].decode(errors="replace")
        result.outputs = [(f"lib {k}", f"worker exit {done.code}", tail) for k in keys]
        return result
    for request, (got, seconds) in zip(requests, answers):
        result.latencies.append(seconds)
        result.outputs.append((pool.reference_key(request), got, ""))
    return result


def setup_probe(workload: str, env) -> float:
    """Seconds from spawning a fresh interpreter until sterntwist is imported
    and ready: for the CLI a `--help` call (import plus the argparse
    parser), for the library the worker's `ready` line."""
    if workload != "library-small":
        done = run_cli(["--help"], env)
        if done.code != 0:
            raise RuntimeError(f"sterntwist --help exited {done.code}")
        return done.seconds
    child = Child([sys.executable, WORKER, "lib"], env, stdin=subprocess.PIPE)
    try:
        head = child.proc.stdout.readline()
        seconds = _clock() - child.start
        child.proc.stdin.close()
    except BaseException:
        child.abort()
        raise
    done = child.finish(head)
    if head != b"ready\n" or done.code != 0:
        raise RuntimeError(f"library worker failed to start: {done.stderr[-400:]!r}")
    return seconds


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_run(workload, seed, seconds, env):
    """End-to-end metrics with tracing off.

    The request list is repeated, with fresh draws, until `seconds` have
    passed.  Set-up probes run between the lists, so they sample the same
    stretch of time.  Every timing is a median, so one slow stretch on a
    shared machine does not set it.  p50 is the median of every request in
    the run.  p95 is taken per list (nearest rank; on a CLI list of five
    requests that is its slowest one) and the median over lists reported."""
    rng = random.Random(f"{workload}/{seed}")
    start = _clock()
    setups, lists = [], []
    while not lists or _clock() - start < seconds:
        setups.extend(setup_probe(workload, env) for _ in range(SETUP_PROBES_PER_LIST))
        lists.append(run_list(pool.request_list(workload, rng), env))
    latencies = [x for r in lists for x in r.latencies]
    p95s = [nearest_rank(r.latencies, 0.95) for r in lists]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r.wall_s for r in lists),
        "request_s.p50": statistics.median(latencies),
        "request_s.p95": statistics.median(p95s),
        "peak_rss_mb": max(r.rss_mb for r in lists),
    }
    per_list = len(lists[0].latencies)
    above_p95 = per_list - math.ceil(0.95 * per_list)
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"median of {len(lists)} request lists",
        "request_s.p50": f"median of all {len(latencies)} requests",
        "request_s.p95": f"median over {len(lists)} lists of each list's p95;"
                         f" {per_list} requests, {above_p95} above p95 per list",
        "peak_rss_mb": "largest child process",
    }
    return metrics, notes, lists


def _merge_traces(traces) -> tuple[dict, float, float]:
    merged: dict[str, dict] = {}
    for snapshot in traces:
        for name, layer in snapshot["layers"].items():
            into = merged.setdefault(name, dict.fromkeys(layer, 0))
            for key, value in layer.items():
                if key in ("cache_entries", "max_order"):
                    into[key] = max(into[key], value)
                else:
                    into[key] += value
    top = sum(s["top_s"] for s in traces)
    self_total = sum(layer["self_s"] for layer in merged.values())
    return merged, top, self_total


def traced_run(workload, seed, env, names):
    """Per-layer metrics: the same request list once untraced, once traced."""
    rng = random.Random(f"{workload}/{seed}")
    requests = pool.request_list(workload, rng)
    plain = run_list(requests, env)
    traced = run_list(requests, env, trace=True)
    layers, top_s, self_total = _merge_traces(traced.traces)

    def ratio(num, den):
        return num / den if den else 0.0

    def measure(layer_name, what):
        layer = layers.get(layer_name, {})
        if what == "hit_ratio":
            return ratio(layer.get("hits", 0), layer.get("calls", 0))
        if what == "nonzero_frac":
            return ratio(layer.get("operand_nonzero", 0), layer.get("operand_coeffs", 0))
        return layer.get(what, 0)

    # `<module>.<function>.<measure>` names come straight from a layer.
    metrics = {name: measure(*name.rsplit(".", 1)) for name in names if name.count(".") == 2}
    remainder = traced.wall_s - top_s
    metrics.update({
        "verify.points": sum(layer["points"] for layer in layers.values()),
        "cli.stdout_bytes": traced.stdout_bytes,
        "trace.wall_s": traced.wall_s,
        "trace.remainder_s": remainder,
        "trace.overhead_ratio": ratio(traced.wall_s, plain.wall_s),
    })
    expected = len(requests) if requests[0][0] == "cli" else 1
    gap = self_total + remainder - traced.wall_s
    check = (
        f"{len(traced.traces)}/{expected} processes traced; self times {self_total:.4f} s"
        f" + untraced remainder {remainder:.4f} s = traced wall {traced.wall_s:.4f} s"
        f" (off by {gap:.2e} s)",
        len(traced.traces) == expected and abs(gap) <= 1e-6 * max(1.0, traced.wall_s),
    )
    return metrics, [plain, traced], [check], _design_checks(workload, metrics)


def _design_checks(workload, m) -> list[tuple[str, bool]]:
    """The workload-design expectations, checked on the trace.  Informative:
    a later change that speeds a layer up may legitimately move them."""
    wall = m["trace.wall_s"] or 1.0
    out = []
    if workload == "series-large":
        share = (m["series.mul.self_s"] + m["series.div_exact.self_s"]) / wall
        out.append((f"series.mul + series.div_exact self time = {share:.1%} of traced wall"
                    " (expected > 50%)", share > 0.5))
    if workload == "verify-sweep":
        series = sum(v for k, v in m.items() if k.startswith("series.") and k.endswith(".self_s"))
        out.append((f"series.* self time = {series / wall:.3%} of traced wall (expected < 1%)",
                    series / wall < 0.01))
        calls = m["sequences.value.calls"]
        out.append((f"sequences.value.calls = {calls} (expected >= 10^6)", calls >= 10**6))
    calls = m["ratwords.evaluate.calls"]
    expect = workload == "library-small"
    out.append((f"ratwords.evaluate.calls = {calls} (expected {'> 0' if expect else '0'})",
                (calls > 0) == expect))
    return out


# ---------------------------------------------------------------------------
# References.
# ---------------------------------------------------------------------------


def record(env) -> int:
    """Run every pooled request once and store its output as the reference."""
    outputs = {}
    for workload in pool.WORKLOADS:
        result = run_list(pool.pool(workload), env)
        for key, got, tail in result.outputs:
            if isinstance(got, str) and got.startswith("worker exit"):
                print(f"record: {key}: {got}\n{tail}", file=sys.stderr)
                return 1
            outputs[key] = got
        print(f"recorded {len(result.outputs)} {workload} requests", flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump({"source": source_fingerprint(), "outputs": outputs}, handle,
                  indent=0, sort_keys=True)
        handle.write("\n")
    return 0


def check(workloads, env, refs) -> int:
    """Every pooled request of each workload once, untimed, against the
    references."""
    bad = 0
    for workload in workloads:
        result = run_list(pool.pool(workload), env)
        failures = result.failures(refs)
        bad += len(failures)
        total = len(result.outputs)
        print(f"{workload}: {total - len(failures)}/{total} requests match the references")
        report_failures(failures)
    return 1 if bad else 0


def report_failures(failures) -> None:
    for key, want, got, tail in failures[:10]:
        print(f"  MISMATCH {key}: expected {want}, got {got}", file=sys.stderr)
        if tail:
            print("    " + tail.strip().replace("\n", "\n    "), file=sys.stderr)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def source_fingerprint() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"src_sha256": digest.hexdigest()[:16], "python": sys.version.split()[0]}


def git_commit() -> str:
    """HEAD of the enclosing git checkout, read from .git without running
    git; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_line() -> str:
    fp = source_fingerprint()
    return (f"# env python={fp['python']} nproc={os.cpu_count()} commit={git_commit()}"
            f" src_sha256={fp['src_sha256']} jobs=1 clients=1")


def print_metrics(workload, metrics, units, notes) -> None:
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:<14} {name:<40} {value!r:>22} {units[name]}{note}")


def _spec_metrics(spec, section) -> dict:
    return {m["name"]: m["unit"] for m in spec[section]}


def one_workload(workload, seed, seconds, trace, refs, env, spec) -> tuple[dict, bool, int, int]:
    if trace:
        units = _spec_metrics(spec, "per_layer")
        metrics, lists, checks, design = traced_run(workload, seed, env, units)
        notes = {}
    else:
        units = _spec_metrics(spec, "end_to_end")
        metrics, notes, lists = timed_run(workload, seed, seconds, env)
        checks, design = [], []
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    metrics = {name: metrics[name] for name in units}
    attempted = sum(len(r.outputs) for r in lists)
    failures = [f for r in lists for f in r.failures(refs)]
    print_metrics(workload, metrics, units, notes)
    print(f"{workload:<14} {'failed_frac':<40} {len(failures) / attempted!r:>22} ratio"
          f"  ({len(failures)}/{attempted} requests)")
    report_failures(failures)
    ok = not failures
    for text, passed in checks:
        print(f"{workload:<14} trace check: {text}: {'ok' if passed else 'FAILED'}")
        ok = ok and passed
    for text, met in design:
        print(f"{workload:<14} design check: {text}: {'ok' if met else 'not met'}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, ok, attempted, len(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sterntwist benchmark")
    parser.add_argument("--workload", default="all", choices=pool.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="run every pooled request once, untimed; exit 1 on a mismatch")
    mode.add_argument("--record", action="store_true",
                      help="re-record references.json from the current source")
    args = parser.parse_args(argv)

    if not (SRC / "sterntwist" / "__init__.py").is_file():
        print(f"run.py: no sterntwist sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    if args.record:
        return record(env)
    try:
        with open(REFERENCES, encoding="utf-8") as handle:
            references = json.load(handle)
        with open(SPEC, encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    refs = references["outputs"]
    workloads = pool.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.check:
        return check(workloads, env, refs)

    print(environment_line())
    if references["source"]["src_sha256"] != source_fingerprint()["src_sha256"]:
        print("# note: src/ differs from the source the references were recorded from")
    results = {}
    all_ok = True
    attempted = failed = 0
    for workload in workloads:
        metrics, ok, n, bad = one_workload(
            workload, args.seed, args.seconds, args.trace, refs, env, spec)
        results[workload] = metrics
        all_ok = all_ok and ok
        attempted += n
        failed += bad
    final = results[workloads[0]] if len(workloads) == 1 else results
    print(json.dumps({"correct": all_ok, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
