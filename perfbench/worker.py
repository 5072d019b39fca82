"""Child-process side of the sterntwist benchmark.

    python3 perfbench/worker.py lib [--trace FILE]
        Import sterntwist, print `ready`, read one JSON list of library call
        keys from stdin, run them in order in this one interpreter and print
        one JSON list of `[digest, seconds]` pairs.  End of input right after
        `ready` just exits (a set-up probe).

    python3 perfbench/worker.py cli --trace FILE -- ARGV...
        Run `sterntwist ARGV...` in-process under the tracer and exit with its
        exit code.  Untraced CLI requests do not come here: the benchmark runs
        `python3 -m sterntwist.cli` for those.

With `--trace FILE` the tracer's aggregated spans are written to FILE when
the work is done.  Needs the repository's `src` on PYTHONPATH.
"""
from __future__ import annotations

import hashlib
import json
import sys
import time


def digest(text: str) -> str:
    """Reference digest of a canonical rendering."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _library_calls():
    """Call key name -> (function of the key's arguments, renderer)."""
    from sterntwist import ratwords, regularity, sequences, series, verify

    patterns = {
        "admissible-w": lambda: ratwords.subsequence_transform(
            ratwords.admissible_representation(weighted=True)),
        "admissible": lambda: ratwords.subsequence_transform(
            ratwords.admissible_representation(weighted=False)),
        "ones": lambda: ratwords.subsequence_transform(ratwords.word_indicator((1,), 2)),
        "factor11": lambda: ratwords.subfactor_transform(ratwords.word_indicator((1, 1), 2)),
    }
    kernel_values = {
        "stern": lambda order: [sequences.stern(n) for n in range(order)],
        "H": lambda order: regularity.h_series(order - 1).coeffs,
        "binpart": lambda order: regularity.binary_partition_series(order - 1).coeffs,
    }

    def kernel(target, depth, order):
        order = int(order)
        return regularity.kernel_rank(target, kernel_values[target](order), 2, int(depth), order)

    text = str
    series_text = series.TruncatedSeries.to_text
    return {
        "stern": (lambda n: sequences.stern(int(n)), text),
        "twisted": (lambda n: sequences.twisted(int(n)), text),
        "weighted_stern": (lambda n: sequences.weighted_stern(int(n)), text),
        "weighted_even": (lambda n: sequences.weighted_even(int(n)), text),
        "weighted_stern_alt": (lambda n: sequences.weighted_stern_alt(int(n)), text),
        "count": (lambda p, n: ratwords.count_in_expansion(patterns[p](), int(n), 2), text),
        "psi": (lambda e: series.psi(int(e)), text),
        "carlitz_series": (lambda o: series.carlitz_series(int(o)), series_text),
        "h_series": (lambda o: regularity.h_series(int(o)), series_text),
        "binary_partition_series": (
            lambda o: regularity.binary_partition_series(int(o)), series_text),
        "gen_quotient_series": (lambda o: verify.gen_quotient_series(int(o)), series_text),
        "kernel_rank": (kernel, lambda r: r.to_json()),
        "check_identity": (lambda i, e: verify.check_identity(i, int(e)), lambda r: r.to_json()),
    }


def run_library(tracer) -> int:
    import sterntwist  # noqa: F401  (set-up ends once the package is importable)

    calls = _library_calls()
    if tracer is not None:
        tracer.install()
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0
    clock = time.perf_counter
    results = []
    for key in json.loads(line):
        name, *args = key.split()
        fn, render = calls[name]
        start = clock()
        value = fn(*args)
        elapsed = clock() - start
        results.append((digest(render(value)), elapsed))
    sys.stdout.write(json.dumps(results) + "\n")
    sys.stdout.flush()
    return 0


def run_cli(tracer, argv) -> int:
    import sterntwist.cli

    tracer.install()
    try:
        return sterntwist.cli.run(argv)
    finally:
        sys.stdout.flush()


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    trace_file = None
    if rest[:1] == ["--trace"]:
        trace_file, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    tracer = None
    if trace_file is not None:
        from tracer import Tracer

        tracer = Tracer()
    if mode == "lib":
        code = run_library(tracer)
    elif mode == "cli" and tracer is not None:
        code = run_cli(tracer, rest)
    else:
        print(f"worker: unknown mode {argv!r}", file=sys.stderr)
        return 2
    if tracer is not None:
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
