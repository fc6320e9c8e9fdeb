"""One fresh-interpreter taumut invocation, timed from the inside.

    python3 child.py SRC REPORT MODE [SPANS] -- CLI-ARGS...

SRC is the checkout's ``src`` directory, REPORT the JSON file this process
writes its timings to.  MODE is one of:

``setup``    import taumut and build the algebra of ``--algebra`` (with
             ``--field`` if given), as every CLI invocation must; the
             report's ``t_built`` stamps the moment the algebra exists.
``run``      run ``taumut.cli.main(CLI-ARGS)`` exactly as the console
             script does, with no tracing installed.
``trace``    the same, with the layer wrappers installed
             around it (see ``tracing.py``); the spans go to SPANS.

``run`` and ``trace`` time the reference computation (``reference_work``)
right before and right after the verb, ``setup`` right after the algebra is
built; the report's ``ref_s`` is the mean.

The process exits with the CLI's exit code.  Time stamps are
``time.monotonic()``, which the parent process reads on the same clock.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from fractions import Fraction

# Timings of the reference computation taken before and again after the verb.
REF_REPEATS = 3
P = 32003


def _rank(rows, inverse, reduce) -> int:
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = inverse(rows[rank][col])
        top = rows[rank] = [reduce(x * inv) for x in rows[rank]]
        for r, row in enumerate(rows):
            if r != rank and row[col]:
                factor = row[col]
                rows[r] = [reduce(a - factor * b) for a, b in zip(row, top)]
        rank += 1
    return rank


def reference_work() -> tuple:
    """A fixed exact elimination over Q and over F_32003, 10-18 ms on 2 CPUs.

    It shares no code with taumut, so no change to taumut moves its time,
    but it does what taumut spends its time on: ``Fraction`` and small-int
    arithmetic over Python lists.  The host's speed changes it as it
    changes the verb, which is what ``run.py`` divides out.
    """
    seq = [(k * 7919 + 13) % 10007 for k in range(1600)]
    q = [[Fraction(seq[12 * i + j] - 5000, i + j + 1) for j in range(12)] for i in range(12)]
    f = [[seq[40 * i + j] % P for j in range(40)] for i in range(40)]
    return (_rank(q, lambda x: 1 / x, lambda x: x),
            _rank(f, lambda x: pow(x, P - 2, P), lambda x: x % P))


def _time_reference() -> list:
    # With the collector off, the verb's heap does not change the timing.
    gc.disable()
    try:
        times = []
        for _ in range(REF_REPEATS):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
        return times
    finally:
        gc.enable()


def _load_algebra(argv):
    """Build the algebra an ``--algebra FILE [--field fp:P]`` argv names."""
    from taumut import AlgebraSpec, PrimeField, build_algebra

    path = argv[argv.index("--algebra") + 1]
    spec = AlgebraSpec.load(path)
    if "--field" in argv:
        text = argv[argv.index("--field") + 1]
        if not text.startswith("fp:"):
            raise SystemExit(f"unsupported field {text!r}")
        spec = spec.with_field(PrimeField(int(text[3:])))
    return build_algebra(spec, label=os.path.basename(path))


def main(argv) -> int:
    src, report_path, mode = argv[:3]
    spans_path = argv[3] if mode == "trace" else None
    cli_args = argv[argv.index("--") + 1 :]
    sys.path.insert(0, src)
    import taumut
    import taumut.cli

    where = os.path.dirname(os.path.abspath(taumut.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise SystemExit(f"imported taumut from {where}, not from {src}")
    report = {}
    if mode == "setup":
        _load_algebra(cli_args)
        report["t_built"] = time.monotonic()
        ref_times = _time_reference()
        rc = 0
    else:
        import tracing

        ref_times = _time_reference()
        tracer = tracing.Tracer() if mode == "trace" else None
        if tracer is not None:
            tracer.install()
        start = time.monotonic()
        try:
            rc = taumut.cli.main(cli_args)
            sys.stdout.flush()
        finally:
            done = time.monotonic()
            if tracer is not None:
                tracer.uninstall()
        ref_times += _time_reference()
        report.update(
            rc=rc,
            wall_s=done - start,
            wrapped=tracing.wrapped_names(),
        )
        if tracer is not None:
            report["layers"] = tracer.summary()
            tracer.write_spans(spans_path, op=os.path.basename(report_path))
    report["ref_s"] = sum(ref_times) / len(ref_times)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
