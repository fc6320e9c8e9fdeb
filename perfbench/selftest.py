"""Self-test of the benchmark harness; takes about a minute.

    python3 perfbench/selftest.py

It checks that
1. installing the tracer wraps each layer entry point in every taumut
   namespace that imported it, and uninstalling restores the originals;
2. two traced runs of one seed give identical counts and ratios;
3. an untraced run leaves every taumut function unwrapped and times the
   reference computation;
4. smc.* and grothendieck.* read zero on the explore workloads, and not on
   verify, so a zero means the layer did not run.
It prints one line per failed check and exits 1 if there is any.
"""

from __future__ import annotations

import importlib
import sys

import run
import tracing

SEED = 1


class Checks:
    def __init__(self):
        self.failed = []
        self.children = 0

    def expect(self, ok: bool, what: str) -> None:
        print(("ok     " if ok else "FAILED ") + what)
        if not ok:
            self.failed.append(what)

    def child(self, name: str, mode: str):
        cli_args, expected = run.prepare(name, SEED)
        self.children += 1
        result = run.run_child(mode, cli_args, f"selftest-{self.children}", float("inf"))
        error = run.check(run.WORKLOADS[name], result, expected)
        self.expect(error is None, f"{name} {mode}: operation correct ({error})")
        return result


def check_install(expect) -> None:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, module_name, attr in tracing.SPANS:
            original = getattr(importlib.import_module(module_name), attr).__wrapped__
            left = [
                f"{m.__name__}.{a}"
                for m in tracing._taumut_namespaces()
                for a, v in vars(m).items()
                if v is original
            ]
            expect(not left, f"{attr} wrapped everywhere (unwrapped: {left})")
        for module_name, attr in (
            ("taumut.tautilt", "decompose"),
            ("taumut.modules", "_rref_rows"),
            ("taumut.algebra", "_rref_rows"),
            ("taumut.smc", "_rref_rows"),
            ("taumut.cli", "explore"),
        ):
            value = getattr(importlib.import_module(module_name), attr)
            expect(hasattr(value, tracing.MARK), f"{module_name}.{attr} is wrapped")
    finally:
        tracer.uninstall()
    left = tracing.wrapped_names()
    expect(not left, f"uninstall restores every original (still wrapped: {left})")


def main() -> int:
    sys.path.insert(0, run.SRC)
    run.fresh_workdir()
    checks = Checks()
    expect, child = checks.expect, checks.child
    check_install(expect)

    fp = "explore-apath5-fp"
    first, second = (run.layer_metrics(child(fp, "trace").report["layers"]) for _ in range(2))
    for metric, (unit, _) in run.PER_LAYER.items():
        if unit != "s":
            expect(first[metric] == second[metric],
                   f"{metric} repeats: {first[metric]} vs {second[metric]}")

    report = child(fp, "run").report
    expect(report is not None and report["wrapped"] == [], "untraced run is unwrapped")
    expect(report is not None and report["ref_s"] > 0, "untraced run times the reference")

    traced = {fp: first}
    for name in run.WORKLOADS:
        if name != fp:
            traced[name] = run.layer_metrics(child(name, "trace").report["layers"])
    for name, values in traced.items():
        layer = [values[m] for m in values if m.startswith(("smc.", "grothendieck."))]
        if name.startswith("explore-"):
            expect(all(v == 0 for v in layer), f"{name}: smc.* and grothendieck.* read zero")
        else:
            expect(all(v > 0 for v in layer), f"{name}: smc.* and grothendieck.* non-zero")
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
