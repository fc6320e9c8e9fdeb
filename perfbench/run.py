"""The taumut benchmark: CLI verbs on preset algebras, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One client runs one operation at a time, each a taumut CLI verb in a fresh
Python process (``child.py``), as a user runs it; there is never more than
one child process.  The seed picks a relabelling of the workload's preset
(seed 0 is the identity) and the program receives only the generated
``--algebra`` JSON.  Every operation is checked against the known answer.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(process start to algebra built, over the process's own ``ref_s`` and times
REF_NOMINAL_S, median of SETUP_SAMPLES fresh processes spread over the
run), ``wall_ref`` (``cli.main`` entry to return, divided by
the time the same process takes for ``child.reference_work`` right before
and after, median over the operations of the run) and ``peak_rss_mb``
(median ``ru_maxrss`` of those operations).  The raw set-up time,
``wall_s`` and ``ref_s`` are printed beside them.  With
``--trace 1`` it alternates untraced and traced operations and reports the
per-layer metrics of ``tracing.py`` plus the tracing overhead.  The last
line of stdout is one JSON object; the exit code is 1 when any operation
failed and 2 when the checkout holds no ``src/taumut`` to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
EXPECTED = os.path.join(HERE, "expected")

SETUP_SAMPLES = 15
# setup_s is given in seconds on a host where child.reference_work takes
# this long, about its time on an idle 2-CPU machine, so that the host's
# speed swings cancel out of it as they do out of wall_ref.
REF_NOMINAL_S = 0.010
# Every child is killed at this many seconds into the run, so that a run
# ends within its 180 s limit even when the program hangs.
RUN_DEADLINE_S = 165.0


@dataclass(frozen=True)
class Workload:
    verb: str
    preset: str
    field: Optional[str]
    vertices: Optional[int]  # None: the Nakayama count recurrence gives it
    arrows: int


WORKLOADS = {
    "verify-cyclic44-q": Workload("verify", "nakayama:cyclic:4:4", None, None, 140),
    "explore-apath5-fp": Workload("explore", "a-path:5", "fp:32003", 132, 330),
    "explore-apath6-q": Workload("explore", "a-path:6", None, 429, 1287),
    "explore-preproj4-q": Workload("explore", "preproj-a:4", None, 120, 240),
    "verify-cyclic55-q": Workload("verify", "nakayama:cyclic:5:5", None, None, 630),
    "explore-apath6-fp": Workload("explore", "a-path:6", "fp:32003", 429, 1287),
}

STATUS = re.compile(r"^(\d+) vertices, (\d+) arrows, (.+)$", re.M)


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


# name -> (unit, value from a traced child's ``layers`` summary)
PER_LAYER = {
    "linalg.rref.calls": ("count", lambda s: s["calls"]["linalg.rref"]),
    "linalg.rref.cells": ("count", lambda s: s["counts"].get("linalg.rref.cells", 0)),
    "linalg.rref.self_s": ("s", lambda s: s["self_s"]["linalg.rref"]),
    "modules.hom_basis.calls": ("count", lambda s: s["calls"]["modules.hom_basis"]),
    "modules.hom_basis.self_s": ("s", lambda s: s["self_s"]["modules.hom_basis"]),
    "modules.registry.hom_hit_ratio": ("ratio", lambda s: _ratio(
        s["counts"].get("modules.registry.hom_hits", 0),
        s["counts"].get("modules.registry.hom_calls", 0))),
    "modules.tau.calls": ("count", lambda s: s["calls"]["modules.tau"]),
    "modules.tau.self_s": ("s", lambda s: s["self_s"]["modules.tau"]),
    "modules.end_data.calls": ("count", lambda s: s["calls"]["modules.end_data"]),
    "modules.end_data.self_s": ("s", lambda s: s["self_s"]["modules.end_data"]),
    "modules.decompose.calls": ("count", lambda s: s["calls"]["modules.decompose"]),
    "modules.decompose.summands": ("count", lambda s: s["counts"].get("modules.decompose.summands", 0)),
    "modules.decompose.self_s": ("s", lambda s: s["self_s"]["modules.decompose"]),
    "modules.indec_iso.calls": ("count", lambda s: s["calls"]["modules.indec_iso"]),
    "modules.indec_iso.match_ratio": ("ratio", lambda s: _ratio(
        s["counts"].get("modules.indec_iso.matches", 0), s["calls"]["modules.indec_iso"])),
    "modules.indec_iso.self_s": ("s", lambda s: s["self_s"]["modules.indec_iso"]),
    "modules.top_socle.self_s": ("s", lambda s: s["self_s"]["modules.top_socle"]),
    "tautilt.explore.s": ("s", lambda s: s["inclusive_s"]["tautilt.explore"]),
    "tautilt.left_mutate.calls": ("count", lambda s: s["calls"]["tautilt.left_mutate"]),
    "tautilt.left_mutate.self_s": ("s", lambda s: s["self_s"]["tautilt.left_mutate"]),
    "tautilt.left_mutate.new_summand_ratio": ("ratio", lambda s: _ratio(
        s["counts"].get("tautilt.left_mutate.new_summands", 0),
        s["counts"].get("tautilt.left_mutate.cokernel_summands", 0))),
    "tautilt.pair_is_tau_rigid.self_s": ("s", lambda s: s["self_s"]["tautilt.pair_is_tau_rigid"]),
    "smc.smc_of_vertex.self_s": ("s", lambda s: s["self_s"]["smc.smc_of_vertex"]),
    "smc.check_smc_axioms.self_s": ("s", lambda s: s["self_s"]["smc.check_smc_axioms"]),
    "smc.check_label_coincidence.self_s": ("s", lambda s: s["self_s"]["smc.check_label_coincidence"]),
    "grothendieck.grothendieck_data.self_s": ("s", lambda s: s["self_s"]["grothendieck.grothendieck_data"]),
    "grothendieck.duality_report.self_s": ("s", lambda s: s["self_s"]["grothendieck.duality_report"]),
    "algebra.build_algebra.self_s": ("s", lambda s: s["self_s"]["algebra.build_algebra"]),
}


# -- inputs ------------------------------------------------------------------


def make_spec(w: Workload, seed: int) -> dict:
    """The preset's spec as JSON, relabelled by ``seed``.

    A non-zero seed shuffles the vertex order, renames the vertices and
    shuffles the arrow order; relations name arrows, which keep their names.
    """
    from taumut import preset_spec

    data = preset_spec(w.preset).to_json_dict()
    if seed == 0:
        return data
    rng = random.Random(seed)
    vertices = list(data["vertices"])
    rng.shuffle(vertices)
    numbers = rng.sample(range(10, 100), len(vertices))
    rename = {v: f"v{k}" for v, k in zip(vertices, numbers)}
    arrows = [
        dict(a, source=rename[a["source"]], target=rename[a["target"]])
        for a in data["arrows"]
    ]
    rng.shuffle(arrows)
    return dict(data, vertices=[rename[v] for v in vertices], arrows=arrows)


def expected_vertices(w: Workload) -> int:
    if w.vertices is not None:
        return w.vertices
    # An --algebra file carries no Nakayama shape, so verify skips its own
    # recurrence cross-check; the benchmark makes it here instead.
    from taumut.nakayama import count_value

    _, kind, n, l = w.preset.split(":")
    return count_value(kind, int(n), int(l))


# -- child processes ---------------------------------------------------------


@dataclass
class Child:
    tag: str
    exit_code: Optional[int]  # None: killed at the deadline
    stdout: bytes
    stderr: bytes
    report: Optional[dict]
    t_spawn: float
    peak_rss_mb: float


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` with its own resource usage; kill it at ``deadline``."""
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return (None if killed else proc.returncode), usage
        if not killed and time.monotonic() > deadline:
            proc.kill()
            killed = True
        time.sleep(0.01)


def run_child(mode: str, cli_args: List[str], tag: str, deadline: float) -> Child:
    paths = {k: os.path.join(WORK, f"{tag}.{k}") for k in ("report", "out", "err", "spans")}
    cmd = [sys.executable, os.path.join(HERE, "child.py"), SRC, paths["report"], mode]
    if mode == "trace":
        cmd.append(paths["spans"])
    cmd += ["--"] + cli_args
    env = {k: v for k, v in os.environ.items() if k != "TAUMUT_FIELD"}
    with open(paths["out"], "wb") as out, open(paths["err"], "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
        try:
            exit_code, usage = _wait(proc, deadline)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    report = None
    if os.path.exists(paths["report"]):
        with open(paths["report"], encoding="utf-8") as fh:
            report = json.load(fh)
    with open(paths["out"], "rb") as fh:
        stdout = fh.read()
    with open(paths["err"], "rb") as fh:
        stderr = fh.read()
    # ru_maxrss is in KiB on Linux.
    return Child(tag, exit_code, stdout, stderr, report, t_spawn, usage.ru_maxrss * 1024 / 1e6)


def check(w: Workload, child: Child, expected: bytes) -> Optional[str]:
    """Why the operation failed, or None when its result is right."""
    if child.exit_code is None:
        return "killed at the run deadline"
    if child.exit_code != 0:
        tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {child.exit_code}: {' '.join(tail)}"
    if child.report is None:
        return "the child wrote no report"
    if child.report.get("wrapped"):
        return f"tracing wrappers left installed: {child.report['wrapped']}"
    if "t_built" in child.report:
        return None
    text = child.stdout.decode(errors="replace")
    status = STATUS.search(text)
    want = (expected_vertices(w), w.arrows, "complete")
    if status is None or (int(status[1]), int(status[2]), status[3]) != want:
        return f"status line {status[0] if status else None!r}, want {want}"
    if w.verb == "verify" and "verify: ok" not in text.splitlines():
        return "verify did not report ok"
    # The verbs' output names no vertex, so it is the same for every seed.
    if child.stdout != expected:
        return "stdout differs from the stored expected copy"
    return None


# -- one run -----------------------------------------------------------------


def fresh_workdir() -> None:
    """Empty the work directory, so that no report of an earlier child remains."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)


def prepare(name: str, seed: int):
    """Write the workload's input; return its CLI arguments and expected stdout."""
    w = WORKLOADS[name]
    spec_path = os.path.join(WORK, f"{name}-{seed}.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(make_spec(w, seed), fh, indent=2, sort_keys=True)
    cli_args = [w.verb, "--algebra", spec_path]
    if w.field:
        cli_args += ["--field", w.field]
    with open(os.path.join(EXPECTED, f"{name}.stdout"), "rb") as fh:
        expected = fh.read()
    return cli_args, expected


def layer_metrics(summary: dict) -> dict:
    """The per-layer metric values of one traced child's summary."""
    return {metric: value(summary) for metric, (_, value) in PER_LAYER.items()}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    fresh_workdir()
    w = WORKLOADS[name]
    cli_args, expected = prepare(name, seed)
    deadline = time.monotonic() + RUN_DEADLINE_S
    children: List[Child] = []
    errors: List[str] = []

    def operation(mode: str) -> Child:
        child = run_child(mode, cli_args, f"{name}-{seed}-{len(children)}", deadline)
        children.append(child)
        error = check(w, child, expected)
        if error:
            errors.append(f"{child.tag} ({mode}): {error}")
        return child

    setups, plain, traced = [], [], []
    loop_start = time.monotonic()
    while time.monotonic() - loop_start < seconds and time.monotonic() < deadline:
        # Set-up samples are spread evenly over the run, so that their
        # median sees the same host as the operations do.
        if not trace and len(setups) * seconds <= SETUP_SAMPLES * (time.monotonic() - loop_start):
            setups.append(operation("setup"))
        plain.append(operation("run"))
        if trace:
            traced.append(operation("trace"))

    result = {"correct": not errors, "attempted": len(children), "failed": len(errors)}
    for error in errors:
        print("FAILED", error)
    if errors:
        print(f"{name} seed {seed}: error_rate {len(errors) / len(children)} "
              f"({len(errors)}/{len(children)})")
        result["metrics"] = {}
        return result

    if not trace:
        setup_raw = statistics.median(c.report["t_built"] - c.t_spawn for c in setups)
        setup_s = REF_NOMINAL_S * statistics.median(
            (c.report["t_built"] - c.t_spawn) / c.report["ref_s"] for c in setups)
        wall_s = statistics.median(c.report["wall_s"] for c in plain)
        wall_ref = statistics.median(c.report["wall_s"] / c.report["ref_s"] for c in plain)
        ref_s = statistics.median(c.report["ref_s"] for c in plain)
        rss = statistics.median(c.peak_rss_mb for c in plain)
        print(f"{name} seed {seed}: setup_s {setup_s:.4f} s (median of {len(setups)}, "
              f"raw {setup_raw:.4f} s), "
              f"wall_ref {wall_ref:.2f} (median of {len(plain)}), wall_s {wall_s:.4f} s, "
              f"ref_s {ref_s:.5f} s, peak_rss_mb {rss:.2f} MB, "
              f"error_rate 0.0 (0/{len(children)})")
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_ref": {"value": wall_ref, "unit": "ratio"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        return result

    values = [layer_metrics(c.report["layers"]) for c in traced]
    metrics = {}
    for metric, (unit, _) in PER_LAYER.items():
        if unit == "s":
            value = statistics.median(v[metric] for v in values)
        elif any(v[metric] != values[0][metric] for v in values):
            print(f"FAILED traced operations of one input disagree on {metric}")
            return dict(result, correct=False, failed=len(traced), metrics={})
        else:
            value = values[0][metric]
        metrics[metric] = {"value": value, "unit": unit}
    # Measured in reference units and turned back into seconds at the run's
    # median host speed, so that a speed swing between the traced and the
    # untraced operations does not read as overhead.
    overhead = (statistics.median(c.report["wall_s"] / c.report["ref_s"] for c in traced)
                - statistics.median(c.report["wall_s"] / c.report["ref_s"] for c in plain)
                ) * statistics.median(c.report["ref_s"] for c in plain + traced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"{name} seed {seed}: {len(traced)} traced and {len(plain)} untraced operations, "
          f"tracing overhead {overhead:.4f} s")
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not os.path.isfile(os.path.join(SRC, "taumut", "__init__.py")):
        print(f"error: no taumut sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}")
    if args.workload:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = [run(name, args.seed, args.seconds, False) for name in WORKLOADS]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
