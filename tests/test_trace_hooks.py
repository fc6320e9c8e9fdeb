"""The benchmark's trace hooks (perfbench/tracing.py) still resolve.

The tracer wraps layer functions by module and name.  A refactor that
renames or deletes one of them, or moves it off the path the CLI takes,
would silently break ``perfbench/run.py --trace 1``; these tests make it
fail here instead.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tracing):
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises if a traced function no longer exists
        assert tracing.wrapped_names()
    finally:
        tracer.uninstall()
    assert tracing.wrapped_names() == []


# Spans that verify does not reach, each with its reason.  The tracer still
# binds them, so the benchmark's per-layer names resolve.
OFF_THE_VERIFY_PATH = {
    # A verb registers bricks (certified by dim End), mutation cokernels,
    # translates and quotient's reduced summands, and decomposes none of
    # them; decompose stays as library API and the tests' reference route.
    "modules.decompose",
    # The Koenig-Yang table gives G^T C = diag(d') with every d' = 1, so
    # verify builds no g/c-matrices; gvectors still builds them.
    "grothendieck.grothendieck_data",
    # No verb runs the report: gvectors prints the determinants, so it
    # calls check_duality on grothendieck_data itself.
    "grothendieck.duality_report",
    # explore takes each arrow's target from tautilt._complete_face, as a
    # key it looks up in its pair index, since every pair it finds is
    # tau-rigid by construction; left_mutate is the checked entry point for
    # a pair from outside, the tests' mutation.
    "tautilt.left_mutate",
}


def test_every_span_is_on_the_verify_path(tracing):
    # Every module over a-path:3 is a brick, so End(M) is never analysed
    # there; the projective at the middle vertex of preproj-a:3 has dim
    # End 2, and its radical feeds the top components.
    from taumut import cli

    tracer = tracing.Tracer()
    try:
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--preset", "a-path:3"]) == 0
            assert cli.main(["verify", "--preset", "preproj-a:3"]) == 0
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    assert {name for name, n in calls.items() if n == 0} == OFF_THE_VERIFY_PATH


def test_gvectors_builds_the_grothendieck_data(tracing):
    from taumut import cli

    tracer = tracing.Tracer()
    try:
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gvectors", "--preset", "a-path:3"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.summary()["calls"]["grothendieck.grothendieck_data"] == 14
