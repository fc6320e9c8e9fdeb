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


def test_every_span_is_on_the_verify_path(tracing):
    # Every module over a-path:3 is a brick, so End(M) is never analysed
    # there; the projectives of preproj-a:3 have dim End 2.
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
    assert [name for name, n in calls.items() if n == 0] == []
