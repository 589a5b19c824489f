"""The traced benchmark wraps kst's entry points by name from outside the
package (perfbench/tracer.py). A refactor that renames or drops one of
them should fail here rather than crash a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_existing_entry_points():
    tracer = _load_tracer()
    t = tracer.Tracer()
    try:
        try:
            tracer.install(t)
        except (AttributeError, KeyError) as exc:
            pytest.fail(f"an entry point the tracer wraps is gone: {exc!r}")
        patched = list(t._restore)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, f"{attr} was not wrapped"
    finally:
        t.unpatch()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{attr} was not restored"
