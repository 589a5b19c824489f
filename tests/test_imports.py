"""The package is imported module by module: each module imports on its
own, and loads only the modules it uses. Each check runs in a fresh
interpreter, since this one has already imported the package."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
MODULES = ["bumps", "cli", "decompose", "errors", "inner", "params", "pipeline",
           "relunet", "target"]


def _loaded_after(*modules: str) -> set[str]:
    """The kst modules in sys.modules after a fresh interpreter imports
    the given ones."""
    code = (
        "import importlib, json, sys\n"
        f"for m in {list(modules)!r}: importlib.import_module('kst.' + m)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('kst'))))"
    )
    env = os.environ | {"PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    assert f"kst.{module}" in _loaded_after(module)


def test_benchmark_setup_loads_no_construction():
    # what the pipeline-n2 and audit-exact-n2 set-ups import
    loaded = _loaded_after("params", "target", "inner", "bumps")
    assert not loaded & {"kst.decompose", "kst.pipeline", "kst.relunet", "kst.cli"}
