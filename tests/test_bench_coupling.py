"""The benchmark under bench/ drives semloc from outside: its modules import
semloc names, and ``tracing.Tracer`` replaces semloc module attributes by
name. A rename in semloc must fail here, not only when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

BENCH_MODULES = ["tracing", "layers", "workloads", "worlds", "stress",
                 "selfcheck"]


def semloc_attributes() -> dict:
    """(module name, attribute name) -> value over every loaded semloc
    module."""
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "semloc" or name.startswith("semloc.")
            for attr, value in vars(module).items()}


@pytest.mark.parametrize("name", BENCH_MODULES)
def test_bench_module_imports(name):
    importlib.import_module(name)


def test_tracer_restores_every_patched_attribute():
    for name in BENCH_MODULES:
        importlib.import_module(name)
    before = semloc_attributes()
    with tracing.Tracer():
        during = semloc_attributes()
    after = semloc_attributes()
    patched = {key for key, value in before.items() if during[key] is not value}
    assert patched
    assert during.keys() == before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
