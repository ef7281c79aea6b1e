"""The package namespace is exactly the union of the library modules' __all__."""

import importlib
import types

import pytest

import vspin

LIBRARY_MODULES = (
    "errors", "lab_frame", "operator_algebra", "pulse_engine",
    "spin_system", "state_prep", "textio", "virtual_qubits",
)


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_every_listed_name_is_exported(name):
    module = importlib.import_module(f"vspin.{name}")
    for public in module.__all__:
        assert getattr(vspin, public) is getattr(module, public)


def test_every_export_is_listed_by_a_library_module():
    listed = {
        public for name in LIBRARY_MODULES
        for public in importlib.import_module(f"vspin.{name}").__all__
    }
    exported = {
        public for public, value in vars(vspin).items()
        if not public.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == listed


def test_the_cli_stays_out_of_the_namespace():
    assert not hasattr(vspin, "run_command") and not hasattr(vspin, "main")
