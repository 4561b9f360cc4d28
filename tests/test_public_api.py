"""Every name a package exports through ``__all__`` resolves."""

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.api",
    "repro.sched",
    "repro.experiments",
    "repro.surrogate",
    "repro.check",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ lists unresolvable {missing}"
    assert len(set(module.__all__)) == len(module.__all__), "duplicates"
