"""Every name a package exports in ``__all__`` resolves.

A function deleted from a module cannot then stay exported by its
package.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
