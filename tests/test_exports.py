"""The package's public names: every module's ``__all__`` resolves, and the
package re-exports only names its modules declare public."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import zfepr

#: module -> the names ``zfepr/__init__.py`` imports from it.
REEXPORTS = {node.module: [alias.name for alias in node.names]
             for node in ast.parse(pathlib.Path(zfepr.__file__).read_text()).body
             if isinstance(node, ast.ImportFrom) and node.level == 1}


# __main__ runs the command line when imported
@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(zfepr.__path__)
                                  if m.name != "__main__"])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"zfepr.{name}")
    public = getattr(module, "__all__", [])
    assert [n for n in public if not hasattr(module, n)] == []
    assert len(set(public)) == len(public)


@pytest.mark.parametrize("module, names", sorted(REEXPORTS.items()))
def test_package_reexports_only_public_names(module, names):
    public = importlib.import_module(f"zfepr.{module}").__all__
    assert [n for n in names if n not in public] == []
