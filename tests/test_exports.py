"""Every public export of the package resolves to a real attribute, and the
package version agrees with the project metadata."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import onticsim

MODULES = sorted(
    f"onticsim.{info.name}" for info in pkgutil.iter_modules(onticsim.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(onticsim.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{module}.{attr}"
        for module, attr in imported
        if not hasattr(importlib.import_module(f"onticsim.{module}"), attr)
        or not hasattr(onticsim, attr)
    ]
    assert missing == []


def test_version_matches_pyproject():
    # tomllib is missing on Python 3.10, so read the one line directly
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert declared is not None
    assert declared.group(1) == onticsim.__version__
