"""Every public export of the package resolves to a real attribute, the
exports are exactly the pinned list, the package version agrees with the
project metadata, and the test oracle imports nothing from the package."""

import ast
import importlib
import pathlib
import pkgutil
import re
import sys

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


# every name here is run by a CLI path or an acceptance criterion; a name
# joins the list only together with one of them
EXPORTS = [
    "AlphaOne", "ConfigError", "CycleCensus", "CycleCountStat", "DegenerateState",
    "DensityMatrix", "DimensionCap", "DomainError", "EmptyInput", "EnergyBasis",
    "FactorizationShape", "InvalidCycle", "LengthMismatch", "NotHermitian",
    "NumericViolation", "OnticVector", "OnticsimError", "Permutation", "PureState",
    "SizeMismatch", "SizeSummary", "Spectrum", "SubsystemMask", "SweepConfig",
    "SweepResult", "SweepSummary", "TrivialSubsystem", "collision_entropy",
    "complement", "energy_basis", "inner_ontic", "natural_state_lower_bound",
    "orthant_sphere_area", "overlap_standard", "popcount", "project_standard",
    "purity", "random_ontic", "random_permutation", "reduced_density",
    "renyi_entropy", "run_cycle_census", "run_sweep", "run_time_series",
    "spectrum_of", "state_from_ontic", "summarize_by_size", "sweep_csv",
    "von_neumann_entropy",
]


def package_imports():
    """(module, name) of each relative import in the package's __init__."""
    tree = ast.parse(pathlib.Path(onticsim.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_imports_resolve():
    imported = package_imports()
    assert imported
    missing = [
        f"{module}.{attr}"
        for module, attr in imported
        if not hasattr(importlib.import_module(f"onticsim.{module}"), attr)
        or not hasattr(onticsim, attr)
    ]
    assert missing == []


def test_exports_are_pinned():
    assert sorted(name for _, name in package_imports()) == EXPORTS


def test_version_matches_pyproject():
    # tomllib is missing on Python 3.10, so read the one line directly
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert declared is not None
    assert declared.group(1) == onticsim.__version__


def test_oracle_imports_nothing_from_onticsim():
    # the test references stay independent of the code they check: the
    # standard library and numpy only, at any depth of the module
    tree = ast.parse((pathlib.Path(__file__).parent / "oracle.py").read_text())
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        "." * node.level + (node.module or "")
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ]
    assert imported
    roots = {name.split(".")[0] for name in imported}
    assert roots <= set(sys.stdlib_module_names) | {"numpy"}, roots
