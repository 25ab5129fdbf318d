"""Import direction inside the package: the CNN (``network``) and the
detector math (``logistic``, ``mahalanobis``) sit below ``pipeline``, the
one module that turns images into detector rows and the only one that
knows a bundle's files. ``features`` holds only math. Only ``xten``, home
of the bounds-checked ``ByteReader``, unpacks bytes. The README's Layout
table names only what each module defines."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "xood"


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def package_imports(module: str) -> set[str]:
    """The package modules ``module`` imports relatively."""
    names = set()
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import a, b
                names.update(alias.name for alias in node.names)
    return names


def test_reader_sees_imports():
    assert package_imports("pipeline") >= {"logistic", "mahalanobis", "network"}


@pytest.mark.parametrize("module", ["logistic", "mahalanobis"])
def test_detector_math_imports_only_errors_and_features(module):
    assert package_imports(module) <= {"errors", "features"}


def test_features_imports_only_errors():
    """``features`` holds only math; its tables are read and written above."""
    assert package_imports("features") == {"errors"}


def test_only_pipeline_names_the_power_transform_file():
    naming = sorted(p.stem for p in PACKAGE.glob("*.py")
                    if "power_transform.txt" in p.read_text())
    assert naming == ["pipeline"]


def test_network_imports_no_detector_module():
    above = {"features", "pipeline", "logistic", "mahalanobis", "distortions"}
    assert package_imports("network").isdisjoint(above)


def struct_unpacks(module: str) -> list[int]:
    """Lines where ``module`` calls ``struct.unpack`` or ``struct.unpack_from``."""
    return [
        node.lineno
        for node in ast.walk(parse(module))
        if isinstance(node, ast.Attribute)
        and node.attr in ("unpack", "unpack_from")
        and isinstance(node.value, ast.Name)
        and node.value.id == "struct"
    ]


def test_reader_sees_unpacks():
    assert struct_unpacks("xten")


def test_only_xten_unpacks_bytes():
    """Every other loader reads binary files through ``xten.ByteReader``."""
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "xten")
    assert len(modules) > 10
    assert {m: lines for m in modules if (lines := struct_unpacks(m))} == {}


def readme_layout_names() -> dict[str, list[str]]:
    """Per module of the README's Layout table, the backticked Python
    identifiers in its row, except ``xood``, the command's name."""
    layout = (ROOT / "README.md").read_text().split("\n## Layout\n")[1]
    rows = re.findall(r"^\| `src/xood/(\w+)\.py` \|(.*)\|$", layout, re.MULTILINE)
    return {module: [name for name in re.findall(r"`([^`]*)`", text)
                     if name.isidentifier() and name != "xood"]
            for module, text in rows}


def test_reader_sees_readme_layout():
    names = readme_layout_names()
    assert len(names) > 10
    assert "run_network" in names["pipeline"] and "ByteReader" in names["xten"]


def test_readme_layout_names_only_what_its_module_defines():
    missing = {module: [n for n in names
                        if not hasattr(importlib.import_module(f"xood.{module}"), n)]
               for module, names in readme_layout_names().items()}
    assert {module: names for module, names in missing.items() if names} == {}
