"""Import direction inside the package: the CNN (``network``) and the
detector math (``logistic``, ``mahalanobis``) sit below ``pipeline``, the
one module that turns images into detector rows and the only one that
knows a bundle's files. ``features`` holds only math. Only ``xten``, home
of the bounds-checked ``ByteReader``, unpacks bytes."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xood"


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
