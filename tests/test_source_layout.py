"""Structural checks on the package source, read with ast."""

import ast
from pathlib import Path

import pytest

import hystlab

MODULES = sorted(Path(hystlab.__file__).parent.glob("*.py"))


def _private_sibling_imports(tree: ast.AST) -> list[str]:
    """Underscore names imported from another hystlab module."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "hystlab":
            continue  # numpy's _umath_linalg, __future__ and the like
        found += [f"{'.' * node.level}{module}:{alias.name}"
                  for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _private_sibling_imports(tree) == []


def test_private_import_detector():
    tree = ast.parse("from .netlist import _fmt, parse_value\n"
                     "from hystlab.solver import _solve\n"
                     "from numpy.linalg import _umath_linalg\n"
                     "from __future__ import annotations\n")
    assert _private_sibling_imports(tree) == [".netlist:_fmt", "hystlab.solver:_solve"]


def _line_number_sites(tree: ast.Module) -> list[str]:
    """Top-level functions and classes that pass NetlistError a line number."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "NetlistError"
                    and len(node.args) + len(node.keywords) > 1):
                found.append(getattr(top, "name", "<module>"))
    return found


def test_only_the_parser_adds_line_numbers():
    # records and helpers raise bare NetlistErrors; parse_netlist adds the line
    path = Path(hystlab.__file__).parent / "netlist.py"
    assert _line_number_sites(ast.parse(path.read_text())) == ["parse_netlist"]


def test_line_number_detector():
    tree = ast.parse("def f(t, n):\n    raise NetlistError('x', n)\n"
                     "def g(t, n):\n    raise NetlistError('x', line_no=n)\n"
                     "class R:\n    def check(self):\n        raise NetlistError('x')\n"
                     "NetlistError('x', 2)\n")
    assert _line_number_sites(tree) == ["f", "g", "<module>"]


def _names_imported_from(tree: ast.AST, module: str) -> list[str]:
    """Names a module imports from the hystlab module ``module``, relatively or not."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == module)
                or (node.level == 0 and node.module == f"hystlab.{module}")):
            found += [alias.name for alias in node.names]
    return sorted(found)


def test_solver_takes_only_the_stamping_kernel_from_devices():
    # the solver stamps with the kernel; device evaluations at a solution
    # (mos_eval, DeviceEval) belong to audit.device_evals
    path = Path(hystlab.__file__).parent / "solver.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _names_imported_from(tree, "devices") == ["kfactor", "mos_kernel", "mos_sign"]


def test_imported_names_detector():
    tree = ast.parse("from .devices import mos_sign, kfactor\n"
                     "from hystlab.devices import mos_eval\n"
                     "from .netlist import Mosfet\n"
                     "from ..devices import DeviceEval\n")
    assert _names_imported_from(tree, "devices") == ["kfactor", "mos_eval", "mos_sign"]
