"""The package's exports: each loads on first access from the module that
defines it, and importing the package loads none of its modules.  Every
function and class the package defines is used by the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steinberg_ext

SRC = Path(__file__).resolve().parent.parent / "src"

EXPORTS = [
    "ConfigurationError", "ContractError", "ResourceLimitError", "RingAssumptionError",
    "SteinbergExtError", "VerificationError",
    "ExtTable", "ModulePiece", "Orientation", "VanishingCertificate", "cohomology_v",
    "ext_cuspidal_line", "ext_induced_closed", "ext_induced_via_strata", "ext_steinberg",
    "ext_v_to_induced", "exterior_table", "induced_cohomology", "orientation_from_permutation",
    "orientation_from_subset", "steinberg_degree", "subset_from_orientation",
    "tensor_with_exterior", "trivial_cohomology", "vanishing_certificate",
    "ChainComplex", "HomologyResult", "IntMatrix", "SmithForm", "exterior_row_complex",
    "homology_over_Z", "homology_with_coefficients", "reverse_transpose", "smith_divisors",
    "smith_normal_form", "subset_lattice_complex",
    "ConditionReport", "RingSpec", "banal_proxy_check", "bon_check", "check_ring",
    "format_ring", "is_unit", "parse_ring", "weyl_degrees",
    "RootSystem", "build_root_system", "full_mask", "mask_from_indices", "mask_indices",
    "mask_size", "max_rho_coefficient", "parse_type", "rho_coefficients",
    "DoubleCosetRep", "WeylElement", "iter_kostant_reps", "kostant_reps", "parabolic_order",
]


def _fresh(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that has imported nothing
    of the package yet."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_lists_the_exports():
    assert len(set(EXPORTS)) == len(EXPORTS)
    assert sorted(steinberg_ext.__all__) == sorted(EXPORTS)


def test_each_export_is_its_defining_modules_object():
    for name in EXPORTS:
        obj = getattr(steinberg_ext, name)
        home = obj.__module__
        assert home.startswith("steinberg_ext.") and getattr(sys.modules[home], name) is obj, name


def test_parabolic_order_is_defined_with_the_root_data():
    from steinberg_ext import ringcond, rootdata, weyl

    assert steinberg_ext.parabolic_order is rootdata.parabolic_order is weyl.parabolic_order
    assert ringcond.parabolic_exponents is rootdata.parabolic_exponents


def test_unknown_names_are_missing():
    with pytest.raises(AttributeError):
        steinberg_ext.no_such_name
    assert "ExtTable" in dir(steinberg_ext) and "weyl" in dir(steinberg_ext)


def test_importing_the_package_loads_no_module_of_it():
    out = _fresh("import sys, steinberg_ext; "
                 "print(sorted(m for m in sys.modules if m.startswith('steinberg_ext')))")
    assert out == "['steinberg_ext']\n"


def test_star_import_binds_every_export():
    out = _fresh("from steinberg_ext import *\n"
                 "import steinberg_ext\n"
                 "print([n for n in steinberg_ext.__all__ if n not in globals()])")
    assert out == "[]\n"


def test_submodules_stay_reachable_as_attributes():
    out = _fresh("import steinberg_ext; "
                 "print(steinberg_ext.weyl.__name__, steinberg_ext.strata.__name__)")
    assert out == "steinberg_ext.weyl steinberg_ext.strata\n"


def _names(statement: ast.stmt):
    """The names a top-level statement refers to: each name it reads or
    calls, each attribute, each name it imports, and, for ``_EXPORTS``, each
    exported name."""
    exports = isinstance(statement, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "_EXPORTS" for target in statement.targets)
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)
        elif exports and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_used_by_the_package():
    """A module-level function or class that only tests read belongs in
    ``tests/oracles.py``: each one must be named somewhere in the package
    besides its own definition, in a call, a reference, an import or an
    ``_EXPORTS`` entry.  Dunder hooks are called by Python itself."""
    statements = [statement for path in sorted((SRC / "steinberg_ext").glob("*.py"))
                  for statement in ast.parse(path.read_text()).body]
    named = {}
    for statement in statements:
        for name in _names(statement):
            named.setdefault(name, set()).add(id(statement))
    unused = [statement.name for statement in statements
              if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
              and not statement.name.startswith("__")
              and not named.get(statement.name, set()) - {id(statement)}]
    assert unused == []
