"""Exact verification engine for Ext tables of generalized Steinberg modules.

Builds split reduced root systems, Weyl double cosets with their stratum
characters, and integer subset-lattice complexes, then checks the closed-form
Ext answers against Smith-normal-form homology over Q or Z/d.

Every export, and every submodule, is imported on first access (PEP 562):
importing the package compiles none of its modules, so a command compiles
only the modules it runs.
"""

from importlib import import_module

# each exported name by the module that defines it
_EXPORTS = {
    "errors": (
        "ConfigurationError",
        "ContractError",
        "ResourceLimitError",
        "RingAssumptionError",
        "SteinbergExtError",
        "VerificationError",
    ),
    "tables": (
        "ExtTable",
        "ModulePiece",
        "ext_induced_closed",
        "exterior_table",
        "induced_cohomology",
        "steinberg_degree",
        "tensor_with_exterior",
        "trivial_cohomology",
    ),
    "zelevinsky": (
        "Orientation",
        "ext_cuspidal_line",
        "orientation_from_permutation",
        "orientation_from_subset",
        "subset_from_orientation",
    ),
    "certificates": (
        "VanishingCertificate",
        "ext_induced_via_strata",
        "vanishing_certificate",
    ),
    "extengine": (
        "cohomology_v",
        "ext_steinberg",
        "ext_v_to_induced",
    ),
    "homology": (
        "ChainComplex",
        "HomologyResult",
        "IntMatrix",
        "exterior_row_complex",
        "homology_over_Z",
        "homology_with_coefficients",
        "reverse_transpose",
        "smith_divisors",
        "subset_lattice_complex",
    ),
    "smith": (
        "SmithForm",
        "smith_normal_form",
    ),
    "ringcond": (
        "ConditionReport",
        "RingSpec",
        "banal_proxy_check",
        "bon_check",
        "check_ring",
        "format_ring",
        "is_unit",
        "parse_ring",
        "weyl_degrees",
    ),
    "rootdata": (
        "RootSystem",
        "build_root_system",
        "full_mask",
        "mask_from_indices",
        "mask_indices",
        "mask_size",
        "max_rho_coefficient",
        "parabolic_order",
        "parse_type",
        "rho_coefficients",
    ),
    "weyl": (
        "DoubleCosetRep",
        "WeylElement",
        "iter_kostant_reps",
        "kostant_reps",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(("certificates", "cli", "errors", "extengine", "homology", "ringcond",
                         "rootdata", "smith", "strata", "sweep", "tables", "weyl", "zelevinsky"))

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys() | _SUBMODULES)
