"""Exact verification engine for Ext tables of generalized Steinberg modules.

Builds split reduced root systems, Weyl double cosets with their stratum
characters, and integer subset-lattice complexes, then checks the closed-form
Ext answers against Smith-normal-form homology over Q or Z/d.
"""

from .errors import (
    ConfigurationError,
    ContractError,
    ResourceLimitError,
    RingAssumptionError,
    SteinbergExtError,
    VerificationError,
)
from .extengine import (
    ExtTable,
    ModulePiece,
    Orientation,
    VanishingCertificate,
    cohomology_v,
    ext_cuspidal_line,
    ext_induced_closed,
    ext_induced_via_strata,
    ext_steinberg,
    ext_v_to_induced,
    exterior_table,
    induced_cohomology,
    orientation_from_permutation,
    orientation_from_subset,
    steinberg_degree,
    subset_from_orientation,
    tensor_with_exterior,
    trivial_cohomology,
    vanishing_certificate,
)
from .homology import (
    ChainComplex,
    HomologyResult,
    IntMatrix,
    SmithForm,
    exterior_row_complex,
    homology_over_Z,
    homology_with_coefficients,
    reverse_transpose,
    smith_divisors,
    smith_normal_form,
    subset_lattice_complex,
)
from .ringcond import (
    ConditionReport,
    RingSpec,
    banal_proxy_check,
    bon_check,
    check_ring,
    format_ring,
    is_unit,
    parse_ring,
    weyl_degrees,
)
from .rootdata import (
    RootSystem,
    build_root_system,
    cofundamental_pairing,
    full_mask,
    levi_positive_roots,
    mask_from_indices,
    mask_indices,
    mask_size,
    max_rho_coefficient,
    parse_type,
    rho_coefficients,
    root_system_json,
)
from .weyl import (
    DoubleCosetRep,
    WeylElement,
    WeylGroup,
    delta_exponents,
    gamma_exponents,
    generate_weyl,
    intersect_levi,
    kostant_reps,
    load_or_generate,
    parabolic_order,
    parabolic_subgroup,
)

__version__ = "0.1.0"
