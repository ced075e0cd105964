"""Central conductors of group rings over p-adic integer rings.

The package computes the Jacobinski conductor of o[G] for finite G and
the central conductor of the completed group algebra of H x| Z_p for an
odd prime p, together with brute-force cross-checks, annihilation and
Fitting-ideal consequences, and a command line front end.
"""

from .cyclo import CycloNumber, cyclotomic_poly, totient
from .errors import (
    ContainmentError,
    GroupTooLargeError,
    InputError,
    InvalidAutomorphismError,
    InvalidQuotientError,
    PrecisionExhaustedError,
    UnsupportedPresentationError,
)
from .groups import (
    FiniteGroup,
    GroupAutomorphism,
    SemidirectData,
    conjugacy_classes,
    cyclic_automorphism,
    cyclic_group,
    direct_product,
    finite_quotient,
)
from .chartab import CharacterTable, CharOrbit, alpha_orbits, character_table, restrict_and_decompose
from .localfields import AbelianLocalField, decomposition_group, field_of_values, relative_data
from .padic import PLattice, hnf_columns, lattice_contains, smith_valuations, sublattice_of, vp
from .finite import (
    FiniteConductorReport,
    GModule,
    augmentation_module,
    brute_force_conductor,
    conductor_annihilates,
    formula_conductor_lattice,
    jacobinski_conductor,
    maximal_order_basis,
    maximal_order_module,
    regular_module,
    sharpness_probe,
    trivial_module,
)
from .iwasawa import (
    CharacterClass,
    ConductorDescription,
    TruncatedAlgebra,
    central_conductor,
    character_classes,
    dual_basis_check,
    extension_dual_basis_check,
    idempotent_suite,
    quotient_degree_check,
    scalar_conductor_exponent,
    splitting_field_bound,
    trace_lemma_check,
)
from .fitting import (
    FittingGenerators,
    PresentationMatrix,
    fitting_generators,
    group_algebra_determinant,
    reduced_norm,
)
from .verify import SUITES, CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "CycloNumber",
    "cyclotomic_poly",
    "totient",
    "FiniteGroup",
    "GroupAutomorphism",
    "SemidirectData",
    "conjugacy_classes",
    "cyclic_automorphism",
    "cyclic_group",
    "direct_product",
    "finite_quotient",
    "CharacterTable",
    "CharOrbit",
    "alpha_orbits",
    "character_table",
    "restrict_and_decompose",
    "AbelianLocalField",
    "decomposition_group",
    "field_of_values",
    "relative_data",
    "PLattice",
    "hnf_columns",
    "lattice_contains",
    "smith_valuations",
    "sublattice_of",
    "vp",
    "FiniteConductorReport",
    "GModule",
    "augmentation_module",
    "brute_force_conductor",
    "conductor_annihilates",
    "formula_conductor_lattice",
    "jacobinski_conductor",
    "maximal_order_basis",
    "maximal_order_module",
    "regular_module",
    "sharpness_probe",
    "trivial_module",
    "CharacterClass",
    "ConductorDescription",
    "TruncatedAlgebra",
    "central_conductor",
    "character_classes",
    "dual_basis_check",
    "extension_dual_basis_check",
    "idempotent_suite",
    "quotient_degree_check",
    "scalar_conductor_exponent",
    "splitting_field_bound",
    "trace_lemma_check",
    "FittingGenerators",
    "PresentationMatrix",
    "fitting_generators",
    "group_algebra_determinant",
    "reduced_norm",
    "SUITES",
    "CheckResult",
    "run_suite",
    "InputError",
    "InvalidAutomorphismError",
    "InvalidQuotientError",
    "ContainmentError",
    "GroupTooLargeError",
    "UnsupportedPresentationError",
    "PrecisionExhaustedError",
    "__version__",
]
