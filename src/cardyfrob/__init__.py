"""Exact Cardy-Frobenius algebras of finite group pairs.

Given a finite group ``G`` and a subgroup ``K``, the quotient
``N = N_G(K)/K`` acts by conjugation on the set ``X`` of subgroups between
``K`` and ``G``.  This package constructs the resulting pair of equipped
Frobenius algebras ``(A, B)`` with the central homomorphism ``phi`` and the
element ``U``, verifies all the axioms (including the Cardy condition) in
exact rational arithmetic, evaluates Hurwitz numbers of surfaces with
interior and boundary field assignments, and cross-checks every number
against independent brute-force oracles.
"""

from .actions import (
    BoundaryField,
    ConjugationSetup,
    FieldCatalog,
    InteriorField,
    NSet,
    build_catalog,
    build_conjugation_setup,
    coset_nset,
)
from .bundle import bundled_input
from .cardy import (
    CardyFrobeniusAlgebra,
    HeckeComparison,
    build_A,
    build_B,
    build_U,
    build_cardy_frobenius,
    build_phi,
    cardy_from_pair,
    hecke_check,
    verify_all,
    verify_cardy_frobenius,
)
from .errors import ConsistencyError, InputError, ResourceError
from .frobenius import (
    AlgebraElement,
    CheckResult,
    EquippedFrobeniusAlgebra,
    all_passed,
    center_dimension,
    failures,
    is_semisimple,
    verify_equipped,
)
from .groups import (
    ConjugacyClass,
    FiniteGroup,
    Subgroup,
    build_group,
    centralizer,
    conjugacy_classes,
    document_digest,
    group_from_document,
    is_core_free,
    normalizer,
    quotient_group,
    subgroup_closure,
    subgroup_from_elements,
    subgroup_interval,
    subgroups_containing,
    trivial_subgroup,
)
from .hurwitz import (
    HurwitzResult,
    SurfaceSpec,
    cut_check_boundary,
    cut_check_crosscap,
    cut_check_handle,
    evaluate,
    rotated,
    star_reversed,
)
from .oracles import (
    OracleResult,
    cardy_axiom_oracle,
    cardy_condition_oracle,
    closed_nonorientable_oracle,
    closed_orientable_oracle,
    commutator_casimir_check,
    covering_oracle,
    dense_axiom_oracle,
    element_axiom_oracle,
    oracle_for_spec,
    subgroup_lattice_oracle,
)
from .rationals import format_fraction, parse_fraction

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "BoundaryField",
    "CardyFrobeniusAlgebra",
    "CheckResult",
    "ConjugacyClass",
    "ConjugationSetup",
    "ConsistencyError",
    "EquippedFrobeniusAlgebra",
    "FieldCatalog",
    "FiniteGroup",
    "HeckeComparison",
    "HurwitzResult",
    "InputError",
    "InteriorField",
    "NSet",
    "OracleResult",
    "ResourceError",
    "Subgroup",
    "SurfaceSpec",
    "all_passed",
    "build_A",
    "build_B",
    "build_U",
    "build_cardy_frobenius",
    "build_catalog",
    "build_conjugation_setup",
    "build_group",
    "build_phi",
    "bundled_input",
    "cardy_axiom_oracle",
    "cardy_condition_oracle",
    "cardy_from_pair",
    "center_dimension",
    "centralizer",
    "closed_nonorientable_oracle",
    "closed_orientable_oracle",
    "commutator_casimir_check",
    "conjugacy_classes",
    "coset_nset",
    "covering_oracle",
    "cut_check_boundary",
    "cut_check_crosscap",
    "cut_check_handle",
    "dense_axiom_oracle",
    "document_digest",
    "element_axiom_oracle",
    "evaluate",
    "failures",
    "format_fraction",
    "group_from_document",
    "hecke_check",
    "is_core_free",
    "is_semisimple",
    "normalizer",
    "oracle_for_spec",
    "parse_fraction",
    "quotient_group",
    "rotated",
    "star_reversed",
    "subgroup_closure",
    "subgroup_from_elements",
    "subgroup_interval",
    "subgroup_lattice_oracle",
    "subgroups_containing",
    "trivial_subgroup",
    "verify_all",
    "verify_cardy_frobenius",
    "verify_equipped",
]
