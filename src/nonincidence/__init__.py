"""Steiner triple systems and their largest nonincident point/block sets."""

from .bounds import (
    CurveData,
    EqualityFamilyRecord,
    classify_equality_order,
    disjoint_block_bound,
    enumerate_equality_orders,
    intersection_curve_data,
    nonincidence_upper_bound,
)
from .constructions import (
    BudgetExhausted,
    EmbeddedDesign,
    bose,
    build_sts,
    doubling,
    embed_subsystem,
    one_factorization,
    subsystem_complement_certificate,
)
from .design import (
    Design,
    DesignError,
    DigestMismatchError,
    NonincidenceCertificate,
    ValidityReport,
    certificate_violations,
    is_subsystem,
    validate_design,
    verify_certificate,
)
from .search import (
    SearchReport,
    exact_max_nonincident,
    find_subsystem,
    greedy_max_nonincident,
)

__all__ = [
    "BudgetExhausted",
    "CurveData",
    "Design",
    "DesignError",
    "DigestMismatchError",
    "EmbeddedDesign",
    "EqualityFamilyRecord",
    "NonincidenceCertificate",
    "SearchReport",
    "ValidityReport",
    "bose",
    "build_sts",
    "certificate_violations",
    "classify_equality_order",
    "disjoint_block_bound",
    "doubling",
    "embed_subsystem",
    "enumerate_equality_orders",
    "exact_max_nonincident",
    "find_subsystem",
    "greedy_max_nonincident",
    "intersection_curve_data",
    "is_subsystem",
    "nonincidence_upper_bound",
    "one_factorization",
    "subsystem_complement_certificate",
    "validate_design",
    "verify_certificate",
]
