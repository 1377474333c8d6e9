"""Steiner triple systems and their largest nonincident point/block sets."""

from .bounds import (
    CurveData,
    EqualityFamilyRecord,
    classify_equality_order,
    disjoint_block_bound,
    intersection_curve_data,
    iter_equality_orders,
    nonincidence_upper_bound,
)
from .constructions import (
    BudgetExhausted,
    EmbeddedDesign,
    bose,
    build_sts,
    doubling,
    embed_subsystem,
    subsystem_complement_certificate,
)
from .design import (
    MAX_ORDER,
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
    "MAX_ORDER",
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
    "exact_max_nonincident",
    "find_subsystem",
    "greedy_max_nonincident",
    "intersection_curve_data",
    "is_subsystem",
    "iter_equality_orders",
    "nonincidence_upper_bound",
    "subsystem_complement_certificate",
    "validate_design",
    "verify_certificate",
]
