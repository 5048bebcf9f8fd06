"""loxgrow: certified word-growth brackets for hyperbolic isometry groups.

The pipeline takes a finite symmetric generating set acting on one of three
concrete backends, hunts for a ping-pong free basis among conjugated powers
of a short loxodromic element, and turns the certified free rank into a
lower bound on the exponential growth rate; Fekete subadditivity of the ball
counts supplies the matching upper bound.
"""

__version__ = "0.1.0"

from .errors import (
    AllElementary,
    BackendMismatch,
    BudgetExceeded,
    ConfigError,
    ElementaryDetected,
    InvalidCertificate,
    LikelyElementary,
    LoxgrowError,
    NoLoxodromicFound,
    NotInGroup,
    SearchExhausted,
)
from .spaces import (
    Classification,
    FreeGroupTree,
    FreeProductTree,
    GroupElement,
    HalfPlane,
    Point,
    basepoint_candidates,
    make_backend,
    psl2z_normal_form,
)
from .words import (
    GeneratingSet,
    make_generating_set,
    product_ball_set,
    word_length_in_S,
)
from .hypcore import (
    estimate_delta,
    gromov_product,
    min_displacement_search,
    translation_length_bracket,
)
from .growth import (
    GrowthTable,
    ball_sizes,
    growth_brackets,
)
from .freebasis import (
    FreeBasisCertificate,
    SearchBudgets,
    TheoremReport,
    build_free_basis,
    certificate_from_payload,
    certificate_payload,
    certificate_to_json,
    certify_free_exact,
    certify_free_geometric,
    check_certificate,
    find_independent,
    find_short_loxodromic,
    verify_theorem,
)

__all__ = [
    "AllElementary",
    "BackendMismatch",
    "BudgetExceeded",
    "Classification",
    "ConfigError",
    "ElementaryDetected",
    "FreeBasisCertificate",
    "FreeGroupTree",
    "FreeProductTree",
    "GeneratingSet",
    "GroupElement",
    "GrowthTable",
    "HalfPlane",
    "InvalidCertificate",
    "LikelyElementary",
    "LoxgrowError",
    "NoLoxodromicFound",
    "NotInGroup",
    "Point",
    "SearchBudgets",
    "SearchExhausted",
    "TheoremReport",
    "__version__",
    "ball_sizes",
    "basepoint_candidates",
    "build_free_basis",
    "certificate_from_payload",
    "certificate_payload",
    "certificate_to_json",
    "certify_free_exact",
    "certify_free_geometric",
    "check_certificate",
    "estimate_delta",
    "find_independent",
    "find_short_loxodromic",
    "growth_brackets",
    "gromov_product",
    "make_backend",
    "make_generating_set",
    "min_displacement_search",
    "product_ball_set",
    "psl2z_normal_form",
    "translation_length_bracket",
    "verify_theorem",
    "word_length_in_S",
]
