"""Exact cohomology of finite groups with circle coefficients, defect
four-cocycles of graded skeletal data, lifting of classes through covers,
and the associated extension ledger."""

from .qz import QZ
from .groups import FiniteGroup, GroupHom, catalog_labels, from_label
from .cochains import Cochain, coboundary, is_cocycle, pullback
from .linalg import InternalCheckError
from .cohomology import (
    CohomologyGroup,
    SizeBudgetError,
    class_coordinates,
    coboundary_primitive,
    compute_cohomology,
    is_coboundary,
)
from .skeletons import (
    DescentError,
    PentagonDefect,
    QuasiMonoidalSkeleton,
    fiber_product,
    opposite,
    pentagon_defect,
    trivial_skeleton,
    twist,
)
from .lifting import (
    CoverExhaustionError,
    default_catalog,
    find_cover,
    realize,
    solve_primitive,
)
from .witt import (
    WittElement,
    admits_minimal_extension,
    compose,
    defect_to_witt,
    eta,
    evaluate_expression,
    identity_element,
    inverse,
    phi,
    power,
    section_S,
)

__all__ = [
    "QZ",
    "FiniteGroup",
    "GroupHom",
    "catalog_labels",
    "from_label",
    "Cochain",
    "coboundary",
    "is_cocycle",
    "pullback",
    "InternalCheckError",
    "CohomologyGroup",
    "SizeBudgetError",
    "class_coordinates",
    "coboundary_primitive",
    "compute_cohomology",
    "is_coboundary",
    "DescentError",
    "PentagonDefect",
    "QuasiMonoidalSkeleton",
    "fiber_product",
    "opposite",
    "pentagon_defect",
    "trivial_skeleton",
    "twist",
    "CoverExhaustionError",
    "default_catalog",
    "find_cover",
    "realize",
    "solve_primitive",
    "WittElement",
    "admits_minimal_extension",
    "compose",
    "defect_to_witt",
    "eta",
    "evaluate_expression",
    "identity_element",
    "inverse",
    "phi",
    "power",
    "section_S",
]

__version__ = "0.1.0"
