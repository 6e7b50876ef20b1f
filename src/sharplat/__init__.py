"""sharplat: an exact toolkit for finite multiplicative lattices.

Core objects (validated lattices with residuation), property predicates
and the four-way sharpness report, localization and factor-lattice
constructions, an enumeration engine with censuses, and exact symbolic
exemplar models.
"""

from .core import (
    ElementId,
    FiniteMultLattice,
    FinitePoset,
    parse_lattice,
    parse_poset,
)
from .constructions import (
    LocalizationResult,
    QuotientResult,
    localize,
    localize_element,
    quotient,
)
from .enumeration import (
    Census,
    census,
    chain_poset,
    diamond_poset,
    enumerate_structures,
)
from .predicates import (
    ElementProfile,
    LatticeProfile,
    PrincipalMonoidReport,
    SharpnessReport,
    TheoremAudit,
    element_profile,
    is_pseudo_dedekind,
    is_sharp,
    lattice_profile,
    principal_monoid,
    sharpness_report,
    theorem_audit,
)
from . import errors, exemplars, gallery

__all__ = [
    "Census",
    "ElementId",
    "ElementProfile",
    "FiniteMultLattice",
    "FinitePoset",
    "LatticeProfile",
    "LocalizationResult",
    "PrincipalMonoidReport",
    "QuotientResult",
    "SharpnessReport",
    "TheoremAudit",
    "census",
    "chain_poset",
    "diamond_poset",
    "element_profile",
    "enumerate_structures",
    "errors",
    "exemplars",
    "gallery",
    "is_pseudo_dedekind",
    "is_sharp",
    "lattice_profile",
    "localize",
    "localize_element",
    "parse_lattice",
    "parse_poset",
    "principal_monoid",
    "quotient",
    "sharpness_report",
    "theorem_audit",
]

__version__ = "0.1.0"
