"""2-distance coloring of planar graphs with maximum degree at most six.

The package colors any planar-embedded graph with maximum degree 6 using at
most 20 colors so that vertices at distance one or two always differ, by
repeatedly deleting one vertex of a cataloged local configuration and patching
the hole with chords. Alongside the engine it ships an exact-rational
charge-redistribution audit, a brute-force oracle for desk-size instances,
graph generators, and planar-code / JSON interchange.
"""

from .embedding import EmbeddedGraph, Face, build_embedded
from .squares import (
    Coloring,
    ValidityReport,
    greedy_square_color,
    square,
    verify_coloring,
)
from .configurations import CATALOG, ConfigurationMatch
from .reductions import (
    ReductionPlan,
    ReductionResult,
    color_by_reduction,
    detect,
    detect_all,
    extend,
)
from .discharging import DischargeReport, audit
from .oracle import ExactResult, chi2_exact, distances_le2, is_proper_wrt
from .generators import GeneratorSpec, generate

__all__ = [
    "EmbeddedGraph", "Face", "build_embedded",
    "Coloring", "ValidityReport", "square", "verify_coloring", "greedy_square_color",
    "CATALOG", "ConfigurationMatch", "ReductionPlan", "ReductionResult",
    "detect", "detect_all", "extend", "color_by_reduction",
    "DischargeReport", "audit",
    "ExactResult", "distances_le2", "chi2_exact", "is_proper_wrt",
    "GeneratorSpec", "generate",
]
