"""Exception types shared across the package.

Every error that reports a structural defect carries the offending witness
(dart, chord pair, vertex, ...) as attributes so callers and tests can inspect
it without parsing messages.
"""

from __future__ import annotations


class PlanecolorError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------------------
# Embedded-graph construction and surgery
# ---------------------------------------------------------------------------

class GraphInputError(PlanecolorError):
    """Invalid rotation-system input."""


class AsymmetricAdjacency(GraphInputError):
    def __init__(self, dart):
        self.dart = dart
        super().__init__(f"dart {dart} has no opposite: rotation system is not symmetric")


class LoopEdge(GraphInputError):
    def __init__(self, dart):
        self.dart = dart
        super().__init__(f"loop at vertex {dart[0]}")


class ParallelEdge(GraphInputError):
    def __init__(self, dart):
        self.dart = dart
        super().__init__(f"parallel edge {dart}: neighbor listed more than once")


class DanglingVertexId(GraphInputError):
    def __init__(self, dart):
        self.dart = dart
        super().__init__(f"dart {dart} references an unknown vertex id")


class BadLabel(GraphInputError):
    def __init__(self, vertex, label):
        self.vertex = vertex
        self.label = label
        super().__init__(f"label {label!r} of vertex {vertex!r}: a label names a vertex "
                         "of the rotation with a string")


class PositiveGenus(GraphInputError):
    """The rotation system does not embed every component in the sphere."""

    def __init__(self, euler_defect):
        self.euler_defect = euler_defect
        super().__init__(
            f"rotation system has genus above 0: V - E + F + isolated - 2C = {euler_defect}, "
            "expected 0"
        )


class ChordError(PlanecolorError):
    """Invalid chord insertion request."""


class EndpointNotOnFace(ChordError):
    def __init__(self, chord):
        self.chord = chord
        super().__init__(f"chord {chord} has an endpoint not on the face boundary")


class ChordAlreadyEdge(ChordError):
    def __init__(self, chord):
        self.chord = chord
        super().__init__(f"chord {chord} is already an edge")


class CrossingChords(ChordError):
    def __init__(self, chords):
        self.chords = chords
        super().__init__(f"chords {chords} cross inside the face")


# ---------------------------------------------------------------------------
# Coloring
# ---------------------------------------------------------------------------

class ColorOutOfPalette(PlanecolorError):
    def __init__(self, vertex, color, palette_size):
        self.vertex = vertex
        self.color = color
        self.palette_size = palette_size
        super().__init__(f"vertex {vertex} has color {color} outside 1..{palette_size}")


class PaletteExhausted(PlanecolorError):
    def __init__(self, vertex, forbidden_count):
        self.vertex = vertex
        self.forbidden_count = forbidden_count
        super().__init__(
            f"no free color for vertex {vertex}: {forbidden_count} colors forbidden"
        )


# ---------------------------------------------------------------------------
# Reduction engine
# ---------------------------------------------------------------------------

class DegreeTooHigh(PlanecolorError):
    def __init__(self, vertex, degree):
        self.vertex = vertex
        self.degree = degree
        super().__init__(f"vertex {vertex} has degree {degree} > 6")


class PlanInvalid(PlanecolorError):
    """A reduction plan failed validation; the caller should try the next match.

    `reason` is one of "ChordCrossing", "DegreeOverflow", "NotOnMergedFace".
    """

    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__(f"plan invalid: {reason} ({witness})")


class NoSafeColor(PlanecolorError):
    """Extension failed: every palette color appears within distance two.

    Carries a JSON-serializable witness (graph, partial coloring, vertex) so a
    failure can be reported and replayed.
    """

    def __init__(self, vertex, forbidden, witness=None):
        self.vertex = vertex
        self.forbidden = frozenset(forbidden)
        self.witness = witness
        super().__init__(
            f"no safe color for vertex {vertex}: all of 1..{len(self.forbidden)}+ forbidden"
        )


class ForbiddenBoundExceeded(PlanecolorError):
    """A forbidden color set exceeded the bound promised by the matched configuration."""

    def __init__(self, vertex, size, bound, source):
        self.vertex = vertex
        self.size = size
        self.bound = bound
        self.source = source
        super().__init__(
            f"forbidden set at vertex {vertex} has size {size} > bound {bound} ({source})"
        )


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

class TooLarge(PlanecolorError):
    def __init__(self, what):
        super().__init__(f"exact search refused: {what}")


class Infeasible(PlanecolorError):
    def __init__(self, upper_bound, chi2):
        self.upper_bound = upper_bound
        self.chi2 = chi2
        super().__init__(f"optimum {chi2} exceeds upper bound {upper_bound}")


class VertexSetMismatch(PlanecolorError):
    def __init__(self, extra):
        self.extra = extra
        super().__init__(f"reduced graph has vertices not present in the original: {extra}")


# ---------------------------------------------------------------------------
# Toolkit
# ---------------------------------------------------------------------------

class BadParams(PlanecolorError):
    pass


class PlanarCodeLimit(PlanecolorError, ValueError):
    """A graph planar code's one-byte records cannot hold."""

    def __init__(self, vertex_count):
        self.vertex_count = vertex_count
        super().__init__(f"planar code holds 1..255 vertices per graph, got {vertex_count}; "
                         "write .json output instead")


class BadHeader(PlanecolorError):
    pass


class TruncatedRecord(PlanecolorError):
    pass


class IndexOutOfRange(PlanecolorError):
    def __init__(self, value, limit):
        self.value = value
        self.limit = limit
        super().__init__(f"neighbor index {value} out of range 1..{limit}")


class SchemaMismatch(PlanecolorError):
    def __init__(self, pointer, detail=""):
        self.pointer = pointer
        self.detail = detail
        super().__init__(f"schema mismatch at {pointer}: {detail}" if detail
                         else f"schema mismatch at {pointer}")
