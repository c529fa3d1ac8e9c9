"""Exception taxonomy shared across the library."""


class LaminarError(Exception):
    """Base class for all library-specific errors."""


class IncomparableCharts(LaminarError):
    """Points live in charts with no registered exact conversion."""


class InexactConversion(LaminarError):
    """Requested chart conversion has no exact image in the coefficient field."""


class ChartMismatch(LaminarError):
    """Operands live in incompatible charts."""


class InvalidLamination(LaminarError):
    """Chord set fails the truncation axioms."""


class NotADistinctPair(LaminarError):
    """Interval pair is not disjoint, or forms a leaf."""


class BadSeed(LaminarError):
    """Dense-set seed points are degenerate or missing from the enumeration."""


class OverlappingArcs(LaminarError):
    """Arc closures intersect where disjointness is required."""


class UnsupportedKind(LaminarError):
    """Unknown or out-of-range construction kind."""


class NotParabolic(LaminarError):
    """Map is not parabolic where a parabolic is required."""


class LeafNotAtFixedPoint(LaminarError):
    """Leaf does not have the parabolic fixed point as an endpoint."""


class BadIntervalChoice(LaminarError):
    """Chosen leaf side does not contain the image of the free endpoint."""


class DegenerateSample(LaminarError):
    """Sampled triple violates the minimum angular gap."""


class ParseError(LaminarError):
    """Input file is not a well-formed laminar document."""


class InvalidMap(LaminarError, ValueError):
    """Matrix entries do not define an orientation-preserving map (det <= 0)."""
