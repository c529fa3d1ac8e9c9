"""Exact circle laminations, Mobius dynamics and invariant-system builders.

All core values are immutable after construction and operations are pure
functions; builders keep growing memos of what they computed (fills extended
under a lock, images that every caller would compute alike), so everything
here is safe to share across threads.
"""

from .circle import BoundaryPoint, Chart, chart_convert, circular_order
from .constructions import (
    DenseSpec,
    ELEMENTARY_KINDS,
    elementary_col3,
    farey_system,
    farey_tessellation,
    half_farey,
    half_farey_system,
    orbit_closure,
    simplest_between,
    square_system,
    square_triangulation,
)
from .dynamics import (
    SequenceReport,
    TripleRegion,
    angel_wings,
    approximation_sequence_check,
    cusp_points,
    monotone_convergence_check,
    quasi_rainbow_check,
    triple_escape_sampler,
)
from .field import ONE, SQRT2, SQRT3, SQRT6, ZERO, FieldElem, field_sign
from .lamination import (
    Chord,
    Col3Collection,
    Gap,
    Interval,
    LaminationSystem,
    ValidationReport,
    c_p_I,
    chords_to_intervals,
    endpoints_set,
    gaps,
    intervals_to_chords,
    lies_on,
    properly_lies_on,
    rainbow_probe,
    separate_distinct_pair,
    strongly_transverse,
    transverse,
    unlinked,
    validate_truncation,
)
from .mobius import (
    AngleShift,
    ElementType,
    ExpAffine,
    MobiusMap,
    SymbolicRoot,
    apply_to_chord,
    apply_to_interval,
    ball_enumerate,
    classify,
    fixed_points,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
