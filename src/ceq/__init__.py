"""ceq: a toolkit for code equivalence problems over finite fields.

Builds PCE/SPCE/LCE instances, Karp-reduces PCE to LCE or SPCE through a
column-duplication gadget, lifts and extracts witnesses across the
reduction, and ships naive exhaustive/backtracking deciders that serve
as ground truth at desk scale.
"""

from .core import (
    Instance,
    Journal,
    Normalized,
    RejectReason,
    Rejection,
    Tag,
    Witness,
    map_witness_to_normalized,
    map_witness_to_original,
    preprocess,
    verify_witness,
)
from .field import Field, field
from .matrix import (
    Mat,
    Mono,
    Perm,
    column_multiplicity_profile,
    max_column_multiplicity,
    strip_zero_columns,
)
from .oracle import Budget, DecideResult, GenSpec, Generated, Mode, Planted, Status, decide, generate
from .reduction import (
    ReductionCert,
    build_gadget,
    extract_witness,
    lift_witness,
    reduce_instance,
)

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "DecideResult",
    "Field",
    "GenSpec",
    "Generated",
    "Instance",
    "Journal",
    "Mat",
    "Mode",
    "Mono",
    "Normalized",
    "Perm",
    "Planted",
    "ReductionCert",
    "RejectReason",
    "Rejection",
    "Status",
    "Tag",
    "Witness",
    "build_gadget",
    "column_multiplicity_profile",
    "decide",
    "extract_witness",
    "field",
    "generate",
    "lift_witness",
    "map_witness_to_normalized",
    "map_witness_to_original",
    "max_column_multiplicity",
    "preprocess",
    "reduce_instance",
    "strip_zero_columns",
    "verify_witness",
]
