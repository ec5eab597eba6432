"""ceq: a toolkit for code equivalence problems over finite fields.

Builds PCE/SPCE/LCE instances, Karp-reduces PCE to LCE or SPCE through a
column-duplication gadget, lifts and extracts witnesses across the
reduction, and ships naive exhaustive/backtracking deciders that serve
as ground truth at desk scale.

`core`, `field` and `matrix` load with the package, since every command
needs them. `oracle` and `reduction` are registered in `sys.modules` as
lazily executed modules: each runs at the first access to one of its
attributes, so a CLI command compiles only what it calls (`verify` runs
neither). Since they sit in `sys.modules`, code that walks the loaded
modules, such as a tracer, still finds them. Their public names are
looked up on the module at every access (PEP 562) and never cached
here, so a module attribute rebound later shows through the package.
The lazy loader takes no lock; the package is single-threaded.
"""

import importlib.util
import sys

from .core import (
    Instance,
    Journal,
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


def _lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


oracle = _lazy("oracle")
reduction = _lazy("reduction")

_ORACLE = (
    "Budget", "DecideResult", "GenSpec", "Generated", "Mode", "Planted", "Status", "decide", "generate"
)
_REDUCTION = ("ReductionCert", "build_gadget", "extract_witness", "lift_witness", "reduce_instance")
_LAZY = {**dict.fromkeys(_ORACLE, oracle), **dict.fromkeys(_REDUCTION, reduction)}


def __getattr__(name):
    if name in _LAZY:
        return getattr(_LAZY[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})


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
