"""Exact orbits, indices and nested polytopes of the Coxeter groups H2, H3, H4."""

# each eager module lists its public names once, in its __all__
from . import errors, groups, indices, orbits
from .errors import *
from .golden import GoldenNumber, ONE, TAU, TAU_PRIME, ZERO, golden, parse_golden
from .groups import *
from .orbits import *
from .indices import *

__version__ = "0.1.0"

# The two numpy modules and their public names load on first access (PEP 562),
# and ``multiset_even_index`` imports its norm kernel from ``weightsys`` on its
# first call: ``import horbits`` and the exact-arithmetic code never import numpy.
_LAZY = {
    "weightsys": ("SubtractionEdge", "SubtractionNode", "SubtractionTree", "build_tree",
                  "closed_form_lower_orbits", "subtraction_children", "tree_to_dot",
                  "tree_to_json", "weight_system_dominants"),
    "geometry": ("CartesianEmbedding", "NestedPolyhedra", "Shell", "embed", "export_json",
                 "export_obj", "nested_polyhedra"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = [
    "errors", "groups", "orbits", "indices",
    *errors.__all__, *groups.__all__, *orbits.__all__, *indices.__all__,
    "GoldenNumber", "ONE", "TAU", "TAU_PRIME", "ZERO", "golden", "parse_golden",
    *_LAZY_MODULE,
]


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
