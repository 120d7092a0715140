"""Exact orbits, indices and nested polytopes of the Coxeter groups H2, H3, H4."""

from .errors import (
    DomainError,
    GroupMismatchError,
    MalformedMultisetError,
    NonDominantError,
    SizeLimitError,
)
from .golden import GoldenNumber, ONE, TAU, TAU_PRIME, ZERO, golden, parse_golden
from .groups import A1, A2, GROUPS, H2, H3, H4, Group, Weight, get_group
from .orbits import (
    Decomposition,
    Orbit,
    WeightMultiset,
    decompose,
    decompose_product,
    generate_orbit,
    orbit_product,
    orbit_sum,
)
from .indices import (
    BranchLayer,
    BranchingRule,
    IndexValue,
    anomaly_number,
    anomaly_number_normalized,
    axis_directions,
    branch_decompose,
    branch_layers,
    branching_rule,
    default_direction,
    direct_product_index,
    embedding_index,
    embedding_index_by_rank,
    even_index,
    multiset_even_index,
    subgroup_rank,
)

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
    "DomainError", "GroupMismatchError", "MalformedMultisetError", "NonDominantError",
    "SizeLimitError",
    "GoldenNumber", "ONE", "TAU", "TAU_PRIME", "ZERO", "golden", "parse_golden",
    "A1", "A2", "GROUPS", "H2", "H3", "H4", "Group", "Weight", "get_group",
    "Decomposition", "Orbit", "WeightMultiset", "decompose", "decompose_product",
    "generate_orbit", "orbit_product", "orbit_sum",
    "BranchLayer", "BranchingRule", "IndexValue", "anomaly_number",
    "anomaly_number_normalized", "axis_directions", "branch_decompose", "branch_layers",
    "branching_rule", "default_direction", "direct_product_index", "embedding_index",
    "embedding_index_by_rank", "even_index", "multiset_even_index", "subgroup_rank",
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
