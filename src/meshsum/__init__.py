"""Exact growth and Euler summation for degree-r triangular meshes.

Grow convex combinatorial disks layer by layer from a vertex or face
seed, check the measured counts against closed-form layer predictions,
and Euler-sum the divergent layer series into the finite mesh invariants
v_M = -6/(r-6), e_M = -3r/(r-6), f_M = -2r/(r-6).
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

from .growth import (
    DeltaCounts,
    DiskCounts,
    InvalidSeedError,
    LayerCensus,
    LayerPrediction,
    SeedDescriptor,
    census_step,
    counts_from_boundary,
    deltas_from_census,
    initial_census,
    platonic_counts,
    predict_layers,
    second_order_step,
)
from .summation import (
    MeshInvariants,
    PoleError,
    RecurrenceSeries,
    UndefinedSumError,
    euler_formula_check,
    euler_sum,
    euler_sum_by_lemma,
    generating_value,
    mesh_invariants,
    mesh_invariants_from_seed,
    partial_sum,
)

# The explicit side's names: the first access to one imports its module, and numpy.
_EXPLICIT = {
    **dict.fromkeys(
        "BoundaryProfile BudgetExceededError CensusContradiction CombinatorialDisk "
        "ConvexityError MalformedDiskError MeasuredLayer RotationGraph boundary_profile "
        "convexity_bound count_explicit delta_counts disk_from_json_obj expand grow is_convex "
        "layer_census measured_layers seed_face seed_vertex validate_disk".split(),
        "mesh",
    ),
    **dict.fromkeys("DiskLayout LayoutError emit_svg layout_disk".split(), "render"),
}


def __getattr__(name: str):
    if name not in _EXPLICIT:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPLICIT[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPLICIT})


__all__ = [
    "__version__",
    "BoundaryProfile",
    "BudgetExceededError",
    "CensusContradiction",
    "CombinatorialDisk",
    "ConvexityError",
    "DeltaCounts",
    "DiskCounts",
    "DiskLayout",
    "InvalidSeedError",
    "LayerCensus",
    "LayerPrediction",
    "LayoutError",
    "MalformedDiskError",
    "MeasuredLayer",
    "MeshInvariants",
    "PoleError",
    "RecurrenceSeries",
    "RotationGraph",
    "SeedDescriptor",
    "UndefinedSumError",
    "boundary_profile",
    "census_step",
    "convexity_bound",
    "count_explicit",
    "counts_from_boundary",
    "delta_counts",
    "deltas_from_census",
    "disk_from_json_obj",
    "emit_svg",
    "euler_formula_check",
    "euler_sum",
    "euler_sum_by_lemma",
    "expand",
    "generating_value",
    "grow",
    "initial_census",
    "is_convex",
    "layer_census",
    "layout_disk",
    "measured_layers",
    "mesh_invariants",
    "mesh_invariants_from_seed",
    "partial_sum",
    "platonic_counts",
    "predict_layers",
    "second_order_step",
    "seed_face",
    "seed_vertex",
    "validate_disk",
]
