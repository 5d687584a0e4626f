"""Exact growth and Euler summation for degree-r triangular meshes.

Grow convex combinatorial disks layer by layer from a vertex or face
seed, check the measured counts against closed-form layer predictions,
and Euler-sum the divergent layer series into the finite mesh invariants
v_M = -6/(r-6), e_M = -3r/(r-6), f_M = -2r/(r-6).
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name once, under its module.  The analytic side's names are
# bound now; the explicit side's import their module, and numpy, on first access.
_MODULE_OF = {
    name: module
    for module, names in {
        "growth": "DeltaCounts DiskCounts InvalidSeedError LayerCensus LayerPrediction "
        "SeedDescriptor census_step convexity_bound counts_from_boundary deltas_from_census "
        "initial_census platonic_counts predict_layers second_order_step",
        "summation": "MeshInvariants PoleError RecurrenceSeries UndefinedSumError "
        "euler_formula_check euler_sum euler_sum_by_lemma generating_value mesh_invariants "
        "mesh_invariants_from_seed partial_sum",
        "mesh": "BudgetExceededError CensusContradiction CombinatorialDisk ConvexityError "
        "MalformedDiskError MeasuredLayer RotationGraph boundary_profile count_explicit "
        "delta_counts disk_from_json_obj expand grow is_convex layer_census measured_layers "
        "seed_face seed_vertex validate_disk",
        "render": "LayoutError emit_svg layout_disk",
    }.items()
    for name in names.split()
}
globals().update(
    (name, getattr(import_module(f".{module}", __name__), name))
    for name, module in _MODULE_OF.items()
    if module in ("growth", "summation")
)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})


__all__ = ["__version__", *sorted(_MODULE_OF)]
