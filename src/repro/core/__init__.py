"""Routing algorithms: the paper's DimWAR and OmniWAR plus all baselines."""

from .. import lazy_exports

lazy_exports(globals(), {
    "RoutingAlgorithm": ".base",
    "RouteContext": ".base",
    "RouteCandidate": ".base",
    "DimensionOrderRouting": ".dor",
    "Valiant": ".valiant",
    "Ugal": ".ugal",
    "ClosAD": ".closad",
    "MinAdaptive": ".minad",
    "DimWAR": ".dimwar",
    "OmniWAR": ".omniwar",
    "FTHX": ".fthx",
    "VCFreeRouting": ".vcfree",
    "make_algorithm": ".registry",
    "algorithm_names": ".registry",
    "fault_capable_names": ".registry",
    "table1_rows": ".registry",
    "PAPER_ALGORITHMS": ".registry",
    "TableRouting": ".tables",
    "compile_tables": ".tables",
    "full_table_geometry": ".tables",
    "optimized_table_geometry": ".tables",
    "MeshDOR": ".torus_routing",
    "TorusDOR": ".torus_routing",
})
