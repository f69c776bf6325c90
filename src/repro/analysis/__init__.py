"""Measurement harness: load sweeps, saturation search, reporting."""

from .. import lazy_exports

lazy_exports(globals(), {
    "measure_point": ".sweep",
    "nearest_rank_p99": ".sweep",
    "sweep_load": ".sweep",
    "saturation_throughput": ".sweep",
    "PointResult": ".sweep",
    "SweepResult": ".sweep",
    "PointSpec": ".parallel",
    "SweepMemo": ".memo",
    "SIM_SALT": ".memo",
    "canonical_spec": ".memo",
    "point_key": ".memo",
    "SweepProgress": ".parallel",
    "point_specs": ".parallel",
    "run_point": ".parallel",
    "run_points": ".parallel",
    "format_table": ".report",
    "to_csv": ".report",
    "write_csv": ".report",
    "ascii_plot": ".ascii_plot",
    "plot_sweeps": ".ascii_plot",
    "dor_cap_bit_complement": ".theory",
    "dor_cap_urb": ".theory",
    "dor_cap_dcr": ".theory",
    "mean_min_hops_uniform": ".theory",
    "max_hops": ".theory",
    "zero_load_latency": ".theory",
})
