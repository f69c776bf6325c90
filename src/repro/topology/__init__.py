"""Topologies: HyperX (the paper's subject), Dragonfly and fat tree (the
Figure 4 comparison baselines), and the scalability models of Figure 2."""

from .. import lazy_exports

lazy_exports(globals(), {
    "Topology": ".base",
    "RouterPort": ".base",
    "PortPeer": ".base",
    "HyperX": ".hyperx",
    "regular_hyperx": ".hyperx",
    "paper_hyperx": ".hyperx",
    "Dragonfly": ".dragonfly",
    "balanced_dragonfly": ".dragonfly",
    "FatTree": ".fattree",
    "Torus": ".torus",
    "mesh": ".torus",
    "hyperx_max_nodes": ".scalability",
    "dragonfly_max_nodes": ".scalability",
    "fattree_max_nodes": ".scalability",
    "slimfly_max_nodes": ".scalability",
    "figure2_points": ".scalability",
    "figure2_table": ".scalability",
})
