"""The Figure 3 cabling-cost model: packaging, technologies, comparison."""

from .. import lazy_exports

lazy_exports(globals(), {
    "figure3_points": ".model",
    "CostPoint": ".model",
    "size_hyperx": ".model",
    "size_dragonfly": ".model",
    "CableInventory": ".packaging",
    "hyperx_inventory": ".packaging",
    "dragonfly_inventory": ".packaging",
    "CableTechnology": ".technologies",
    "ElectricalAoc": ".technologies",
    "PassiveOptical": ".technologies",
    "paper_technologies": ".technologies",
    "ELECTRICAL_REACH_M": ".technologies",
})
