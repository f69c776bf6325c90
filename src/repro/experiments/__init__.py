"""Experiment drivers: one module per paper figure/table.

===========================  ====================================
module                       regenerates
===========================  ====================================
``fig1_paths``               Figure 1 (path examples)
``fig2_scalability``         Figure 2 (max nodes vs radix)
``fig3_cost``                Figure 3 (relative cabling cost)
``fig4_topologies``          Figure 4 (stencil across topologies)
``fig5_vcusage``             Figure 5 (VC usage of DimWAR/OmniWAR)
``fig6_synthetic``           Figures 6a-6g (synthetic traffic)
``fig8_stencil``             Figures 8a-8c (stencil per algorithm)
``table1_comparison``        Table 1 (implementation comparison)
``transient``                transient response (extension experiment)
``faults``                   fault-injection transient (docs/FAULTS.md)
``fault_compare``            head-to-head fault benchmark (docs/FAULTS.md)
===========================  ====================================
"""

from .. import lazy_exports

lazy_exports(globals(), {
    "fault_compare": None,
    "faults": None,
    "fig1_paths": None,
    "fig2_scalability": None,
    "fig3_cost": None,
    "fig4_topologies": None,
    "fig5_vcusage": None,
    "fig6_synthetic": None,
    "fig7_model": None,
    "fig8_stencil": None,
    "irregular": None,
    "table1_comparison": None,
    "table_area": None,
    "transient": None,
    "Scale": ".common",
    "SCALES": ".common",
    "get_scale": ".common",
})
