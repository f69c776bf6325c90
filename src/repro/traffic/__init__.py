"""Synthetic traffic: the paper's Table 3 patterns, sizes, and injection."""

from .. import lazy_exports

lazy_exports(globals(), {
    "TrafficPattern": ".base",
    "UniformRandom": ".patterns",
    "BitComplement": ".patterns",
    "UniformRandomBisection": ".patterns",
    "Swap2": ".patterns",
    "DimensionComplementReverse": ".patterns",
    "Tornado": ".patterns",
    "Transpose": ".patterns",
    "RandomPermutation": ".patterns",
    "Hotspot": ".patterns",
    "paper_patterns": ".patterns",
    "SizeDistribution": ".sizes",
    "FixedSize": ".sizes",
    "UniformSize": ".sizes",
    "BimodalSize": ".sizes",
    "SyntheticTraffic": ".injection",
    "BurstyTraffic": ".injection",
    "PhasedTraffic": ".switching",
})
