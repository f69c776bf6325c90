"""The 27-point stencil application model (Section 6.2, Figures 7 & 8)."""

from .. import lazy_exports

lazy_exports(globals(), {
    "StencilDecomposition": ".stencil",
    "Neighbor": ".stencil",
    "DisseminationCollective": ".collective",
    "CollectiveSend": ".collective",
    "Placement": ".placement",
    "LinearPlacement": ".placement",
    "RandomPlacement": ".placement",
    "StencilApplication": ".engine",
    "MAX_PACKET_FLITS": ".engine",
    "MessageTrace": ".trace",
    "TracedMessage": ".trace",
    "TraceReplay": ".trace",
    "record_stencil_trace": ".trace",
})
