"""The flit-level interconnection-network simulator (SuperSim substrate)."""

from .. import lazy_exports

lazy_exports(globals(), {
    "Network": ".network",
    "Simulator": ".simulator",
    "Packet": ".types",
    "Flit": ".types",
    "Message": ".types",
    "PacketStats": ".stats",
    "LatencyMonitor": ".stats",
    "TelemetryProbe": ".telemetry",
    "LinkStat": ".telemetry",
})
