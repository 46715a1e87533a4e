"""wg-IoT device authentication protocol: crypto, wire codec, agents, simulator."""

from . import access_point, agent, crypto, icd, rng, scenario, simnet, wbrac, wire

__all__ = [
    "access_point",
    "agent",
    "crypto",
    "icd",
    "rng",
    "scenario",
    "simnet",
    "wbrac",
    "wire",
]

__version__ = "0.1.0"
