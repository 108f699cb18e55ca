"""Client profiling and tier assignment (paper §4, the "tiering module").

The tiering module profiles each client's response latency and partitions
the population into ``M`` logical tiers: tier 1 is the fastest, tier ``M``
the slowest. FedAT and TiFL share this module (the paper adopts TiFL's
tiering approach); mis-tiering injection supports the robustness claims of
§2.1.
"""

from repro.tiering.index import TierIndex
from repro.tiering.online import LatencyTracker
from repro.tiering.profiler import LatencyProfiler
from repro.tiering.tiers import Tiering

__all__ = ["LatencyProfiler", "LatencyTracker", "TierIndex", "Tiering"]
