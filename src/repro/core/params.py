"""Method knobs: what a method reads beyond :class:`repro.core.config.FLConfig`.

Each method class names a frozen dataclass ``Params`` of the knobs it reads
(``FLConfig.algo``; None means ``Params()``, the paper's setting). A knob
several methods read is declared and checked once, in one family below.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.staleness import StalenessPolicy

__all__ = ["MethodParams", "ProximalParams", "StalenessParams", "TieringParams"]


@dataclass(frozen=True)
class MethodParams:
    """No knobs (FedAvg's); each family checks its fields, then calls up."""

    def __post_init__(self):
        pass


@dataclass(frozen=True)
class ProximalParams(MethodParams):
    lam: float = 0.4  # proximal constraint λ (FedAT §4.1, FedProx, ASO-Fed)

    def __post_init__(self):
        super().__post_init__()
        if self.lam < 0:
            raise ValueError("lam must be non-negative")


@dataclass(frozen=True)
class StalenessParams(MethodParams):
    # StalenessPolicy spec ("constant", "poly[:a]", "hinge[:a[:b]]"). None
    # keeps each method's paper behaviour: the async methods weight every
    # update equally ("constant"), FedAT applies no staleness modulation.
    staleness: str | None = None

    def __post_init__(self):
        super().__post_init__()
        StalenessPolicy.parse(self.staleness)  # raises ValueError on bad specs


@dataclass(frozen=True)
class TieringParams(MethodParams):
    """Latency tiers (FedAT, TiFL), split from one probe of every client at
    startup; every ``retier_interval`` global updates tiers are re-split on
    observed latencies blended with weight ``retier_ewma`` (0: static
    tiers, the paper's behaviour)."""

    num_tiers: int = 5
    misprofile_fraction: float = 0.0
    retier_interval: int = 0
    retier_ewma: float = 0.3

    def __post_init__(self):
        super().__post_init__()
        if self.num_tiers < 1:
            raise ValueError("num_tiers must be >= 1")
        if self.retier_interval < 0:
            raise ValueError("retier_interval must be >= 0 (0 disables)")
        if not 0.0 < self.retier_ewma <= 1.0:
            raise ValueError("retier_ewma must be in (0, 1]")
