"""Pluggable staleness-weighting policies ``s(Δτ)``.

The FedAsync paper's three staleness functions, shared by every consumer
that down-weights stale contributions: FedAsync's mixing rate, ASO-Fed's
per-client copy installs, and FedAT's cross-tier weight modulation. One
policy object replaces the hard-coded forms so an experiment can sweep the
axis with a single ``staleness`` knob (CLI ``--staleness``), which those
three methods' ``Params`` declare (see :mod:`repro.core.params`).

Spec syntax: ``"constant"``, ``"poly[:a]"``, ``"hinge[:a[:b]]"`` — e.g.
``"poly:0.5"`` or ``"hinge:0.5:4"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["StalenessPolicy"]

_KINDS = ("constant", "poly", "hinge")


@dataclass(frozen=True)
class StalenessPolicy:
    """``s(Δτ)``: constant 1; poly ``(1+Δτ)^(−a)``; hinge 1 up to ``b``
    versions of staleness, then ``1 / (a·(Δτ−b) + 1)``. ``a`` and ``b``
    must be finite and non-negative, which keeps ``s`` in (0, 1]."""

    kind: str = "constant"
    a: float = 0.5
    b: float = 4.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown staleness function {self.kind!r}; options: {_KINDS}"
            )
        for name in ("a", "b"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # NaN fails every comparison
                raise ValueError(f"staleness {name} must be finite and >= 0, got {value}")

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def factor(self, staleness: float) -> float:
        if staleness < 0:
            raise ValueError("staleness must be non-negative")
        if self.kind == "constant":
            return 1.0
        if self.kind == "poly":
            return float((1.0 + staleness) ** (-self.a))
        return (
            1.0
            if staleness <= self.b
            else 1.0 / (self.a * (staleness - self.b) + 1.0)
        )

    @classmethod
    def parse(cls, spec: str | None) -> "StalenessPolicy | None":
        """Parse a ``kind[:a[:b]]`` spec; None passes through (no policy)."""
        if spec is None:
            return None
        parts = str(spec).split(":")
        kind = parts[0]
        if kind not in _KINDS:
            raise ValueError(
                f"unknown staleness function {kind!r}; options: {_KINDS}"
            )
        if len(parts) > (3 if kind == "hinge" else 2):
            raise ValueError(f"too many arguments in staleness spec {spec!r}")
        try:
            a = float(parts[1]) if len(parts) > 1 and parts[1] != "" else 0.5
            b = float(parts[2]) if len(parts) > 2 and parts[2] != "" else 4.0
        except ValueError:
            raise ValueError(f"bad staleness spec {spec!r}") from None
        return cls(kind, a=a, b=b)
