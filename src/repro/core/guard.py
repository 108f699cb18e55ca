"""Update quarantine: validate client results before they reach aggregation.

A client whose local solver diverged — NaN/Inf weights from an exploded
learning rate, or an update whose norm dwarfs every healthy peer — poisons
the global model for all clients the moment it is averaged in. The
:class:`UpdateGuard` sits between the executor and every aggregation path
(FedAT tier rounds, the synchronous baselines' round loop, the async
methods' per-client installs) and applies one of three policies:

- ``reject`` — drop the offending result; the round aggregates the rest.
- ``clip``   — rescale the update so ``‖w − w_start‖`` equals ``max_norm``
  (direction preserved); non-finite weights cannot be clipped and are
  rejected.
- ``abort``  — raise :class:`GuardAbort`; for runs where a poisoned update
  indicates a bug that must not be papered over.

Every intervention is recorded in a quarantine trace (client, round,
virtual time, reason, norm, action) published to
``history.meta["guard"]`` — the audit trail a production federation would
need to detect a systematically-diverging client.

Spec grammar: ``policy[:max_norm]`` — e.g. ``"reject"``, ``"clip:50"``,
``"abort:1e6"``. ``max_norm`` defaults to 1e6; non-finite checks always
apply regardless of the threshold.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.sim.client import LocalTrainingResult

__all__ = ["GUARD_POLICIES", "GuardAbort", "UpdateGuard"]

GUARD_POLICIES = ("reject", "clip", "abort")

DEFAULT_MAX_NORM = 1e6


class GuardAbort(RuntimeError):
    """Raised by the ``abort`` policy when a client update fails validation."""

    def __init__(self, *, client_id: int, reason: str, norm: float | None):
        self.client_id = client_id
        self.reason = reason
        self.norm = norm
        detail = f", update norm {norm:.6g}" if norm is not None else ""
        super().__init__(
            f"update guard: client {client_id} produced an invalid update "
            f"({reason}{detail}); policy is 'abort'"
        )


class UpdateGuard:
    """Validates client updates against non-finite values and norm blowup.

    Deterministic by construction — decisions depend only on the result
    bytes and the reference weights, never on wall-clock or RNG — so a
    guarded run is exactly as reproducible as an unguarded one.
    """

    def __init__(self, policy: str = "reject", max_norm: float = DEFAULT_MAX_NORM):
        if policy not in GUARD_POLICIES:
            raise ValueError(
                f"unknown guard policy {policy!r}; options: {', '.join(GUARD_POLICIES)}"
            )
        if not max_norm > 0:
            raise ValueError(f"guard max_norm must be positive, got {max_norm}")
        self.policy = policy
        self.max_norm = float(max_norm)
        self.checked = 0
        self.rejected = 0
        self.clipped = 0
        #: Quarantine audit trail, one entry per intervention.
        self.trace: list[dict] = []

    @classmethod
    def parse(cls, text: str | None) -> "UpdateGuard | None":
        """Build a guard from its config spec (``None``/``"none"`` → no guard)."""
        if text is None:
            return None
        text = text.strip()
        if text in ("", "none", "off"):
            return None
        policy, _, arg = text.partition(":")
        if not arg:
            return cls(policy)
        try:
            max_norm = float(arg)
        except ValueError:
            raise ValueError(f"bad guard max_norm {arg!r} in {text!r}") from None
        return cls(policy, max_norm)

    # ------------------------------------------------------------------ #
    def _quarantine(
        self,
        result: "LocalTrainingResult",
        reason: str,
        norm: float | None,
        action: str,
        round_no: int,
        time: float,
    ) -> None:
        self.trace.append(
            {
                "client": int(result.client_id),
                "round": int(round_no),
                "time": float(time),
                "reason": reason,
                "norm": None if norm is None else float(norm),
                "action": action,
            }
        )

    def filter(
        self,
        results: "Sequence[LocalTrainingResult]",
        reference: np.ndarray,
        *,
        round_no: int = 0,
        time: float = 0.0,
    ) -> "list[LocalTrainingResult]":
        """Return the results that may aggregate, applying the policy.

        ``reference`` is the weight vector the cohort departed from (the
        decoded global snapshot): update norms are measured against it.
        Clipped results get their ``weights`` rebound to the rescaled
        vector; rejected ones are omitted from the returned list.
        """
        kept: list[LocalTrainingResult] = []
        for result in results:
            self.checked += 1
            w = result.weights
            finite = bool(np.isfinite(w).all())
            norm = None
            if finite:
                norm = float(np.linalg.norm(w - reference))
                if norm <= self.max_norm:
                    kept.append(result)
                    continue
                reason = f"update norm exceeds max_norm={self.max_norm:g}"
            else:
                reason = "non-finite weights (NaN/Inf)"
            if self.policy == "abort":
                self._quarantine(result, reason, norm, "abort", round_no, time)
                raise GuardAbort(
                    client_id=result.client_id, reason=reason, norm=norm
                )
            if self.policy == "clip" and finite:
                # Preserve the update direction at the trust boundary.
                scale = self.max_norm / norm
                result.weights = reference + (w - reference) * scale
                self.clipped += 1
                self._quarantine(result, reason, norm, "clip", round_no, time)
                kept.append(result)
                continue
            self.rejected += 1
            self._quarantine(result, reason, norm, "reject", round_no, time)
        return kept

    def snapshot(self) -> dict:
        """Counters + quarantine trace for ``history.meta["guard"]``."""
        return {
            "policy": self.policy,
            "max_norm": self.max_norm,
            "checked": self.checked,
            "rejected": self.rejected,
            "clipped": self.clipped,
            "quarantined": self.trace,
        }
