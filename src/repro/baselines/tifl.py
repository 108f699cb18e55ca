"""TiFL (Chai et al., HPDC 2020) — synchronous tier-based FL.

Clients are tiered by response latency (same tiering module FedAT uses).
Each round the server picks *one tier* via an adaptive, credit-bounded
policy, then samples ``clients_per_round`` clients within it — so rounds
touching fast tiers are short, and the straggler tail only bites when a
slow tier is drawn.

Adaptive selection: every ``tifl_interval`` rounds the server refreshes
per-tier test accuracies of the current global model and sets selection
probabilities ∝ (1 − accuracy) over tiers with remaining credits, so
under-trained (usually slow) tiers are favored. Credits bound how often a
tier can be selected over the whole run, limiting bias toward any tier.
The paper (§2.1) notes this refresh "requires collecting test accuracies
of all clients", i.e. extra communication and a biased-training risk — the
behaviour this implementation reproduces.

TiFL also re-profiles and re-assigns tiers during training; with
``retier_interval`` set, tier membership is periodically recomputed from
EWMA'd observed response latencies (tier evaluators are rebuilt, credits
stay attached to the tier *rank*). Tiers emptied by re-tiering get zero
selection probability and are skipped safely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import SyncFLSystem
from repro.core.params import TieringParams
from repro.metrics.evaluation import Evaluator

__all__ = ["TiFL"]


class TiFL(SyncFLSystem):
    name = "tifl"

    @dataclass(frozen=True)
    class Params(TieringParams):
        tifl_interval: int = 20  # rounds between tier-accuracy refreshes
        tifl_credit_slack: float = 1.5

        def __post_init__(self):
            super().__post_init__()
            if self.tifl_interval < 1:
                raise ValueError("tifl_interval must be >= 1")
            if self.tifl_credit_slack <= 0:
                raise ValueError(
                    "tifl_credit_slack must be positive (else every tier has 0 credits)"
                )

    def __init__(
        self,
        population,
        model_builder,
        config,
        *,
        delay_model=None,
    ):
        super().__init__(population, model_builder, config, delay_model=delay_model)
        self.tiering = self.build_tiering()
        m = self.tiering.num_tiers
        # Credits: how many times each tier may be selected in total.
        per_tier = int(np.ceil(config.max_rounds / m * self.params.tifl_credit_slack))
        self.credits = np.full(m, per_tier, dtype=np.int64)
        self.tier_probs = np.full(m, 1.0 / m)
        self._tier_rng = self.factory.rng("algo/tifl/tier")
        self._current_tier = 0
        #: Last round whose tier accuracies were refreshed (round 0 never is).
        self._refreshed_round = 0
        self.retier_tracker = self.make_retier_tracker()
        self.tier_index = self.make_tier_index(m)
        self._tier_evaluators = self._build_tier_evaluators()

    # Evaluators hold dataset references; rebuilt from the restored
    # tiering on checkpoint resume instead of being pickled.
    _CHECKPOINT_EXCLUDE = SyncFLSystem._CHECKPOINT_EXCLUDE | {"_tier_evaluators"}

    def _post_restore(self) -> None:
        super()._post_restore()
        self._tier_evaluators = self._build_tier_evaluators()

    def _build_tier_evaluators(self) -> list[Evaluator | None]:
        """Per-tier evaluators over each tier's client test shards.

        Rebuilt after every online re-tier; a tier emptied by re-tiering
        has no shards to evaluate and gets ``None`` (zero selection weight).
        """
        evaluators: list[Evaluator | None] = []
        for t in range(self.tiering.num_tiers):
            ids = self.tiering.clients_in(t)
            if ids.size == 0:
                evaluators.append(None)
                continue
            evaluators.append(self.population.build_evaluator(self.worker, client_ids=ids.tolist()))
        return evaluators

    # ------------------------------------------------------------------ #
    def _refresh_probabilities(self) -> None:
        """Recompute selection probabilities from per-tier accuracies.

        The refresh is not free: TiFL "requires collecting test accuracies
        of all clients every certain rounds" (paper §2.1) — the server
        pushes the current model to every alive client and waits for their
        accuracy reports, which costs one downlink per client plus a
        synchronization delay bounded by the slowest alive client.
        """
        alive = self.alive(np.arange(self.num_clients))
        self.send_down(self.global_weights, n_receivers=len(alive))
        if len(alive):
            # Evaluation round-trip: no training, but delays still apply.
            delays = self.latency_model.sample_latencies(alive, 0, 0, self._tier_rng)
            self.now += float(delays.max())
        acc = np.array(
            [
                1.0
                if ev is None
                else ev.evaluate_flat(self.global_weights)["accuracy"]
                for ev in self._tier_evaluators
            ]
        )
        raw = np.maximum(1.0 - acc, 0.01)
        raw[self.credits <= 0] = 0.0
        # Empty tiers (possible after online re-tiering) are unselectable.
        raw[[ev is None for ev in self._tier_evaluators]] = 0.0
        total = raw.sum()
        if total <= 0:  # all credits exhausted: fall back to uniform
            raw = np.ones(self.tiering.num_tiers)
            total = raw.sum()
        self.tier_probs = raw / total
        self.history.meta.setdefault("tier_prob_trace", []).append(
            {"round": self.round, "probs": self.tier_probs.tolist()}
        )

    def choose_cohort(self) -> list[int]:
        m = self.tiering.num_tiers
        # Once per round: a selection retried after a rejoin wait reuses it.
        if self.round % self.params.tifl_interval == 0 and self.round != self._refreshed_round:
            self._refreshed_round = self.round
            self._refresh_probabilities()
        probs = self.tier_probs.copy()
        probs[self.credits <= 0] = 0.0
        if probs.sum() <= 0:
            probs = np.ones(m)
        probs /= probs.sum()
        # Draw tiers until one yields alive clients (dead tiers are skipped).
        for _ in range(4 * m):
            tier = int(self._tier_rng.choice(m, p=probs))
            pool = self.alive(self.tiering.clients_in(tier))
            if len(pool):
                self._current_tier = tier
                self.credits[tier] -= 1
                return self.select_clients(pool, self.config.clients_per_round)
        return []  # every tier exhausted/dead

    def on_round_end(self) -> None:
        trace = self.history.meta.setdefault("tier_selection_trace", [])
        trace.append(self._current_tier)
        if self.retier_due():  # re-split on observed latencies; evaluators follow
            self.apply_retier(self.now)
            self._tier_evaluators = self._build_tier_evaluators()
