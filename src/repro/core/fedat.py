"""FedAT — Algorithm 2 on the discrete-event simulator.

Each tier runs synchronous rounds, one in flight per tier, on the event
loop of :class:`repro.core.base.FLSystem`; all tiers proceed concurrently
in virtual time and contribute to the global model asynchronously through
:class:`repro.core.server.TieredServer`. Both link directions go through
the configured codec (polyline precision 4 by default), so compression
loss genuinely flows through training.

Under a dynamic scenario (churn / drift / bursts) two extra mechanisms
engage: a tier whose whole pool is churned offline schedules a *wake*
event at the next rejoin instead of retiring forever, and — when
``retier_interval`` is set — the server periodically re-splits tiers on
EWMA'd observed response latencies (online re-tiering, as TiFL does),
reviving tiers that gained clients. With a static scenario and re-tiering
off, the loop is event-for-event identical to the original simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.aggregation import sample_weighted_average
from repro.core.base import ClientJoin, FLSystem, RoundDone, Wake
from repro.core.params import ProximalParams, StalenessParams, TieringParams
from repro.core.server import TieredServer
from repro.core.staleness import StalenessPolicy
from repro.sim.events import EventQueue

__all__ = ["FedAT"]


class FedAT(FLSystem):
    """The paper's system: synchronous intra-tier, asynchronous cross-tier."""

    name = "fedat"
    uses_compression = True

    @dataclass(frozen=True)
    class Params(TieringParams, ProximalParams, StalenessParams):
        server_weighting: str = "dynamic"  # "dynamic" (§4.2) | "uniform" (Fig 6)

        def __post_init__(self):
            super().__post_init__()
            if self.server_weighting not in ("dynamic", "uniform"):
                raise ValueError(f"unknown server_weighting {self.server_weighting!r}")

    def __init__(
        self,
        population,
        model_builder,
        config,
        *,
        delay_model=None,
    ):
        super().__init__(population, model_builder, config, delay_model=delay_model)
        # The server can only tier clients that exist: under arrivals it
        # splits the founding population (through the tier index below)
        # and enrolls each late client when its arrival lands, so the
        # profile is not split here.
        arrivals = self.scenario.has_arrivals
        tiering = self.build_tiering(split=not arrivals)
        founders = self.scenario.founders() if arrivals else None
        self.retier_tracker = self.make_retier_tracker()
        self.tier_index = self.make_tier_index(self.params.num_tiers, client_ids=founders)
        if arrivals:
            tiering = self.tier_index.split()
        self.tiering = tiering
        self.server = TieredServer(
            self.initial_flat,
            tiering.num_tiers,
            weighting=self.params.server_weighting,
            staleness=StalenessPolicy.parse(self.params.staleness),
        )
        self.server.set_active_tiers([size > 0 for size in tiering.sizes()])
        self.global_weights = self.server.global_weights
        self._active: set[int] = set()

    # ------------------------------------------------------------------ #
    def _launch_or_wake(self, tier: int, queue: EventQueue) -> None:
        """Start one synchronous round inside ``tier`` from the current
        global model, or — when none of its clients is alive — wake the
        tier at its next rejoin (in a static world it retires for good).

        Clients train from the weights they receive *now*, but only when
        the round's results are first read — by then every tier launched
        meanwhile is pending too, and they all train as one cohort; the
        round-done event carries the launch to its finish time.
        """
        pool = self.alive(self.tiering.clients_in(tier))
        cohort = self.select_clients(pool, self.config.clients_per_round)
        if not cohort:
            self._active.discard(tier)
            self.schedule_join(queue, Wake(tier), self.tiering.clients_in(tier))
            return
        self._active.add(tier)
        launch = self.launch(cohort, self.now)
        queue.schedule_at(launch.end, RoundDone(tier, launch))

    def _tiers_changed(self, queue: EventQueue) -> None:
        """Membership changed under the running tiers: mask emptied tiers on
        the server, and start every tier without an outstanding round — it
        may now have clients."""
        self.server.set_active_tiers([size > 0 for size in self.tiering.sizes()])
        for m in range(self.tiering.num_tiers):
            if m not in self._active:
                self._launch_or_wake(m, queue)

    def _on_arrival(self, client_id: int, queue: EventQueue) -> None:
        """Enroll one arriving client and grow the tiering over the enlarged
        population.

        The arrival slots into the tier index at its current latency
        estimate (EWMA-tracked when online re-tiering is on, else the
        profiled prior) and the tiers are re-split, so it lands in the tier
        matching its speed and may rebalance others.
        """
        self.tier_index.enroll(client_id)
        self.tiering = self.tier_index.split()
        self.history.meta.setdefault("arrival_trace", []).append(
            {
                "time": float(queue.now),
                "client": int(client_id),
                "sizes": self.tiering.sizes(),
            }
        )
        self._tiers_changed(queue)

    def prologue(self, queue: EventQueue) -> None:
        # Only tiers split over the founders leave clients to enroll: each
        # late client is enrolled when its arrival lands, the first one
        # queued here. A scenario swapped in after construction (the loop
        # pins' hand-built worlds) finds every client tiered already.
        if self.tier_index is not None and len(self.tier_index) < self.num_clients:
            self.schedule_arrival(queue, 0)
        self._tiers_changed(queue)

    def handle(self, payload, queue: EventQueue) -> None:
        if isinstance(payload, ClientJoin):
            if payload.arrival is not None:
                self.schedule_arrival(queue, payload.arrival + 1)
            self._on_arrival(payload.client_id, queue)
            return
        if isinstance(payload, Wake):
            if payload.tier not in self._active:
                self._launch_or_wake(payload.tier, queue)
            return
        tier, launch = payload.tier, payload.launch
        if launch.results or launch.quarantined:
            # A round whose every responder was quarantined is a null global
            # update: consuming budget keeps a fully-poisoned tier from
            # spinning the event loop forever.
            if launch.results:
                for _, _, nbytes in launch.results:
                    self.meter.record_upload(nbytes)
                with self.timers.phase("aggregate"):
                    tier_model = sample_weighted_average(
                        [r.weights for r, _, _ in launch.results],
                        [r.n_samples for r, _, _ in launch.results],
                    )
                    self.global_weights = self.server.submit_tier_update(tier, tier_model)
            self.round += 1
            if launch.results and self.retier_due():  # re-split on observed latencies
                self.apply_retier(self.now)
                self._tiers_changed(queue)
            if self._eval_due():
                self.record_eval()
        # The tier immediately begins its next round from the latest
        # global model ("the server sends the latest global model to the
        # next ready tier and starts the next round").
        self._launch_or_wake(tier, queue)

    def finish(self) -> None:
        self.history.meta["tier_update_counts"] = self.server.update_counts.tolist()
        self.history.meta["tier_sizes"] = self.tiering.sizes()
