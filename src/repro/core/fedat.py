"""FedAT — Algorithm 2 on the discrete-event simulator.

Each tier runs its own synchronous round loop; all tiers proceed
concurrently in virtual time and contribute to the global model
asynchronously through :class:`repro.core.server.TieredServer`. Both link
directions go through the configured codec (polyline precision 4 by
default), so compression loss genuinely flows through training.

Under a dynamic scenario (churn / drift / bursts) two extra mechanisms
engage: a tier whose whole pool is churned offline schedules a *wake*
event at the next rejoin instead of retiring forever, and — when
``retier_interval`` is set — the server periodically re-splits tiers on
EWMA'd observed response latencies (online re-tiering, as TiFL does),
reviving tiers that gained clients. With a static scenario and re-tiering
off, the loop is event-for-event identical to the original simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.aggregation import sample_weighted_average
from repro.core.base import FLSystem
from repro.core.server import TieredServer
from repro.core.staleness import StalenessPolicy
from repro.exec import CohortTask
from repro.metrics.history import RunHistory
from repro.sim.events import EventQueue
from repro.tiering.tiers import Tiering

__all__ = ["FedAT"]


@dataclass
class _TierRoundDone:
    """Event payload: tier ``tier``'s round finished at the event time."""

    tier: int
    #: (LocalTrainingResult, uplink payload bytes) per responding client
    #: that passed the update guard (rejected clients never transmit).
    results: list = field(default_factory=list)
    #: How many of the tier's results the update guard quarantined. An
    #: all-quarantined round must still consume round budget (a null
    #: global update), else a tier of poisoned clients would relaunch
    #: itself forever.
    quarantined: int = 0


@dataclass
class _TierWake:
    """Event payload: retry starting a round for a currently-idle tier."""

    tier: int


@dataclass
class _ClientArrival:
    """Event payload: a late client joins the population at the event time."""

    client_id: int


class FedAT(FLSystem):
    """The paper's system: synchronous intra-tier, asynchronous cross-tier."""

    name = "fedat"
    uses_compression = True

    def __init__(
        self,
        population,
        model_builder,
        config,
        *,
        tiering: Tiering | None = None,
        delay_model=None,
    ):
        super().__init__(population, model_builder, config, delay_model=delay_model)
        #: Held-back data shards of clients that have not arrived yet
        #: (arrival scenarios only; None means the population is fixed).
        self.arrival_pool = None
        founders = None
        if tiering is None:
            tiering = self.build_tiering()
            late = self.scenario.late_arrivals()
            if late:
                # The server can only profile and tier clients that exist:
                # start from the founding population and grow the tiering
                # as arrivals land. Late clients' data stays in a held-back
                # pool until their arrival event releases it.
                founders = self.scenario.founders()
                self.arrival_pool = self.population.hold_back(
                    [cid for cid, _ in late]
                )
        self.retier_tracker = self.make_retier_tracker()
        self.tier_index = self.make_tier_index(tiering.num_tiers, client_ids=founders)
        if founders is not None:
            tiering = self.tier_index.split()
        if self.arrival_pool is None and tiering.num_clients != self.num_clients:
            raise ValueError("tiering does not cover the client population")
        self.tiering = tiering
        self.server = TieredServer(
            self.initial_flat,
            tiering.num_tiers,
            weighting=config.server_weighting,
            staleness=StalenessPolicy.parse(config.staleness),
        )
        self.server.set_active_tiers([size > 0 for size in tiering.sizes()])
        self.global_weights = self.server.global_weights
        self._active: set[int] = set()

    # ------------------------------------------------------------------ #
    def _start_tier_round(self, tier: int, queue: EventQueue) -> bool:
        """Kick off one synchronous round inside ``tier``.

        Local training is computed eagerly from the current global snapshot
        (the weights clients would receive *now*); the completion event
        carries the results to their virtual finish time. Returns False if
        the tier has no alive clients right now (the tier idles).
        """
        pool = self.alive(self.tiering.clients_in(tier), queue.now)
        cohort = self.select_clients(pool, self.config.clients_per_round)
        if not cohort:
            return False
        start = queue.now
        received = self.send_down(self.global_weights, n_receivers=len(cohort))
        tasks: list[CohortTask] = []
        round_end = start
        for cid in cohort:
            latency = self.sample_latency(cid)
            finish = start + latency
            round_end = max(round_end, finish)
            if not self.completes(cid, start, finish):
                continue  # drops out or churns away mid-round; never reports
            self.observe_latency(cid, latency)
            tasks.append(self.make_task(cid, latency))
        trained = self.train_cohort(tasks, received)
        # Quarantine before the uplink codec: an exploded update would blow
        # past the polyline encoder's range, so a rejected client never
        # transmits (and is never metered) — clipped updates encode fine.
        kept = self.guard_results(trained, received)
        results = list(zip(kept, self.uplink_roundtrip(kept)))
        queue.schedule_at(
            round_end, _TierRoundDone(tier, results, len(trained) - len(kept))
        )
        return True

    def _launch_or_wake(self, tier: int, queue: EventQueue) -> None:
        """Start the tier's next round, or schedule a churn-rejoin retry."""
        if self._start_tier_round(tier, queue):
            self._active.add(tier)
            return
        self._active.discard(tier)
        if self.scenario.is_static:
            return  # nobody ever comes back: the tier retires for good
        wake = self.scenario.next_join_after(
            self.tiering.clients_in(tier), queue.now
        )
        if wake is not None and (
            self.config.max_time is None or wake < self.config.max_time
        ):
            queue.schedule_at(wake, _TierWake(tier))

    def _retier(self, queue: EventQueue) -> None:
        """Re-split tiers on observed latencies; revive idle tiers."""
        new = self.apply_retier(queue.now)
        self.server.set_active_tiers([size > 0 for size in new.sizes()])
        # Membership changed under the running tiers: any tier without an
        # outstanding round may now have clients — try to start it.
        for m in range(new.num_tiers):
            if m not in self._active:
                self._launch_or_wake(m, queue)

    def _on_arrival(self, client_id: int, queue: EventQueue) -> None:
        """Enroll one arriving client: assign its held-back data and grow
        the tiering over the enlarged population.

        The arrival slots into the tier index at its current latency
        estimate (EWMA-tracked when online re-tiering is on, else the
        profiled prior) and the tiers are re-split, so it lands in the tier
        matching its speed and may rebalance others.
        """
        self.arrival_pool.release(client_id)
        self.tier_index.enroll(client_id)
        self.tiering = self.tier_index.split()
        self.server.set_active_tiers([size > 0 for size in self.tiering.sizes()])
        self.history.meta.setdefault("arrival_trace", []).append(
            {
                "time": float(queue.now),
                "client": int(client_id),
                "sizes": self.tiering.sizes(),
            }
        )
        # A previously-empty (or idle) tier may now hold clients: start it.
        for m in range(self.tiering.num_tiers):
            if m not in self._active:
                self._launch_or_wake(m, queue)

    def _post_restore(self) -> None:
        super()._post_restore()
        if self.arrival_pool is not None:
            # ``__init__`` rebuilt the pool with every late client held
            # back; hand back out the shards of clients that had already
            # arrived (and enrolled) by the checkpoint.
            for cid in self.arrival_pool.remaining():
                if cid in self.tier_index:
                    self.arrival_pool.release(cid)

    def _run(self) -> RunHistory:
        if self._resumed:
            # Mid-run resume: the checkpointed queue carries the in-flight
            # tier rounds and arrival events; the prologue (round-0 eval,
            # initial launches) happened before the checkpoint was taken.
            queue: EventQueue = self._resume_queue
        else:
            queue = EventQueue()
            self.record_eval()
            if self.arrival_pool is not None:
                for cid, t in self.scenario.late_arrivals():
                    if self.config.max_time is None or t < self.config.max_time:
                        queue.schedule_at(t, _ClientArrival(cid))
            for m in range(self.tiering.num_tiers):
                self._launch_or_wake(m, queue)
        while not queue.empty and not self.budget_exhausted():
            self._maybe_checkpoint(queue)
            ev = queue.pop()
            self.now = ev.time
            if isinstance(ev.payload, _ClientArrival):
                self._on_arrival(ev.payload.client_id, queue)
                continue
            if isinstance(ev.payload, _TierWake):
                if ev.payload.tier not in self._active:
                    self._launch_or_wake(ev.payload.tier, queue)
                continue
            done: _TierRoundDone = ev.payload
            if done.results:
                for res, nbytes in done.results:
                    self.meter.record_upload(nbytes)
                with self.timers.phase("aggregate"):
                    tier_model = sample_weighted_average(
                        [r.weights for r, _ in done.results],
                        [r.n_samples for r, _ in done.results],
                    )
                    self.global_weights = self.server.submit_tier_update(
                        done.tier, tier_model
                    )
                self.round += 1
                if self.retier_due():
                    self._retier(queue)
                if self._eval_due():
                    self.record_eval()
            elif done.quarantined:
                # Every responder was quarantined: a null global update.
                # Consuming budget here keeps a fully-poisoned tier from
                # spinning the event loop forever.
                self.round += 1
                if self._eval_due():
                    self.record_eval()
            # The tier immediately begins its next round from the latest
            # global model ("the server sends the latest global model to the
            # next ready tier and starts the next round").
            self._launch_or_wake(done.tier, queue)
        if not self.history.records or self.history.records[-1].round != self.round:
            self.record_eval()
        self.history.meta["tier_update_counts"] = self.server.update_counts.tolist()
        self.history.meta["tier_sizes"] = self.tiering.sizes()
        return self.history
