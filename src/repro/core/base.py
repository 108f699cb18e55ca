"""Shared FL-system scaffolding.

:class:`FLSystem` wires together every substrate — dataset, NN worker
model, latency environment, failure injection, network metering, codecs,
and evaluation — so each algorithm (FedAT and the five baselines) only
implements its scheduling/aggregation policy.

Fairness-by-construction: the *environment* RNG streams (delay-band
assignment, dropout schedule, latency draws) are named independently of the
algorithm, so every method compared under one seed faces the same cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.compression.codec import Codec, NullCodec, make_codec
from repro.core.config import FLConfig
from repro.exec import CohortTask, OptimizerSpec, make_executor, roundtrip_batch
from repro.metrics.history import EvalRecord, RunHistory
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.population.base import as_population
from repro.scenario import ScenarioEngine, parse_scenario
from repro.sim.client import LocalTrainingResult
from repro.sim.failures import UnstableClientPolicy
from repro.sim.latency import (
    DEFAULT_FINITE_BANDWIDTH,
    ComputeModel,
    ResponseLatencyModel,
    TierDelayModel,
)
from repro.sim.network import NetworkMeter
from repro.utils.rng import SeedSequenceFactory
from repro.utils.timing import PhaseTimers

__all__ = ["FLSystem", "SyncFLSystem", "RelaunchClient"]

ModelBuilder = Callable[[np.random.Generator], Sequential]


@dataclass
class RelaunchClient:
    """Event payload: retry launching a client that churned away.

    Shared by the async methods (FedAsync, ASO-Fed): a client lost to a
    churn window is re-launched when its availability window reopens.
    """

    client_id: int


class FLSystem:
    """Base class for all federated-learning systems in this library.

    Subclasses set :attr:`name`, optionally :attr:`uses_compression`, and
    implement :meth:`run`.
    """

    name = "base"
    #: Only FedAT compresses traffic by default; baselines ship raw float32.
    uses_compression = False

    def __init__(
        self,
        population,
        model_builder: ModelBuilder,
        config: FLConfig,
        *,
        delay_model: TierDelayModel | None = None,
    ):
        # Accepts a Population, a FederatedDataset, or (deprecated) a raw
        # client list; all internal plumbing goes through the population.
        population = as_population(population)
        self.population = population
        #: The eager federation behind a materialized population; None when
        #: clients are lazily derived (use ``num_clients``/``population``).
        self.dataset = population.dataset
        self.num_clients = population.num_clients
        self.config = config
        self.factory = SeedSequenceFactory(config.seed)

        # Worker model: the serial executor trains every client through this
        # shared instance; the parallel executor clones it per pool worker.
        self.worker = model_builder(self.factory.rng("model/init"))
        if config.dtype != "float64":
            # Initialize in float64 first (identical draws to the reference
            # histories), then re-materialize the flat store at the reduced
            # precision.
            self.worker.astype(np.dtype(config.dtype))
        self.initial_flat = self.worker.get_flat_weights()
        self.loss = SoftmaxCrossEntropy()
        #: Wall-clock seconds per phase (train/encode/aggregate/eval),
        #: published to ``history.meta["phase_seconds"]`` after the run.
        self.timers = PhaseTimers()

        # Environment: identical across methods for a given seed.
        env_rng = self.factory.rng("env/delays")
        if delay_model is None:
            delay_model = TierDelayModel.even_split(self.num_clients, env_rng)
        if delay_model.num_clients != self.num_clients:
            raise ValueError("delay model does not cover the client population")
        self.delay_model = delay_model

        # Dynamic-world scenario: churn windows, speed drift, bursts, late
        # arrivals, bandwidth drift/heal, trace replays, and "+"-composed
        # combinations, compiled once from an env-named RNG stream
        # (identical across methods for a given seed; each family draws a
        # deterministic substream, so composition never perturbs a family's
        # standalone timeline). A static scenario has no events and every
        # hook below short-circuits, keeping histories bit-identical to the
        # scenario-free simulator.
        horizon = config.max_time if config.max_time is not None else config.dropout_horizon
        self.scenario = ScenarioEngine.compile(
            parse_scenario(config.scenario),
            self.num_clients,
            horizon,
            self.factory.rng("env/scenario"),
        )
        # Bandwidth drift scales the finite-bandwidth transfer term; if the
        # run did not configure a finite link, give it the default one so
        # the scenario genuinely changes transfer times (other scenarios
        # leave the configured value — usually None — untouched).
        bandwidth = config.bandwidth_bytes_per_s
        if bandwidth is None and self.scenario.has_bandwidth_events:
            bandwidth = DEFAULT_FINITE_BANDWIDTH
        latency_model = ResponseLatencyModel(
            delays=delay_model,
            compute=ComputeModel(config.compute_per_sample, config.compute_base),
            bandwidth_bytes_per_s=bandwidth,
        )
        self.latency_model = latency_model
        # Bind the population to the environment; ``clients`` is an
        # indexable provider (today's eager list for materialized
        # populations, a lazily materializing view for virtual ones).
        self.clients = population.bind(
            latency_model, batch_size=config.batch_size, seed=config.seed
        )
        # The evaluator owns a model replica (when faithful): evaluation
        # must never write into the worker's shared flat buffer mid-run.
        # ``eval_clients`` pins evaluation to a fixed random client subset
        # (mandatory for large virtual populations).
        eval_ids = None
        if config.eval_clients is not None and config.eval_clients < self.num_clients:
            eval_ids = np.sort(
                self.factory.rng("env/eval").choice(
                    self.num_clients, size=config.eval_clients, replace=False
                )
            ).tolist()
        self.evaluator = population.build_evaluator(
            self.worker, eval_batch_size=config.eval_batch_size, client_ids=eval_ids
        )
        self.failures = UnstableClientPolicy(
            self.num_clients,
            self.factory.rng("env/failures"),
            num_unstable=config.num_unstable,
            horizon=config.dropout_horizon,
        )
        self.meter = NetworkMeter()
        #: Downlink encode cache: (global version, source array, payload
        #: bytes, decoded weights). See :meth:`send_down`.
        self._downlink_cache = None
        #: Set by tiered methods when online re-tiering is enabled.
        self.retier_tracker = None
        #: Ordered index the tiered methods re-split and grow their tiers
        #: through (see :meth:`make_tier_index`); None while tiers are fixed.
        self.tier_index = None

        codec = make_codec(config.compression) if self.uses_compression else NullCodec()
        self.codec: Codec = codec

        # Client-execution engine: cohorts of local rounds go through here.
        # Per-client batch-schedule cursors live with the system (not the
        # executor) so every backend replays identical mini-batch orders.
        self._epoch_cursor = np.zeros(self.num_clients, dtype=np.int64)
        # Deterministic chaos: the fault plan draws injections from seeded
        # per-family substreams, so the executor's failure schedule is as
        # reproducible as the simulation it stresses.
        fault_plan = None
        if config.faults is not None and config.executor in ("parallel", "dist"):
            from repro.exec.faults import FaultPlan, parse_faults

            fault_spec = parse_faults(config.faults)
            if fault_spec is not None:
                fault_plan = FaultPlan(fault_spec, seed=config.seed)
        self.executor = make_executor(
            config.executor,
            model=self.worker,
            clients=self.clients,
            loss=self.loss,
            optimizer=self.optimizer_spec(),
            num_workers=config.num_workers,
            faults=fault_plan,
            chunk_timeout=config.chunk_timeout,
            chunk_retries=config.chunk_retries,
            degrade=config.fault_degrade,
            bind=config.dist_bind,
            heartbeat_interval=config.heartbeat_interval,
            heartbeat_timeout=config.heartbeat_timeout,
            worker_grace=config.worker_grace,
        )
        # Update quarantine: every aggregation path routes client results
        # through the guard (when configured) before they can touch the
        # global model.
        from repro.core.guard import UpdateGuard

        self.guard = UpdateGuard.parse(config.guard)

        self.history = RunHistory(
            method=self.name,
            dataset=population.name,
            meta={
                "seed": config.seed,
                "clients": self.num_clients,
                "clients_per_round": config.clients_per_round,
                "local_epochs": config.local_epochs,
                "compression": config.compression if self.uses_compression else None,
                "scenario": config.scenario,
            },
        )
        self._latency_rng = self.factory.rng("env/latency")
        self._select_rng = self.factory.rng(f"algo/{self.name}/selection")
        self.global_weights = self.initial_flat.copy()
        self.round = 0  # global update counter (t in Algorithm 2)
        self.now = 0.0
        #: In-run checkpointing (see :meth:`attach_checkpointer`); None
        #: runs unprotected, exactly as before checkpoints existed.
        self._checkpointer = None
        self._resume_queue = None
        self._resumed = False

    # ------------------------------------------------------------------ #
    # Building blocks
    # ------------------------------------------------------------------ #
    @property
    def global_weights(self) -> np.ndarray:
        return self._global_weights

    @global_weights.setter
    def global_weights(self, value: np.ndarray) -> None:
        # Every rebind is a (potential) new global model: bump the version
        # so the downlink encode cache (see send_down) invalidates. All
        # aggregation paths rebind rather than mutate in place.
        self._global_weights = value
        self._global_version = getattr(self, "_global_version", 0) + 1

    def optimizer_spec(self) -> OptimizerSpec:
        """Picklable recipe for the per-round local solver."""
        return OptimizerSpec(self.config.optimizer, self.config.learning_rate)

    def send_down(self, flat: np.ndarray, n_receivers: int = 1) -> np.ndarray:
        """Server→client transfer: encode once, charge each receiver, return
        the (possibly lossy) weights the clients actually start from.

        The encode/decode pair is cached against the global-model version
        counter: the async methods (FedAT tier launches, FedAsync/ASO-Fed
        per-client relaunches) repeatedly send an *unchanged* global model,
        and re-encoding it per launch was pure waste. Metering is per
        receiver exactly as before, and for a deterministic codec the
        cached decode is byte-for-byte the fresh one, so histories are
        bit-identical. Stateful codecs (``Codec.deterministic`` False —
        the random-mask subsample sketch) bypass the cache entirely: their
        per-send RNG draws are part of the simulation. The cached decoded
        array is returned read-only (it is shared across launches; every
        consumer copies).
        """
        with self.timers.phase("encode"):
            cache = self._downlink_cache
            if (
                cache is not None
                and cache[0] == self._global_version
                and cache[1] is flat
            ):
                payload_nbytes, decoded = cache[2], cache[3]
            else:
                payload = self.codec.encode(flat)
                decoded = self.codec.decode(payload)
                payload_nbytes = payload.nbytes
                if self.codec.deterministic:
                    decoded.flags.writeable = False
                    # Freeze the cached *source* too: the cache key is
                    # (version, object identity), which in-place mutation
                    # through an alias would bypass — freezing turns that
                    # silent staleness into an immediate ValueError at the
                    # mutation site. Aggregation always rebinds (bumping
                    # the version), never mutates.
                    flat.flags.writeable = False
                    self._downlink_cache = (
                        self._global_version,
                        flat,
                        payload_nbytes,
                        decoded,
                    )
            for _ in range(n_receivers):
                self.meter.record_download(payload_nbytes)
            # Remember the wire size so sampled latencies can include transfer
            # time under a finite-bandwidth model (uplink ≈ downlink size).
            self._last_payload_nbytes = payload_nbytes
            return decoded

    def send_up(self, flat: np.ndarray) -> np.ndarray:
        """Client→server transfer: returns what the server decodes."""
        with self.timers.phase("encode"):
            payload = self.codec.encode(flat)
            self.meter.record_upload(payload.nbytes)
            return self.codec.decode(payload)

    def send_up_cohort(self, flats: list[np.ndarray]) -> list[np.ndarray]:
        """Batched client→server transfers for one cohort's responses."""
        with self.timers.phase("encode"):
            decoded, payloads = roundtrip_batch(self.codec, flats)
            for p in payloads:
                self.meter.record_upload(p.nbytes)
            return decoded

    def uplink_roundtrip(self, results: list[LocalTrainingResult]) -> list[int]:
        """Codec-roundtrip each result's weights **in place**, returning wire
        bytes per result.

        Unlike :meth:`send_up_cohort` this does not meter: the async methods
        charge uplink bytes at each result's virtual finish time (when its
        completion event pops), not at training time.
        """
        with self.timers.phase("encode"):
            decoded, payloads = roundtrip_batch(
                self.codec, [r.weights for r in results]
            )
            for res, weights in zip(results, decoded):
                res.weights = weights
            return [p.nbytes for p in payloads]

    def alive(self, client_ids, at_time: float | None = None):
        """Clients participating (not dropped, not churned away) at a time.

        Array in, array out (the vectorized path million-client tier pools
        take); lists/ranges keep returning lists for compatibility.
        """
        t = self.now if at_time is None else at_time
        if isinstance(client_ids, np.ndarray):
            out = self.failures.alive_array(client_ids, t)
            if not self.scenario.is_static and out.size:
                out = out[self.scenario.available_mask(out, t)]
            return out
        out = self.failures.alive_clients(client_ids, t)
        if not self.scenario.is_static:
            out = [c for c in out if self.scenario.is_available(c, t)]
        return out

    def completes(self, client_id: int, start: float, end: float) -> bool:
        """Whether a round spanning [start, end] reaches the server: the
        client neither drops out permanently nor churns offline mid-round."""
        if not self.failures.will_complete(client_id, start, end):
            return False
        return self.scenario.is_static or self.scenario.available_throughout(
            client_id, start, end
        )

    def select_clients(self, pool, k: int) -> list[int]:
        """Random sample of ``min(k, |pool|)`` clients without replacement."""
        pool = np.asarray(pool, dtype=np.int64)
        if pool.size == 0:
            return []
        k = min(k, int(pool.size))
        return sorted(
            self._select_rng.choice(pool, size=k, replace=False).tolist()
        )

    def sample_latency(self, client_id: int, epochs: int | None = None) -> float:
        epochs = self.config.local_epochs if epochs is None else epochs
        # Round trip moves the model down and back up; both transfers count
        # against a finite-bandwidth link (no-op when bandwidth is None).
        # The transfer term is computed exactly once — metered and added to
        # the sampled compute+delay latency — at launch, for every
        # attempted round: clients that later churn/drop mid-round still
        # occupied the link (see NetworkMeter).
        payload = 2 * getattr(self, "_last_payload_nbytes", 0)
        bw_scale = 1.0
        if not self.scenario.is_static:
            bw_scale = self.scenario.bandwidth_scale(client_id, self.now)
        transfer = self.latency_model.transfer_seconds(
            payload, bandwidth_scale=bw_scale
        )
        if transfer > 0.0:
            self.meter.record_transfer(transfer)
        latency = (
            self.population.sample_round_latency(client_id, epochs, self._latency_rng)
            + transfer
        )
        if not self.scenario.is_static:
            latency *= self.scenario.latency_multiplier(client_id, self.now)
        return latency

    def observe_latency(self, client_id: int, latency: float) -> None:
        """Feed one *server-observable* response latency to the re-tier
        tracker.

        Call sites invoke this only for clients whose round actually
        reports back — a client that drops or churns away mid-round is
        never observed, so online re-tiering works from exactly the
        information a real server would have.
        """
        if self.retier_tracker is not None:
            self.retier_tracker.observe(client_id, latency)

    def make_task(
        self,
        client_id: int,
        latency: float,
        *,
        epochs: int | None = None,
        lam: float | None = None,
    ) -> CohortTask:
        """Allocate one client's local round (advances its schedule cursor).

        Build tasks in the order clients would have trained serially: the
        cursor allocation is the only stateful step, and keeping it in the
        main process is what lets the executor run the actual training
        anywhere.
        """
        cfg = self.config
        epochs = cfg.local_epochs if epochs is None else epochs
        start_epoch = int(self._epoch_cursor[client_id])
        self._epoch_cursor[client_id] += epochs
        return CohortTask(
            client_id=client_id,
            epochs=epochs,
            lam=cfg.lam if lam is None else lam,
            latency=latency,
            start_epoch=start_epoch,
        )

    def train_cohort(
        self, tasks: list[CohortTask], start_weights: np.ndarray
    ) -> list[LocalTrainingResult]:
        """Run a cohort of local rounds from ``start_weights``.

        Results come back in task order and are bit-identical across
        executor backends (see ``tests/exec/test_equivalence.py``).
        """
        if not tasks:
            return []
        with self.timers.phase("train"):
            return self.executor.run_cohort(start_weights, tasks)

    def guard_results(
        self, results: list[LocalTrainingResult], reference: np.ndarray
    ) -> list[LocalTrainingResult]:
        """Quarantine-filter a cohort's results (no-op without a guard).

        ``reference`` is the snapshot the cohort departed from; the
        returned list is what aggregation may consume (clip rebinds
        weights in place, reject omits the result, abort raises).
        """
        if self.guard is None or not results:
            return list(results)
        return self.guard.filter(
            results, reference, round_no=self.round, time=self.now
        )

    def train_departing_cohort(
        self, client_ids: list[int], now: float, *, lam: float | None = None
    ) -> tuple[list[tuple[LocalTrainingResult, float]], list[int]]:
        """Download + train clients that all depart from the current global
        model at virtual time ``now`` (the async-method launch pattern).

        Charges one downlink per client, samples latencies in launch order,
        drops clients that die mid-round, and returns ``(result, virtual
        finish time)`` pairs for the survivors plus the ids of clients lost
        to *churn* (offline now, or leaving mid-round). Churned clients are
        recoverable — callers should schedule a relaunch at their next
        rejoin — whereas permanently dropped clients are silently gone,
        exactly as before scenarios existed.
        """
        if not client_ids:
            return [], []
        received = self.send_down(self.global_weights, n_receivers=len(client_ids))
        tasks, finishes = [], []
        deferred: list[int] = []
        for cid in client_ids:
            latency = self.sample_latency(cid)
            finish = now + latency
            if not self.completes(cid, now, finish):
                if self.failures.will_complete(cid, now, finish):
                    deferred.append(cid)  # churned away, will rejoin
                continue  # permanent dropout; never comes back
            self.observe_latency(cid, latency)
            tasks.append(self.make_task(cid, latency, lam=lam))
            finishes.append(finish)
        trained = self.train_cohort(tasks, received)
        kept = self.guard_results(trained, received)
        if len(kept) != len(trained):
            # Re-pair finish times with the surviving results (client ids
            # are unique within a cohort, so identity pairing is exact).
            keep_ids = {id(r) for r in kept}
            return [
                (r, f) for r, f in zip(trained, finishes) if id(r) in keep_ids
            ], deferred
        return list(zip(kept, finishes)), deferred

    def schedule_relaunches(self, queue, deferred: list[int]) -> None:
        """Schedule :class:`RelaunchClient` events at each churned client's
        next rejoin, so async methods pick lost clients back up."""
        for cid in deferred:
            wake = self.scenario.next_join_after([cid], queue.now)
            if wake is not None and (
                self.config.max_time is None or wake < self.config.max_time
            ):
                queue.schedule_at(wake, RelaunchClient(cid))

    def schedule_arrival_launches(self, queue) -> None:
        """Schedule a :class:`RelaunchClient` at each late client's arrival.

        The async methods launch every client that exists at t=0 and then
        keep each one cycling; under an arrival scenario the rest of the
        population enters the same loop the moment it arrives.
        """
        for cid, t in self.scenario.late_arrivals():
            if self.config.max_time is None or t < self.config.max_time:
                queue.schedule_at(t, RelaunchClient(cid))

    def build_tiering(self):
        """Profile clients and split them into ``num_tiers`` latency tiers.

        Shared by FedAT and TiFL (the paper adopts TiFL's tiering approach
        for both). Profiling uses an environment-named RNG stream so both
        methods recover the same tiers under one seed.

        With ``profile_sample=k`` set (and ``k`` below the population size)
        only ``k`` sampled clients are probed; everyone else is assigned by
        interpolation (see :meth:`_build_tiering_sampled`). The default
        profiles every client, bit-identical to all existing histories.
        """
        from repro.tiering.profiler import LatencyProfiler
        from repro.tiering.tiers import Tiering

        profiler = LatencyProfiler(
            epochs=self.config.local_epochs,
            probe_rounds=self.config.profiler_probe_rounds,
            misprofile_fraction=self.config.misprofile_fraction,
        )
        k = self.config.profile_sample
        if k is not None and k < self.num_clients:
            return self._build_tiering_sampled(profiler, k)
        latencies = self.population.profile_latencies(
            profiler, self.factory.rng("env/profile")
        )
        #: Kept as the prior for online re-tiering (see make_retier_tracker).
        self.profiled_latencies = latencies
        return Tiering.from_latencies(latencies, self.config.num_tiers)

    def _build_tiering_sampled(self, profiler, k: int):
        """Tier a large population from ``k`` probed clients.

        Startup cost of full profiling is O(n) RNG probe draws — fine at
        thousands of clients, dominant at a virtual million. Sampling keeps
        the *probes* (the expensive, noisy measurement) at O(k): tier
        boundaries come from quantiles of the k sampled probe latencies,
        and every client is then assigned by ``searchsorted`` over its
        (vectorized, draw-free) expected latency. Deterministic given the
        seed; degenerate quantiles — an empty tier — fall back to sorting
        expected latencies directly, so the invariant that every tier is
        populated survives any latency distribution.
        """
        from repro.tiering.tiers import Tiering

        rng = self.factory.rng("env/profile")
        num_tiers = self.config.num_tiers
        ids = np.sort(rng.choice(self.num_clients, size=int(k), replace=False))
        sampled = self.population.profile_latencies_subset(profiler, ids, rng)
        expected = self.population.expected_latencies(self.config.local_epochs)
        #: Kept as the prior for online re-tiering (see make_retier_tracker);
        #: expected latencies are exactly that method's no-profile fallback.
        self.profiled_latencies = expected
        boundaries = np.quantile(sampled, np.arange(1, num_tiers) / num_tiers)
        assignment = np.searchsorted(boundaries, expected, side="right")
        tiers = [np.flatnonzero(assignment == m) for m in range(num_tiers)]
        if any(t.size == 0 for t in tiers):
            # Sampled boundaries missed part of the support (tiny sample or
            # heavy ties); equal-count split over expected latencies keeps
            # every tier populated without probing anyone else.
            return Tiering.from_latencies(expected, num_tiers)
        return Tiering(tiers)

    def make_retier_tracker(self):
        """Latency tracker for online re-tiering, or None when disabled.

        Seeded from profiled latencies when the system profiled (the usual
        path), else from expected latencies — either way a deterministic
        prior the EWMA refines from real observations.
        """
        if self.config.retier_interval <= 0:
            return None
        from repro.tiering.online import LatencyTracker

        prior = getattr(self, "profiled_latencies", None)
        if prior is None:
            prior = self.population.expected_latencies(self.config.local_epochs)
        return LatencyTracker(prior, alpha=self.config.retier_ewma)

    def make_tier_index(self, num_tiers: int, *, client_ids=None):
        """Ordered index every later re-split goes through, or None when
        the tiers can never change.

        Over the re-tier tracker's live estimates when online re-tiering is
        on, else over the profiled prior (arrivals then slot in by their
        profile). ``client_ids`` enrolls only part of the population — the
        founders of an arrival scenario.
        """
        if self.retier_tracker is not None:
            return self.retier_tracker.make_index(num_tiers, client_ids=client_ids)
        if client_ids is None:
            return None
        from repro.tiering.index import TierIndex

        return TierIndex(self.profiled_latencies, num_tiers, client_ids=client_ids)

    def retier_due(self) -> bool:
        """Whether a periodic online re-tier should fire at this round."""
        return (
            self.retier_tracker is not None
            and self.round > 0
            and self.round % self.config.retier_interval == 0
        )

    def apply_retier(self, at_time: float):
        """Swap in a tiering re-split on observed latencies.

        Shared bookkeeping for FedAT and TiFL: takes the new split from the
        tier index, counts moved clients, and appends a ``retier_trace``
        record to the history meta. Returns the new tiering (also installed
        as ``self.tiering``); method-specific refresh (server masks, tier
        evaluators, round restarts) stays with the caller.
        """
        old = self.tiering
        new = self.tiering = self.tier_index.split()
        self.history.meta.setdefault("retier_trace", []).append(
            {
                "round": self.round,
                "time": float(at_time),
                "moved": new.moved_from(old),
                "sizes": new.sizes(),
            }
        )
        return new

    # ------------------------------------------------------------------ #
    # In-run checkpoint / resume
    # ------------------------------------------------------------------ #
    #: Attributes NOT captured in a checkpoint: everything ``__init__``
    #: deterministically reconstructs from the config (dataset, worker
    #: model, environment models, executor pools), plus the checkpoint
    #: plumbing itself. Capturing the rest of ``vars(self)`` — RNG
    #: generators with their stream positions, meters, histories, epoch
    #: cursors, server state — is exactly what resuming mid-run needs.
    #: Subclasses extend the set for attributes they rebuild in
    #: :meth:`_post_restore` (e.g. TiFL's tier evaluators).
    _CHECKPOINT_EXCLUDE = frozenset(
        {
            "population",
            "dataset",
            "num_clients",
            "config",
            "factory",
            "worker",
            "initial_flat",
            "loss",
            "timers",
            "delay_model",
            "scenario",
            "latency_model",
            "clients",
            "evaluator",
            "failures",
            "executor",
            "_downlink_cache",
            "arrival_pool",
            "_checkpointer",
            "_resume_queue",
            "_resumed",
        }
    )

    def state_dict(self) -> dict:
        """Picklable snapshot of every mutable simulation attribute."""
        return {
            k: v for k, v in vars(self).items() if k not in self._CHECKPOINT_EXCLUDE
        }

    def restore_state(self, state: dict) -> None:
        """Overlay a :meth:`state_dict` snapshot onto a freshly-built system.

        ``__init__`` must already have run with the *same* config: the
        restore only replaces the mutable attributes, trusting the
        deterministic construction for everything excluded from capture.
        """
        for key, value in state.items():
            setattr(self, key, value)
        # The downlink encode cache keys on (version, source identity);
        # unpickling broke the identity, so start cold — the first
        # send_down re-encodes, byte-for-byte the same payload.
        self._downlink_cache = None
        self._post_restore()

    def _post_restore(self) -> None:
        """Hook: rebuild excluded attributes that depend on restored state."""

    def attach_checkpointer(self, checkpointer, *, resume: bool = False) -> bool:
        """Enable round-granular checkpointing for this run.

        With ``resume=True`` and an existing checkpoint, the system state
        (and, for event-loop methods, the in-flight event queue) is
        restored so :meth:`run` continues mid-run instead of starting
        over. Returns True when a checkpoint was actually resumed.
        """
        self._checkpointer = checkpointer
        if not resume:
            return False
        payload = checkpointer.load()
        if payload is None:
            return False
        if payload["method"] != self.name:
            raise ValueError(
                f"checkpoint {checkpointer.path} belongs to method "
                f"{payload['method']!r}, not {self.name!r}"
            )
        self.restore_state(payload["state"])
        self._resume_queue = payload["queue"]
        self._resumed = True
        return True

    def _maybe_checkpoint(self, queue=None) -> None:
        """Persist at round boundaries (no-op without a checkpointer)."""
        if self._checkpointer is not None:
            self._checkpointer.maybe_save(self, queue)

    # ------------------------------------------------------------------ #
    # Evaluation / bookkeeping
    # ------------------------------------------------------------------ #
    def record_eval(self) -> EvalRecord:
        """Evaluate the current global model and append to the history.

        Under an arrival scenario the same forward pass additionally scores
        the *enrolled-so-far* view — accuracy over clients that have joined
        by now, vs. the headline accuracy over the full eventual population
        — appended to ``history.meta["arrival_eval"]``.
        """
        views = None
        if self.scenario.has_arrivals:
            views = {
                "enrolled": [
                    cid
                    for cid in self.evaluator.client_ids
                    if self.scenario.arrival_time(cid) <= self.now
                ]
            }
        with self.timers.phase("eval"):
            stats = self.evaluator.evaluate_flat(self.global_weights, views=views)
        rec = EvalRecord(
            time=self.now,
            round=self.round,
            accuracy=stats["accuracy"],
            loss=stats["loss"],
            accuracy_variance=stats["accuracy_variance"],
            uplink_bytes=self.meter.uplink_bytes,
            downlink_bytes=self.meter.downlink_bytes,
        )
        self.history.append(rec)
        if views is not None:
            enrolled = stats["views"]["enrolled"]
            self.history.meta.setdefault("arrival_eval", []).append(
                {
                    "time": float(self.now),
                    "round": int(self.round),
                    "enrolled_clients": enrolled["clients"],
                    "enrolled_accuracy": enrolled["accuracy"],
                    "population_accuracy": stats["accuracy"],
                }
            )
        return rec

    def _eval_due(self) -> bool:
        return self.round % self.config.eval_every == 0

    def budget_exhausted(self) -> bool:
        cfg = self.config
        if self.round >= cfg.max_rounds:
            return True
        return cfg.max_time is not None and self.now >= cfg.max_time

    # ------------------------------------------------------------------ #
    def run(self) -> RunHistory:
        """Execute the full experiment, releasing the executor afterwards.

        Publishes the per-phase wall-clock totals to
        ``history.meta["phase_seconds"]`` — diagnostics for attributing perf
        wins, never inputs to the simulation.
        """
        try:
            return self._run()
        finally:
            self.executor.close()
            self.history.meta["phase_seconds"] = self.timers.snapshot()
            # Deterministic transfer accounting (bytes, messages, and —
            # under a finite-bandwidth link — transfer seconds).
            self.history.meta["network"] = self.meter.snapshot()
            # Fault-tolerance telemetry, only when the run configured it:
            # recovery counters are wall-clock-race diagnostics (like
            # phase_seconds), the guard snapshot is deterministic.
            if (
                self.config.faults is not None
                or self.config.chunk_timeout is not None
                or self.config.executor == "dist"
            ):
                counters = getattr(self.executor, "fault_counters", None)
                if counters is not None:
                    self.history.meta["faults"] = dict(counters)
            if self.guard is not None:
                self.history.meta["guard"] = self.guard.snapshot()

    def _run(self) -> RunHistory:
        raise NotImplementedError


class SyncFLSystem(FLSystem):
    """Round-based synchronous FL loop (FedAvg family).

    Per round: choose a cohort, push the global model down, wait for the
    slowest selected client (stragglers hurt here — that is the point),
    drop clients that fail mid-round, aggregate the responders.

    Subclass hooks: :meth:`choose_cohort`, :meth:`aggregate`,
    :meth:`client_epochs`, :meth:`client_lambda`, :meth:`on_round_end`.
    """

    name = "sync-base"

    def choose_cohort(self) -> list[int]:
        pool = self.alive(range(self.num_clients))
        return self.select_clients(pool, self.config.clients_per_round)

    def client_epochs(self, client_id: int) -> int:
        return self.config.local_epochs

    def client_lambda(self, client_id: int) -> float:
        return 0.0  # FedAvg has no proximal term

    def aggregate(self, results: list[LocalTrainingResult]) -> None:
        from repro.core.aggregation import sample_weighted_average

        self.global_weights = sample_weighted_average(
            [r.weights for r in results], [r.n_samples for r in results]
        )

    def on_round_end(self) -> None:
        """Hook for subclasses (e.g. TiFL credit/probability refresh)."""

    def _wait_for_rejoin(self) -> bool:
        """No selectable client right now: idle until the next churn rejoin.

        Returns True (and advances the clock) when some client comes back
        inside the time budget; False means the pool is permanently empty
        and the run should end — the only possibility in a static world.
        """
        if self.scenario.is_static:
            return False
        wake = self.scenario.next_join_after(range(self.num_clients), self.now)
        if wake is None:
            return False
        if self.config.max_time is not None and wake >= self.config.max_time:
            return False
        self.now = wake
        return True

    def _run(self) -> RunHistory:
        if not self._resumed:
            self.record_eval()  # round-0 baseline point
        while not self.budget_exhausted():
            self._maybe_checkpoint()
            cohort = self.choose_cohort()
            if not cohort:
                if self._wait_for_rejoin():
                    continue  # a churn window reopened: try selecting again
                break  # every client dropped out for good
            start = self.now
            received = self.send_down(self.global_weights, n_receivers=len(cohort))
            tasks: list[CohortTask] = []
            round_end = start
            for cid in cohort:
                latency = self.sample_latency(cid, self.client_epochs(cid))
                finish = start + latency
                round_end = max(round_end, finish)
                if not self.completes(cid, start, finish):
                    continue  # client dropped mid-round; server hears nothing
                self.observe_latency(cid, latency)
                tasks.append(
                    self.make_task(
                        cid,
                        latency,
                        epochs=self.client_epochs(cid),
                        lam=self.client_lambda(cid),
                    )
                )
            # Quarantine before the uplink codec (rejected clients never
            # transmit; exploded updates would overflow range-limited
            # encoders like polyline otherwise).
            results = self.guard_results(self.train_cohort(tasks, received), received)
            for res, weights in zip(results, self.send_up_cohort([r.weights for r in results])):
                res.weights = weights
            self.now = round_end
            if results:
                with self.timers.phase("aggregate"):
                    self.aggregate(results)
            self.round += 1
            self.on_round_end()
            if self._eval_due():
                self.record_eval()
        if not self.history.records or self.history.records[-1].round != self.round:
            self.record_eval()
        return self.history
