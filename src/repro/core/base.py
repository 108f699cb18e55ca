"""The event loop every FL method runs on.

:class:`FLSystem` wires together every substrate — dataset, NN worker
model, latency environment, failure injection, network metering, codecs,
and evaluation — and owns the one run loop (:meth:`FLSystem._run`):

1. resume the checkpointed queue, or record the round-0 eval and run the
   method's :meth:`~FLSystem.prologue` (its first launches);
2. until the queue drains or the budget (``max_rounds`` / ``max_time``) is
   spent: checkpoint, pop the earliest event, advance the clock to it and
   hand its payload to the method's :meth:`~FLSystem.handle`;
3. record the final eval and let the method :meth:`~FLSystem.finish`.

A method answers those three hooks plus two per launched client,
:meth:`~FLSystem.client_epochs` and :meth:`~FLSystem.client_lambda` (its
local epochs and proximal λ), and builds on two shared steps:
:meth:`~FLSystem.launch` sends the global model to a cohort and queues
everyone who will report back for training, and
:meth:`~FLSystem.schedule_join` wakes the method when a client (re)joins
before ``max_time``. Training waits until a result is needed
(:meth:`~FLSystem.flush`): the pending clients read then, and those due to
be read soon, train as one cohort, so tiers in flight together share
stacked waves and dispatches, and a client no event can read before the
budget ends does not train.
Every result is metered on the uplink when its event pops. Three families
use the loop:

- :class:`SyncFLSystem` (FedAvg, FedProx, TiFL): one round in flight, done
  at its slowest client's finish time;
- :class:`repro.core.fedat.FedAT`: one such round per tier in flight;
- :class:`AsyncFLSystem` (FedAsync, ASO-Fed): one cycle per client in
  flight, each upload one global update.

Fairness-by-construction: the *environment* RNG streams (delay-band
assignment, dropout schedule, latency draws) are named independently of the
algorithm, so every method compared under one seed faces the same cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from repro.compression.codec import Codec, NullCodec, make_codec
from repro.core.config import FLConfig
from repro.core.params import MethodParams, StalenessParams
from repro.core.staleness import StalenessPolicy
from repro.exec import CohortTask, OptimizerSpec, make_executor
from repro.metrics.history import EvalRecord, RunHistory
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.population.base import as_population
from repro.scenario import ScenarioEngine, parse_scenario
from repro.sim.client import LocalTrainingResult
from repro.sim.events import EventQueue
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

__all__ = ["FLSystem", "SyncFLSystem", "AsyncFLSystem"]

ModelBuilder = Callable[[np.random.Generator], Sequential]


class Launch:
    """What :meth:`FLSystem.launch` sent out.

    ``end``, ``churned`` and ``finishes`` are known at departure.
    ``results`` and ``quarantined`` exist once every reporting client has
    trained: the first read of either while the launch is pending, or of
    an untrained client's upload, flushes (:meth:`FLSystem.flush`). A
    flush may train some of a launch's clients and leave the rest pending,
    or resolve reporting clients as :attr:`skipped` instead — no event can
    read them before the budget ends — and then reading ``results`` or
    ``quarantined``, or a skipped client's upload, raises
    ``RuntimeError``. A trained launch holds exactly the attributes it
    held when training ran at departure, ``finishes`` aside, so
    checkpoints written either way load alike.
    """

    #: Reporting clients a flush resolved without training them; empty
    #: when every one trained (the default of launches pickled before
    #: clients could be skipped).
    skipped: frozenset = frozenset()

    def __init__(self, end: float, churned: list, finishes: dict, flush=None):
        #: The slowest launched client's finish time: a synchronous round's end.
        self.end = end
        #: Clients lost to churn (offline at launch or leaving mid-round); they
        #: come back, unlike permanent dropouts, who are not listed.
        self.churned = churned
        #: Virtual finish time of every client that reports back, by id, in
        #: launch order.
        self.finishes = finishes
        if flush is None:
            self.resolve([], 0)
        else:
            self._flush = flush
            #: ``results``' entry of each client trained while others are
            #: still pending, by id.
            self._uploads = {}

    def resolve(self, results: list, quarantined: int, skipped=(), at=None) -> None:
        """Install the trained outcome; the launch is pending no more.

        ``skipped`` names reporting clients left untrained, and ``at`` the
        ``(round, max_rounds)`` the flush that skipped them ran under.
        """
        self.__dict__.pop("_flush", None)
        self.__dict__.pop("_uploads", None)
        if skipped:
            self.skipped = frozenset(skipped)
            self._trained = results
            self._skipped_at = at
            return
        #: ``(result, virtual finish time, uplink bytes)`` per client that
        #: reports back and passes the update guard, in launch order.
        self.results = results
        #: How many reporting clients the update guard quarantined.
        self.quarantined = quarantined

    def upload(self, client_id: int) -> tuple[LocalTrainingResult | None, int]:
        """One reporting client's trained result and uplink bytes; ``(None,
        0)`` when the guard quarantined it. Reading an untrained client
        trains it; reading a skipped client raises."""
        uploads = self.__dict__.get("_uploads")
        if uploads is not None:
            if client_id not in uploads:
                self._flush(self, client_id)
            if "_uploads" in self.__dict__:  # others still pending
                result, _, nbytes = uploads.get(client_id, (None, None, 0))
                return result, nbytes
        if client_id in self.skipped:
            self._refuse(client_id)
        for result, _, nbytes in self._trained if self.skipped else self.results:
            if result.client_id == client_id:
                return result, nbytes
        return None, 0

    def _refuse(self, client_id: int):
        round_no, max_rounds = self._skipped_at
        raise RuntimeError(
            f"client {client_id}'s result was never trained: at round {round_no} "
            f"no event could read it before max_rounds={max_rounds}"
        )

    def __getattr__(self, name):
        # Reached only for an attribute the instance lacks: ``results`` and
        # ``quarantined`` of a pending launch are trained into existence;
        # those of a launch with skipped clients never exist.
        if name not in ("results", "quarantined"):
            raise AttributeError(name)
        flush = self.__dict__.get("_flush")
        if flush is not None:
            flush(self)
            return getattr(self, name)
        if self.skipped:
            self._refuse(min(self.skipped))
        raise AttributeError(name)


@dataclass
class RoundDone:
    """Event payload: a synchronous round (for FedAT, ``tier``'s) ends at
    the event time."""

    tier: int | None
    launch: Launch

    @property
    def reads(self) -> bool:
        """Handling it reads the launch's results (see ``EventQueue``)."""
        return bool(self.launch.finishes)


@dataclass
class Wake:
    """Event payload: retry a round that found nobody to select (for FedAT,
    the idle tier's)."""

    tier: int | None = None


@dataclass
class ClientJoin:
    """Event payload: a client joins at the event time — a late arrival, or
    a churned client whose availability window reopened."""

    client_id: int
    #: A late arrival's position in ``scenario.late_arrivals()``: handling
    #: it queues the next arrival, so one is queued at a time. None for a
    #: churn rejoin, and for arrivals restored from a checkpoint written
    #: when every arrival was queued up front.
    arrival: int | None = None


@dataclass
class ClientDone:
    """Event payload: one async client cycle's upload reaches the server —
    or, when the update guard quarantined the client's result, nothing
    does and the event pops as a no-op."""

    client_id: int
    #: Global round the client's cycle departed from.
    start_version: int
    launch: Launch
    #: Handling it reads the client's result (see ``EventQueue``).
    reads = True

    def upload(self) -> tuple[LocalTrainingResult | None, int]:
        """The client's trained result and its uplink bytes (see
        :meth:`Launch.upload`)."""
        return self.launch.upload(self.client_id)

    @property
    def result(self) -> LocalTrainingResult | None:
        return self.upload()[0]

    def __setstate__(self, state: dict) -> None:
        if "result" in state:
            # Pickled when the result rode on the event itself.
            result = state["result"]
            launch = Launch(None, [], {})
            launch.resolve([(result, None, state["uplink_bytes"])], 0)
            state = {
                "client_id": result.client_id,
                "start_version": state["start_version"],
                "launch": launch,
            }
        self.__dict__.update(state)


class _Pending(NamedTuple):
    """A launch waiting to train: its tasks, the weights they departed
    from, and the round and time the update guard records them under."""

    launch: Launch
    tasks: list
    received: np.ndarray
    round: int
    time: float


def _clients_read(payloads, into: dict[int, set]) -> dict[int, set]:
    """Add the reporting clients each read event in ``payloads`` reads to
    ``into``, by ``id`` of their launch, and return it."""
    for payload in payloads:
        ids = into.setdefault(id(payload.launch), set())
        if isinstance(payload, ClientDone):
            ids.add(payload.client_id)
        else:
            ids.update(payload.launch.finishes)
    return into


class FLSystem:
    """Base class for all federated-learning systems in this library.

    Subclasses set :attr:`name`, optionally :attr:`uses_compression` and
    :attr:`Params`, and implement :meth:`prologue` and :meth:`handle`.
    """

    name = "base"
    #: The knobs the method reads beyond FLConfig (see repro.core.params).
    Params = MethodParams
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
        # Accepts a Population or a FederatedDataset; all internal plumbing
        # goes through the population.
        population = as_population(population)
        self.population = population
        #: The eager federation behind a materialized population; None when
        #: clients are lazily derived (use ``num_clients``/``population``).
        self.dataset = population.dataset
        self.num_clients = population.num_clients
        self.config = config
        #: ``config.algo``, or the method's defaults when it is None.
        self.params = self.Params() if config.algo is None else config.algo
        if type(self.params) is not self.Params:
            raise TypeError(
                f"{self.name} takes {self.Params.__qualname__}, "
                f"not {type(self.params).__qualname__}"
            )
        self.factory = SeedSequenceFactory(config.seed)

        # Worker model: the serial executor trains every client round through
        # this instance, each from its start row; dist workers (forked
        # locally, or external ``repro worker`` processes) clone it.
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
        # The evaluator owns a model replica: evaluation must never write
        # into the worker's flat buffer mid-run.
        # ``eval_clients`` pins evaluation to a fixed random client subset
        # (mandatory for large virtual populations).
        eval_ids = None
        if config.eval_clients is not None and config.eval_clients < self.num_clients:
            eval_ids = np.sort(
                self.factory.rng("env/eval").choice(
                    self.num_clients, size=config.eval_clients, replace=False
                )
            ).tolist()
        self.evaluator = population.build_evaluator(self.worker, client_ids=eval_ids)
        self.failures = UnstableClientPolicy(
            self.num_clients,
            self.factory.rng("env/failures"),
            num_unstable=config.num_unstable,
            horizon=config.dropout_horizon,
        )
        self.meter = NetworkMeter()
        #: Downlink cache: (global version, source array, wire bytes,
        #: received weights). See :meth:`send_down`.
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
        self.executor = make_executor(
            config.exec,
            model=self.worker,
            clients=self.clients,
            loss=self.loss,
            optimizer=self.optimizer_spec(),
            seed=config.seed,
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
        #: Launches waiting to train, in launch order (see :meth:`flush`).
        self._pending: list[_Pending] = []
        #: The queue :meth:`_run` pops, whose read events tell a flush what
        #: the budget can still read; None until the loop starts.
        self._queue: EventQueue | None = None

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
        """Server→client transfer: transmit once, charge each receiver,
        return the (possibly lossy) weights the clients actually start from.

        One ``codec.transmit`` of one row gives the received weights and the
        wire bytes; both are cached against the global-model version
        counter: the async methods (FedAT tier launches, FedAsync/ASO-Fed
        per-client relaunches) repeatedly send an *unchanged* global model,
        and re-encoding it per launch was pure waste. Metering is per
        receiver exactly as before, and a codec's transmit is a pure
        function of its input, so the cached weights are byte-for-byte a
        fresh transmit's and histories are bit-identical. The cached
        received array is returned read-only (it is shared across launches;
        every consumer copies).
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
                # A copy: transmit may write the received weights into it.
                received, nbytes = self.codec.transmit(np.array(flat, dtype=np.float64, ndmin=2))
                decoded, payload_nbytes = received[0], int(nbytes[0])
                decoded.flags.writeable = False
                # Freeze the cached *source* too: the cache key is (version,
                # object identity), which in-place mutation through an alias
                # would bypass — freezing turns that silent staleness into
                # an immediate ValueError at the mutation site. Aggregation
                # always rebinds (bumping the version), never mutates.
                flat.flags.writeable = False
                self._downlink_cache = (self._global_version, flat, payload_nbytes, decoded)
            for _ in range(n_receivers):
                self.meter.record_download(payload_nbytes)
            # Remember the wire size so sampled latencies can include transfer
            # time under a finite-bandwidth model (uplink ≈ downlink size).
            self._last_payload_nbytes = payload_nbytes
            return decoded

    def uplink_roundtrip(self, results: list[LocalTrainingResult]) -> list[int]:
        """Send every result's weights through the codec as one
        ``codec.transmit`` call, replacing each result's weights **in place**
        with what the server receives; returns the wire bytes per result.

        The trained weights are copied into one stack, each result letting
        its own copy go as its row is filled, so the stack is the only copy
        held. This does not meter: every method charges uplink bytes at each
        result's virtual finish time (when its event pops), not at training
        time.
        """
        if not results:
            return []
        with self.timers.phase("encode"):
            rows = np.empty((len(results), results[0].weights.size))
            for row, res in zip(rows, results):
                row[...] = res.weights
                res.weights = row
            received, nbytes = self.codec.transmit(rows)
            for res, row in zip(results, received):
                res.weights = row
            return nbytes.tolist()

    def alive(self, client_ids, at_time: float | None = None):
        """Clients participating (not dropped, not churned away) at a time,
        as an id array (vectorized: million-client pools pass through)."""
        t = self.now if at_time is None else at_time
        out = self.failures.alive_array(client_ids, t)
        if not self.scenario.is_static and out.size:
            out = out[self.scenario.available_mask(out, t)]
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

    def client_epochs(self, client_id: int) -> int:
        """Hook: local epochs of one launched client."""
        return self.config.local_epochs

    def client_lambda(self, client_id: int) -> float:
        """Hook: proximal λ of one launched client — the method's ``lam``,
        or 0 (no proximal term) when its Params declare none."""
        return getattr(self.params, "lam", 0.0)

    def make_task(
        self,
        client_id: int,
        latency: float,
        *,
        epochs: int,
        lam: float,
    ) -> CohortTask:
        """Allocate one client's local round (advances its schedule cursor).

        Build tasks in the order clients would have trained serially: the
        cursor allocation is the only stateful step, and keeping it in the
        main process is what lets the executor run the actual training
        anywhere.
        """
        start_epoch = int(self._epoch_cursor[client_id])
        self._epoch_cursor[client_id] += epochs
        return CohortTask(
            client_id=client_id,
            epochs=epochs,
            lam=lam,
            latency=latency,
            start_epoch=start_epoch,
        )

    def train_cohort(
        self, tasks: list[CohortTask], starts: np.ndarray
    ) -> list[LocalTrainingResult]:
        """Run a cohort of local rounds, each task from its row of
        ``starts`` (an ``(S, P)`` stack, or one ``(P,)`` vector).

        Results come back in task order and are bit-identical across
        executor backends (see ``tests/exec/test_equivalence.py``).
        """
        if not tasks:
            return []
        with self.timers.phase("train"):
            return self.executor.run_cohort(starts, tasks)

    def launch(self, client_ids, start: float) -> Launch:
        """Send the global model to ``client_ids`` at virtual time ``start``
        and queue everyone who will report back for training.

        Charges one downlink per client and samples latencies in launch
        order. A client that drops out or churns away before its finish
        time never reports: it is not trained, metered, or observed by the
        re-tier tracker (online re-tiering sees exactly what a real server
        would). The rest train from the weights they received at a later
        :meth:`flush` — when they are read, at the latest — unless no event
        can read them before the budget ends.
        """
        if not client_ids:
            return Launch(start, [], {})
        received = self.send_down(self.global_weights, n_receivers=len(client_ids))
        tasks, finishes, churned = [], {}, []
        end = start
        for cid in client_ids:
            epochs = self.client_epochs(cid)  # one draw: timed and trained alike
            latency = self.sample_latency(cid, epochs)
            finish = start + latency
            end = max(end, finish)
            if not self.completes(cid, start, finish):
                if self.failures.will_complete(cid, start, finish):
                    churned.append(cid)
                continue
            if self.retier_tracker is not None:
                self.retier_tracker.observe(cid, latency)
            tasks.append(
                self.make_task(cid, latency, epochs=epochs, lam=self.client_lambda(cid))
            )
            finishes[cid] = finish
        if not tasks:
            return Launch(end, churned, finishes)
        launch = Launch(end, churned, finishes, flush=self.flush)
        self._pending.append(_Pending(launch, tasks, received, self.round, self.now))
        return launch

    def flush(self, launch: Launch | None = None, client_id: int | None = None) -> None:
        """Train pending clients, and resolve each launch none of whose
        reporting clients is left pending.

        A read — of ``launch``'s results, or of ``client_id``'s upload
        from it — trains the clients being read and every pending client
        a latency horizon says will be read soon (:meth:`_due`). Every
        other client stays pending, so one launch may train over several
        flushes. A flush with nothing being read (:meth:`state_dict`, the
        end of the run), and every flush of a run with a guard, trains
        every pending client instead, except those no event can read
        before the budget ends (:meth:`_unread`): their launch resolves
        them as skipped, and reading one raises.

        The chosen clients train as one cohort, in launch order — one
        stacked cohort serially, one dispatch on dist — each
        from the weights its launch received: launches that received the
        same decoded downlink share one row of the start stack. Then, per
        launch in launch order, the update guard filters its results
        against those weights under the launch's round and time, *before*
        the uplink codec (a rejected client never transmits, and an
        exploded update would overflow a range-limited encoder like
        polyline), and the uplink round trip sends the kept results
        through one ``codec.transmit`` call, replacing their weights in
        place. A launch's ``results`` are in launch order however its
        clients were split between flushes.

        Flushing is free to happen early or in parts: no draw that shapes
        the run waits for training, and a client round is a pure function
        of its start row and task. The guard's trace follows launch order,
        so a run with a guard trains every pending launch whole. A flush
        must happen before anything reads what training changes — a
        launch's results, the guard's state in a checkpoint — so
        :meth:`state_dict` and the end of the run flush everything first.
        """
        if not self._pending:
            return
        due, unread = None, {}
        if launch is not None and self._queue is not None and self.guard is None:
            due = self._due(launch, client_id)
        else:
            unread = self._unread()
        rows: dict[int, int] = {}
        starts, tasks, plans, pending = [], [], [], []
        for p in self._pending:
            skipped = unread.get(id(p.launch), ())
            picked = None if due is None else due.get(id(p.launch), ())
            mine, later = [], []
            for t in p.tasks:
                if t.client_id not in skipped:
                    (mine if picked is None or t.client_id in picked else later).append(t)
            if later:
                pending.append(p._replace(tasks=later))
            plans.append((p, len(mine), skipped, not later))
            if not mine:
                continue
            row = rows.setdefault(id(p.received), len(starts))
            if row == len(starts):
                starts.append(p.received)
            tasks += [replace(t, row=row) for t in mine] if row else mine
        self._pending = pending
        trained = []
        if tasks:
            trained = self.train_cohort(tasks, starts[0] if len(starts) == 1 else np.stack(starts))
        at = 0
        for p, count, skipped, done in plans:
            mine = trained[at : at + count]
            at += count
            kept = mine
            if self.guard is not None:
                kept = self.guard.filter(mine, p.received, round_no=p.round, time=p.time)
            finishes, uploads = p.launch.finishes, p.launch._uploads
            for r, nbytes in zip(kept, self.uplink_roundtrip(kept)):
                uploads[r.client_id] = (r, finishes[r.client_id], nbytes)
            if not done:
                continue
            p.launch.resolve(
                [uploads[c] for c in finishes if c in uploads],
                len(finishes) - len(skipped) - len(uploads),
                skipped,
                at=(self.round, self.config.max_rounds),
            )

    def _due(self, launch: Launch, client_id: int | None) -> dict[int, set]:
        """Pending clients a read trains, by ``id`` of their launch: the
        ones being read (``client_id``, or every reporting client of
        ``launch``), and every client whose read event is due before
        ``now + 2·d`` with fewer than R = ``max_rounds - round`` read
        events ahead of it (:meth:`_unread` says why R).

        d is the shortest delay any read event has been queued with so far
        (``EventQueue.read_delay``). While later delays keep to it, an
        event queued from now on reads no earlier than ``now + d``, so none
        pushes a client due before then past the budget. The second d is
        speculation that keeps flushes as few, and their waves as full, as
        training everything readable did. A client due later may yet be
        pushed past the budget by launches still to come, and waits for
        its read or a later flush. The horizon decides only what trains
        when: a client trained in vain costs time, never bits.
        """
        due = {id(launch): set(launch.finishes) if client_id is None else {client_id}}
        queue = self._queue
        reads_left = 0 if self.budget_exhausted() else self.config.max_rounds - self.round
        return _clients_read(queue.reads_before(reads_left, self.now + 2 * queue.read_delay), due)

    def _unread(self) -> dict[int, set]:
        """Reporting clients no event will read, by ``id`` of their launch.

        With no guard, handling a queued read event (a ``RoundDone`` or
        ``ClientDone`` of a launch with a reporting client) ends exactly one
        global update, and events leave the queue only by popping. So one
        with at least R = ``max_rounds - round`` read events ahead of it is
        never handled, and once the budget is spent nothing is; a later
        launch can only add read events ahead of it. A launch whose read
        event is not queued yet (the one being handled, or one still
        departing) is not listed. Nothing is listed under a guard (a
        quarantined async upload consumes no round, and the guard's trace
        counts every reporting client).
        """
        queue = self._queue
        if queue is None or self.guard is not None:
            return {}
        reads_left = 0 if self.budget_exhausted() else self.config.max_rounds - self.round
        return _clients_read(queue.reads_after(reads_left), {})

    def schedule_join(self, queue, payload, client_ids=None, *, at=None) -> None:
        """Schedule ``payload`` for when a client joins, if before
        ``max_time``.

        ``at`` is a known join time (a late arrival); without it the join is
        the next rejoin or arrival among ``client_ids`` after now. Nothing is
        scheduled when none of them ever comes back.
        """
        if at is None:
            at = self.scenario.next_join_after(client_ids, self.now)
        if at is not None and (self.config.max_time is None or at < self.config.max_time):
            queue.schedule_at(at, payload)

    def schedule_arrival(self, queue, index: int) -> None:
        """Queue the ``index``-th late arrival, if there is one (arrivals
        come in time order, so one past ``max_time`` ends the chain)."""
        arrival = self.scenario.late_arrival(index)
        if arrival is not None:
            client_id, at = arrival
            self.schedule_join(queue, ClientJoin(client_id, index), at=at)

    def build_tiering(self, *, split: bool = True):
        """Profile clients and split them into ``num_tiers`` latency tiers.

        Shared by FedAT and TiFL (the paper adopts TiFL's tiering approach
        for both). Profiling uses an environment-named RNG stream so both
        methods recover the same tiers under one seed.

        With ``split`` False the clients are profiled alike (the same
        draws) and None is returned: FedAT under arrivals splits only the
        founders, through its tier index.
        """
        from repro.tiering.profiler import LatencyProfiler
        from repro.tiering.tiers import Tiering

        profiler = LatencyProfiler(
            epochs=self.config.local_epochs,
            misprofile_fraction=self.params.misprofile_fraction,
        )
        latencies = self.population.profile_latencies(
            profiler, self.factory.rng("env/profile")
        )
        #: Kept as the prior for online re-tiering (see make_retier_tracker).
        self.profiled_latencies = latencies
        return Tiering.from_latencies(latencies, self.params.num_tiers) if split else None

    def make_retier_tracker(self):
        """Latency tracker for online re-tiering, or None when disabled.

        Seeded from the latencies :meth:`build_tiering` profiled: a
        deterministic prior the EWMA refines from real observations.
        """
        if self.params.retier_interval <= 0:
            return None
        from repro.tiering.online import LatencyTracker

        return LatencyTracker(self.profiled_latencies, alpha=self.params.retier_ewma)

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
            and self.round % self.params.retier_interval == 0
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
    #: model, environment models, the executor), plus the checkpoint
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
            "params",
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
            "_checkpointer",
            "_resume_queue",
            "_pending",
            "_queue",
        }
    )

    def state_dict(self) -> dict:
        """Picklable snapshot of every mutable simulation attribute.

        Flushes first, so every launch in the checkpointed queue carries
        its trained results and nothing is pending.
        """
        self.flush()
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
        and the in-flight event queue are restored so :meth:`run` continues
        mid-run instead of starting over. Returns True when a checkpoint was
        actually resumed.
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
        # Its launches may hold clients skipped because no event could read
        # them under the budget it ran with; another budget could.
        budget = {"max_rounds": self.config.max_rounds, "max_time": self.config.max_time}
        saved = {key: payload.get(key, value) for key, value in budget.items()}
        if saved != budget:
            raise ValueError(
                f"checkpoint {checkpointer.path} ran under max_rounds="
                f"{saved['max_rounds']}, max_time={saved['max_time']}, not max_rounds="
                f"{budget['max_rounds']}, max_time={budget['max_time']}"
            )
        self.restore_state(payload["state"])
        self._resume_queue = payload["queue"]
        return True

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
            ids = np.asarray(self.evaluator.client_ids)
            views = {"enrolled": ids[self.scenario.arrival_times(ids) <= self.now].tolist()}
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
            # Recovery counters of every supervised executor (wall-clock-race
            # diagnostics, like phase_seconds); the guard snapshot is
            # deterministic.
            counters = getattr(self.executor, "fault_counters", None)
            if counters is not None:
                self.history.meta["faults"] = dict(counters)
            if self.guard is not None:
                self.history.meta["guard"] = self.guard.snapshot()

    def _run(self) -> RunHistory:
        if self._resume_queue is not None:
            # The checkpointed queue carries every in-flight event; the
            # round-0 eval and the prologue ran before it was taken.
            queue: EventQueue = self._resume_queue
        else:
            queue = EventQueue()
            self.record_eval()
            self.prologue(queue)
        self._queue = queue
        while not queue.empty and not self.budget_exhausted():
            # Persists at round boundaries. An upload the guard quarantined
            # is a no-op: its client never reported, so it pops without
            # moving the clock or being a place to checkpoint.
            head = queue.peek().payload
            reported = not isinstance(head, ClientDone) or head.result is not None
            if reported and self._checkpointer is not None:
                self._checkpointer.maybe_save(self, queue)
            ev = queue.pop()
            if not reported:
                continue
            self.now = ev.time
            self.handle(ev.payload, queue)
        # Nothing reads after the loop: what is still pending resolves as
        # skipped, or trains under a guard (its counters count every
        # reporting client).
        self.flush()
        if not self.history.records or self.history.records[-1].round != self.round:
            self.record_eval()
        self.finish()
        return self.history

    def prologue(self, queue: EventQueue) -> None:
        """Hook: the first launches, after the round-0 eval."""
        raise NotImplementedError

    def handle(self, payload, queue: EventQueue) -> None:
        """Hook: act on one popped event's payload at ``self.now``."""
        raise NotImplementedError

    def finish(self) -> None:
        """Hook: publish method meta after the final eval."""


class SyncFLSystem(FLSystem):
    """Round-based synchronous FL (FedAvg family).

    One round is in flight at a time: choose a cohort, launch it, and end
    the round at the slowest selected client's finish time (stragglers hurt
    here — that is the point); clients that fail mid-round never report.
    When nobody is selectable the next round waits for the next client to
    join; when nobody ever comes back the run ends.

    Subclass hooks: :meth:`choose_cohort`, :meth:`aggregate`,
    :meth:`client_epochs`, :meth:`client_lambda`, :meth:`on_round_end`.
    """

    name = "sync-base"

    def choose_cohort(self) -> list[int]:
        pool = self.alive(np.arange(self.num_clients))
        return self.select_clients(pool, self.config.clients_per_round)

    def aggregate(self, results: list[LocalTrainingResult]) -> None:
        from repro.core.aggregation import sample_weighted_average

        self.global_weights = sample_weighted_average(
            [r.weights for r in results], [r.n_samples for r in results]
        )

    def on_round_end(self) -> None:
        """Hook for subclasses (e.g. TiFL credit/probability refresh)."""

    def prologue(self, queue: EventQueue) -> None:
        self._start_round(queue)

    def handle(self, payload, queue: EventQueue) -> None:
        if isinstance(payload, RoundDone):
            results = payload.launch.results
            for _, _, nbytes in results:
                self.meter.record_upload(nbytes)
            if results:
                with self.timers.phase("aggregate"):
                    self.aggregate([res for res, _, _ in results])
            self.round += 1
            self.on_round_end()
            if self._eval_due():
                self.record_eval()
        self._start_round(queue)

    def _start_round(self, queue: EventQueue) -> None:
        if self.budget_exhausted():
            return
        cohort = self.choose_cohort()
        if not cohort:
            self.schedule_join(queue, Wake(), np.arange(self.num_clients))
            return
        launch = self.launch(cohort, self.now)
        queue.schedule_at(launch.end, RoundDone(None, launch))


class AsyncFLSystem(FLSystem):
    """Fully asynchronous FL (FedAsync, ASO-Fed).

    Every alive client cycles on its own — download the current global
    model, train, upload — and each upload is one global update. At t = 0
    the alive population departs from w0 as one launch; after that each
    upload relaunches its client alone, from the global model it just
    moved. Relaunches wait to train until an upload is read, and then
    those due soon train together as one cohort, each from its own global
    version. A client lost to churn is relaunched when it rejoins, a
    late client when it arrives; permanent dropouts and quarantined clients
    are gone for good (a quarantined client's upload pops as a no-op).

    Subclass hooks: :meth:`apply_update` (the server's update rule) and
    :meth:`client_lambda`.
    """

    Params = StalenessParams

    def __init__(self, population, model_builder, config, *, delay_model=None):
        super().__init__(population, model_builder, config, delay_model=delay_model)
        self.staleness_policy = StalenessPolicy.parse(self.params.staleness) or (
            StalenessPolicy("constant")
        )

    def apply_update(self, result: LocalTrainingResult, staleness: int) -> None:
        """Hook: fold one upload, ``staleness`` rounds old, into the model."""
        raise NotImplementedError

    def prologue(self, queue: EventQueue) -> None:
        self._start_cycles(self.alive(np.arange(self.num_clients), 0.0).tolist(), queue)
        self.schedule_arrival(queue, 0)

    def handle(self, payload, queue: EventQueue) -> None:
        if isinstance(payload, ClientDone):
            result, nbytes = payload.upload()
            self.meter.record_upload(nbytes)
            self.apply_update(result, self.round - payload.start_version)
            self.round += 1
            if self._eval_due():
                self.record_eval()
        elif payload.arrival is not None:  # an arrival, not a churn rejoin
            self.schedule_arrival(queue, payload.arrival + 1)
        # The client begins its next cycle from the current global model.
        self._start_cycles([payload.client_id], queue)

    def _start_cycles(self, client_ids, queue: EventQueue) -> None:
        launch = self.launch(client_ids, self.now)
        for cid in launch.churned:
            self.schedule_join(queue, ClientJoin(cid), [cid])
        for cid, finish in launch.finishes.items():
            queue.schedule_at(finish, ClientDone(cid, self.round, launch))
