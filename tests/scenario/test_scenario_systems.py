"""Scenario ↔ FL-system integration.

Locks the three contract points: (1) a static scenario is bit-identical to
the scenario-free simulator for every method family; (2) churn/drift
genuinely change who participates and how long rounds take; (3) online
re-tiering moves a drifting client into a slower tier and survives tiers
emptying/refilling.
"""

import numpy as np
import pytest

from repro.baselines import FedAsync, FedAvg, TiFL
from repro.core.fedat import FedAT
from repro.core.server import TieredServer
from repro.experiments.config import build_model_builder, knobs_read_by, route_config
from repro.experiments.runner import run_experiment
from repro.scenario import ScenarioEngine, ScenarioEvent
from repro.tiering.online import LatencyTracker
from repro.tiering.tiers import Tiering
from tests.helpers import tier_map


@pytest.fixture(scope="module")
def dataset():
    from repro.data.datasets import make_dataset

    return make_dataset(
        "sentiment140",
        np.random.default_rng(7),
        num_clients=12,
        samples_per_client=24,
        noise=0.7,
        writer_shift=0.3,
    )


def _config(cls, **overrides):
    base = dict(
        clients_per_round=4, local_epochs=1, max_rounds=6, eval_every=2,
        num_tiers=3, num_unstable=0, seed=7, compression=None, max_time=400.0,
    )
    base.update(overrides)
    return route_config(cls.name, **knobs_read_by(cls.name, base))


def _build(cls, dataset, **overrides):
    return cls(dataset, build_model_builder(dataset, "tiny"), _config(cls, **overrides))


# --------------------------------------------------------------------- #
# No-regression: static scenario is bit-identical
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("method", ["fedat", "tifl", "fedavg", "fedasync"])
def test_static_scenario_bit_identical(method):
    plain = run_experiment(
        method, "sentiment140", scale="tiny", seed=5, max_rounds=5
    )
    static = run_experiment(
        method, "sentiment140", scale="tiny", seed=5, max_rounds=5,
        scenario="static",
    )
    assert plain.to_dict()["records"] == static.to_dict()["records"]


@pytest.mark.parametrize("scenario", ["arrival:0", "none"])
@pytest.mark.parametrize("method", ["fedat", "fedavg", "fedasync"])
def test_disabled_new_scenarios_bit_identical_to_static(method, scenario):
    plain = run_experiment(
        method, "sentiment140", scale="tiny", seed=5, max_rounds=5
    )
    disabled = run_experiment(
        method, "sentiment140", scale="tiny", seed=5, max_rounds=5,
        scenario=scenario,
    )
    assert plain.to_dict()["records"] == disabled.to_dict()["records"]


@pytest.mark.parametrize("scenario", ["arrival:0.5", "bwdrift:2.0"])
@pytest.mark.parametrize(
    "method", ["fedat", "tifl", "fedavg", "fedprox", "fedasync", "asofed"]
)
def test_new_scenarios_run_end_to_end(method, scenario):
    history = run_experiment(
        method, "sentiment140", scale="tiny", seed=3, max_rounds=6,
        scenario=scenario,
    )
    assert history.rounds()[-1] > 0
    assert np.all(np.isfinite(history.accuracies()))
    assert np.all(np.isfinite(history.losses()))


def test_dynamic_scenario_changes_history():
    plain = run_experiment(
        "fedavg", "sentiment140", scale="tiny", seed=5, max_rounds=5
    )
    churn = run_experiment(
        "fedavg", "sentiment140", scale="tiny", seed=5, max_rounds=5,
        scenario="churn:0.9",
    )
    assert plain.to_dict()["records"] != churn.to_dict()["records"]


# --------------------------------------------------------------------- #
# Availability and latency hooks
# --------------------------------------------------------------------- #
def test_alive_excludes_churned_clients(dataset):
    system = _build(FedAvg, dataset)
    try:
        system.scenario = ScenarioEngine.from_events(
            dataset.num_clients,
            [ScenarioEvent(10.0, "leave", 3), ScenarioEvent(30.0, "join", 3)],
        )
        everyone = list(range(dataset.num_clients))
        assert 3 in system.alive(everyone, 5.0)
        assert 3 not in system.alive(everyone, 10.0)
        assert 3 not in system.alive(everyone, 29.0)
        assert 3 in system.alive(everyone, 30.0)
        # A round spanning the departure never reports back.
        assert system.completes(3, 5.0, 9.0)
        assert not system.completes(3, 5.0, 12.0)
    finally:
        system.executor.close()


def test_sample_latency_applies_drift_multiplier(dataset):
    system = _build(FedAvg, dataset, seed=11)
    try:
        factor = 7.0
        system.scenario = ScenarioEngine.from_events(
            dataset.num_clients, [ScenarioEvent(0.0, "speed", 2, factor)]
        )
        system.now = 1.0
        rng_state = system._latency_rng.bit_generator.state
        slowed = system.sample_latency(2)
        system._latency_rng.bit_generator.state = rng_state
        system.scenario = ScenarioEngine.from_events(dataset.num_clients, [])
        base = system.sample_latency(2)
        assert slowed == pytest.approx(base * factor)
    finally:
        system.executor.close()


# --------------------------------------------------------------------- #
# Online re-tiering
# --------------------------------------------------------------------- #
def test_latency_tracker_blends_observations():
    tracker = LatencyTracker(np.array([1.0, 2.0, 3.0]), alpha=0.5)
    tracker.observe(0, 9.0)  # first observation replaces the prior
    assert tracker.estimates[0] == 9.0
    tracker.observe(0, 5.0)  # later ones blend with alpha
    assert tracker.estimates[0] == pytest.approx(7.0)
    assert tracker.estimates[1] == 2.0  # untouched clients keep the prior
    tiering = tracker.retier(3)
    assert tiering.num_clients == 3
    with pytest.raises(ValueError):
        tracker.observe(1, -1.0)
    with pytest.raises(ValueError):
        LatencyTracker(np.array([1.0]), alpha=0.0)


def test_retier_moves_drifted_client_to_slower_tier(dataset):
    system = _build(
        FedAT, dataset,
        max_rounds=40, retier_interval=4, retier_ewma=0.8, clients_per_round=4,
    )
    try:
        victim = int(system.tiering.clients_in(0)[0])  # fastest tier member
        # From t=1 the victim is 60x slower than its profile claimed.
        system.scenario = ScenarioEngine.from_events(
            dataset.num_clients, [ScenarioEvent(1.0, "speed", victim, 60.0)]
        )
        history = system.run()
        assert tier_map(system.tiering)[victim] > 0
        trace = history.meta["retier_trace"]
        assert trace and all(t["sizes"] for t in trace)
        assert sum(t["moved"] for t in trace) > 0
    finally:
        pass  # run() already closed the executor


def test_tifl_retier_runs_and_traces(dataset):
    system = _build(
        TiFL, dataset,
        max_rounds=8, retier_interval=2, retier_ewma=0.8, scenario="drift:0.5",
    )
    history = system.run()
    trace = history.meta["retier_trace"]
    assert trace
    assert all(sum(t["sizes"]) == dataset.num_clients for t in trace)


# --------------------------------------------------------------------- #
# Empty-tier safety
# --------------------------------------------------------------------- #
def test_tiering_allows_empty_tiers_when_asked():
    with pytest.raises(ValueError):
        Tiering.from_latencies(np.array([1.0, 2.0]), 3)
    tiering = Tiering.from_latencies(np.array([1.0, 2.0]), 3, allow_empty=True)
    assert tiering.num_tiers == 3
    assert 0 in tiering.sizes()
    assert tiering.num_clients == 2


def test_tiered_server_guards_empty_tier_weights():
    server = TieredServer(np.zeros(4), 3)
    w = np.ones(4)
    # All update mass sits on tier 0; masking the tier holding the weight
    # (mirror-indexed: tier 2) must not divide by zero.
    server.submit_tier_update(0, w)
    server.set_active_tiers([True, True, False])
    weights = server.tier_weight_vector()
    assert weights is not None
    assert weights.sum() == pytest.approx(1.0)
    assert weights[2] == 0.0
    global_after = server.submit_tier_update(0, w)
    assert np.all(np.isfinite(global_after))
    # No active tiers at all: the global model is left untouched.
    server.set_active_tiers([False, False, False])
    before = server.global_weights.copy()
    after = server.submit_tier_update(0, w)
    assert np.array_equal(after, before)


def test_tifl_with_empty_tier_selects_safely(dataset):
    empty_tiering = Tiering(
        [
            np.arange(0, 6),
            np.arange(6, 12),
            np.array([], dtype=np.int64),
        ]
    )
    system = _build(TiFL, dataset, max_rounds=4, tifl_interval=2)
    system.tiering = empty_tiering
    system._tier_evaluators = system._build_tier_evaluators()
    history = system.run()
    assert len(history.records) >= 2
    assert all(t != 2 for t in history.meta["tier_selection_trace"])


def test_retier_tracker_never_sees_unreported_rounds(dataset):
    system = _build(FedAT, dataset, max_rounds=12, retier_interval=4)
    victim = int(system.tiering.clients_in(0)[0])
    # The victim churns away at t=0.5 — before any round it joined at t=0
    # can finish — and never rejoins: the server must never observe it.
    system.scenario = ScenarioEngine.from_events(
        dataset.num_clients, [ScenarioEvent(0.5, "leave", victim)]
    )
    system.run()
    assert system.retier_tracker.num_observations[victim] == 0
    assert system.retier_tracker.num_observations.sum() > 0


def test_fedasync_relaunches_churned_clients(dataset):
    system = _build(FedAsync, dataset, max_rounds=4000, max_time=60.0)
    # Everyone churns offline at t=5 and rejoins at t=20: every in-flight
    # cycle is lost, so without relaunch events the run would end at t~5.
    system.scenario = ScenarioEngine.from_events(
        dataset.num_clients,
        [ScenarioEvent(5.0, "leave", c) for c in range(dataset.num_clients)]
        + [ScenarioEvent(20.0, "join", c) for c in range(dataset.num_clients)],
    )
    history = system.run()
    assert history.times()[-1] > 20.0
    assert history.rounds()[-1] > 0


def test_sync_run_survives_transient_total_churn(dataset):
    system = _build(FedAvg, dataset, max_rounds=50, max_time=120.0)
    # A window where the whole population is offline: the loop must idle
    # until the rejoin instead of declaring the federation dead.
    system.scenario = ScenarioEngine.from_events(
        dataset.num_clients,
        [ScenarioEvent(0.0, "leave", c) for c in range(dataset.num_clients)]
        + [ScenarioEvent(40.0, "join", c) for c in range(dataset.num_clients)],
    )
    history = system.run()
    assert history.rounds()[-1] > 0
    assert history.times()[-1] >= 40.0


# --------------------------------------------------------------------- #
# Arrival: population growth
# --------------------------------------------------------------------- #
def test_fedat_arrival_grows_tiering_from_founders(dataset):
    system = _build(
        FedAT, dataset, scenario="arrival:0.5", max_rounds=400, max_time=260.0,
    )
    founders = system.tiering.num_clients
    late = [cid for cid, _ in system.scenario.late_arrivals()]
    assert founders < dataset.num_clients
    assert founders + len(late) == dataset.num_clients
    # Late clients are not tiered (the server has never heard of them).
    assert not set(late) & tier_map(system.tiering).keys()
    history = system.run()
    assert system.tiering.num_clients == dataset.num_clients
    assert set(late) <= tier_map(system.tiering).keys()
    trace = history.meta["arrival_trace"]
    assert len(trace) == len(late)
    times = [t["time"] for t in trace]
    assert times == sorted(times)
    assert sum(trace[-1]["sizes"]) == dataset.num_clients


@pytest.mark.parametrize(
    "cls, scenario",
    [(FedAT, "arrival:0.5"), (FedAsync, "churn+arrival")],
    ids=["fedat", "fedasync"],
)
def test_late_arrivals_are_queued_one_at_a_time(dataset, monkeypatch, cls, scenario):
    """The prologue queues the first late arrival and each handled arrival
    queues the next, so the queue never holds two; in the end every arrival
    before ``max_time`` was queued, in arrival order. Churn rejoins (also
    ``ClientJoin`` events under FedAsync) do not advance the chain."""
    from repro.core.base import ClientJoin
    from repro.sim.events import EventQueue

    def is_arrival(payload) -> bool:
        return isinstance(payload, ClientJoin) and payload.arrival is not None

    queued = []
    schedule_at = EventQueue.schedule_at

    def recording(queue, time, payload):
        if is_arrival(payload):
            assert not any(is_arrival(ev.payload) for ev in queue._heap)
            queued.append((payload.client_id, time))
        return schedule_at(queue, time, payload)

    monkeypatch.setattr(EventQueue, "schedule_at", recording)
    system = _build(cls, dataset, scenario=scenario, max_rounds=400, max_time=260.0)
    system.run()
    late = system.scenario.late_arrivals()
    assert len(queued) >= 2 and queued == [(cid, t) for cid, t in late if t < 260.0]


def test_sync_selection_folds_arrivals_in(dataset):
    system = _build(FedAvg, dataset)
    try:
        system.scenario = ScenarioEngine.from_events(
            dataset.num_clients, [ScenarioEvent(50.0, "arrive", 4)]
        )
        everyone = list(range(dataset.num_clients))
        assert 4 not in system.alive(everyone, 0.0)
        assert 4 not in system.alive(everyone, 49.0)
        assert 4 in system.alive(everyone, 50.0)
        # A round started before arrival can never complete.
        assert not system.completes(4, 40.0, 60.0)
        assert system.completes(4, 50.0, 60.0)
    finally:
        system.executor.close()


def test_fedasync_launches_late_arrivals(dataset):
    system = _build(FedAsync, dataset, max_rounds=4000, max_time=120.0)
    # Only client 0 founds the federation; everyone else arrives at t=50.
    system.scenario = ScenarioEngine.from_events(
        dataset.num_clients,
        [ScenarioEvent(50.0, "arrive", c) for c in range(1, dataset.num_clients)],
    )
    history = system.run()
    # The run must outlive the arrival wave and keep aggregating after it.
    assert history.times()[-1] > 50.0
    assert history.rounds()[-1] > 0


# --------------------------------------------------------------------- #
# Bandwidth drift: the finite-bandwidth transfer term
# --------------------------------------------------------------------- #
def test_bandwidth_scale_slows_only_the_transfer_term(dataset):
    system = _build(FedAvg, dataset, seed=11, bandwidth_bytes_per_s=1000.0)
    try:
        system._last_payload_nbytes = 500  # as if a model just went down
        system.scenario = ScenarioEngine.from_events(
            dataset.num_clients, [ScenarioEvent(0.0, "bandwidth", 2, 0.25)]
        )
        system.now = 1.0
        rng_state = system._latency_rng.bit_generator.state
        degraded = system.sample_latency(2)
        system._latency_rng.bit_generator.state = rng_state
        system.scenario = ScenarioEngine.from_events(dataset.num_clients, [])
        base = system.sample_latency(2)
        # Payload 2*500 B at 1000 B/s: 1 s nominal, 4 s at quarter bandwidth.
        assert degraded == pytest.approx(base + 3.0)
        assert system.meter.transfer_seconds == pytest.approx(4.0 + 1.0)
    finally:
        system.executor.close()


def test_bwdrift_changes_history_and_meters_transfer(dataset):
    static = run_experiment(
        "fedavg", "sentiment140", scale="tiny", seed=5, max_rounds=5,
    )
    drifted = run_experiment(
        "fedavg", "sentiment140", scale="tiny", seed=5, max_rounds=5,
        scenario="bwdrift:2.0",
    )
    assert static.to_dict()["records"] != drifted.to_dict()["records"]
    # Without a configured link the scenario engages the default finite
    # bandwidth, so transfer time is genuinely accounted.
    assert drifted.meta["network"]["transfer_seconds"] > 0.0
    assert static.meta["network"]["transfer_seconds"] == 0.0


def test_fedat_tier_revives_after_mass_churn(dataset):
    system = _build(
        FedAT, dataset, num_tiers=1, max_rounds=500, max_time=120.0,
    )
    # Everyone leaves at t=30 and returns at t=60: without wake events the
    # single tier would retire forever and the run would stall at t~30.
    system.scenario = ScenarioEngine.from_events(
        dataset.num_clients,
        [ScenarioEvent(30.0, "leave", c) for c in range(dataset.num_clients)]
        + [ScenarioEvent(60.0, "join", c) for c in range(dataset.num_clients)],
    )
    history = system.run()
    times = history.times()
    assert times[-1] > 60.0
    counts = history.meta["tier_update_counts"]
    assert counts[0] > 0


# --------------------------------------------------------------------- #
# Zero-effect specs: exactly as static as the static preset
# --------------------------------------------------------------------- #
def test_zero_fraction_burst_bit_identical_to_static(monkeypatch):
    # Regression: burst_count > 0 with burst_fraction == 0 hits nobody, yet
    # is_static used to report it dynamic — burning a scenario-RNG draw and
    # shifting every downstream sample for a world with zero events.
    from repro.scenario.spec import SCENARIO_PRESETS, ScenarioSpec

    monkeypatch.setitem(
        SCENARIO_PRESETS,
        "zeroburst",
        ScenarioSpec(name="zeroburst", burst_count=3, burst_fraction=0.0),
    )
    plain = run_experiment(
        "fedat", "sentiment140", scale="tiny", seed=5, max_rounds=5
    )
    zeroed = run_experiment(
        "fedat", "sentiment140", scale="tiny", seed=5, max_rounds=5,
        scenario="zeroburst",
    )
    assert plain.to_dict()["records"] == zeroed.to_dict()["records"]


# --------------------------------------------------------------------- #
# Composed and trace-driven worlds, end to end
# --------------------------------------------------------------------- #
DIURNAL = "trace:tests/fixtures/traces/diurnal_tiny.csv"


@pytest.mark.parametrize(
    "scenario",
    ["churn:0.2+bwdrift:2.0", "bwheal:4", DIURNAL, DIURNAL + "+arrival:0.2"],
)
@pytest.mark.parametrize("method", ["fedat", "tifl", "fedavg", "fedasync"])
def test_composed_and_trace_scenarios_run_end_to_end(method, scenario):
    history = run_experiment(
        method, "sentiment140", scale="tiny", seed=3, max_rounds=6,
        scenario=scenario,
    )
    assert history.rounds()[-1] > 0
    assert np.all(np.isfinite(history.accuracies()))
    assert np.all(np.isfinite(history.losses()))


def test_composition_only_adds_events_to_each_world():
    churn_only = run_experiment(
        "fedavg", "sentiment140", scale="tiny", seed=5, max_rounds=5,
        scenario="churn:0.9",
    )
    composed = run_experiment(
        "fedavg", "sentiment140", scale="tiny", seed=5, max_rounds=5,
        scenario="churn:0.9+bwdrift:2.0",
    )
    # The composed world differs from the churn-only world (bwdrift engages
    # the finite-bandwidth term) yet the histories stay finite and complete.
    assert churn_only.to_dict()["records"] != composed.to_dict()["records"]
    assert composed.meta["network"]["transfer_seconds"] > 0.0


def test_trace_driven_fedat_replays_identically_serial_vs_dist():
    serial = run_experiment(
        "fedat", "sentiment140", scale="tiny", seed=9, max_rounds=5,
        scenario=DIURNAL, executor="serial",
    )
    dist = run_experiment(
        "fedat", "sentiment140", scale="tiny", seed=9, max_rounds=5,
        scenario=DIURNAL, executor="dist", num_workers=2,
    )
    assert serial.to_dict()["records"] == dist.to_dict()["records"]
    assert serial.meta["tier_update_counts"] == dist.meta["tier_update_counts"]
