"""Property tests for scenario compilation (hypothesis).

Invariants locked down here:

- a static spec compiles to *zero* events for any population/horizon;
- churn availability windows are well-ordered (alternating leave/join with
  strictly increasing times, starting offline);
- compiled arrival times are monotone in event order, stay inside the
  window, and always leave at least one founding client;
- bandwidth timelines are strictly positive and non-increasing at every
  queried instant;
- the array availability and arrival-time queries equal scalar
  ``is_available`` / ``arrival_time`` element for element, and
  ``next_join_after`` answers an id array as it answers a list;
- ``late_arrival(i)`` is the i-th of ``late_arrivals()``, and None past it;
- timelines are built on first query, so every answer must be the same in
  any order clients are first asked about, and ``next_join_after`` must equal
  a brute-force scan while building timelines only for gated clients;
- compiled events are in the order an ``EventQueue`` would pop them, however
  many share a timestamp.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import ComposedSpec, ScenarioEngine, ScenarioEvent, ScenarioSpec
from repro.scenario.engine import EVENT_KINDS
from repro.sim.events import EventQueue

fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
positive_fractions = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
populations = st.integers(min_value=2, max_value=40)
horizons = st.floats(min_value=1.0, max_value=5000.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(n=populations, horizon=horizons, seed=seeds)
def test_static_spec_always_compiles_to_zero_events(n, horizon, seed):
    spec = ScenarioSpec(name="static")
    eng = ScenarioEngine.compile(spec, n, horizon, np.random.default_rng(seed))
    assert eng.is_static
    assert eng.events == []
    # And zeroed headline knobs are exactly as static as the static preset.
    zeroed = ScenarioSpec(
        name="zeroed", churn_fraction=0.0, drift_fraction=0.0,
        burst_count=0, arrival_fraction=0.0, bwdrift_fraction=0.0,
    )
    assert zeroed.is_static
    eng2 = ScenarioEngine.compile(zeroed, n, horizon, np.random.default_rng(seed))
    assert eng2.events == []


@settings(max_examples=40, deadline=None)
@given(
    fraction=positive_fractions, n=populations, horizon=horizons, seed=seeds
)
def test_churn_availability_windows_are_well_ordered(fraction, n, horizon, seed):
    spec = ScenarioSpec(name="churn", churn_fraction=fraction)
    eng = ScenarioEngine.compile(spec, n, horizon, np.random.default_rng(seed))
    per_client: dict[int, list] = {}
    for ev in eng.events:
        per_client.setdefault(ev.client_id, []).append(ev)
    for events in per_client.values():
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(b > a for a, b in zip(times, times[1:]))  # strictly ordered
        kinds = [e.kind for e in events]
        # Alternating windows, starting with a departure, inside the horizon.
        assert all(
            k == ("leave" if i % 2 == 0 else "join") for i, k in enumerate(kinds)
        )
        assert all(0.0 <= t < horizon for t in times)


@settings(max_examples=40, deadline=None)
@given(
    fraction=positive_fractions, n=populations, horizon=horizons, seed=seeds
)
def test_arrival_times_monotone_with_a_founder(fraction, n, horizon, seed):
    spec = ScenarioSpec(name="arrival", arrival_fraction=fraction)
    eng = ScenarioEngine.compile(spec, n, horizon, np.random.default_rng(seed))
    late = eng.late_arrivals()
    assert len(eng.founders()) >= 1
    assert len(eng.founders()) + len(late) == n
    times = [t for _, t in late]
    assert times == sorted(times)  # monotone arrival schedule
    assert [eng.late_arrival(i) for i in range(len(late) + 1)] == late + [None]
    lo, hi = spec.arrival_window
    assert all(lo * horizon <= t <= hi * horizon for t in times)
    arrive_events = [e.time for e in eng.events if e.kind == "arrive"]
    assert arrive_events == sorted(arrive_events)
    for cid, t in late:
        assert not eng.is_available(cid, t - 1e-9 * max(t, 1.0))
        assert eng.is_available(cid, t)


@settings(max_examples=40, deadline=None)
@given(
    fraction=fractions,
    steps=st.integers(min_value=0, max_value=6),
    n=populations,
    horizon=horizons,
    seed=seeds,
)
def test_bandwidth_timelines_always_positive(fraction, steps, n, horizon, seed):
    spec = ScenarioSpec(
        name="bwdrift", bwdrift_fraction=fraction, bwdrift_steps=steps
    )
    eng = ScenarioEngine.compile(spec, n, horizon, np.random.default_rng(seed))
    assert all(e.value > 0 for e in eng.events)
    probes = np.linspace(0.0, horizon * 1.5, 13)
    for cid in range(n):
        scales = [eng.bandwidth_scale(cid, t) for t in probes]
        assert all(s > 0.0 for s in scales)
        assert all(b <= a for a, b in zip(scales, scales[1:]))  # only degrades
        assert scales[0] <= 1.0


@settings(max_examples=30, deadline=None)
@given(
    churn=positive_fractions,
    bw=positive_fractions,
    arrival=positive_fractions,
    n=populations,
    horizon=horizons,
    seed=seeds,
)
def test_family_marginals_preserved_under_composition(
    churn, bw, arrival, n, horizon, seed
):
    """Merging families never perturbs any family's own timeline."""
    composed = ComposedSpec(
        name="composed",
        parts=(
            ScenarioSpec(name="churn", churn_fraction=churn),
            ScenarioSpec(name="bwdrift", bwdrift_fraction=bw),
            ScenarioSpec(name="arrival", arrival_fraction=arrival),
        ),
    )
    eng = ScenarioEngine.compile(composed, n, horizon, np.random.default_rng(seed))
    marginals = {
        ("leave", "join"): ScenarioSpec(name="churn", churn_fraction=churn),
        ("bandwidth",): ScenarioSpec(name="bwdrift", bwdrift_fraction=bw),
        ("arrive",): ScenarioSpec(name="arrival", arrival_fraction=arrival),
    }
    for kinds, spec in marginals.items():
        alone = ScenarioEngine.compile(
            spec, n, horizon, np.random.default_rng(seed)
        )
        assert [e for e in eng.events if e.kind in kinds] == alone.events


@settings(max_examples=30, deadline=None)
@given(n=populations, horizon=horizons, seed=seeds)
def test_multiplier_restores_drift_after_all_bursts_close(n, horizon, seed):
    """Two burst families with different factors overlap freely; once every
    episode is closed the multiplier returns bit-exactly to the drift value."""
    composed = ComposedSpec(
        name="composed",
        parts=(
            ScenarioSpec(name="drift", drift_fraction=1.0, drift_steps=2),
            ScenarioSpec(
                name="burst", burst_count=2, burst_fraction=1.0, burst_factor=3.0
            ),
            ScenarioSpec(
                name="burst", burst_count=2, burst_fraction=1.0, burst_factor=3.0
            ),
        ),
    )
    eng = ScenarioEngine.compile(composed, n, horizon, np.random.default_rng(seed))
    drift_only = ScenarioEngine.compile(
        ScenarioSpec(name="drift", drift_fraction=1.0, drift_steps=2),
        n,
        horizon,
        np.random.default_rng(seed),
    )
    last_burst_off = max(
        (e.time for e in eng.events if e.kind == "burst_off"), default=0.0
    )
    probe = max(last_burst_off, horizon) + 1.0
    for cid in range(n):
        assert eng.latency_multiplier(cid, probe) == drift_only.latency_multiplier(
            cid, probe
        )


# --------------------------------------------------------------------- #
# Array availability == scalar availability
# --------------------------------------------------------------------- #
#: Few distinct instants, so several events of one client share a timestamp
#: and queries land exactly on event times.
instants = st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.0])


def _assert_mask_matches_scalar(eng: ScenarioEngine, ids: np.ndarray, times) -> None:
    assert eng.arrival_times(ids).tolist() == [eng.arrival_time(int(c)) for c in ids]
    for t in times:
        want = [eng.is_available(int(c), t) for c in ids]
        got = eng.available_mask(ids, t)
        assert got.dtype == bool and got.tolist() == want
        assert eng.next_join_after(ids, t) == eng.next_join_after(ids.tolist(), t)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    raw=st.lists(
        st.tuples(instants, st.sampled_from(["leave", "join", "arrive"]), st.integers(0, 7)),
        max_size=30,
    ),
    ids=st.lists(st.integers(0, 7), max_size=12),  # any order, repeats allowed
    probes=st.lists(st.one_of(instants, st.floats(0.0, 9.0)), min_size=1, max_size=6),
)
def test_available_mask_equals_scalar_on_hand_built_timelines(n, raw, ids, probes):
    """Repeated leaves, joins nobody left before, arrivals after a rejoin,
    several events at one instant: whatever the timeline, both queries agree."""
    events = [ScenarioEvent(t, kind, cid % n) for t, kind, cid in raw]
    eng = ScenarioEngine.from_events(n, events)
    _assert_mask_matches_scalar(eng, np.array([c % n for c in ids], dtype=np.int64), probes)


@settings(max_examples=40, deadline=None)
@given(
    churn=positive_fractions,
    arrival=positive_fractions,
    n=populations,
    horizon=horizons,
    seed=seeds,
    fractions_of_horizon=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=5),
)
def test_available_mask_equals_scalar_on_compiled_worlds(
    churn, arrival, n, horizon, seed, fractions_of_horizon
):
    composed = ComposedSpec(
        name="composed",
        parts=(
            ScenarioSpec(name="churn", churn_fraction=churn),
            ScenarioSpec(name="arrival", arrival_fraction=arrival),
        ),
    )
    eng = ScenarioEngine.compile(composed, n, horizon, np.random.default_rng(seed))
    event_times = [e.time for e in eng.events[:: max(1, len(eng.events) // 5)]]
    times = [f * horizon for f in fractions_of_horizon] + event_times
    _assert_mask_matches_scalar(eng, np.arange(n, dtype=np.int64), times)
    assert eng.has_arrivals == bool(eng.late_arrivals())
    late = [cid for cid, _ in eng.late_arrivals()]
    assert sorted(eng.founders().tolist() + late) == list(range(n))


# --------------------------------------------------------------------- #
# Timelines built on first query
# --------------------------------------------------------------------- #
def _answers(eng: ScenarioEngine, ids, times) -> dict:
    return {
        cid: [
            (
                eng.is_available(cid, t),
                eng.available_throughout(cid, t, t + 1.5),
                eng.latency_multiplier(cid, t),
                eng.bandwidth_scale(cid, t),
                eng.arrival_time(cid),
                eng.next_join_after([cid], t),
            )
            for t in times
        ]
        for cid in ids
    }


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 6),
    raw=st.lists(
        st.tuples(
            instants,
            st.sampled_from(EVENT_KINDS),
            st.integers(0, 5),
            st.sampled_from([2.0, 3.0]),
            st.one_of(st.none(), st.integers(0, 2)),
        ),
        max_size=30,
    ),
    order=st.permutations(range(6)),
)
def test_answers_do_not_depend_on_which_client_is_asked_first(n, raw, order):
    """Ties, leave-leave-join, repeated arrivals, overlapping same-factor
    bursts with and without episodes: every answer is the same whichever
    clients' timelines were built before the client's own."""
    events = [ScenarioEvent(t, kind, cid % n, v, ep) for t, kind, cid, v, ep in raw]
    times = [0.0, 1.0, 2.5, 3.0, 4.0, 7.0, 9.0]
    in_id_order = _answers(ScenarioEngine.from_events(n, events), range(n), times)
    shuffled = [cid for cid in order if cid < n]
    assert _answers(ScenarioEngine.from_events(n, events), shuffled, times) == in_id_order


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    raw=st.lists(
        st.tuples(instants, st.sampled_from(EVENT_KINDS), st.integers(0, 7)), max_size=30
    ),
    ids=st.lists(st.integers(0, 7), max_size=12),
    t=st.one_of(instants, st.floats(0.0, 9.0)),
)
def test_next_join_after_equals_a_brute_force_scan(n, raw, ids, t):
    """Any iterable of ids gives the earliest join or arrival after ``t`` at
    which that client is online, and only clients that ever leave or arrive
    late get a timeline built."""
    events = [ScenarioEvent(time, kind, cid % n) for time, kind, cid in raw]
    ids = [c % n for c in ids]
    eng = ScenarioEngine.from_events(n, events)

    def scan(clients) -> float | None:
        return min(
            (
                e.time
                for e in events
                if e.kind in ("join", "arrive")
                and e.client_id in clients
                and e.time > t
                and eng.is_available(e.client_id, e.time)
            ),
            default=None,
        )

    want = scan(set(ids))
    assert eng.next_join_after(ids, t) == want
    assert eng.next_join_after(np.array(ids, dtype=np.int64), t) == want
    assert eng.next_join_after(iter(ids), t) == want
    fresh = ScenarioEngine.from_events(n, events)
    assert fresh.next_join_after(range(n), t) == scan(set(range(n)))
    gated = {e.client_id for e in events if e.kind in ("leave", "join", "arrive")}
    assert set(fresh._timelines) <= gated


# --------------------------------------------------------------------- #
# Stable sort == EventQueue order
# --------------------------------------------------------------------- #
def _queue_order(events: list[ScenarioEvent]) -> list[ScenarioEvent]:
    """What the engine used to do: push every event, pop them all."""
    queue = EventQueue()
    for ev in events:
        queue.schedule_at(ev.time, ev)
    return [queue.pop().payload for _ in range(len(events))]


@settings(max_examples=100, deadline=None)
@given(
    raw=st.lists(
        st.tuples(instants, st.sampled_from(EVENT_KINDS), st.integers(0, 5)), max_size=40
    )
)
def test_events_keep_queue_order_under_equal_timestamps(raw):
    events = [ScenarioEvent(t, kind, cid, episode=i) for i, (t, kind, cid) in enumerate(raw)]
    assert ScenarioEngine.from_events(6, events).events == _queue_order(events)


class _RecordingEngine(ScenarioEngine):
    """Keeps the compiler's raw (generation-order) columns as an event list."""

    def __init__(self, num_clients, time, kind, client, value, episode, *, name="custom"):
        self.raw = [
            ScenarioEvent(t, EVENT_KINDS[k], c, v, None if e < 0 else e)
            for t, k, c, v, e in zip(
                time.tolist(), kind.tolist(), client.tolist(), value.tolist(), episode.tolist()
            )
        ]
        super().__init__(num_clients, time, kind, client, value, episode, name=name)


@settings(max_examples=30, deadline=None)
@given(n=populations, horizon=horizons, seed=seeds, count=st.integers(1, 4))
def test_burst_families_sharing_t0_compile_in_queue_order(n, horizon, seed, count):
    """Every client of a burst episode starts at the same ``t0`` — the
    largest block of equal timestamps a compiled world contains."""
    composed = ComposedSpec(
        name="composed",
        parts=(
            ScenarioSpec(name="burst", burst_count=count, burst_fraction=1.0),
            ScenarioSpec(name="churn", churn_fraction=0.5),
        ),
    )
    eng = _RecordingEngine.compile(composed, n, horizon, np.random.default_rng(seed))
    assert sum(e.kind == "burst_on" for e in eng.raw) == count * n
    assert eng.events == _queue_order(eng.raw)
