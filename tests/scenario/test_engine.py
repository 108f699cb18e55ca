"""Scenario engine: deterministic compilation and exact-time firing."""

import numpy as np
import pytest

from repro.scenario import (
    SCENARIO_PRESETS,
    ComposedSpec,
    ScenarioEngine,
    ScenarioEvent,
    ScenarioSpec,
    TraceSpec,
    load_trace_events,
    parse_scenario,
)


def _engine(events, n=4):
    return ScenarioEngine.from_events(n, events)


# --------------------------------------------------------------------- #
# Spec parsing
# --------------------------------------------------------------------- #
def test_parse_static_aliases():
    for text in (None, "static", "none", "STATIC"):
        assert parse_scenario(text).is_static


def test_parse_presets():
    assert parse_scenario("churn").churn_fraction > 0
    assert parse_scenario("drift").drift_fraction > 0
    assert parse_scenario("burst").burst_count > 0
    chaos = parse_scenario("chaos")
    assert chaos.churn_fraction > 0 and chaos.drift_fraction > 0


def test_parse_argument_overrides_headline_knob():
    assert parse_scenario("churn:0.5").churn_fraction == 0.5
    assert parse_scenario("drift:0.1").drift_fraction == 0.1
    assert parse_scenario("burst:5").burst_count == 5
    assert parse_scenario("arrival:0.6").arrival_fraction == 0.6
    assert parse_scenario("bwdrift:2.5").bwdrift_factor == (2.5, 2.5)


def test_parse_new_presets_and_disabled_forms():
    assert parse_scenario("arrival").arrival_fraction > 0
    assert parse_scenario("bwdrift").bwdrift_fraction > 0
    # Zeroed headline knobs disable the scenario entirely.
    assert parse_scenario("arrival:0").is_static
    with pytest.raises(ValueError):
        parse_scenario("bwdrift:0")  # a zero bandwidth divisor is invalid
    with pytest.raises(ValueError):
        parse_scenario("bwdrift:0.5")  # divisors < 1 would improve links
    with pytest.raises(ValueError):
        parse_scenario("arrival:1.5")  # fraction out of range


def test_parse_rejects_unknown_and_bad_args():
    with pytest.raises(ValueError):
        parse_scenario("earthquake")
    with pytest.raises(ValueError):
        parse_scenario("churn:lots")
    with pytest.raises(ValueError):
        parse_scenario("churn:1.5")  # fraction out of range


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(drift_steps=-1)
    with pytest.raises(ValueError):
        ScenarioSpec(burst_factor=0.0)
    with pytest.raises(ValueError):
        ScenarioSpec(churn_offline=(0.5, 0.1))  # hi < lo


# --------------------------------------------------------------------- #
# Availability (churn) timelines
# --------------------------------------------------------------------- #
def test_availability_fires_at_exact_virtual_times():
    eng = _engine(
        [
            ScenarioEvent(10.0, "leave", 1),
            ScenarioEvent(20.0, "join", 1),
        ]
    )
    assert eng.is_available(1, 0.0)
    assert eng.is_available(1, 9.999999)
    assert not eng.is_available(1, 10.0)  # transition applies at its time
    assert not eng.is_available(1, 19.999999)
    assert eng.is_available(1, 20.0)
    # Clients without events are always available.
    assert eng.is_available(0, 10.0) and eng.is_available(2, 1e9)


def test_available_throughout_respects_mid_round_departures():
    eng = _engine(
        [
            ScenarioEvent(10.0, "leave", 1),
            ScenarioEvent(20.0, "join", 1),
        ]
    )
    assert eng.available_throughout(1, 0.0, 9.0)
    assert not eng.available_throughout(1, 0.0, 10.0)  # leaves at the end
    assert not eng.available_throughout(1, 12.0, 15.0)  # offline window
    assert eng.available_throughout(1, 20.0, 100.0)
    # Leaves and rejoins inside the window: still a miss.
    assert not eng.available_throughout(1, 5.0, 25.0)


def test_simultaneous_events_resolve_in_insertion_order():
    eng = _engine(
        [
            ScenarioEvent(5.0, "leave", 0),
            ScenarioEvent(5.0, "join", 0),  # inserted later: wins at t=5
        ]
    )
    assert eng.is_available(0, 5.0)


def test_next_join_after():
    eng = _engine(
        [
            ScenarioEvent(10.0, "leave", 1),
            ScenarioEvent(20.0, "join", 1),
            ScenarioEvent(15.0, "leave", 2),
            ScenarioEvent(17.0, "join", 2),
        ]
    )
    assert eng.next_join_after([1, 2], 10.0) == 17.0
    assert eng.next_join_after([1], 10.0) == 20.0
    assert eng.next_join_after([1, 2], 20.0) is None
    assert eng.next_join_after([0], 0.0) is None


# --------------------------------------------------------------------- #
# Latency-multiplier (drift / burst) timelines
# --------------------------------------------------------------------- #
def test_speed_breakpoints_fire_at_exact_times():
    eng = _engine(
        [
            ScenarioEvent(5.0, "speed", 0, 2.0),
            ScenarioEvent(9.0, "speed", 0, 3.0),
        ]
    )
    assert eng.latency_multiplier(0, 4.999999) == 1.0
    assert eng.latency_multiplier(0, 5.0) == 2.0
    assert eng.latency_multiplier(0, 8.999999) == 2.0
    assert eng.latency_multiplier(0, 9.0) == 3.0
    assert eng.latency_multiplier(1, 9.0) == 1.0  # other clients untouched


def test_burst_stacks_on_drift_and_restores_exactly():
    eng = _engine(
        [
            ScenarioEvent(2.0, "speed", 0, 1.5),
            ScenarioEvent(3.0, "burst_on", 0, 4.0),
            ScenarioEvent(7.0, "burst_off", 0, 4.0),
        ]
    )
    assert eng.latency_multiplier(0, 2.5) == 1.5
    assert eng.latency_multiplier(0, 3.0) == 1.5 * 4.0
    # After the burst closes the drift multiplier is restored bit-exactly.
    assert eng.latency_multiplier(0, 7.0) == 1.5


# --------------------------------------------------------------------- #
# Compilation from specs
# --------------------------------------------------------------------- #
def test_static_spec_compiles_to_no_events():
    eng = ScenarioEngine.compile(
        SCENARIO_PRESETS["static"], 10, 100.0, np.random.default_rng(0)
    )
    assert eng.is_static and not eng.events


def test_compile_is_deterministic_per_rng_state():
    spec = SCENARIO_PRESETS["chaos"]
    a = ScenarioEngine.compile(spec, 20, 100.0, np.random.default_rng(7))
    b = ScenarioEngine.compile(spec, 20, 100.0, np.random.default_rng(7))
    c = ScenarioEngine.compile(spec, 20, 100.0, np.random.default_rng(8))
    assert a.events == b.events
    assert a.events != c.events
    assert len(a.events) > 0


def test_churn_compilation_schedules_alternating_windows():
    spec = ScenarioSpec(name="churn", churn_fraction=0.5)
    eng = ScenarioEngine.compile(spec, 10, 100.0, np.random.default_rng(1))
    churners = {e.client_id for e in eng.events}
    assert len(churners) == 5  # floor(0.5 * 10)
    for cid in churners:
        kinds = [e.kind for e in eng.events if e.client_id == cid]
        # Strict leave/join alternation starting with a departure.
        assert kinds[0] == "leave"
        assert all(
            k == ("leave" if i % 2 == 0 else "join") for i, k in enumerate(kinds)
        )
    assert all(0.0 <= e.time < 100.0 for e in eng.events)


def test_drift_compilation_is_monotonically_slower():
    spec = ScenarioSpec(name="drift", drift_fraction=1.0, drift_steps=4)
    eng = ScenarioEngine.compile(spec, 6, 50.0, np.random.default_rng(2))
    for cid in range(6):
        mults = [e.value for e in eng.events if e.client_id == cid]
        assert len(mults) == 4
        assert all(b > a for a, b in zip(mults, mults[1:]))
        assert mults[0] > 1.0
        # The timeline reflects the final compounded slowdown.
        assert eng.latency_multiplier(cid, 50.0) == mults[-1]


def test_burst_compilation_hits_a_subset_for_a_window():
    spec = ScenarioSpec(name="burst", burst_count=2, burst_fraction=0.5)
    eng = ScenarioEngine.compile(spec, 8, 100.0, np.random.default_rng(3))
    on = [e for e in eng.events if e.kind == "burst_on"]
    off = [e for e in eng.events if e.kind == "burst_off"]
    assert len(on) == len(off) == 2 * 4  # 2 bursts x floor(0.5*8) clients
    assert all(e.value == spec.burst_factor for e in on)
    # During a burst the multiplier is the burst factor; before, 1.0.
    e0 = on[0]
    assert eng.latency_multiplier(e0.client_id, e0.time) == spec.burst_factor
    assert eng.latency_multiplier(e0.client_id, 0.0) == 1.0


# --------------------------------------------------------------------- #
# Arrival (population growth) timelines
# --------------------------------------------------------------------- #
def test_arrive_gates_availability():
    eng = _engine([ScenarioEvent(25.0, "arrive", 2)])
    assert not eng.is_available(2, 0.0)
    assert not eng.is_available(2, 24.999)
    assert eng.is_available(2, 25.0)  # transition applies at its time
    assert eng.arrival_time(2) == 25.0
    assert eng.arrival_time(0) == 0.0
    assert eng.founders().tolist() == [0, 1, 3]
    assert eng.founders().dtype == np.int64
    assert eng.late_arrivals() == [(2, 25.0)]
    # A round must start after arrival to complete.
    assert not eng.available_throughout(2, 20.0, 30.0)
    assert eng.available_throughout(2, 25.0, 1e9)


def test_next_join_after_counts_arrivals():
    eng = _engine(
        [
            ScenarioEvent(40.0, "arrive", 0),
            ScenarioEvent(10.0, "leave", 1),
            ScenarioEvent(60.0, "join", 1),
        ]
    )
    assert eng.next_join_after([0], 0.0) == 40.0
    assert eng.next_join_after([0, 1], 20.0) == 40.0
    assert eng.next_join_after([1], 20.0) == 60.0
    assert eng.next_join_after([0], 40.0) is None


def test_arrival_compilation_keeps_a_founder():
    spec = ScenarioSpec(name="arrival", arrival_fraction=1.0)
    eng = ScenarioEngine.compile(spec, 6, 100.0, np.random.default_rng(4))
    late = eng.late_arrivals()
    assert len(late) == 5  # at least one client founds the federation
    assert len(eng.founders()) == 1
    times = [t for _, t in late]
    assert times == sorted(times)
    lo, hi = spec.arrival_window
    assert all(lo * 100.0 <= t <= hi * 100.0 for t in times)


# --------------------------------------------------------------------- #
# Bandwidth-drift timelines
# --------------------------------------------------------------------- #
def test_bandwidth_scale_fires_at_exact_times():
    eng = _engine(
        [
            ScenarioEvent(5.0, "bandwidth", 0, 0.5),
            ScenarioEvent(9.0, "bandwidth", 0, 0.25),
        ]
    )
    assert eng.bandwidth_scale(0, 4.999) == 1.0
    assert eng.bandwidth_scale(0, 5.0) == 0.5
    assert eng.bandwidth_scale(0, 9.0) == 0.25
    assert eng.bandwidth_scale(1, 9.0) == 1.0  # other clients untouched
    assert eng.has_bandwidth_events
    assert not _engine([]).has_bandwidth_events
    # Bandwidth drift is not a latency multiplier.
    assert eng.latency_multiplier(0, 9.0) == 1.0


def test_bwdrift_compilation_is_monotone_and_positive():
    spec = ScenarioSpec(name="bwdrift", bwdrift_fraction=1.0, bwdrift_steps=4)
    eng = ScenarioEngine.compile(spec, 5, 80.0, np.random.default_rng(6))
    for cid in range(5):
        scales = [e.value for e in eng.events if e.client_id == cid]
        assert len(scales) == 4
        assert all(s > 0 for s in scales)
        assert all(b < a for a, b in zip(scales, scales[1:]))  # link degrades
        assert eng.bandwidth_scale(cid, 80.0) == scales[-1]


def test_engine_rejects_bad_events():
    with pytest.raises(ValueError):
        ScenarioEvent(-1.0, "leave", 0)
    with pytest.raises(ValueError):
        ScenarioEvent(0.0, "explode", 0)
    with pytest.raises(ValueError):
        _engine([ScenarioEvent(0.0, "leave", 99)], n=4)  # client out of range


# --------------------------------------------------------------------- #
# Composition grammar
# --------------------------------------------------------------------- #
def test_parse_composition_grammar():
    spec = parse_scenario("churn:0.2+bwdrift:4")
    assert isinstance(spec, ComposedSpec)
    assert spec.name == "churn:0.2+bwdrift:4"
    assert len(spec.parts) == 2
    assert spec.parts[0].churn_fraction == 0.2
    assert spec.parts[1].bwdrift_factor == (4.0, 4.0)
    assert not spec.is_static
    # A single atom still returns the plain spec type (back-compat).
    assert isinstance(parse_scenario("churn:0.2"), ScenarioSpec)


def test_parse_composition_of_statics_is_static():
    assert parse_scenario("static+arrival:0").is_static


def test_parse_composition_rejects_bad_atoms():
    with pytest.raises(ValueError):
        parse_scenario("churn:0.2+earthquake")
    with pytest.raises(ValueError):
        parse_scenario("churn:0.2+")  # trailing separator


def test_parse_trace_spec_keeps_path_intact():
    spec = parse_scenario("trace:tests/fixtures/traces/diurnal_tiny.csv")
    assert isinstance(spec, TraceSpec)
    assert spec.path == "tests/fixtures/traces/diurnal_tiny.csv"
    assert not spec.is_static
    # Windows-style paths contain ':' — only the first one splits.
    assert parse_scenario("trace:C:/tmp/t.csv").path == "C:/tmp/t.csv"
    with pytest.raises(ValueError):
        parse_scenario("trace")  # a trace scenario needs a path
    with pytest.raises(ValueError):
        parse_scenario("trace:")


def test_parse_bwheal():
    assert parse_scenario("bwheal").bwheal_fraction > 0
    assert parse_scenario("bwheal:6").bwheal_factor == 6.0
    with pytest.raises(ValueError):
        parse_scenario("bwheal:0.5")  # factors < 1 would improve links


def test_parse_rejects_fractional_burst_count():
    # Regression: int("2.7"-as-float) silently truncated to 2 bursts.
    with pytest.raises(ValueError, match="burst count must be an integer"):
        parse_scenario("burst:2.7")
    with pytest.raises(ValueError):
        parse_scenario("burst:inf")
    assert parse_scenario("burst:3.0").burst_count == 3  # exact integers OK


def test_parse_errors_name_the_offending_atom():
    with pytest.raises(ValueError, match="churn:1.5"):
        parse_scenario("churn:1.5")
    with pytest.raises(ValueError, match="burst:2.7"):
        parse_scenario("static+burst:2.7")


def test_zero_effect_burst_spec_is_static():
    # Regression: burst_count > 0 with burst_fraction == 0 hits nobody.
    spec = ScenarioSpec(name="zeroburst", burst_count=3, burst_fraction=0.0)
    assert spec.is_static
    eng = ScenarioEngine.compile(spec, 8, 100.0, np.random.default_rng(0))
    assert eng.is_static and not eng.events


# --------------------------------------------------------------------- #
# Composition invariance: a family's timeline never depends on siblings
# --------------------------------------------------------------------- #
def test_family_timeline_invariant_under_composition():
    alone = ScenarioEngine.compile(
        parse_scenario("churn:0.4"), 10, 200.0, np.random.default_rng(11)
    )
    composed = ScenarioEngine.compile(
        parse_scenario("churn:0.4+bwdrift:2.0+arrival:0.2"),
        10,
        200.0,
        np.random.default_rng(11),
    )
    churn_kinds = {"leave", "join"}
    composed_churn = [e for e in composed.events if e.kind in churn_kinds]
    assert composed_churn == alone.events
    assert any(e.kind == "bandwidth" for e in composed.events)
    assert any(e.kind == "arrive" for e in composed.events)


def test_repeated_family_occurrences_draw_distinct_streams():
    eng = ScenarioEngine.compile(
        parse_scenario("burst:1+burst:1"), 8, 100.0, np.random.default_rng(5)
    )
    on = [e for e in eng.events if e.kind == "burst_on"]
    assert len({e.time for e in on}) == 2  # two independent episodes


# --------------------------------------------------------------------- #
# Pick convention: floor, at least one when positive
# --------------------------------------------------------------------- #
def test_pick_floors_instead_of_bankers_rounding():
    spec = ScenarioSpec(name="churn", churn_fraction=0.5)
    eng = ScenarioEngine.compile(spec, 5, 100.0, np.random.default_rng(0))
    assert len({e.client_id for e in eng.events}) == 2  # floor(2.5)

    spec = ScenarioSpec(name="churn", churn_fraction=0.3)
    eng = ScenarioEngine.compile(spec, 10, 100.0, np.random.default_rng(0))
    assert len({e.client_id for e in eng.events}) == 3  # not floor(2.9999…)


def test_small_positive_arrival_fraction_lands_one_late_client():
    # round(0.1 * 5) == 0 used to make the scenario silently static.
    spec = ScenarioSpec(name="arrival", arrival_fraction=0.1)
    eng = ScenarioEngine.compile(spec, 5, 100.0, np.random.default_rng(0))
    assert len(eng.late_arrivals()) == 1
    assert len(eng.founders()) == 4


# --------------------------------------------------------------------- #
# Bandwidth heal
# --------------------------------------------------------------------- #
def test_bwheal_compilation_degrades_then_restores():
    spec = ScenarioSpec(name="bwheal", bwheal_fraction=1.0, bwheal_factor=4.0)
    eng = ScenarioEngine.compile(spec, 6, 100.0, np.random.default_rng(9))
    for cid in range(6):
        evs = [e for e in eng.events if e.client_id == cid]
        assert [e.value for e in evs] == [0.25, 1.0]
        t_down, t_up = evs[0].time, evs[1].time
        assert 0.0 < t_down < t_up
        assert eng.bandwidth_scale(cid, 0.0) == 1.0
        assert eng.bandwidth_scale(cid, t_down) == 0.25
        # The link comes back — the first non-monotone bandwidth timeline.
        assert eng.bandwidth_scale(cid, t_up) == 1.0


# --------------------------------------------------------------------- #
# Burst episode identity
# --------------------------------------------------------------------- #
def test_overlapping_same_factor_bursts_pop_by_episode():
    eng = _engine(
        [
            ScenarioEvent(1.0, "burst_on", 0, 3.0, episode=1),
            ScenarioEvent(2.0, "burst_on", 0, 3.0, episode=2),
            ScenarioEvent(3.0, "burst_off", 0, 3.0, episode=1),
            ScenarioEvent(4.0, "burst_off", 0, 3.0, episode=2),
        ]
    )
    assert eng.latency_multiplier(0, 1.5) == 3.0
    assert eng.latency_multiplier(0, 2.5) == 9.0
    assert eng.latency_multiplier(0, 3.5) == 3.0
    assert eng.latency_multiplier(0, 4.5) == 1.0


# --------------------------------------------------------------------- #
# Trace loading
# --------------------------------------------------------------------- #
def _write(path, text):
    path.write_text(text)
    return path


def test_load_trace_csv(tmp_path):
    p = _write(
        tmp_path / "t.csv",
        "client,time,kind,value\n"
        "0,0.25,leave,\n"
        "0,0.60,join,\n"
        "1,0.25,speed,3.5\n"
        "2,0.40,bandwidth,0.25\n",
    )
    events = load_trace_events(p, 4, horizon=200.0)
    assert [(e.time, e.kind, e.client_id, e.value) for e in events] == [
        (50.0, "leave", 0, 1.0),
        (120.0, "join", 0, 1.0),
        (50.0, "speed", 1, 3.5),
        (80.0, "bandwidth", 2, 0.25),
    ]


def test_load_trace_json_both_shapes(tmp_path):
    rows = [
        {"client": 0, "time": 0.5, "kind": "leave"},
        {"client": 1, "time": 0.75, "kind": "speed", "value": 2.0},
    ]
    import json

    a = _write(tmp_path / "list.json", json.dumps(rows))
    b = _write(tmp_path / "obj.json", json.dumps({"events": rows}))
    ev_a = load_trace_events(a, 4, horizon=100.0)
    ev_b = load_trace_events(b, 4, horizon=100.0)
    assert ev_a == ev_b
    assert ev_a[1].value == 2.0


def test_load_trace_skips_clients_beyond_population(tmp_path):
    p = _write(
        tmp_path / "t.csv",
        "client,time,kind,value\n0,0.5,leave,\n7,0.5,leave,\n",
    )
    events = load_trace_events(p, 4, horizon=100.0)
    assert len(events) == 1 and events[0].client_id == 0


def test_load_trace_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_trace_events(tmp_path / "missing.csv", 4, horizon=100.0)
    bad_header = _write(tmp_path / "h.csv", "client,when,kind\n0,0.5,leave\n")
    with pytest.raises(ValueError, match="missing columns"):
        load_trace_events(bad_header, 4, horizon=100.0)
    bad_kind = _write(
        tmp_path / "k.csv", "client,time,kind,value\n0,0.5,explode,\n"
    )
    with pytest.raises(ValueError, match="trace row 1"):
        load_trace_events(bad_kind, 4, horizon=100.0)
    bad_time = _write(
        tmp_path / "t.csv", "client,time,kind,value\n0,1.5,leave,\n"
    )
    with pytest.raises(ValueError, match="fractions of the horizon"):
        load_trace_events(bad_time, 4, horizon=100.0)
    bad_json = _write(tmp_path / "b.json", '{"rows": []}')
    with pytest.raises(ValueError, match="list of events"):
        load_trace_events(bad_json, 4, horizon=100.0)


@pytest.mark.parametrize(
    "raw, problem",
    [("nan", "finite"), ("inf", "finite"), ("0", "positive"), ("-2.5", "positive")],
)
def test_load_trace_refuses_bad_values_by_row(tmp_path, raw, problem):
    # A NaN speed multiplier would poison every latency of its client.
    p = _write(
        tmp_path / "v.csv",
        f"client,time,kind,value\n0,0.5,speed,2.0\n1,0.5,speed,{raw}\n",
    )
    with pytest.raises(ValueError, match=rf"v\.csv: trace row 2: event value must be {problem}"):
        load_trace_events(p, 4, horizon=100.0)


def test_committed_diurnal_fixture_compiles():
    spec = parse_scenario("trace:tests/fixtures/traces/diurnal_tiny.csv")
    eng = ScenarioEngine.compile(spec, 15, 500.0, np.random.default_rng(0))
    assert not eng.is_static
    kinds = {e.kind for e in eng.events}
    assert {"leave", "join", "speed"} <= kinds
    # Traces compose with sampled families like any other part.
    composed = parse_scenario(
        "trace:tests/fixtures/traces/diurnal_tiny.csv+churn:0.2"
    )
    eng2 = ScenarioEngine.compile(composed, 15, 500.0, np.random.default_rng(0))
    assert len(eng2.events) > len(eng.events)
