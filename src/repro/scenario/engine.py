"""Scenario engine: compiled, queryable time-varying client behavior.

A :class:`ScenarioEngine` turns a :class:`~repro.scenario.spec.ScenarioSpec`
(atomic, composed, or trace-driven) into per-client timelines that any
:class:`~repro.core.base.FLSystem` can query as its virtual clock advances:

- ``is_available(cid, t)`` — churn/arrival: is the client online at ``t``?
  ``available_mask(ids, t)`` asks it of a whole tier pool in array code.
- ``available_throughout(cid, start, end)`` — does it stay online for a
  whole local round?
- ``latency_multiplier(cid, t)`` — speed drift × burst stragglers.
- ``bandwidth_scale(cid, t)`` — bandwidth drift/heal: the fraction of the
  client's nominal link bandwidth still available (drives the
  finite-bandwidth transfer term in :mod:`repro.sim.latency`).
- ``arrival_time(cid)`` / ``late_arrivals()`` — population growth: a
  client with a positive arrival time does not exist before it (it is
  never profiled, tiered, or selectable until it arrives).

Compilation orders the raw events by ``(time, insertion)`` — a stable sort
on time, the order the simulator's :class:`~repro.sim.events.EventQueue`
pops in — so simultaneous events resolve in deterministic insertion order
(the same tie-break every system run uses), and the resulting timelines are
pure functions of time — queries never mutate state, so out-of-order
lookups are safe.

Composition determinism: each scenario family draws its events from a
deterministically derived RNG *substream* — the compile-time RNG yields one
base entropy block (the same single draw for any dynamic spec), and the
substream key hashes the family name plus its occurrence index. A family's
timeline is therefore bit-identical whether the family runs standalone or
inside any ``+``-composition, and adding a family to a composition never
perturbs the others.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from repro.scenario.spec import ComposedSpec, ScenarioSpec, TraceSpec

__all__ = ["ScenarioEvent", "ScenarioEngine", "load_trace_events"]

#: Event kinds understood by the engine.
EVENT_KINDS = ("leave", "join", "speed", "burst_on", "burst_off", "arrive", "bandwidth")


@dataclass(frozen=True)
class ScenarioEvent:
    """One scheduled behavior change for one client.

    ``speed`` sets the client's drift multiplier to ``value`` (absolute);
    ``burst_on``/``burst_off`` push/pop a transient factor of ``value`` on
    the client's burst stack; ``leave``/``join`` toggle availability;
    ``arrive`` marks when a late client joins the population (it is absent
    before this time); ``bandwidth`` sets the client's bandwidth scale to
    ``value`` (absolute fraction of its nominal link).

    ``episode`` identifies which burst episode a ``burst_on``/``burst_off``
    pair belongs to, so overlapping bursts from different families pop the
    right entry even when their factors coincide. ``None`` (hand-built
    event lists) falls back to popping by factor value.
    """

    time: float
    kind: str
    client_id: int
    value: float = 1.0
    episode: int | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown scenario event kind {self.kind!r}")
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.value <= 0:
            raise ValueError(f"event value must be positive, got {self.value}")


# --------------------------------------------------------------------- #
# Trace files
# --------------------------------------------------------------------- #
def load_trace_events(
    path: str | Path, num_clients: int, horizon: float
) -> list[ScenarioEvent]:
    """Load a ``trace:<path>`` file into a :class:`ScenarioEvent` list.

    Two formats are accepted, keyed by file suffix:

    - **CSV** (anything not ``.json``): a header row then one event per
      line, columns ``client,time,kind[,value]``.
    - **JSON**: either a top-level list of event objects or
      ``{"events": [...]}``, each object with keys ``client``, ``time``,
      ``kind``, and optional ``value``.

    Columns/keys:

    - ``client`` — integer client id. Rows addressing clients outside the
      run's population are skipped, so one trace serves every scale
      (unlisted clients are simply always available at full speed).
    - ``time`` — **fraction of the run horizon in [0, 1]** (like every
      other scenario time), scaled to virtual seconds at compile time.
    - ``kind`` — one of ``leave``/``join``/``speed``/``bandwidth``/
      ``arrive``/``burst_on``/``burst_off``.
    - ``value`` — event value (latency multiplier for ``speed``, link
      fraction for ``bandwidth``); defaults to 1.0.

    Example rows::

        client,time,kind,value
        0,0.25,leave,
        0,0.60,join,
        1,0.25,speed,3.5
        2,0.40,bandwidth,0.25
    """
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"scenario trace file not found: {str(path)!r}")
    if p.suffix.lower() == ".json":
        payload = json.loads(p.read_text())
        rows = payload.get("events") if isinstance(payload, dict) else payload
        if not isinstance(rows, list):
            raise ValueError(
                f"{p}: JSON traces must be a list of events or {{'events': [...]}}"
            )
    else:
        with p.open(newline="") as fh:
            reader = csv.DictReader(fh)
            fields = set(reader.fieldnames or ())
            missing = {"client", "time", "kind"} - fields
            if missing:
                raise ValueError(
                    f"{p}: trace CSV is missing columns {sorted(missing)} "
                    "(expected header client,time,kind[,value])"
                )
            rows = list(reader)

    events: list[ScenarioEvent] = []
    for i, row in enumerate(rows):
        where = f"{p}: trace row {i + 1}"
        try:
            cid = int(row["client"])
            t = float(row["time"])
            kind = str(row["kind"]).strip()
            raw = row.get("value")
            value = 1.0 if raw in (None, "") else float(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{where}: malformed event ({exc})") from None
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"{where}: unknown event kind {kind!r}; options: {EVENT_KINDS}"
            )
        if not 0.0 <= t <= 1.0:
            raise ValueError(
                f"{where}: trace times are fractions of the horizon "
                f"in [0, 1], got {t}"
            )
        if cid < 0:
            raise ValueError(f"{where}: client id must be >= 0, got {cid}")
        if cid >= num_clients:
            continue  # trace covers a larger population than this run
        events.append(ScenarioEvent(t * horizon, kind, cid, value))
    return events


# --------------------------------------------------------------------- #
# Sampling helpers (shared pick convention)
# --------------------------------------------------------------------- #
def _pick_count(fraction: float, num_clients: int) -> int:
    """Clients hit by a family: ``floor(fraction·n)``, at least 1 when the
    fraction is positive.

    The floor (with a tiny epsilon against binary-float shortfall, so
    ``0.3 × 10`` counts as 3) is the documented convention for every
    family; ``round()``'s banker's rounding made ``churn:0.5`` over 5
    clients churn 2 and ``arrival:0.1`` over 5 clients arrive 0 late.
    """
    if fraction <= 0.0 or num_clients < 1:
        return 0
    k = int(math.floor(fraction * num_clients + 1e-9))
    return max(1, min(k, num_clients))


def _pick(
    rng: np.random.Generator, fraction: float, num_clients: int
) -> np.ndarray:
    k = _pick_count(fraction, num_clients)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(num_clients, size=k, replace=False))


def _family_rng(base_entropy: list[int], family: str, occurrence: int) -> np.random.Generator:
    """Deterministic substream for one (family, occurrence-in-composition).

    Keyed by a hash of the family name (not draw order), so which *other*
    families a composition contains never changes this family's stream;
    ``occurrence`` separates repeated uses of one family (``churn:…+churn:…``).
    """
    digest = hashlib.sha256(f"{family}/{occurrence}".encode("utf-8")).digest()
    key = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([*base_entropy, *key]))


class ScenarioEngine:
    """Per-client availability windows and latency-multiplier timelines.

    Build with :meth:`compile` (from a spec + RNG) or :meth:`from_events`
    (explicit events, mainly for tests). A client is available on
    ``[join, leave)`` intervals and starts available with multiplier 1.0;
    transitions apply *at* their timestamp.
    """

    def __init__(self, num_clients: int, events: list[ScenarioEvent], *, name: str = "custom"):
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        self.num_clients = num_clients
        self.name = name

        for ev in events:
            if not 0 <= ev.client_id < num_clients:
                raise ValueError(f"event client {ev.client_id} out of range")
            if ev.time < 0:
                raise ValueError(f"cannot schedule at {ev.time} < 0")
        # Deterministic (time, insertion) ordering, exactly like system
        # events: a stable sort on time is the order an EventQueue pops in.
        self.events: list[ScenarioEvent] = sorted(events, key=attrgetter("time"))

        # Per-client timelines are sparse dicts keyed by client id — only
        # clients an event actually touches pay storage. A million-client
        # static (or lightly dynamic) world therefore costs O(events), not
        # O(population); clients absent from a dict use the defaults
        # (available, multiplier 1.0, full bandwidth, arrival at t=0).
        avail_times: dict[int, list[float]] = {}
        avail_state: dict[int, list[bool]] = {}
        mult_times: dict[int, list[float]] = {}
        mult_values: dict[int, list[float]] = {}
        bw_times: dict[int, list[float]] = {}
        bw_values: dict[int, list[float]] = {}
        arrival: dict[int, float] = {}
        drift: dict[int, float] = {}
        #: Open burst episodes per client, as (episode id, factor) pairs in
        #: push order — keyed pops keep overlapping same-factor episodes
        #: from different families distinct.
        bursts: dict[int, list[tuple[int | None, float]]] = {}
        #: Closed ``(client, from, until)`` stretches a client spends churned
        #: offline, and when each currently-offline client left.
        offline: list[tuple[int, float, float]] = []
        offline_since: dict[int, float] = {}

        def push_mult(cid: int, t: float) -> None:
            # Fresh product each time so a closed burst restores the drift
            # multiplier bit-exactly (empty product is exactly 1.0).
            mult_times.setdefault(cid, []).append(t)
            mult_values.setdefault(cid, []).append(
                drift.get(cid, 1.0) * math.prod(f for _, f in bursts.get(cid, ()))
            )

        def pop_burst(cid: int, ev: ScenarioEvent) -> None:
            stack = bursts.get(cid, [])
            for i, (episode, factor) in enumerate(stack):
                # Episode identity when the compiler stamped one; factor
                # equality only for hand-built (episode-less) event lists.
                if (ev.episode is not None and episode == ev.episode) or (
                    ev.episode is None and factor == ev.value
                ):
                    del stack[i]
                    return

        for ev in self.events:
            cid = ev.client_id
            if ev.kind == "leave":
                avail_times.setdefault(cid, []).append(ev.time)
                avail_state.setdefault(cid, []).append(False)
                offline_since.setdefault(cid, ev.time)
            elif ev.kind == "join":
                avail_times.setdefault(cid, []).append(ev.time)
                avail_state.setdefault(cid, []).append(True)
                if cid in offline_since:
                    offline.append((cid, offline_since.pop(cid), ev.time))
            elif ev.kind == "speed":
                drift[cid] = ev.value
                push_mult(cid, ev.time)
            elif ev.kind == "burst_on":
                bursts.setdefault(cid, []).append((ev.episode, ev.value))
                push_mult(cid, ev.time)
            elif ev.kind == "burst_off":
                pop_burst(cid, ev)
                push_mult(cid, ev.time)
            elif ev.kind == "arrive":
                arrival[cid] = ev.time  # time-ordered: the last event wins
            elif ev.kind == "bandwidth":
                bw_times.setdefault(cid, []).append(ev.time)
                bw_values.setdefault(cid, []).append(ev.value)

        self._avail_times = avail_times
        self._avail_state = avail_state
        self._mult_times = mult_times
        self._mult_values = mult_values
        self._bw_times = bw_times
        self._bw_values = bw_values
        self._arrival = arrival
        late = [(cid, t) for cid, t in arrival.items() if t > 0.0]
        self._late = sorted(late, key=lambda pair: (pair[1], pair[0]))
        # The availability timelines once more as flat half-open intervals
        # (a late client is "offline" until it arrives), so array queries
        # test everyone against one instant without a Python call per client.
        offline += [(cid, since, math.inf) for cid, since in offline_since.items()]
        offline += [(cid, -math.inf, t) for cid, t in late]
        ids, since, until = zip(*offline) if offline else ((), (), ())
        self._offline_ids = np.array(ids, dtype=np.int64)
        self._offline_from = np.array(since, dtype=np.float64)
        self._offline_until = np.array(until, dtype=np.float64)
        #: Clients with an availability timeline or an arrival: the only ones
        #: :meth:`next_join_after` can have anything to say about.
        self._gated_ids = np.array([*avail_times, *arrival], dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_events(
        cls, num_clients: int, events: list[ScenarioEvent], *, name: str = "custom"
    ) -> "ScenarioEngine":
        return cls(num_clients, events, name=name)

    @classmethod
    def compile(
        cls,
        spec: ScenarioSpec | TraceSpec | ComposedSpec,
        num_clients: int,
        horizon: float,
        rng: np.random.Generator,
    ) -> "ScenarioEngine":
        """Sample a concrete event timeline from ``spec`` over ``horizon``.

        Deterministic given ``(spec, num_clients, horizon, rng state)``; a
        static spec draws nothing from ``rng``, so enabling scenarios never
        perturbs other named RNG streams. Every dynamic spec consumes
        exactly one base-entropy draw from ``rng``; all family events come
        from name-keyed substreams (see module docstring), so a family's
        timeline is invariant under composition.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        parts = spec.parts
        events: list[ScenarioEvent] = []
        if all(part.is_static for part in parts):
            return cls(num_clients, events, name=spec.name)

        base_entropy = [int(v) for v in rng.integers(0, 2**32, size=4)]
        occurrences: dict[str, int] = {}
        #: Burst episodes numbered across the whole composition, so every
        #: burst_on/off pair carries a unique identity.
        episode = 0

        def family_rng(family: str) -> np.random.Generator:
            occ = occurrences.get(family, 0)
            occurrences[family] = occ + 1
            return _family_rng(base_entropy, family, occ)

        for part in parts:
            if part.is_static:
                continue  # a static atom inside a composition is a no-op
            if isinstance(part, TraceSpec):
                events.extend(load_trace_events(part.path, num_clients, horizon))
                continue

            # Churn: alternating offline/online stretches per churning client.
            if part.churn_fraction > 0.0:
                frng = family_rng("churn")
                for cid in _pick(frng, part.churn_fraction, num_clients).tolist():
                    t = float(frng.uniform(*part.churn_first_leave)) * horizon
                    while t < horizon:
                        events.append(ScenarioEvent(t, "leave", cid))
                        t += float(frng.uniform(*part.churn_offline)) * horizon
                        if t >= horizon:
                            break
                        events.append(ScenarioEvent(t, "join", cid))
                        t += float(frng.uniform(*part.churn_online)) * horizon

            # Drift: stratified step times, compounding slowdown factors.
            if part.drift_fraction > 0.0 and part.drift_steps > 0:
                frng = family_rng("drift")
                for cid in _pick(frng, part.drift_fraction, num_clients).tolist():
                    mult = 1.0
                    for step in range(part.drift_steps):
                        t = (step + float(frng.uniform(0.0, 1.0))) / part.drift_steps
                        mult *= float(frng.uniform(*part.drift_factor))
                        events.append(ScenarioEvent(t * horizon, "speed", cid, mult))

            # Bursts: episodes that slow a random subset for a short window.
            if part.burst_count > 0 and part.burst_fraction > 0.0:
                frng = family_rng("burst")
                for _ in range(part.burst_count):
                    t0 = float(frng.uniform(0.05, 0.85)) * horizon
                    dur = float(frng.uniform(*part.burst_duration)) * horizon
                    for cid in _pick(frng, part.burst_fraction, num_clients).tolist():
                        events.append(
                            ScenarioEvent(
                                t0, "burst_on", cid, part.burst_factor, episode=episode
                            )
                        )
                        events.append(
                            ScenarioEvent(
                                t0 + dur,
                                "burst_off",
                                cid,
                                part.burst_factor,
                                episode=episode,
                            )
                        )
                    episode += 1

            # Arrivals: late clients join inside the arrival window. At
            # least one client always founds the federation at t=0.
            if part.arrival_fraction > 0.0:
                frng = family_rng("arrival")
                k = min(
                    _pick_count(part.arrival_fraction, num_clients), num_clients - 1
                )
                if k > 0:
                    late = np.sort(frng.choice(num_clients, size=k, replace=False))
                    for cid in late.tolist():
                        t = float(frng.uniform(*part.arrival_window)) * horizon
                        events.append(ScenarioEvent(t, "arrive", cid))

            # Bandwidth drift: stratified step times, compounding link
            # divisors. The timeline carries absolute scales, so every value
            # stays strictly positive no matter how many steps compound.
            if part.bwdrift_fraction > 0.0 and part.bwdrift_steps > 0:
                frng = family_rng("bwdrift")
                for cid in _pick(frng, part.bwdrift_fraction, num_clients).tolist():
                    scale = 1.0
                    for step in range(part.bwdrift_steps):
                        t = (step + float(frng.uniform(0.0, 1.0))) / part.bwdrift_steps
                        scale /= float(frng.uniform(*part.bwdrift_factor))
                        events.append(ScenarioEvent(t * horizon, "bandwidth", cid, scale))

            # Bandwidth heal: one degrade→restore episode per affected
            # client — the first non-monotone bandwidth timeline. Values are
            # absolute link fractions, so composing with bwdrift follows
            # last-write-wins at each breakpoint.
            if part.bwheal_fraction > 0.0 and part.bwheal_factor > 1.0:
                frng = family_rng("bwheal")
                for cid in _pick(frng, part.bwheal_fraction, num_clients).tolist():
                    t0 = float(frng.uniform(*part.bwheal_start)) * horizon
                    dur = float(frng.uniform(*part.bwheal_duration)) * horizon
                    events.append(
                        ScenarioEvent(t0, "bandwidth", cid, 1.0 / part.bwheal_factor)
                    )
                    events.append(ScenarioEvent(t0 + dur, "bandwidth", cid, 1.0))

        return cls(num_clients, events, name=spec.name)

    # ------------------------------------------------------------------ #
    # Queries (pure functions of time)
    # ------------------------------------------------------------------ #
    @property
    def is_static(self) -> bool:
        return not self.events

    def is_available(self, client_id: int, t: float) -> bool:
        """Whether the client is online (and has arrived) at time ``t``."""
        client_id = int(client_id)
        if t < self._arrival.get(client_id, 0.0):
            return False
        times = self._avail_times.get(client_id)
        if not times:
            return True
        i = bisect_right(times, t) - 1
        return self._avail_state[client_id][i] if i >= 0 else True

    def available_mask(self, client_ids: np.ndarray, t: float) -> np.ndarray:
        """:meth:`is_available` over an id array, element for element (at
        any ``t`` ≥ 0, which every virtual clock is)."""
        away = np.zeros(self.num_clients, dtype=bool)
        away[self._offline_ids[(self._offline_from <= t) & (t < self._offline_until)]] = True
        return ~away[client_ids]

    def available_throughout(self, client_id: int, start: float, end: float) -> bool:
        """Online at ``start`` and never leaving during ``(start, end]``."""
        client_id = int(client_id)
        if not self.is_available(client_id, start):
            return False
        times = self._avail_times.get(client_id)
        if not times:
            return True
        state = self._avail_state[client_id]
        lo = bisect_right(times, start)
        hi = bisect_right(times, end)
        return all(state[i] for i in range(lo, hi))

    def arrival_time(self, client_id: int) -> float:
        """When the client joins the population (0.0 = founding member)."""
        return self._arrival.get(int(client_id), 0.0)

    def late_arrivals(self) -> list[tuple[int, float]]:
        """Clients that are absent at t=0, as ``(client_id, arrival_time)``
        pairs sorted by arrival time (ties by client id)."""
        return list(self._late)

    def founders(self) -> list[int]:
        """Clients present at t=0 — the population a server can profile."""
        present = np.ones(self.num_clients, dtype=bool)
        present[[cid for cid, _ in self._late]] = False
        return np.flatnonzero(present).tolist()

    @property
    def has_arrivals(self) -> bool:
        """Whether any client arrives after t=0 (population growth)."""
        return bool(self._late)

    def bandwidth_scale(self, client_id: int, t: float) -> float:
        """Fraction of the client's nominal link bandwidth left at ``t``."""
        times = self._bw_times.get(int(client_id))
        if not times:
            return 1.0
        i = bisect_right(times, t) - 1
        return self._bw_values[int(client_id)][i] if i >= 0 else 1.0

    @property
    def has_bandwidth_events(self) -> bool:
        """Whether any client's link bandwidth changes over the run."""
        return bool(self._bw_times)

    def latency_multiplier(self, client_id: int, t: float) -> float:
        """Combined drift × burst slowdown factor at time ``t``."""
        client_id = int(client_id)
        times = self._mult_times.get(client_id)
        if not times:
            return 1.0
        i = bisect_right(times, t) - 1
        return self._mult_values[client_id][i] if i >= 0 else 1.0

    def next_join_after(self, client_ids, t: float) -> float | None:
        """Earliest time > ``t`` at which any listed client comes online.

        Lets an event loop schedule a wake-up for a tier whose whole pool is
        currently churned away (or not yet arrived) instead of retiring it
        forever. Candidate times are churn rejoins and late arrivals; each
        counts only if the client is genuinely available at that instant.
        """
        if not self._arrival and not self._avail_times:
            return None  # nobody ever leaves or arrives late
        if isinstance(client_ids, np.ndarray):
            client_ids = client_ids[np.isin(client_ids, self._gated_ids)].tolist()
        best: float | None = None

        def consider(cid: int, when: float) -> bool:
            """Fold a candidate in; True when it was a genuine join."""
            nonlocal best
            if when <= t or not self.is_available(cid, when):
                return False
            if best is None or when < best:
                best = when
            return True

        for cid in client_ids:
            cid = int(cid)
            consider(cid, self._arrival.get(cid, 0.0))
            times = self._avail_times.get(cid, ())
            state = self._avail_state.get(cid, ())
            for i in range(bisect_right(times, t), len(times)):
                # Stop at the first *genuine* join (later ones can't beat
                # it); a rejoin scheduled before the client's arrival is
                # not one, so keep scanning past those.
                if state[i] and consider(cid, times[i]):
                    break
        return best

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ScenarioEngine({self.name!r}, clients={self.num_clients}, "
            f"events={len(self.events)})"
        )
