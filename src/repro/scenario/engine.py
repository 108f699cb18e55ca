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

Each client's events are read in ``(time, insertion)`` order — the order
the simulator's :class:`~repro.sim.events.EventQueue` pops them in — so
simultaneous events resolve in deterministic insertion order (the same
tie-break every system run uses), and the resulting timelines are pure
functions of time — queries never mutate observable state, so out-of-order
lookups are safe.

Compiled events are columns (``time``, ``kind``, ``client``, ``value``,
``episode`` arrays), not objects. Each family draws its values through one
generator call — ``uniform`` with per-position bounds, laid out in the
order a per-draw loop would consume them, so the values are the same bits —
except churn, whose draw count depends on the values drawn: it walks
blocks of doubles through the formula ``uniform`` applies to each. A
client's timeline is built from its slice of the events the first time a
query touches it, so set-up costs what a run touches rather than the
population; what needs every client at once (the offline intervals behind
``available_mask``, arrivals, founders) is array code at construction.

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
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.scenario.spec import ComposedSpec, ScenarioSpec, TraceSpec
from repro.utils.arrays import sorted_unique

__all__ = ["ScenarioEvent", "ScenarioEngine", "load_trace_events"]

#: Event kinds understood by the engine; a kind's index is its column code.
EVENT_KINDS = ("leave", "join", "speed", "burst_on", "burst_off", "arrive", "bandwidth")
_LEAVE, _JOIN, _SPEED, _BURST_ON, _BURST_OFF, _ARRIVE, _BANDWIDTH = range(len(EVENT_KINDS))
_KIND_CODES = {kind: code for code, kind in enumerate(EVENT_KINDS)}
#: ``episode`` column entry of an event that carries none.
_NO_EPISODE = -1
#: dtypes of the ``time, kind, client, value, episode`` event columns.
_DTYPES = (np.float64, np.int64, np.int64, np.float64, np.int64)


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
        if self.episode is not None and self.episode < 0:
            raise ValueError(f"event episode must be >= 0, got {self.episode}")


def _columns(events) -> tuple[np.ndarray, ...]:
    """``time, kind, client, value, episode`` columns of an event list."""
    cols = (
        [e.time for e in events],
        [_KIND_CODES[e.kind] for e in events],
        [e.client_id for e in events],
        [e.value for e in events],
        [_NO_EPISODE if e.episode is None else e.episode for e in events],
    )
    return tuple(np.array(col, dtype=dtype) for col, dtype in zip(cols, _DTYPES))


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
      fraction for ``bandwidth``); finite and positive, defaults to 1.0.

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
        if not math.isfinite(value):
            # A NaN speed multiplier would poison every latency the client
            # reports; an infinite one would stall it forever.
            raise ValueError(f"{where}: event value must be finite, got {value}")
        if value <= 0.0:
            raise ValueError(f"{where}: event value must be positive, got {value}")
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


def _uniform_rows(rng: np.random.Generator, k: int, bounds) -> np.ndarray:
    """``(k, len(bounds))`` draws, row by row: entry ``[i, j]`` is the value
    ``rng.uniform(*bounds[j])`` would return at that point of a loop over
    ``i`` then ``j`` — one call, the same per-element C routine, C order."""
    lows, highs = np.array(bounds, dtype=np.float64).T
    shape = (k, len(bounds))
    return rng.uniform(np.broadcast_to(lows, shape), np.broadcast_to(highs, shape))


def _steps(rng: np.random.Generator, k: int, steps: int, factor, compound):
    """Stratified step times (fractions of the horizon) and compounded
    values for ``k`` clients.

    Each client draws, per step, a jitter and then a factor — the order the
    two are laid out in one :func:`_uniform_rows` call. Values compound one
    step column at a time from 1.0 with ``compound`` (multiply or divide),
    which is the order a per-client running product applies them in.
    """
    draws = _uniform_rows(rng, k, [(0.0, 1.0), tuple(factor)] * steps).reshape(k, steps, 2)
    times = (np.arange(steps) + draws[:, :, 0]) / steps
    values = np.empty((k, steps))
    running = np.ones(k)
    for s in range(steps):
        running = compound(running, draws[:, s, 1])
        values[:, s] = running
    return times, values


def _doubles(rng: np.random.Generator, block: int = 4096):
    """Endless ``rng.random()`` stream, drawn a block at a time."""
    while True:
        yield from rng.random(block).tolist()


class _Timeline:
    """One client's breakpoints: availability, multiplier and bandwidth, each
    as parallel (times, values) lists in (time, insertion) order."""

    __slots__ = ("avail_times", "avail_state", "mult_times", "mult_values", "bw_times", "bw_values")

    def __init__(self):
        self.avail_times: list[float] = []
        self.avail_state: list[bool] = []
        self.mult_times: list[float] = []
        self.mult_values: list[float] = []
        self.bw_times: list[float] = []
        self.bw_values: list[float] = []


#: Shared by every client no event touches (never appended to).
_UNTOUCHED = _Timeline()


class ScenarioEngine:
    """Per-client availability windows and latency-multiplier timelines.

    Build with :meth:`compile` (from a spec + RNG) or :meth:`from_events`
    (explicit events, mainly for tests). A client is available on
    ``[join, leave)`` intervals and starts available with multiplier 1.0;
    transitions apply *at* their timestamp.

    The constructor takes the events as five equal-length columns in
    generation (insertion) order: ``time``, ``kind`` (index into
    ``EVENT_KINDS``), ``client``, ``value`` and ``episode`` (-1 for none).
    It keeps the arrays it is given, so they must not change afterwards.
    """

    def __init__(
        self,
        num_clients: int,
        time: np.ndarray,
        kind: np.ndarray,
        client: np.ndarray,
        value: np.ndarray,
        episode: np.ndarray,
        *,
        name: str = "custom",
    ):
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        self.num_clients = num_clients
        self.name = name

        def refuse(bad: np.ndarray, column: np.ndarray, message: str) -> None:
            rows = np.flatnonzero(bad)
            if rows.size:
                raise ValueError(message.format(column[rows[0]]))

        refuse((kind < 0) | (kind >= len(EVENT_KINDS)), kind, "unknown event kind code {}")
        refuse((client < 0) | (client >= num_clients), client, "event client {} out of range")
        refuse(~(time >= 0), time, "cannot schedule at {} < 0")
        refuse(~(value > 0), value, "event value must be positive, got {}")
        self._time, self._kind, self._client, self._value, self._episode = (
            time, kind, client, value, episode
        )

        # Client-major order, each client's events in (time, insertion)
        # order: the order an EventQueue pops one client's events in. Complex
        # numbers sort lexicographically (real part, then imaginary), so one
        # stable sort on ``client + i·time`` gives it, and a compiled
        # family's events are already client-major runs the sort merges.
        # Timelines are sliced from it on first query, so only clients a run
        # asks about pay for one.
        key = np.empty(time.size, dtype=np.complex128)
        key.real, key.imag = client, time
        self._by_client = np.argsort(key, kind="stable")
        self._timelines: dict[int, _Timeline] = {}
        by_kind = kind[self._by_client]

        # Arrivals: per client, the last ``arrive`` in (time, insertion)
        # order wins.
        rows = self._by_client[by_kind == _ARRIVE]
        a_ids = client[rows]
        last = np.flatnonzero(np.diff(a_ids, append=-1))  # ids are >= 0
        a_ids, a_times = a_ids[last], time[rows[last]]
        self._arrival_ids, self._arrival_times = a_ids, a_times  # sorted by id
        late = np.flatnonzero(a_times > 0.0)
        late = late[np.lexsort((a_ids[late], a_times[late]))]
        self._late_ids, self._late_times = a_ids[late], a_times[late]

        # Offline intervals: a run of leaves opens one at its first leave,
        # the next join closes it (none: open to the end of time). With the
        # late clients' [-inf, arrival) they let array queries test everyone
        # against one instant without a Python call per client.
        rows = self._by_client[(by_kind == _LEAVE) | (by_kind == _JOIN)]
        c, t = client[rows], time[rows]
        leave = kind[rows] == _LEAVE
        after_leave = np.zeros_like(leave)
        after_leave[1:] = leave[:-1] & (c[1:] == c[:-1])
        opens = np.flatnonzero(leave & ~after_leave)
        closes = np.flatnonzero(~leave & after_leave)
        until = np.full(opens.size, np.inf)
        if closes.size:
            nxt = closes[np.minimum(np.searchsorted(closes, opens), closes.size - 1)]
            closed = (nxt > opens) & (c[nxt] == c[opens])
            until[closed] = t[nxt[closed]]
        self._offline_ids = np.concatenate([c[opens], self._late_ids])
        self._offline_from = np.concatenate([t[opens], np.full(late.size, -np.inf)])
        self._offline_until = np.concatenate([until, self._late_times])
        #: Clients with an availability timeline or an arrival: the only ones
        #: :meth:`next_join_after` can have anything to say about.
        self._gated_ids = sorted_unique(np.concatenate([c, a_ids]))

    def _timeline(self, client_id: int) -> _Timeline:
        """The client's breakpoints, built from its events on first use."""
        timeline = self._timelines.get(client_id)
        if timeline is None:
            timeline = self._timelines[client_id] = self._build_timeline(client_id)
        return timeline

    def _build_timeline(self, client_id: int) -> _Timeline:
        lo, hi = np.searchsorted(self._client, (client_id, client_id + 1), sorter=self._by_client)
        if lo == hi:
            return _UNTOUCHED
        rows = self._by_client[lo:hi]
        tl = _Timeline()
        drift = 1.0
        #: Open burst episodes as (episode, factor) pairs in push order —
        #: keyed pops keep overlapping same-factor episodes from different
        #: families distinct.
        bursts: list[tuple[int, float]] = []
        for t, kind, value, episode in zip(
            self._time[rows].tolist(),
            self._kind[rows].tolist(),
            self._value[rows].tolist(),
            self._episode[rows].tolist(),
        ):
            if kind == _LEAVE or kind == _JOIN:
                tl.avail_times.append(t)
                tl.avail_state.append(kind == _JOIN)
            elif kind == _BANDWIDTH:
                tl.bw_times.append(t)
                tl.bw_values.append(value)
            elif kind != _ARRIVE:
                if kind == _SPEED:
                    drift = value
                elif kind == _BURST_ON:
                    bursts.append((episode, value))
                else:
                    for i, (open_episode, factor) in enumerate(bursts):
                        # Episode identity when the compiler stamped one;
                        # factor equality only for hand-built lists.
                        if (episode != _NO_EPISODE and open_episode == episode) or (
                            episode == _NO_EPISODE and factor == value
                        ):
                            del bursts[i]
                            break
                # Fresh product each time so a closed burst restores the
                # drift multiplier bit-exactly (empty product is exactly 1.0).
                tl.mult_times.append(t)
                tl.mult_values.append(drift * math.prod(f for _, f in bursts))
        return tl

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_events(
        cls, num_clients: int, events: list[ScenarioEvent], *, name: str = "custom"
    ) -> "ScenarioEngine":
        """Engine over a hand-built event list, in insertion order."""
        return cls(num_clients, *_columns(events), name=name)

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
        if all(part.is_static for part in parts):
            return cls.from_events(num_clients, [], name=spec.name)

        base_entropy = [int(v) for v in rng.integers(0, 2**32, size=4)]
        occurrences: dict[str, int] = {}
        #: Event columns in generation order, one tuple per family batch.
        chunks: list[tuple[np.ndarray, ...]] = [_columns([])]
        #: Burst episodes numbered across the whole composition, so every
        #: burst_on/off pair carries a unique identity.
        next_episode = 0

        def family_rng(family: str) -> np.random.Generator:
            occ = occurrences.get(family, 0)
            occurrences[family] = occ + 1
            return _family_rng(base_entropy, family, occ)

        def emit(time, kind, client, value=1.0, episode=_NO_EPISODE) -> None:
            cols = (time, kind, client, value, episode)
            shape = np.shape(time)
            chunks.append(
                tuple(
                    np.broadcast_to(np.asarray(col, dtype=dtype), shape)
                    for col, dtype in zip(cols, _DTYPES)
                )
            )

        for part in parts:
            if part.is_static:
                continue  # a static atom inside a composition is a no-op
            if isinstance(part, TraceSpec):
                chunks.append(_columns(load_trace_events(part.path, num_clients, horizon)))
                continue

            # Churn: alternating offline/online stretches per churning
            # client. How many stretches a client draws depends on the
            # values, so walk a stream of doubles: ``lo + (hi - lo) * d`` is
            # what ``uniform(lo, hi)`` returns for the same double, and
            # nothing else draws from this substream after the walk.
            if part.churn_fraction > 0.0:
                frng = family_rng("churn")
                clients = _pick(frng, part.churn_fraction, num_clients).tolist()
                doubles = _doubles(frng)
                first_lo, first_hi = part.churn_first_leave
                (off_lo, off_hi), (on_lo, on_hi) = part.churn_offline, part.churn_online
                first_span, off_span, on_span = first_hi - first_lo, off_hi - off_lo, on_hi - on_lo
                times: list[float] = []
                kinds: list[int] = []
                ids: list[int] = []
                for cid in clients:
                    t = (first_lo + first_span * next(doubles)) * horizon
                    while t < horizon:
                        times.append(t)
                        kinds.append(_LEAVE)
                        ids.append(cid)
                        t += (off_lo + off_span * next(doubles)) * horizon
                        if t >= horizon:
                            break
                        times.append(t)
                        kinds.append(_JOIN)
                        ids.append(cid)
                        t += (on_lo + on_span * next(doubles)) * horizon
                emit(times, kinds, ids)

            # Drift: stratified step times, compounding slowdown factors.
            if part.drift_fraction > 0.0 and part.drift_steps > 0:
                frng = family_rng("drift")
                clients = _pick(frng, part.drift_fraction, num_clients)
                steps = part.drift_steps
                t, mult = _steps(frng, clients.size, steps, part.drift_factor, np.multiply)
                emit((t * horizon).ravel(), _SPEED, np.repeat(clients, steps), mult.ravel())

            # Bursts: episodes that slow a random subset for a short window.
            if part.burst_count > 0 and part.burst_fraction > 0.0:
                frng = family_rng("burst")
                for _ in range(part.burst_count):
                    t0 = float(frng.uniform(0.05, 0.85)) * horizon
                    dur = float(frng.uniform(*part.burst_duration)) * horizon
                    clients = _pick(frng, part.burst_fraction, num_clients)
                    emit(
                        np.tile([t0, t0 + dur], clients.size),
                        np.tile([_BURST_ON, _BURST_OFF], clients.size),
                        np.repeat(clients, 2),
                        part.burst_factor,
                        next_episode,
                    )
                    next_episode += 1

            # Arrivals: late clients join inside the arrival window. At
            # least one client always founds the federation at t=0.
            if part.arrival_fraction > 0.0:
                frng = family_rng("arrival")
                k = min(
                    _pick_count(part.arrival_fraction, num_clients), num_clients - 1
                )
                if k > 0:
                    late = np.sort(frng.choice(num_clients, size=k, replace=False))
                    emit(frng.uniform(*part.arrival_window, size=k) * horizon, _ARRIVE, late)

            # Bandwidth drift: stratified step times, compounding link
            # divisors. The timeline carries absolute scales, so every value
            # stays strictly positive no matter how many steps compound.
            if part.bwdrift_fraction > 0.0 and part.bwdrift_steps > 0:
                frng = family_rng("bwdrift")
                clients = _pick(frng, part.bwdrift_fraction, num_clients)
                steps = part.bwdrift_steps
                t, scale = _steps(frng, clients.size, steps, part.bwdrift_factor, np.divide)
                emit((t * horizon).ravel(), _BANDWIDTH, np.repeat(clients, steps), scale.ravel())

            # Bandwidth heal: one degrade→restore episode per affected
            # client — the first non-monotone bandwidth timeline. Values are
            # absolute link fractions, so composing with bwdrift follows
            # last-write-wins at each breakpoint.
            if part.bwheal_fraction > 0.0 and part.bwheal_factor > 1.0:
                frng = family_rng("bwheal")
                clients = _pick(frng, part.bwheal_fraction, num_clients)
                bounds = [part.bwheal_start, part.bwheal_duration]
                t0, dur = (_uniform_rows(frng, clients.size, bounds) * horizon).T
                emit(
                    np.column_stack([t0, t0 + dur]).ravel(),
                    _BANDWIDTH,
                    np.repeat(clients, 2),
                    np.tile([1.0 / part.bwheal_factor, 1.0], clients.size),
                )

        columns = (np.concatenate(col) for col in zip(*chunks))
        return cls(num_clients, *columns, name=spec.name)

    # ------------------------------------------------------------------ #
    # Queries (pure functions of time)
    # ------------------------------------------------------------------ #
    @cached_property
    def events(self) -> list[ScenarioEvent]:
        """The compiled events in ``(time, insertion)`` order, as objects
        (built on first use; queries never need them)."""
        # A stable sort on time is the order an EventQueue pops in.
        order = np.argsort(self._time, kind="stable")
        columns = (self._time, self._kind, self._client, self._value, self._episode)
        return [
            ScenarioEvent(t, EVENT_KINDS[k], c, v, None if e == _NO_EPISODE else e)
            for t, k, c, v, e in zip(*(col[order].tolist() for col in columns))
        ]

    @property
    def is_static(self) -> bool:
        return self._time.size == 0

    def is_available(self, client_id: int, t: float) -> bool:
        """Whether the client is online (and has arrived) at time ``t``."""
        client_id = int(client_id)
        if t < self.arrival_time(client_id):
            return False
        tl = self._timeline(client_id)
        i = bisect_right(tl.avail_times, t) - 1
        return tl.avail_state[i] if i >= 0 else True

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
        tl = self._timeline(client_id)
        lo = bisect_right(tl.avail_times, start)
        hi = bisect_right(tl.avail_times, end)
        return all(tl.avail_state[lo:hi])

    def arrival_time(self, client_id: int) -> float:
        """When the client joins the population (0.0 = founding member)."""
        ids = self._arrival_ids
        i = int(ids.searchsorted(client_id))
        return float(self._arrival_times[i]) if i < ids.size and ids[i] == client_id else 0.0

    def arrival_times(self, client_ids) -> np.ndarray:
        """:meth:`arrival_time` over an id array, element for element."""
        client_ids = np.asarray(client_ids, dtype=np.int64)
        times = np.zeros(client_ids.shape)
        if self._arrival_ids.size:
            pos = np.searchsorted(self._arrival_ids, client_ids)
            pos = np.minimum(pos, self._arrival_ids.size - 1)
            found = self._arrival_ids[pos] == client_ids
            times[found] = self._arrival_times[pos[found]]
        return times

    def late_arrivals(self) -> list[tuple[int, float]]:
        """Clients that are absent at t=0, as ``(client_id, arrival_time)``
        pairs sorted by arrival time (ties by client id)."""
        return list(zip(self._late_ids.tolist(), self._late_times.tolist()))

    def late_arrival(self, index: int) -> tuple[int, float] | None:
        """The ``index``-th pair of :meth:`late_arrivals`, or None past the
        last."""
        if index >= self._late_ids.size:
            return None
        return int(self._late_ids[index]), float(self._late_times[index])

    def founders(self) -> np.ndarray:
        """Ids (int64, ascending) of the clients present at t=0 — the
        population a server can profile."""
        present = np.ones(self.num_clients, dtype=bool)
        present[self._late_ids] = False
        return np.flatnonzero(present)

    @property
    def has_arrivals(self) -> bool:
        """Whether any client arrives after t=0 (population growth)."""
        return bool(self._late_ids.size)

    def bandwidth_scale(self, client_id: int, t: float) -> float:
        """Fraction of the client's nominal link bandwidth left at ``t``."""
        tl = self._timeline(int(client_id))
        i = bisect_right(tl.bw_times, t) - 1
        return tl.bw_values[i] if i >= 0 else 1.0

    @property
    def has_bandwidth_events(self) -> bool:
        """Whether any client's link bandwidth changes over the run."""
        return bool(np.any(self._kind == _BANDWIDTH))

    def latency_multiplier(self, client_id: int, t: float) -> float:
        """Combined drift × burst slowdown factor at time ``t``."""
        tl = self._timeline(int(client_id))
        i = bisect_right(tl.mult_times, t) - 1
        return tl.mult_values[i] if i >= 0 else 1.0

    def next_join_after(self, client_ids, t: float) -> float | None:
        """Earliest time > ``t`` at which any listed client comes online.

        Lets an event loop schedule a wake-up for a tier whose whole pool is
        currently churned away (or not yet arrived) instead of retiring it
        forever. Candidate times are churn rejoins and late arrivals; each
        counts only if the client is genuinely available at that instant.
        ``client_ids`` is any iterable of ids; only those that ever leave or
        arrive late are looked at, one by one.
        """
        if not self._gated_ids.size:
            return None  # nobody ever leaves or arrives late
        if not isinstance(client_ids, np.ndarray):
            client_ids = np.fromiter(client_ids, dtype=np.int64)
        best: float | None = None

        def consider(cid: int, when: float) -> bool:
            """Fold a candidate in; True when it was a genuine join."""
            nonlocal best
            if when <= t or not self.is_available(cid, when):
                return False
            if best is None or when < best:
                best = when
            return True

        client_ids = sorted_unique(client_ids)
        gated = client_ids[np.isin(client_ids, self._gated_ids)]
        for cid, arrival in zip(gated.tolist(), self.arrival_times(gated).tolist()):
            consider(cid, arrival)
            tl = self._timeline(cid)
            times, state = tl.avail_times, tl.avail_state
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
            f"events={self._time.size})"
        )
