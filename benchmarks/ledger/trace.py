"""Span tracing from outside the program.

The ledger may not edit ``src/``, so layers are traced by wrapping their
public entry points for the length of one repetition: :func:`installed`
swaps the wrappers in and always swaps the originals back, so nothing leaks
into the next (untraced) repetition. Spans carry name, start, end, parent
and the repetition they belong to; they are kept in memory and only
summarised (or dumped) when the child exits.

A layer's ``_s`` is *self* time: a span's duration minus the part covered
by its child spans. ``FLSystem.run`` is the root of the run phase, so its
own self time is the event loop's cost — the share of a run that
``PhaseTimers`` cannot see.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "installed", "self_times", "ROOT", "TARGETS"]

#: Name of the run-phase root span (``FLSystem.run``).
ROOT = "core.run"

#: Span names recorded as *leaves*: calls too short and too many (10^5 per
#: repetition) to afford a span each, so a leaf wrapper only adds the call to
#: a ``(parent span, name)`` count-and-seconds record. They must not call
#: other wrapped functions; a leaf called from inside a leaf is not counted.
LEAVES = frozenset({"scenario.query", "sim.events"})

#: ``(module, qualified attribute, span name)`` of every wrapped entry point.
#: A class attribute is wrapped on the class (instances created during the
#: run pick it up); a module attribute is wrapped in that module's namespace.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.base", "FLSystem.run", ROOT),
    ("repro.population.base", "MaterializedPopulation.bind", "population.bind"),
    ("repro.population.virtual", "VirtualPopulation.bind", "population.bind"),
    ("repro.population.virtual", "_BoundClients.__getitem__", "population.client"),
    ("repro.population.virtual", "VirtualPopulation.client_data", "population.client"),
    ("repro.population.virtual", "derive_client_data", "population.derive"),
    ("repro.scenario.engine", "ScenarioEngine.compile", "scenario.compile"),
    ("repro.scenario.engine", "ScenarioEngine.is_available", "scenario.query"),
    ("repro.scenario.engine", "ScenarioEngine.available_throughout", "scenario.query"),
    ("repro.scenario.engine", "ScenarioEngine.latency_multiplier", "scenario.query"),
    ("repro.scenario.engine", "ScenarioEngine.bandwidth_scale", "scenario.query"),
    ("repro.scenario.engine", "ScenarioEngine.next_join_after", "scenario.query"),
    ("repro.core.base", "FLSystem.build_tiering", "tiering.profile"),
    ("repro.tiering.online", "LatencyTracker.retier", "tiering.retier"),
    ("repro.tiering.tiers", "Tiering.from_latencies", "tiering.retier"),
    ("repro.core.base", "FLSystem.apply_retier", "tiering.retier"),
    ("repro.sim.events", "EventQueue.schedule_at", "sim.events"),
    ("repro.sim.events", "EventQueue.pop", "sim.events"),
    ("repro.core.base", "FLSystem.sample_latency", "sim.latency"),
    ("repro.core.base", "make_executor", "exec.start"),
    ("repro.exec.serial", "SerialExecutor.run_cohort", "exec.dispatch"),
    ("repro.exec.parallel", "ParallelExecutor.run_cohort", "exec.dispatch"),
    ("repro.exec.dist.executor", "DistExecutor.run_cohort", "exec.dispatch"),
    ("repro.exec.parallel", "ParallelExecutor.close", "exec.close"),
    ("repro.exec.dist.executor", "DistExecutor.close", "exec.close"),
    ("repro.sim.client", "SimClient.local_train", "nn.train"),
    ("repro.compression.codec", "NullCodec.encode", "compression.encode"),
    ("repro.compression.codec", "NullCodec.decode", "compression.decode"),
    ("repro.compression.codec", "PolylineCodec.encode", "compression.encode"),
    ("repro.compression.codec", "PolylineCodec.decode", "compression.decode"),
    ("repro.core.base", "FLSystem.send_down", "compression.send_down"),
    ("repro.core.base", "FLSystem.uplink_roundtrip", "compression.uplink"),
    ("repro.core.fedat", "sample_weighted_average", "core.aggregate"),
    ("repro.core.server", "TieredServer.submit_tier_update", "core.aggregate"),
    ("repro.baselines.fedasync", "FedAsync._mix", "core.aggregate"),
    ("repro.metrics.evaluation", "Evaluator.evaluate_flat", "metrics.eval"),
)


class Tracer:
    """In-memory span recorder for one thread.

    A span is the tuple ``(id, name, start, end, parent id, repetition)``,
    appended when it closes; ``parent`` is -1 for a root. ``leaves`` maps
    ``(parent id, name, repetition)`` to ``[calls, seconds]``. Calls from
    other threads (the dist scheduler's loop) pass through unrecorded.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.leaves: dict[tuple, list] = {}
        self._in_leaf = False
        self.repetition = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._thread = threading.get_ident()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.repetition))

    def wrap(self, fn, name: str):
        """``fn`` recorded as a span named ``name`` on every call."""
        spans, stack, owner, clock = self.spans, self._stack, self._thread, time.perf_counter

        def traced(*args, **kwargs):
            if threading.get_ident() != owner:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.repetition))

        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, fn, name: str):
        """``fn`` counted (calls, seconds) under the span that called it."""
        leaves, stack, owner, clock = self.leaves, self._stack, self._thread, time.perf_counter

        def traced(*args, **kwargs):
            if self._in_leaf or threading.get_ident() != owner:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self._in_leaf = False
                key = (stack[-1] if stack else -1, name, self.repetition)
                record = leaves.get(key)
                if record is None:
                    leaves[key] = [1, elapsed]
                else:
                    record[0] += 1
                    record[1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        """Write every span, then every leaf record, as one JSON line each."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, rep in self.spans:
                row = {"id": sid, "name": name, "start": t0, "end": t1}
                fh.write(json.dumps({**row, "parent": parent, "repetition": rep}) + "\n")
            for (parent, name, rep), (calls, seconds) in self.leaves.items():
                row = {"name": name, "calls": calls, "seconds": seconds}
                fh.write(json.dumps({**row, "parent": parent, "repetition": rep}) + "\n")

    def summary(self) -> dict:
        """Per-repetition aggregates ``run.py`` turns into layer metrics."""
        return summarize_spans(self.spans, self.leaves)


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute name, raw attribute)`` of a target."""
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target for the length of the block, then restore them."""
    undo = []
    try:
        for module_name, qualname, name in targets:
            owner, attr, raw = _resolve(module_name, qualname)
            wrap = tracer.wrap_leaf if name in LEAVES else tracer.wrap
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrap(raw.__func__, name))
            else:
                wrapped = wrap(raw, name)
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def self_times(spans, leaves=None) -> dict[int, float]:
    """Span id -> duration minus the time its direct children (spans and
    leaf records) cover."""
    own = {sid: t1 - t0 for sid, _, t0, t1, _, _ in spans}
    for sid, _, t0, t1, parent, _ in spans:
        if parent in own:
            own[parent] -= t1 - t0
    for (parent, _, _), (_, seconds) in (leaves or {}).items():
        if parent in own:
            own[parent] -= seconds
    return own


def summarize_spans(spans, leaves=None) -> dict:
    """Aggregate spans per repetition.

    Returns ``{"repetitions": {rep: {"root_s", "run": {name: {...}},
    "setup": {name: {...}}}}, "dispatch_ms": [...]}`` where each name maps to
    ``self_s`` (summed self time), ``total_s`` (summed duration of spans not
    nested in a same-named span), ``calls`` (all spans) and ``entries``
    (spans whose parent has another name). ``encodes_in_send_down`` counts
    downlink encodes for the cache-hit ratio.
    """
    leaves = leaves or {}
    own = self_times(spans, leaves)
    by_id = {s[0]: s for s in spans}

    def phase_of(span) -> str:
        while span[4] in by_id:
            span = by_id[span[4]]
        return "run" if span[1] == ROOT else "setup"

    reps: dict = defaultdict(
        lambda: {
            "root_s": 0.0,
            "encodes_in_send_down": 0,
            "run": defaultdict(lambda: defaultdict(float)),
            "setup": defaultdict(lambda: defaultdict(float)),
        }
    )
    dispatch_ms = []
    for span in spans:
        sid, name, t0, t1, parent, rep = span
        bucket = reps[rep]
        if name == ROOT and parent == -1:
            bucket["root_s"] += t1 - t0
        cell = bucket[phase_of(span)][name]
        cell["self_s"] += own[sid]
        cell["calls"] += 1
        parent_name = by_id[parent][1] if parent in by_id else None
        if parent_name != name:
            cell["entries"] += 1
            cell["total_s"] += t1 - t0
        if name == "compression.encode" and parent_name == "compression.send_down":
            bucket["encodes_in_send_down"] += 1
        if name == "exec.dispatch" and parent_name != name:
            dispatch_ms.append((t1 - t0) * 1e3)
    for (parent, name, rep), (calls, seconds) in leaves.items():
        phase = phase_of(by_id[parent]) if parent in by_id else "setup"
        cell = reps[rep][phase][name]
        cell["self_s"] += seconds
        cell["total_s"] += seconds
        cell["calls"] += calls
        cell["entries"] += calls
    return {"repetitions": reps, "dispatch_ms": dispatch_ms}
