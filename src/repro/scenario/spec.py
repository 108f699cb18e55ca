"""Scenario specifications: declarative descriptions of dynamic worlds.

A :class:`ScenarioSpec` says *how much* time-varying behavior a run should
see — what fraction of clients churn (leave and rejoin), what fraction
drift slower over time, and how many burst-straggler episodes hit the
population. All times are expressed as fractions of the run's virtual-time
horizon so one spec scales from ``tiny`` to ``paper`` budgets unchanged.

Scenario strings form a small grammar:

- ``"name"`` or ``"name:arg"`` — one synthetic family, e.g. ``"churn:0.2"``;
- ``"a+b+c"`` — a composition, e.g. ``"churn:0.2+bwdrift:4+arrival:0.05"``:
  every family's events are drawn from its own deterministic RNG substream
  and merged into one timeline (see ``ScenarioEngine.compile``), so
  ``churn:0.2`` alone and inside any composition produces the identical
  churn timeline;
- ``"trace:<path>"`` — replay per-client availability/latency/bandwidth
  timelines from a CSV/JSON trace file (see
  :func:`repro.scenario.engine.load_trace_events` for the format).

The spec is compiled into concrete, per-client events by
:class:`repro.scenario.engine.ScenarioEngine`; this module is intentionally
dependency-free (no file IO, no numpy) so configuration code can validate
scenario strings without pulling in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "ScenarioSpec",
    "TraceSpec",
    "ComposedSpec",
    "SCENARIO_PRESETS",
    "parse_scenario",
    "scenario_names",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """How a client population misbehaves over one run.

    Fields ending in a range tuple ``(lo, hi)`` are uniform-draw bounds,
    expressed as fractions of the horizon (times/durations) or as raw
    multipliers (speed factors).
    """

    name: str = "static"

    # --- churn: clients leave and later rejoin ------------------------- #
    churn_fraction: float = 0.0  # fraction of clients that churn at all
    churn_first_leave: tuple[float, float] = (0.1, 0.5)  # first departure time
    churn_offline: tuple[float, float] = (0.1, 0.3)  # offline stretch length
    churn_online: tuple[float, float] = (0.15, 0.4)  # online stretch length

    # --- speed drift: clients get progressively slower ------------------ #
    drift_fraction: float = 0.0  # fraction of clients that drift
    drift_steps: int = 3  # multiplier changes per drifting client
    drift_factor: tuple[float, float] = (1.3, 2.0)  # per-step slowdown factor

    # --- burst stragglers: transient slowdown episodes ------------------ #
    burst_count: int = 0  # number of burst episodes
    burst_fraction: float = 0.25  # fraction of clients hit per burst
    burst_factor: float = 4.0  # latency multiplier while the burst lasts
    burst_duration: tuple[float, float] = (0.05, 0.15)  # burst length

    # --- arrival: the population grows over simulated time -------------- #
    # Late-arriving clients are absent at t=0 (not profiled, not tiered,
    # never trained) and join at a time drawn from the window. At
    # least one client always founds the federation.
    arrival_fraction: float = 0.0  # fraction of clients that arrive late
    arrival_window: tuple[float, float] = (0.05, 0.7)  # arrival-time bounds

    # --- bandwidth drift: client links degrade over time ----------------- #
    # Unlike speed drift this is not a blanket latency multiplier: the
    # per-client bandwidth *scale* divides the finite-bandwidth link in
    # repro.sim.latency, so only the transfer-time term of the round trip
    # grows as the link narrows.
    bwdrift_fraction: float = 0.0  # fraction of clients whose link degrades
    bwdrift_steps: int = 3  # bandwidth changes per drifting client
    bwdrift_factor: tuple[float, float] = (1.5, 3.0)  # per-step divisor

    # --- bandwidth heal: links degrade, then restore --------------------- #
    # The first recovery world: each affected client's bandwidth drops to
    # 1/bwheal_factor of nominal for one episode and then heals back to the
    # full link — a non-monotone bandwidth timeline.
    bwheal_fraction: float = 0.0  # fraction of clients hit by an outage
    bwheal_factor: float = 4.0  # link divisor while degraded (1 = no-op)
    bwheal_start: tuple[float, float] = (0.1, 0.5)  # outage onset bounds
    bwheal_duration: tuple[float, float] = (0.1, 0.3)  # outage length bounds

    def __post_init__(self):
        for field_name in (
            "churn_fraction",
            "drift_fraction",
            "burst_fraction",
            "arrival_fraction",
            "bwdrift_fraction",
            "bwheal_fraction",
        ):
            v = getattr(self, field_name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {v}")
        for field_name in (
            "churn_first_leave",
            "churn_offline",
            "churn_online",
            "drift_factor",
            "burst_duration",
            "arrival_window",
            "bwdrift_factor",
            "bwheal_start",
            "bwheal_duration",
        ):
            lo, hi = getattr(self, field_name)
            if lo < 0 or hi < lo:
                raise ValueError(f"{field_name} must satisfy 0 <= lo <= hi")
        if self.drift_steps < 0:
            raise ValueError("drift_steps must be non-negative")
        if self.burst_count < 0:
            raise ValueError("burst_count must be non-negative")
        if self.burst_factor <= 0:
            raise ValueError("burst_factor must be positive")
        if self.bwdrift_steps < 0:
            raise ValueError("bwdrift_steps must be non-negative")
        if self.bwdrift_factor[0] < 1.0:
            # A divisor below 1 would *improve* bandwidth each step,
            # silently inverting the documented degradation semantics.
            raise ValueError("bwdrift_factor bounds must be >= 1 (links only degrade)")
        if self.bwheal_factor < 1.0:
            raise ValueError("bwheal_factor must be >= 1 (outages only degrade)")

    @property
    def is_static(self) -> bool:
        """True when the spec injects no dynamic behavior at all.

        Every family guard pairs its headline knob with the knob that could
        zero it out (``drift_steps=0``, ``burst_fraction=0.0``, …): a spec
        that cannot produce events must be exactly as static as the static
        preset, so it never consumes scenario-RNG draws.
        """
        return (
            self.churn_fraction == 0.0
            and (self.drift_fraction == 0.0 or self.drift_steps == 0)
            and (self.burst_count == 0 or self.burst_fraction == 0.0)
            and self.arrival_fraction == 0.0
            and (self.bwdrift_fraction == 0.0 or self.bwdrift_steps == 0)
            and (self.bwheal_fraction == 0.0 or self.bwheal_factor == 1.0)
        )

    @property
    def parts(self) -> tuple["ScenarioSpec", ...]:
        """Uniform access for the engine: an atomic spec is its own part."""
        return (self,)


@dataclass(frozen=True)
class TraceSpec:
    """Replay a recorded per-client timeline instead of sampling one.

    ``path`` names a CSV or JSON trace file; the engine loads it at compile
    time (this module stays IO-free). Trace rows whose client id exceeds
    the run's population are skipped, so one trace serves every scale.
    """

    path: str
    name: str = "trace"

    def __post_init__(self):
        if not self.path:
            raise ValueError("trace scenario needs a file path: trace:<path>")

    @property
    def is_static(self) -> bool:
        # Whether the file holds events is unknowable without IO; treat a
        # trace as dynamic and let the compiled engine short-circuit if the
        # file turns out to be empty (engine.is_static is event-based).
        return False

    @property
    def parts(self) -> tuple["TraceSpec", ...]:
        return (self,)


@dataclass(frozen=True)
class ComposedSpec:
    """A ``+``-composition of scenario families run in one world.

    Each part keeps its own deterministic RNG substream at compile time, so
    a family's timeline is bit-identical standalone and inside any
    composition (asserted by ``tests/scenario``).
    """

    name: str
    parts: tuple[ScenarioSpec | TraceSpec, ...]

    def __post_init__(self):
        if len(self.parts) < 1:
            raise ValueError("a composed scenario needs at least one part")

    @property
    def is_static(self) -> bool:
        return all(part.is_static for part in self.parts)


#: Named scenario presets selectable from FLConfig / the CLI.
SCENARIO_PRESETS: dict[str, ScenarioSpec] = {
    "static": ScenarioSpec(name="static"),
    "churn": ScenarioSpec(name="churn", churn_fraction=0.3),
    "drift": ScenarioSpec(name="drift", drift_fraction=0.3),
    "burst": ScenarioSpec(name="burst", burst_count=3),
    "chaos": ScenarioSpec(
        name="chaos", churn_fraction=0.2, drift_fraction=0.2, burst_count=2
    ),
    "arrival": ScenarioSpec(name="arrival", arrival_fraction=0.4),
    "bwdrift": ScenarioSpec(name="bwdrift", bwdrift_fraction=0.4),
    "bwheal": ScenarioSpec(name="bwheal", bwheal_fraction=0.4),
}


def scenario_names() -> list[str]:
    return sorted(SCENARIO_PRESETS)


def _parse_atom(text: str) -> ScenarioSpec | TraceSpec:
    """Parse one ``name[:arg]`` atom of a scenario string."""
    name, _, arg = text.strip().partition(":")
    name = name.lower() or "static"
    if name == "none":
        name = "static"
    if name == "trace":
        # The argument is a file path (which may itself contain ':').
        return TraceSpec(path=arg)
    if name not in SCENARIO_PRESETS:
        raise ValueError(
            f"unknown scenario {name!r}; options: {scenario_names()} "
            f"(plus 'trace:<path>' and '+'-compositions)"
        )
    spec = SCENARIO_PRESETS[name]
    if not arg:
        return spec
    try:
        value = float(arg)
    except ValueError:
        raise ValueError(f"bad scenario argument {arg!r} in {text!r}") from None
    try:
        if name == "churn":
            return replace(spec, churn_fraction=value)
        if name == "drift":
            return replace(spec, drift_fraction=value)
        if name == "burst":
            if value != int(value):
                raise ValueError(f"burst count must be an integer, got {arg!r}")
            return replace(spec, burst_count=int(value))
        if name == "arrival":
            return replace(spec, arrival_fraction=value)
        if name == "bwdrift":
            # The argument pins the per-step divisor exactly: ``bwdrift:2``
            # halves a drifting client's bandwidth at every step.
            return replace(spec, bwdrift_factor=(value, value))
        if name == "bwheal":
            # The argument pins the outage divisor: ``bwheal:4`` quarters a
            # client's bandwidth until the episode heals.
            return replace(spec, bwheal_factor=value)
    except (ValueError, OverflowError) as exc:
        # dataclasses.replace re-runs __post_init__, so out-of-range args
        # (churn:1.5) fail here — surface the offending scenario string.
        raise ValueError(f"invalid scenario {text!r}: {exc}") from None
    raise ValueError(f"scenario {name!r} takes no argument (got {text!r})")


def parse_scenario(text: str | None) -> ScenarioSpec | TraceSpec | ComposedSpec:
    """Parse a scenario string into its spec.

    Grammar: ``atom ( "+" atom )*`` where an atom is ``name`` or
    ``name:arg``. ``None``/``"none"`` mean static. The optional numeric
    argument overrides the preset's headline knob: the churn/drift/arrival
    fraction, the burst count (integers only), or the bandwidth divisor.
    Examples: ``"churn:0.5"``, ``"drift:0.1"``, ``"burst:5"``,
    ``"arrival:0.6"``, ``"bwdrift:2.0"`` (every step halves the client's
    bandwidth), ``"bwheal:4"`` (one outage to quarter bandwidth, then
    healed), ``"trace:traces/diurnal.csv"`` (replay a recorded timeline),
    ``"churn:0.2+bwdrift:2"`` (both worlds at once; each family's timeline
    is identical to its standalone run).
    """
    if text is None:
        return SCENARIO_PRESETS["static"]
    atoms = [a.strip() for a in str(text).strip().split("+")]
    if atoms == [""]:
        return SCENARIO_PRESETS["static"]
    if any(not a for a in atoms):
        raise ValueError(
            f"invalid scenario {text!r}: empty atom in '+'-composition"
        )
    specs = [_parse_atom(atom) for atom in atoms]
    if len(specs) == 1:
        return specs[0]
    return ComposedSpec(name="+".join(atoms), parts=tuple(specs))
