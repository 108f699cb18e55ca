"""Algorithm-level configuration shared by FedAT and all baselines."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.params import MethodParams
from repro.exec.base import ExecConfig, OptimizerSpec
from repro.utils.rng import SeedSequenceFactory

__all__ = ["FLConfig"]


@dataclass(frozen=True)
class FLConfig:
    """Hyperparameters of one FL run (paper §6 defaults).

    ``max_rounds`` counts *global updates* — the ``t`` of Algorithm 2. For
    synchronous methods one round is one server aggregation over
    ``clients_per_round`` clients; for FedAT each tier aggregation counts;
    for FedAsync/ASO-Fed each single-client update counts (the experiment
    harness scales the budget accordingly). ``max_time`` is a virtual-time
    cutoff applied uniformly across methods for time-axis figures.

    Every method reads every field; ``algo`` carries the knobs only some
    read (see :mod:`repro.core.params`). Every field can change a run's
    history except ``exec``, which only says how cohorts execute; cache and
    checkpoint keys leave it out.
    """

    # --- client-side training -------------------------------------------- #
    clients_per_round: int = 10
    local_epochs: int = 3
    batch_size: int = 10
    learning_rate: float = 0.005
    optimizer: str = "adam"  # "adam" | "sgd"

    # --- run budget -------------------------------------------------------#
    max_rounds: int = 200
    max_time: float | None = None
    eval_every: int = 5
    # Evaluate the global model over a fixed random subset of this many
    # clients' test shards (drawn once from the "env/eval" stream) instead
    # of every client. None keeps the historical evaluate-everyone behavior;
    # virtual populations beyond a few thousand clients require a subset.
    eval_clients: int | None = None

    # --- environment ------------------------------------------------------#
    # Dynamic-world scenario: a preset name with optional argument ("churn",
    # "drift:0.5", "burst:3", "bwheal:4"), a "+"-composition running several
    # families in one world ("churn:0.2+bwdrift:2" — each family's timeline
    # is bit-identical to its standalone run), or a recorded trace replay
    # ("trace:traces/diurnal.csv"). See repro.scenario. None or "static"
    # leaves runs bit-identical to the scenario-free simulator.
    scenario: str | None = None
    seed: int = 0
    num_unstable: int = 10
    dropout_horizon: float = 2000.0
    compute_per_sample: float = 0.04
    compute_base: float = 0.5
    bandwidth_bytes_per_s: float | None = None

    # --- update quarantine and precision ----------------------------------#
    # Update quarantine applied before every aggregation:
    # "reject[:max_norm]" | "clip[:max_norm]" | "abort[:max_norm]"
    # (max_norm defaults to 1e6). None disables the guard.
    guard: str | None = None
    # Model-parameter dtype. "float64" (default) keeps every code path
    # bit-identical to the reference histories; "float32" halves parameter
    # memory bandwidth on every matmul at the cost of exact reproducibility
    # against float64 runs (float32 runs are still deterministic).
    dtype: str = "float64"

    # --- communication ----------------------------------------------------#
    compression: str | None = "polyline:4"  # FedAT default; None => float32

    # --- method knobs -----------------------------------------------------#
    # The method's Params (None: its defaults, the paper's setting).
    algo: MethodParams | None = None

    # --- client execution -------------------------------------------------#
    # Backend, worker topology, liveness and fault injection: how cohorts
    # run, never what they compute (see repro.exec.ExecConfig).
    exec: ExecConfig = field(default_factory=ExecConfig)

    def __post_init__(self):
        SeedSequenceFactory(self.seed)  # raises ValueError on a seed no stream takes
        if self.clients_per_round < 1:
            raise ValueError("clients_per_round must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        OptimizerSpec(self.optimizer, self.learning_rate)  # raises ValueError
        if self.scenario is not None:
            from repro.scenario.spec import parse_scenario

            parse_scenario(self.scenario)  # raises ValueError on bad specs
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(f"unknown dtype {self.dtype!r}; options: float64, float32")
        if self.guard is not None:
            from repro.core.guard import UpdateGuard

            UpdateGuard.parse(self.guard)  # raises ValueError on bad specs
        if self.eval_clients is not None and self.eval_clients < 1:
            raise ValueError("eval_clients must be >= 1 (None evaluates everyone)")
        if self.compression is not None:
            from repro.compression.codec import make_codec

            make_codec(self.compression)  # raises ValueError on bad specs
