"""The ledger's four workloads and the child process that measures them.

A *repetition* builds a fresh federation + system from one derived seed and
calls ``system.run()``. A child process (this file run as a script) sets up
once, discards one warm-up repetition and then measures its share of the
run's repetitions, each bracketed by the machine probe; it prints one JSON
line that ``run.py`` folds into the workload's metrics.

Every repetition of a run uses its own derived seed (``rep_seed``): measured
on this box the same workload differs by 8–12 % (IQR/median) from one seed
to the next — client shard sizes, tier speeds and arrival counts all move
the amount of work — so a run that measured one seed would repeat no better
than that across the seeds the PR driver passes. Histories are checked per
derived seed instead: wherever a seed is run again (warm-up vs first timed
repetition, traced vs untraced, dist vs serial) the fingerprint must be
identical.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import sampling  # sibling module: scripts here run with this directory first on sys.path

LEDGER_DIR = Path(__file__).resolve().parent
SRC_DIR = LEDGER_DIR.parents[1] / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

__all__ = ["Workload", "WORKLOADS", "CHILD_MARKER", "child_env", "rep_seed", "fingerprint"]

#: Prefix of the one stdout line a child reports on.
CHILD_MARKER = "LEDGER_CHILD "
#: Derived seeds per ``--seed``: run ``n`` owns seeds ``64n .. 64n+63``.
SEEDS_PER_RUN = 64


@dataclass(frozen=True)
class Workload:
    """One fixed configuration the ledger measures (all ``scale="bench"``)."""

    name: str
    why: str
    method: str
    dataset: str
    config: dict  # FLConfig overrides, including the tuned max_rounds
    #: Wall time of a repetition follows ``level ** regime_exponent`` (see
    #: sampling.py): 1.0 for the CPU-bound workloads, 0.4 where the run
    #: mostly waits on a timer.
    regime_exponent: float
    population: int | None = None  # VirtualPopulation size, None = eager
    #: ``--smoke`` replacements (scale "tiny"): small enough that all four
    #: workloads, the traced runs and the cells finish in under 30 s.
    smoke_config: dict = field(default_factory=dict)
    smoke_population: int | None = None

    @property
    def needs_cores(self) -> int:
        return 2 if self.config.get("executor", "serial") != "serial" else 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cnn_serial",
            why=(
                "Plain single-worker baseline: FedAT, cifar10 CNN, serial, max_rounds=13; "
                "nn (fused plan) is ~85 % of the run, eval and polyline codec the rest."
            ),
            method="fedat",
            dataset="cifar10",
            config={"executor": "serial", "max_rounds": 13},
            regime_exponent=1.0,
            smoke_config={"max_rounds": 4},
        ),
        Workload(
            name="logreg_dist",
            why=(
                "FedAT, sentiment140 logreg, dist with 2 workers, max_rounds=26: a client round "
                "is <1 ms, so the run is dispatch (20 ms poll tick); an nn change leaves it flat."
            ),
            method="fedat",
            dataset="sentiment140",
            config={"executor": "dist", "num_workers": 2, "max_rounds": 26},
            regime_exponent=0.4,
            smoke_config={"max_rounds": 6},
        ),
        Workload(
            name="world_30k",
            why=(
                "FedAT over 30k virtual clients, churn+arrival+bwdrift, retier every 10, "
                "max_rounds=24: tiering, scenario, population and sim do the work; "
                "nn and exec do little."
            ),
            method="fedat",
            dataset="sentiment140",
            population=30_000,
            regime_exponent=1.0,
            config={
                "executor": "serial",
                "scenario": "churn:0.2+arrival:0.1+bwdrift:2",
                "retier_interval": 10,
                "eval_clients": 200,
                "max_rounds": 24,
            },
            smoke_config={"max_rounds": 12, "retier_interval": 4, "eval_clients": 50},
            smoke_population=2_000,
        ),
        Workload(
            name="lstm_async",
            why=(
                "FedAsync, reddit LSTM, serial, no codec, max_rounds=60: cohort size 1, unfused "
                "recurrent fallback, async mixing; a cnn_serial gain paid for here shows."
            ),
            method="fedasync",
            dataset="reddit",
            config={"executor": "serial", "compression": None, "max_rounds": 60},
            regime_exponent=1.0,
            smoke_config={"max_rounds": 16},
        ),
    )
}


def child_env() -> dict:
    """Environment of every measuring child: one BLAS thread, fixed hashing."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def rep_seed(seed: int, index: int) -> int:
    """Seed of repetition ``index`` in the run started with ``--seed seed``."""
    if not 0 <= index < SEEDS_PER_RUN:
        raise ValueError(f"repetition index {index} outside 0..{SEEDS_PER_RUN - 1}")
    return seed * SEEDS_PER_RUN + index


def fingerprint(history) -> str:
    """sha256 over the history with wall-clock diagnostics stripped."""
    from repro.experiments.checkpoint import strip_volatile_meta

    blob = json.dumps(strip_volatile_meta(history.to_dict()), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def build_system(workload: Workload, seed: int, *, smoke: bool, span=None, **overrides):
    """Federation + system for one repetition (what ``repro run`` does before
    round 1). ``span`` wraps the dataset build when tracing; ``overrides``
    replace config fields (the dist-vs-serial check)."""
    from repro.experiments.config import build_model_builder, make_fl_config
    from repro.experiments.runner import (
        ALGORITHMS,
        build_federation,
        build_virtual_population,
    )

    scale = "tiny" if smoke else "bench"
    config = {**workload.config, **(workload.smoke_config if smoke else {}), **overrides}
    population = workload.smoke_population if smoke else workload.population
    with span("experiments.build") if span else contextlib.nullcontext():
        if population is not None:
            data = build_virtual_population(workload.dataset, population, scale, seed)
        else:
            data = build_federation(workload.dataset, scale, seed)
    system = ALGORITHMS[workload.method](
        data,
        build_model_builder(data, scale),
        make_fl_config(workload.method, scale, seed, **config),
    )
    wait = getattr(system.executor, "wait_for_workers", None)
    if wait is not None and config.get("num_workers"):
        with span("exec.start") if span else contextlib.nullcontext():
            if wait(config["num_workers"]) < config["num_workers"]:
                system.executor.close()
                raise RuntimeError(f"{workload.name}: dist workers did not register")
    return system


def run_system(system) -> dict:
    """Time ``system.run()`` and check its outputs."""
    max_rounds = system.config.max_rounds
    gc.collect()
    t0 = time.perf_counter()
    history = system.run()
    wall = time.perf_counter() - t0
    last = history.records[-1]
    network = history.meta["network"]
    faults = history.meta.get("faults", {})
    problems = []
    if system.round != max_rounds:
        problems.append(f"round {system.round} != max_rounds {max_rounds}")
    if not (math.isfinite(last.accuracy) and math.isfinite(last.loss)):
        problems.append("non-finite accuracy or loss")
    if faults.get("degraded_chunks", 0):
        problems.append(f"{faults['degraded_chunks']} degraded chunks")
    return {
        "wall_s": wall,
        "client_rounds": network["uplink_messages"],
        "ops": network["downlink_messages"],
        "uplink_mb": last.uplink_bytes / 1e6,
        "final_accuracy": last.accuracy,
        "final_loss": last.loss,
        "fingerprint": fingerprint(history),
        "retries": faults.get("retries", 0),
        "degraded_chunks": faults.get("degraded_chunks", 0),
        "bytes_per_weight": last.uplink_bytes
        / max(1, network["uplink_messages"] * system.initial_flat.size),
        "problems": problems,
    }


class _Child:
    """State of one measuring child process."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.workload = WORKLOADS[spec["workload"]]
        self.smoke = bool(spec["smoke"])
        self.probes: list[tuple[float, float]] = []
        self.reps: list[dict] = []
        self._known: dict[int, str] = {}  # repetition index -> fingerprint

    def probe(self) -> tuple[float, float]:
        self.probes.append(sampling.probe())
        return self.probes[-1]

    def repetition(self, index: int, role: str, *, system=None, tracer=None, **overrides):
        """Run repetition ``index`` once, bracketed by probes; records it."""
        seed = rep_seed(self.spec["seed"], index)
        rep = {"index": index, "seed": seed, "role": role}
        rep["probe_before"] = self.probe()
        try:
            if system is None:
                system = build_system(
                    self.workload,
                    seed,
                    smoke=self.smoke,
                    span=tracer.span if tracer else None,
                    **overrides,
                )
            rep.update(run_system(system))
        except Exception as exc:  # a failed repetition is a result, not a crash
            rep["problems"] = [f"{type(exc).__name__}: {exc}"]
        rep["probe_after"] = self.probe()
        fp = rep.get("fingerprint")
        if fp is not None and self._known.setdefault(index, fp) != fp:
            rep["problems"].append(
                f"history fingerprint {fp[:12]} != {self._known[index][:12]} of the same seed"
            )
        self.reps.append(rep)
        return rep

    def report(self, **extra) -> None:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        out = {
            "kind": self.spec["kind"],
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "worker_rss_mb": children / 1024,
            "probes": self.probes,
            "reps": self.reps,
            **extra,
        }
        print(CHILD_MARKER + json.dumps(out), flush=True)


def child_main(spec: dict) -> None:
    """Entry point of a measuring child; ``spec`` comes from ``run.py``.

    Kinds: ``setup`` (set up and exit), ``timed`` (set up, one discarded
    warm-up, then the timed repetitions), ``traced`` (set up, warm-up, then
    an untraced and a traced run of each repetition).
    """
    child = _Child(spec)
    indices = spec["indices"]
    first_seed = rep_seed(spec["seed"], indices[0])
    system = build_system(child.workload, first_seed, smoke=child.smoke)
    setup_s = time.time() - spec["spawned_at"]
    if spec["kind"] == "setup":
        system.executor.close()
        child.probe()  # the level this set-up ran at (timed children probe next anyway)
        child.report(setup_s=setup_s)
        return
    # The warm-up runs the first repetition's seed, so the first timed
    # repetition doubles as an in-process determinism check.
    child.repetition(indices[0], "warmup", system=system)
    del system
    if spec["kind"] == "timed":
        for index in indices:
            child.repetition(index, "timed")
        child.report(setup_s=setup_s)
        return
    import trace as ledger_trace  # sibling module (shadows the unused stdlib one)

    tracer = ledger_trace.Tracer()
    for index in indices:
        child.repetition(index, "untraced")
        tracer.repetition = index
        with ledger_trace.installed(tracer):
            child.repetition(index, "traced", tracer=tracer)
    if child.workload.config.get("executor", "serial") != "serial":
        child.repetition(indices[0], "serial_check", executor="serial", num_workers=0)
    if spec.get("spans_out"):
        tracer.dump(spec["spans_out"])
    child.report(setup_s=setup_s, trace=tracer.summary())


if __name__ == "__main__":
    os.chdir(LEDGER_DIR.parents[1])
    child_main(json.loads(sys.argv[1]))
