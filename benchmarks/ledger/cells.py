"""Cells: direct calls into one layer at a fixed size.

Each cell times one public function of one layer — the median of ``calls``
back-to-back calls (30 unless a call takes seconds; at least 5 fresh
processes for ``cli.*``). A cell's batch of calls is bracketed by the
machine probe like a workload sample and re-run when its level fails the
gate; cells are raw times, not normalised. They are reported once per
ledger under ``cells``; ``run.py`` runs this file in a child process with
the same environment as the workload children.

Ratio cells that need two cores report ``null`` with a reason on a
one-core machine instead of a meaningless ``1.01x``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np

import sampling
from workloads import LEDGER_DIR, SRC_DIR, child_env  # also puts src/ on sys.path

__all__ = ["CELLS", "run_cells", "CELL_MARKER"]

CELL_MARKER = "LEDGER_CELLS "
#: Re-runs of a cell's batch when its bracketing probes read noisy.
BATCH_RETRIES = 2


class Fixtures:
    """Inputs shared by several cells, built on first use."""

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.scale = "tiny" if smoke else "bench"
        self.big = 2_000 if smoke else 100_000  # "100k" cells
        self.mid = 1_000 if smoke else 50_000  # "50k" cells

    def _federation(self, dataset: str):
        from repro.experiments.config import build_model_builder
        from repro.experiments.runner import build_federation
        from repro.nn.losses import SoftmaxCrossEntropy
        from repro.sim.client import SimClient

        data = build_federation(dataset, self.scale, 0)
        model = build_model_builder(data, self.scale)(np.random.default_rng(1))
        clients = [SimClient(c, None, batch_size=10, seed=0) for c in data.clients]
        return data, model, clients, SoftmaxCrossEntropy()

    @functools.cached_property
    def cnn(self):
        return self._federation("cifar10")

    @functools.cached_property
    def logreg(self):
        return self._federation("sentiment140")

    @functools.cached_property
    def lstm(self):
        return self._federation("reddit")

    @functools.cached_property
    def cnn_weights(self) -> np.ndarray:
        return self.cnn[1].get_flat_weights()

    def virtual(self, n: int):
        from repro.experiments.runner import build_virtual_population

        return build_virtual_population("sentiment140", n, self.scale, 0)

    def latency_model(self, n: int):
        from repro.sim.latency import ComputeModel, ResponseLatencyModel, TierDelayModel

        delays = TierDelayModel.even_split(n, np.random.default_rng(2))
        return ResponseLatencyModel(delays=delays, compute=ComputeModel(0.04, 0.5))


# --------------------------------------------------------------------------- #
# Cell factories: each returns the zero-argument call to time.
# --------------------------------------------------------------------------- #
def _cli(argv):
    def factory(fx):
        env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}

        def call():
            subprocess.run(
                [sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL
            )

        return call

    return factory


def _population_bind(fx):
    from repro.tiering.profiler import LatencyProfiler

    model = fx.latency_model(fx.big)

    def call():
        population = fx.virtual(fx.big)
        population.bind(model, batch_size=10, seed=0)
        population.profile_latencies(LatencyProfiler(epochs=3), np.random.default_rng(3))

    return call


def _population_client_cold(fx):
    population = fx.virtual(fx.big)
    population.bind(fx.latency_model(fx.big), batch_size=10, seed=0)
    ids = itertools.count(0, 7)  # never the same client twice: every lookup derives
    return lambda: population.clients[next(ids) % fx.big]


def _scenario_compile(fx):
    from repro.scenario import ScenarioEngine, parse_scenario

    spec = parse_scenario("churn:0.2")
    return lambda: ScenarioEngine.compile(spec, fx.big, 1800.0, np.random.default_rng(4))


def _latencies(fx) -> np.ndarray:
    return np.random.default_rng(5).uniform(1.0, 30.0, size=fx.mid)


def _tiering_from_latencies(fx):
    from repro.tiering.tiers import Tiering

    latencies = _latencies(fx)
    return lambda: Tiering.from_latencies(latencies, 5)


def _tiering_retier(fx):
    from repro.tiering.online import LatencyTracker

    tracker = LatencyTracker(_latencies(fx))
    enrolled = list(range(0, fx.mid, 10)) + [c for c in range(fx.mid) if c % 10]
    return lambda: tracker.retier(5, client_ids=enrolled)  # the per-arrival call


def _sim_event_pair(fx):
    from repro.sim.events import EventQueue

    queue = EventQueue()
    for i in range(1000):
        queue.schedule_at(float(i), i)
    clock = itertools.count(1000)

    def call():
        queue.schedule_at(float(next(clock)), None)
        queue.pop()

    return call


def _tasks(count: int, epochs: int):
    from repro.exec import CohortTask

    return [
        CohortTask(client_id=i, epochs=epochs, lam=0.4, latency=1.0, start_epoch=0)
        for i in range(count)
    ]


def _dispatch(backend: str, fixture: str, cohort: int):
    """``run_cohort`` of ``cohort`` clients on one executor backend."""

    def factory(fx):
        from repro.exec import DistExecutor, OptimizerSpec, ParallelExecutor, SerialExecutor

        _, model, clients, loss = getattr(fx, fixture)
        start, tasks = model.get_flat_weights(), _tasks(cohort, 3)
        opt = OptimizerSpec("adam", 0.005)
        if backend == "serial":
            executor = SerialExecutor(model.clone(), clients, loss, opt)
        else:
            cls = ParallelExecutor if backend == "parallel" else DistExecutor
            executor = cls(model, clients, loss, opt, num_workers=2)
            executor.run_cohort(start, tasks)  # workers warm before timing
        call = lambda: executor.run_cohort(start, tasks)  # noqa: E731
        call.close = executor.close
        return call

    return factory


def _wire_frame(fx):
    from repro.exec.dist.wire import FrameBuffer, encode_frame

    message = {"type": "weights", "version": 1, "weights": fx.cnn_weights}

    def call():
        buffer = FrameBuffer()
        buffer.feed(encode_frame(message))
        buffer.drain()

    return call


def _first_batch(clients):
    """Ten training samples of the largest client."""
    client = max(clients, key=lambda c: c.n_train)
    return client.data.x_train[:10], client.data.y_train[:10]


def _nn_step(fixture: str):
    """One unfused ``train_on_batch`` (what recurrent models fall back to)."""

    def factory(fx):
        from repro.nn.optimizers import Adam

        _, model, clients, loss = getattr(fx, fixture)
        x, y = _first_batch(clients)
        optimizer = Adam(0.005)
        return lambda: model.train_on_batch(x, y, loss, optimizer)

    return factory


def _nn_plan_step(fx):
    """One batch through the fused ``TrainingPlan``."""
    from repro.data.batching import FixedBatchSchedule
    from repro.nn.optimizers import Adam

    _, model, clients, loss = fx.cnn
    x, y = _first_batch(clients)
    plan, optimizer = model.training_plan(loss), Adam(0.005)
    schedule = FixedBatchSchedule(10, 10, 0, 0)  # one batch per epoch
    return lambda: plan.run_epochs(x, y, schedule, 0, 1, optimizer)


def _flat_roundtrip(fx):
    model = fx.cnn[1]
    return lambda: model.set_flat_weights(model.get_flat_weights())


def _codec(spec, op: str):
    def factory(fx):
        from repro.compression.codec import make_codec

        codec, weights = make_codec(spec), fx.cnn_weights
        payload = codec.encode(weights)
        if op == "encode":
            return lambda: codec.encode(weights)
        if op == "decode":
            return lambda: codec.decode(payload)
        return lambda: codec.roundtrip(weights)

    return factory


def _aggregate(fx):
    from repro.core.aggregation import sample_weighted_average

    rng = np.random.default_rng(6)
    vectors = [fx.cnn_weights + rng.standard_normal(fx.cnn_weights.size) for _ in range(10)]
    sizes = list(range(20, 30))
    return lambda: sample_weighted_average(vectors, sizes)


def _evaluate(fx):
    from repro.metrics.evaluation import Evaluator

    data, model, _, _ = fx.cnn
    evaluator = Evaluator(data, model)
    return lambda: evaluator.evaluate_flat(fx.cnn_weights)


def _scaling_eff(backend: str):
    """Serial time / (2 x backend time) on a 10-client CNN cohort."""

    def factory(fx):
        serial = _dispatch("serial", "cnn", 10)(fx)
        parallel = _dispatch(backend, "cnn", 10)(fx)

        def call():
            t0 = time.perf_counter()
            serial()
            t1 = time.perf_counter()
            parallel()
            return (t1 - t0) / (2.0 * (time.perf_counter() - t1))

        call.close = parallel.close
        call.returns_value = True
        return call

    return factory


#: ``(name, unit, calls, needs_cores, factory)``; times are scaled to ``unit``.
CELLS = (
    ("cli.import_s", "s", 5, 1, _cli(["-c", "import repro"])),
    ("cli.startup_s", "s", 5, 1, _cli(["-m", "repro", "--help"])),
    ("population.bind_100k_s", "s", 30, 1, _population_bind),
    ("population.client_cold_ms", "ms", 30, 1, _population_client_cold),
    ("scenario.compile_churn_100k_s", "s", 5, 1, _scenario_compile),
    ("tiering.from_latencies_50k_ms", "ms", 30, 1, _tiering_from_latencies),
    ("tiering.retier_50k_ms", "ms", 30, 1, _tiering_retier),
    ("sim.event_pair_us", "us", 1000, 1, _sim_event_pair),
    ("exec.serial.dispatch_c4_ms", "ms", 30, 1, _dispatch("serial", "logreg", 4)),
    ("exec.parallel.dispatch_c4_ms", "ms", 30, 2, _dispatch("parallel", "logreg", 4)),
    ("exec.dist.dispatch_c4_ms", "ms", 30, 2, _dispatch("dist", "logreg", 4)),
    ("exec.parallel.dispatch_c10_ms", "ms", 30, 2, _dispatch("parallel", "logreg", 10)),
    ("exec.dist.dispatch_c10_ms", "ms", 30, 2, _dispatch("dist", "logreg", 10)),
    ("exec.parallel.scaling_eff_w2", "ratio", 10, 2, _scaling_eff("parallel")),
    ("exec.dist.scaling_eff_w2", "ratio", 10, 2, _scaling_eff("dist")),
    ("exec.dist.wire_frame_ms", "ms", 30, 1, _wire_frame),
    ("nn.step_cnn_ms", "ms", 30, 1, _nn_plan_step),
    ("nn.step_logreg_ms", "ms", 30, 1, _nn_step("logreg")),
    ("nn.step_lstm_ms", "ms", 30, 1, _nn_step("lstm")),
    ("nn.flat_roundtrip_us", "us", 1000, 1, _flat_roundtrip),
    ("compression.polyline_encode_ms", "ms", 30, 1, _codec("polyline:4", "encode")),
    ("compression.polyline_decode_ms", "ms", 30, 1, _codec("polyline:4", "decode")),
    ("compression.null_roundtrip_ms", "ms", 30, 1, _codec(None, "roundtrip")),
    ("core.aggregate_c10_ms", "ms", 30, 1, _aggregate),
    ("metrics.eval_cnn_ms", "ms", 30, 1, _evaluate),
)

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ratio": 1.0}


def measure(call, calls: int, unit: str, floor: float) -> dict:
    """Median of ``calls`` calls from the first batch whose level passes the gate."""
    returns_value = getattr(call, "returns_value", False)
    call()  # warm-up, discarded
    batches = []  # (level, samples); the quietest batch is reported
    for _ in range(1 + BATCH_RETRIES):
        before = sampling.probe()
        samples = []
        for _ in range(calls):
            t0 = time.perf_counter()
            value = call()
            samples.append(value if returns_value else time.perf_counter() - t0)
        after = sampling.probe()
        floor = min(floor, before[0], after[0])
        batches.append((sampling.level_of(before, after, floor), samples))
        if batches[-1][0] <= sampling.GATE_LEVEL:
            break
    level, samples = min(batches, key=lambda batch: batch[0])
    out = sampling.summarize(samples, scale=_SCALE[unit])
    out = {"value": out.pop("median"), "unit": unit, **out, "level": level}
    if level > sampling.GATE_LEVEL:
        out["noisy"] = True
    return out


def run_all(smoke: bool, floor: float) -> dict:
    fixtures = Fixtures(smoke)
    cores = os.cpu_count() or 1
    results = {}
    for name, unit, calls, needs_cores, factory in CELLS:
        if cores < needs_cores:
            reason = f"needs {needs_cores} cores, machine has {cores}"
            results[name] = {"value": None, "unit": unit, "reason": reason}
            continue
        call = factory(fixtures)
        try:
            results[name] = measure(call, 3 if smoke else calls, unit, floor)
        finally:
            getattr(call, "close", lambda: None)()
    return results


def run_cells(*, smoke: bool, floor: float) -> dict:
    """Run every cell in a child process with the workload children's
    environment; returns ``{cell: {"value", "unit", "n", "iqr", "min"}}``."""
    spec = json.dumps({"smoke": smoke, "floor": floor})
    proc = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "cells.py"), spec],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=LEDGER_DIR.parents[1],
        timeout=600,
    )
    for line in proc.stdout.splitlines():
        if line.startswith(CELL_MARKER):
            return json.loads(line[len(CELL_MARKER) :])
    raise RuntimeError(f"cells child exited with {proc.returncode} and no result")


if __name__ == "__main__":
    _spec = json.loads(sys.argv[1])
    print(CELL_MARKER + json.dumps(run_all(_spec["smoke"], _spec["floor"])), flush=True)
