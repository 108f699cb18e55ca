"""Fault-tolerance overhead: what the fault layer costs on top of dispatch.

Every cross-process dispatch is supervised (worker sockets, worker
sentinels, chunk deadlines — one path; ``ParallelExecutor`` is another
name for ``DistExecutor``). Three ``ParallelExecutor`` cells over the same
cohort, all asserted bit-identical to the serial baseline:

- ``plain``      — no fault plan, no timeout: supervision alone.
- ``checksums``  — fault layer engaged with null probabilities: adds the
  per-chunk fault draws and crc32 checksums, and nothing ever fires.
- ``chaos``      — ``crash:0.2+corrupt:0.2``: real recovery work (worker
  respawns, redispatch) on top.

plus ``dist-chaos``, the same crash/corrupt schedule built as
:class:`DistExecutor` — the same code under its own name.

Run with ``python -m pytest benchmarks/bench_faults.py -q -s``;
``REPRO_SMOKE=1`` shrinks the federation for CI.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.data.datasets import make_dataset
from repro.exec import (
    CohortTask,
    DistExecutor,
    OptimizerSpec,
    ParallelExecutor,
    SerialExecutor,
)
from repro.exec.faults import FaultPlan, parse_faults
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.zoo import build_cnn
from repro.sim.client import SimClient

SMOKE = os.environ.get("REPRO_SMOKE", "0") == "1"
NUM_CLIENTS = 24 if SMOKE else 200
SAMPLES_PER_CLIENT = 16 if SMOKE else 32
WORKERS = 2 if SMOKE else 4
COHORTS = 2 if SMOKE else 5  # dispatches per cell; chaos draws vary per dispatch


def _setup():
    rng = np.random.default_rng(0)
    dataset = make_dataset(
        "cifar10",
        rng,
        num_clients=NUM_CLIENTS,
        samples_per_client=SAMPLES_PER_CLIENT,
        image_shape=(8, 8, 3),
        classes_per_client=2,
    )
    model = build_cnn(
        (8, 8, 3), dataset.num_classes,
        rng=np.random.default_rng(1), filters=(6, 12, 12), dense_units=24,
    )
    clients = [SimClient(c, None, batch_size=10, seed=0) for c in dataset.clients]
    tasks = [
        CohortTask(client_id=i, epochs=1, lam=0.4, latency=1.0, start_epoch=0)
        for i in range(NUM_CLIENTS)
    ]
    return model, clients, tasks


def _fingerprint(results):
    return [(r.client_id, r.train_loss, r.weights.tobytes()) for r in results]


def test_fault_layer_overhead(artifact):
    model, clients, tasks = _setup()
    loss, opt = SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.005)
    start = model.get_flat_weights()

    serial = SerialExecutor(model.clone(), clients, loss, opt)
    reference = _fingerprint(serial.run_cohort(start, tasks))

    cells = [
        ("plain", ParallelExecutor, None, None),
        ("checksums", ParallelExecutor, FaultPlan(parse_faults("crash:0"), seed=0), None),
        ("chaos", ParallelExecutor,
         FaultPlan(parse_faults("crash:0.2+corrupt:0.2"), seed=0), 60.0),
        ("dist-chaos", DistExecutor,
         FaultPlan(parse_faults("crash:0.2+corrupt:0.2"), seed=0), 60.0),
    ]
    rows = []
    for name, cls, plan, timeout in cells:
        with cls(
            model, clients, loss, opt,
            num_workers=WORKERS, faults=plan, chunk_timeout=timeout,
        ) as executor:
            # Warm the pool outside timing (>= min_dispatch so it engages).
            executor.run_cohort(start, tasks[: max(WORKERS, executor.min_dispatch)])
            t0 = time.perf_counter()
            for _ in range(COHORTS):
                results = executor.run_cohort(start, tasks)
            dt = (time.perf_counter() - t0) / COHORTS
            counters = dict(executor.fault_counters)
        assert _fingerprint(results) == reference, f"{name} diverges from serial"
        rows.append((name, dt, len(tasks) / dt, counters))

    base = rows[0][1]
    print(f"\nfault-layer overhead — {NUM_CLIENTS} clients, {WORKERS} workers, "
          f"{COHORTS} cohorts/cell{' [smoke]' if SMOKE else ''}")
    print(f"{'cell':<12}{'wall (s)':>10}{'clients/s':>12}{'vs plain':>11}  recovery")
    for name, dt, rate, counters in rows:
        active = {k: v for k, v in counters.items() if v}
        print(f"{name:<12}{dt:>10.3f}{rate:>12.1f}{dt / base:>10.2f}x  {active or '-'}")

    for chaos_counters in (rows[2][3], rows[3][3]):
        assert chaos_counters["retries"] > 0, "chaos cell never exercised recovery"
    artifact(
        "fault_overhead",
        {
            "num_clients": NUM_CLIENTS,
            "workers": WORKERS,
            "smoke": SMOKE,
            "rows": [
                {"cell": n, "wall_s": dt, "clients_per_s": r, "counters": c}
                for n, dt, r, c in rows
            ],
        },
    )
