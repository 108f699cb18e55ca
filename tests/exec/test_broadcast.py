"""Shared-memory cohort broadcast: correctness and fallback parity.

The parallel executor publishes each round's start weights through one
shared-memory segment instead of pickling the vector into every pool
chunk. Workers copy out of the segment into their local stores, so the
broadcast mechanism must be *unobservable*: shared-memory dispatch,
pickled dispatch, and serial execution all produce bit-identical results.
"""

import dataclasses

import numpy as np
import pytest

from repro.data.datasets import make_dataset
from repro.exec import CohortTask, OptimizerSpec, ParallelExecutor, SerialExecutor
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.zoo import build_mlp
from repro.sim.client import SimClient


@pytest.fixture
def setup(tiny_bow_dataset):
    ds = tiny_bow_dataset
    model = build_mlp(
        ds.input_shape[0], ds.num_classes, rng=np.random.default_rng(5)
    )
    clients = [SimClient(c, None, batch_size=10, seed=0) for c in ds.clients]
    tasks = [
        CohortTask(client_id=i, epochs=1, lam=0.4, latency=1.0, start_epoch=0)
        for i in range(ds.num_clients)
    ]
    return model, clients, tasks


def _fingerprint(results):
    return [(r.client_id, r.train_loss, r.weights.tobytes()) for r in results]


def test_shared_memory_matches_serial(setup):
    model, clients, tasks = setup
    loss, opt = SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.005)
    start = model.get_flat_weights()
    reference = _fingerprint(
        SerialExecutor(model.clone(), clients, loss, opt).run_cohort(start, tasks)
    )
    with ParallelExecutor(model, clients, loss, opt, num_workers=2) as shm_ex:
        shm_results = shm_ex.run_cohort(start, tasks)
        assert shm_ex.shm_fallback_reason is None
        assert shm_ex._shm is not None  # the broadcast really used shm
    assert _fingerprint(shm_results) == reference


def test_segment_is_reused_across_rounds(setup):
    model, clients, tasks = setup
    loss, opt = SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.005)
    with ParallelExecutor(model, clients, loss, opt, num_workers=2) as ex:
        first = ex.run_cohort(model.get_flat_weights(), tasks)
        name = ex._shm.name
        start2 = first[0].weights
        second = ex.run_cohort(start2, tasks)
        assert ex._shm.name == name  # no per-round segment churn
        reference = SerialExecutor(
            model.clone(), clients, loss, opt
        ).run_cohort(start2, tasks)
        assert _fingerprint(second) == _fingerprint(reference)


def test_segment_released_on_close(setup):
    model, clients, tasks = setup
    loss, opt = SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.005)
    ex = ParallelExecutor(model, clients, loss, opt, num_workers=2)
    ex.run_cohort(model.get_flat_weights(), tasks)
    name = ex._shm.name
    ex.close()
    assert ex._shm is None
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_creation_failure_falls_back_to_pickle(setup, monkeypatch):
    """A platform without usable shared memory degrades, not crashes: the
    weights travel pickled in every chunk message and results match."""
    import multiprocessing.shared_memory as shm_mod

    def boom(*args, **kwargs):
        raise OSError("no /dev/shm in this environment")

    monkeypatch.setattr(shm_mod, "SharedMemory", boom)
    model, clients, tasks = setup
    loss, opt = SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.005)
    start = model.get_flat_weights()
    reference = _fingerprint(
        SerialExecutor(model.clone(), clients, loss, opt).run_cohort(start, tasks)
    )
    with ParallelExecutor(model, clients, loss, opt, num_workers=2) as ex:
        results = ex.run_cohort(start, tasks)
        assert "no /dev/shm" in ex.shm_fallback_reason
        assert ex._shm is None
        assert ex._broadcast_header(start)[0] == "pickle"
    assert _fingerprint(results) == reference


def test_segment_grows_for_a_taller_stack_of_start_rows(setup):
    """A dispatch whose stack outgrows the segment gets a new one, which
    later, shorter stacks reuse; each task trains from its own row."""
    model, clients, tasks = setup
    loss, opt = SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.005)
    start = model.get_flat_weights()
    starts = start + np.random.default_rng(2).normal(0, 0.1, size=(3, start.size))
    rows = [dataclasses.replace(t, row=t.client_id % 3) for t in tasks]
    serial = SerialExecutor(model.clone(), clients, loss, opt)
    with ParallelExecutor(model, clients, loss, opt, num_workers=2) as ex:
        ex.run_cohort(start, tasks)
        one_row = ex._shm.name
        tall = ex.run_cohort(starts, rows)
        assert ex._shm.name != one_row and ex._shm.size >= starts.nbytes
        grown = ex._shm.name
        short = ex.run_cohort(starts[:2], [dataclasses.replace(t, row=t.row % 2) for t in rows])
        assert ex._shm.name == grown
    assert _fingerprint(tall) == _fingerprint(serial.run_cohort(starts, rows))
    assert _fingerprint(short) == _fingerprint(
        serial.run_cohort(starts[:2], [dataclasses.replace(t, row=t.row % 2) for t in rows])
    )
