"""Unit tests for the client-execution engine (repro.exec)."""

import dataclasses
import os

import numpy as np
import pytest

from repro.exec import (
    CohortTask,
    DistExecutor,
    ExecConfig,
    OptimizerSpec,
    SerialExecutor,
    make_executor,
    parse_faults,
)
from repro.exec.dist.executor import DEFAULT_CHUNKS
from repro.exec.supervision import chunk_tasks
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optimizers import SGD, Adam
from repro.nn.zoo import build_logistic
from repro.sim.client import SimClient


def _clients(dataset, batch_size=10, seed=0):
    return [
        SimClient(c, None, batch_size=batch_size, seed=seed) for c in dataset.clients
    ]


def _model(dataset, seed=0):
    return build_logistic(
        dataset.input_shape[0], dataset.num_classes, rng=np.random.default_rng(seed)
    )


def _cohort(n, epochs=1, lam=0.0):
    return [
        CohortTask(client_id=i, epochs=epochs, lam=lam, latency=1.0 + i, start_epoch=0)
        for i in range(n)
    ]


class TestCohortTask:
    def test_validation(self):
        with pytest.raises(ValueError):
            CohortTask(0, epochs=0, lam=0.0, latency=1.0, start_epoch=0)
        with pytest.raises(ValueError):
            CohortTask(0, epochs=1, lam=0.0, latency=1.0, start_epoch=-1)


class TestOptimizerSpec:
    def test_builds_fresh_instances(self):
        spec = OptimizerSpec("adam", 0.01)
        a, b = spec.build(), spec.build()
        assert isinstance(a, Adam) and a is not b
        assert isinstance(OptimizerSpec("sgd", 0.1).build(), SGD)

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerSpec("rmsprop", 0.01)
        with pytest.raises(ValueError):
            OptimizerSpec("adam", 0.0)


def _make(dataset, seed=0, **settings):
    return make_executor(
        ExecConfig(**settings),
        model=_model(dataset),
        clients=_clients(dataset),
        loss=SoftmaxCrossEntropy(),
        optimizer=OptimizerSpec("sgd", 0.1),
        seed=seed,
    )


class TestFactory:
    def test_backends(self, tiny_bow_dataset):
        assert isinstance(_make(tiny_bow_dataset), SerialExecutor)
        ex = _make(tiny_bow_dataset, executor="dist", num_workers=2)
        try:
            assert type(ex) is DistExecutor
            assert ex.name == "dist" and ex.num_workers == ex.num_chunks == 2
            assert ex.config == ExecConfig(executor="dist", num_workers=2)
        finally:
            ex.close()

    def test_zero_workers_resolves_to_cpu_count(self, tiny_bow_dataset):
        """A local worker per CPU, and a fixed chunk count, so the chunk
        layout (which keys the fault schedule) never follows the host."""
        ex = _make(tiny_bow_dataset, executor="dist", num_workers=0)
        try:
            assert len(ex.worker_processes) == (os.cpu_count() or 1)
            assert ex.num_chunks == DEFAULT_CHUNKS == 4
        finally:
            ex.close()

    def test_unknown_name_lists_registered(self, tiny_bow_dataset):
        with pytest.raises(ValueError, match="serial"):
            _make(tiny_bow_dataset, executor="gpu")

    def test_a_hand_built_executor_is_dist(self, tiny_bow_dataset):
        """``DistExecutor`` takes no other name: ``executor=`` is its own."""
        with pytest.raises(TypeError, match="executor"):
            DistExecutor(
                _model(tiny_bow_dataset),
                _clients(tiny_bow_dataset),
                SoftmaxCrossEntropy(),
                OptimizerSpec("sgd", 0.1),
                executor="serial",
            )

    def test_fault_plan_is_built_from_the_config(self, tiny_bow_dataset):
        """The factory is the only reader of the execution settings: it
        seeds the fault plan with the run's seed and hands the supervision
        knobs to the cross-process backends."""
        ex = _make(
            tiny_bow_dataset,
            seed=7,
            executor="dist",
            num_workers=2,
            faults="crash:0.25",
            chunk_timeout=4.0,
            chunk_retries=5,
            fault_degrade=False,
        )
        try:
            assert ex.faults.spec == parse_faults("crash:0.25")
            assert ex.faults.seed == 7
            assert ex.config == ExecConfig(
                executor="dist",
                num_workers=2,
                chunk_timeout=4.0,
                chunk_retries=5,
                fault_degrade=False,
            )
        finally:
            ex.close()
        plain = _make(tiny_bow_dataset, executor="dist", num_workers=2)
        try:
            assert plain.faults is None
        finally:
            plain.close()


class TestSerialExecutor:
    def test_results_in_task_order(self, tiny_bow_dataset):
        ex = SerialExecutor(
            _model(tiny_bow_dataset),
            _clients(tiny_bow_dataset),
            SoftmaxCrossEntropy(),
            OptimizerSpec("sgd", 0.1),
        )
        start = ex.model.get_flat_weights()
        results = ex.run_cohort(start, _cohort(5))
        assert [r.client_id for r in results] == [0, 1, 2, 3, 4]
        assert all(np.all(np.isfinite(r.weights)) for r in results)
        assert results[0].latency == 1.0

    def test_empty_cohort(self, tiny_bow_dataset):
        ex = SerialExecutor(
            _model(tiny_bow_dataset),
            _clients(tiny_bow_dataset),
            SoftmaxCrossEntropy(),
            OptimizerSpec("sgd", 0.1),
        )
        assert ex.run_cohort(ex.model.get_flat_weights(), []) == []


class TestDistCohorts:
    @pytest.mark.parametrize("num_workers", [1, 3, 4])
    def test_bitwise_matches_serial(self, tiny_bow_dataset, num_workers):
        loss, spec = SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.005)
        model = _model(tiny_bow_dataset)
        start = model.get_flat_weights()
        tasks = _cohort(8, epochs=2, lam=0.4)
        serial = SerialExecutor(
            model, _clients(tiny_bow_dataset), loss, spec
        ).run_cohort(start, tasks)
        ex = DistExecutor(
            _model(tiny_bow_dataset),
            _clients(tiny_bow_dataset),
            loss,
            spec,
            num_workers=num_workers,
        )
        try:
            dist = ex.run_cohort(start, tasks)
        finally:
            ex.close()
        assert len(serial) == len(dist)
        for s, p in zip(serial, dist):
            assert s.client_id == p.client_id
            assert s.n_samples == p.n_samples
            assert s.train_loss == p.train_loss  # bitwise, not approx
            np.testing.assert_array_equal(s.weights, p.weights)

    def test_singleton_cohort_runs_in_process_and_matches(self, tiny_bow_dataset):
        """Cohorts below min_dispatch skip the workers but stay bit-identical."""
        loss, spec = SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.005)
        model = _model(tiny_bow_dataset)
        start = model.get_flat_weights()
        task = _cohort(1, epochs=2, lam=0.4)
        serial = SerialExecutor(
            model, _clients(tiny_bow_dataset), loss, spec
        ).run_cohort(start, task)
        ex = DistExecutor(
            _model(tiny_bow_dataset), _clients(tiny_bow_dataset), loss, spec,
            num_workers=2,
        )
        try:
            local = ex.run_cohort(start, task)
            assert ex._dispatch_seq == 0  # never dispatched to a worker
        finally:
            ex.close()
        np.testing.assert_array_equal(serial[0].weights, local[0].weights)
        assert serial[0].train_loss == local[0].train_loss

    def test_chunking_preserves_order(self):
        tasks = _cohort(7)
        chunks = chunk_tasks(tasks, 3)
        assert [t.client_id for c in chunks for t in c] == list(range(7))
        assert len(chunks) == 3
        # More workers than tasks: no empty chunks.
        assert all(chunk_tasks(tasks[:2], 5))

    def test_close_idempotent(self, tiny_bow_dataset):
        ex = DistExecutor(
            _model(tiny_bow_dataset),
            _clients(tiny_bow_dataset),
            SoftmaxCrossEntropy(),
            OptimizerSpec("sgd", 0.1),
            num_workers=2,
        )
        ex.run_cohort(_model(tiny_bow_dataset).get_flat_weights(), _cohort(2))
        ex.close()
        ex.close()
        assert ex.worker_processes == []


@pytest.mark.parametrize("cohort", [0, 1, 4], ids=["empty", "singleton", "dispatched"])
def test_closed_executor_refuses_cohorts(tiny_bow_dataset, cohort):
    """After ``close()`` there are no workers, and ``run_cohort`` says so
    instead of quietly forking a fresh set nobody will close or dying on a
    closed descriptor inside ``connection.wait`` (each happened once)."""
    ex = _make(tiny_bow_dataset, executor="dist", num_workers=2)
    start = _model(tiny_bow_dataset).get_flat_weights()
    try:
        assert len(ex.run_cohort(start, _cohort(4))) == 4
    finally:
        ex.close()
    with pytest.raises(RuntimeError, match="executor 'dist' is closed"):
        ex.run_cohort(start, _cohort(cohort))
    ex.close()  # still idempotent
    assert ex.worker_processes == []


def _fingerprint(results):
    return [
        (r.client_id, r.train_loss, r.n_samples, r.latency, r.weights.tobytes()) for r in results
    ]


def test_a_stack_of_start_rows_is_bit_identical_to_serial(tiny_bow_dataset):
    """Tasks from several rows of an ``(S, P)`` stack, rows spanning chunks,
    over three dispatches whose stacks differ in height: every chunk message
    carries its dispatch's stack, and each task trains from its row."""
    serial = _make(tiny_bow_dataset)
    ex = _make(tiny_bow_dataset, executor="dist", num_workers=2)
    start = _model(tiny_bow_dataset).get_flat_weights()
    starts = start + np.random.default_rng(1).normal(0, 0.1, size=(3, start.size))
    one_row = _cohort(8, lam=0.4)
    rows = [dataclasses.replace(t, row=(2, 0, 1)[t.client_id % 3]) for t in one_row]
    try:
        for stack, tasks in ((starts, rows), (starts[:1], one_row), (starts, rows)):
            assert _fingerprint(ex.run_cohort(stack, tasks)) == _fingerprint(
                serial.run_cohort(stack, tasks)
            )
    finally:
        ex.close()


class TestReplicas:
    def test_model_clone_is_independent(self, tiny_bow_dataset):
        model = _model(tiny_bow_dataset)
        clone = model.clone()
        clone.params[0].data += 1.0
        assert not np.allclose(
            model.get_flat_weights(), clone.get_flat_weights()
        )

    def test_model_clone_rebuilds_from_flat_vector(self, tiny_bow_dataset):
        model = _model(tiny_bow_dataset)
        target = model.get_flat_weights() * 2.0
        clone = model.clone(target)
        np.testing.assert_array_equal(clone.get_flat_weights(), target)
        with pytest.raises(ValueError):
            model.clone(np.zeros(3))
