"""Serial/dist equivalence regression harness.

The hard requirement that makes parallel client execution safe: for any
method, seed, and model, the cross-process executor (``dist``) must produce
**bit-identical** :class:`RunHistory` records to :class:`SerialExecutor` —
same accuracies, same losses, same byte meters, same virtual times. Tasks
carry explicit batch-schedule cursors and pre-sampled latencies, so local
training is a pure function of its inputs and executors are free to
schedule it anywhere.

Chaos mode: setting ``REPRO_FAULTS`` (e.g. ``crash:0.2+corrupt:0.1`` or
``drop:0.2+delay:0.3``) runs every non-serial side of this suite under
deterministic fault injection — workers crash, hang, drop their
connection, delay, or corrupt results in flight, the supervisor retries
and redispatches, and the histories must **still** be bit-identical to the
fault-free serial runs. CI's chaos matrix sets exactly this, once with
crash/corrupt and once with the network families (``drop``/``delay``).
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.baselines.asofed import ASOFed
from repro.baselines.fedasync import FedAsync
from repro.baselines.fedavg import FedAvg
from repro.core.fedat import FedAT
from repro.exec import ExecConfig
from repro.experiments.config import build_model_builder, knobs_read_by, route_config

_BUDGETS = {FedAT: 12, FedAvg: 4, FedAsync: 25, ASOFed: 25}

#: Fault spec injected into every non-serial run of this suite (chaos mode).
_FAULTS = os.environ.get("REPRO_FAULTS") or None


def _chaos_spec(executor):
    return None if executor == "serial" else _FAULTS


def _config(cls, seed, executor):
    chaos = {}
    spec = _chaos_spec(executor)
    if spec:
        # chunk_timeout bounds hang recovery and is harmless otherwise: a
        # spurious timeout redispatches a deterministic chunk, which cannot
        # change the history — only the wall clock.
        chaos = {"faults": spec, "chunk_timeout": 5.0, "chunk_retries": 8}
    flat = dict(
        clients_per_round=4,
        local_epochs=2,
        max_rounds=_BUDGETS[cls],
        eval_every=2,
        num_tiers=3,
        num_unstable=2,
        seed=seed,
        compression="polyline:4" if cls is FedAT else None,
        exec=ExecConfig(
            executor=executor, num_workers=0 if executor == "serial" else 2, **chaos
        ),
    )
    return route_config(cls.name, **knobs_read_by(cls.name, flat))


def _history(dataset, cls, seed, executor):
    system = cls(
        dataset, build_model_builder(dataset, "tiny"), _config(cls, seed, executor)
    )
    return system.run()


def _assert_identical(serial, dist):
    assert serial.method == dist.method
    assert len(serial.records) == len(dist.records)
    for s, p in zip(serial.records, dist.records):
        # dataclass equality is exact float equality — bit-identical or bust.
        assert dataclasses.asdict(s) == dataclasses.asdict(p)


@pytest.mark.parametrize("cls", [FedAT, FedAvg], ids=["fedat", "fedavg"])
@pytest.mark.parametrize("seed", [0, 1])
def test_dist_history_bit_identical(tiny_bow_dataset, cls, seed):
    """Scheduler + socket workers must reproduce the serial history bit for
    bit — under REPRO_FAULTS chaos (including the network-only drop/delay
    families) exactly as in the fault-free case."""
    serial = _history(tiny_bow_dataset, cls, seed, "serial")
    dist = _history(tiny_bow_dataset, cls, seed, "dist")
    _assert_identical(serial, dist)


@pytest.mark.parametrize("cls", [FedAsync, ASOFed], ids=["fedasync", "asofed"])
def test_dist_history_bit_identical_async(tiny_bow_dataset, cls):
    """The async methods' launch path (the initial cohort, then relaunches
    from several global versions flushed together as one multi-row
    dispatch, a lone one through the in-process fast path) must also be
    bit-identical across executors."""
    serial = _history(tiny_bow_dataset, cls, 0, "serial")
    dist = _history(tiny_bow_dataset, cls, 0, "dist")
    _assert_identical(serial, dist)


def test_dist_matches_on_image_cnn(tiny_image_dataset):
    """The conv stack exercises a different numeric path than logistic."""
    serial = _history(tiny_image_dataset, FedAT, 0, "serial")
    dist = _history(tiny_image_dataset, FedAT, 0, "dist")
    _assert_identical(serial, dist)


def test_dist_meters_match_serial(tiny_bow_dataset):
    """Byte meters accumulate identically (uplink, downlink, messages)."""
    a = FedAT(
        tiny_bow_dataset,
        build_model_builder(tiny_bow_dataset, "tiny"),
        _config(FedAT, 0, "serial"),
    )
    b = FedAT(
        tiny_bow_dataset,
        build_model_builder(tiny_bow_dataset, "tiny"),
        _config(FedAT, 0, "dist"),
    )
    a.run()
    b.run()
    assert a.meter.uplink_bytes == b.meter.uplink_bytes
    assert a.meter.downlink_bytes == b.meter.downlink_bytes
    assert a.meter.uplink_messages == b.meter.uplink_messages
    assert a.meter.downlink_messages == b.meter.downlink_messages
    np.testing.assert_array_equal(a.global_weights, b.global_weights)
    np.testing.assert_array_equal(a._epoch_cursor, b._epoch_cursor)



@pytest.mark.parametrize("cls", [FedAT, FedAsync], ids=["fedat", "fedasync"])
def test_reddit_model_bit_identical(tiny_reddit_dataset, cls):
    """Dropout and batch-norm carry nothing from one client round to the
    next, so the reddit model trains on the workers — no serial fallback
    and no warning, which this suite would raise — bit-identical to serial."""
    serial = _history(tiny_reddit_dataset, cls, 0, "serial")
    dist = _history(tiny_reddit_dataset, cls, 0, "dist")
    _assert_identical(serial, dist)
