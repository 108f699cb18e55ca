"""Fault-injection layer: determinism, recovery, and bit-identity under chaos.

The contract mirrors the serial/dist equivalence harness: injected
worker crashes, hangs, and in-transit corruption may cost retries and
respawns, but after recovery the :class:`RunHistory` must be bit-identical
to the fault-free serial run — the infrastructure fault layer is invisible
to the simulation.
"""

import dataclasses
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.fedavg import FedAvg
from repro.core.config import FLConfig
from repro.core.fedat import FedAT
from repro.exec import ExecConfig
from repro.exec.faults import (
    ExecutorFaultError,
    FaultPlan,
    FaultSpec,
    chunk_checksum,
    corrupt_results,
    parse_faults,
)
from repro.experiments.config import build_model_builder, knobs_read_by, route_config

# --------------------------------------------------------------------- #
# Spec grammar
# --------------------------------------------------------------------- #
def test_parse_faults_grammar():
    assert parse_faults(None) is None
    assert parse_faults("") is None
    assert parse_faults("none") is None
    assert parse_faults("off") is None
    assert parse_faults("crash:0.2") == FaultSpec(crash=0.2)
    assert parse_faults("crash:0.2+corrupt:0.1") == FaultSpec(crash=0.2, corrupt=0.1)
    assert parse_faults("hang:1") == FaultSpec(hang=1.0)
    assert parse_faults("drop:0.3+delay:0.5") == FaultSpec(drop=0.3, delay=0.5)


@pytest.mark.parametrize(
    "bad",
    [
        "crash",  # missing probability
        "crash:",  # empty probability
        "crash:x",  # non-numeric
        "crash:1.5",  # out of range
        "crash:-0.1",  # out of range
        "oom:0.2",  # unknown family
        "crash:0.1+crash:0.2",  # duplicate family
        "crash:0.1++hang:0.2",  # empty atom
    ],
)
def test_parse_faults_rejects(bad):
    with pytest.raises(ValueError):
        parse_faults(bad)


def test_hang_faults_require_timeout_in_config():
    with pytest.raises(ValueError, match="chunk_timeout"):
        ExecConfig(executor="dist", faults="hang:0.5")
    ExecConfig(executor="dist", faults="hang:0.5", chunk_timeout=2.0)


@pytest.mark.parametrize(
    "spec", ["crash:0.5", "hang:0.5", "corrupt:0.5", "drop:0.5", "delay:0.5", "crash:0+drop:0.2"]
)
def test_injected_faults_require_a_cross_process_executor(spec):
    """Every family faults the cross-process executor's workers, chunks or
    connections; a serial run has none, so it refuses any family with a
    probability above zero and names ``dist``, instead of injecting
    nothing silently."""
    with pytest.raises(ValueError, match="require executor 'dist'"):
        ExecConfig(executor="serial", faults=spec)
    ExecConfig(executor="dist", faults=spec, chunk_timeout=2.0)  # valid


def test_an_all_zero_fault_spec_is_accepted_by_every_executor():
    for executor in ("serial", "dist"):
        ExecConfig(executor=executor, faults="crash:0+hang:0+corrupt:0+drop:0+delay:0")


# --------------------------------------------------------------------- #
# Schedule determinism
# --------------------------------------------------------------------- #
@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    keys=st.lists(
        st.tuples(st.integers(0, 500), st.integers(0, 32), st.integers(0, 8)),
        min_size=1,
        max_size=20,
    ),
    crash=st.floats(0.0, 1.0),
    corrupt=st.floats(0.0, 1.0),
)
def test_fault_schedule_is_seed_deterministic(seed, keys, crash, corrupt):
    """Same seed + spec → identical schedule, in any query order."""
    spec = FaultSpec(crash=crash, corrupt=corrupt)
    a = FaultPlan(spec, seed=seed)
    b = FaultPlan(spec, seed=seed)
    forward = [a.chunk_faults(*k) for k in keys]
    backward = [b.chunk_faults(*k) for k in reversed(keys)]
    assert forward == list(reversed(backward))


@settings(max_examples=30, deadline=None)
@given(
    key=st.tuples(st.integers(0, 500), st.integers(0, 32), st.integers(0, 8)),
    seed=st.integers(0, 2**31 - 1),
)
def test_fault_probability_extremes(key, seed):
    never = FaultPlan(FaultSpec(), seed=seed)
    always = FaultPlan(FaultSpec(crash=1.0, hang=1.0, corrupt=1.0), seed=seed)
    assert never.chunk_faults(*key) == ()
    assert always.chunk_faults(*key) == ("crash", "hang", "corrupt")


def test_fault_schedules_differ_across_seeds():
    spec = FaultSpec(crash=0.5)
    keys = [(d, c, 0) for d in range(40) for c in range(2)]
    a = [FaultPlan(spec, seed=0).chunk_faults(*k) for k in keys]
    b = [FaultPlan(spec, seed=1).chunk_faults(*k) for k in keys]
    assert a != b  # 2^-80 false-failure odds


# --------------------------------------------------------------------- #
# Result integrity
# --------------------------------------------------------------------- #
def test_corruption_changes_checksum(tiny_bow_dataset):
    system = FedAvg(
        tiny_bow_dataset,
        build_model_builder(tiny_bow_dataset, "tiny"),
        FLConfig(clients_per_round=3, local_epochs=1, max_rounds=1, num_unstable=0),
    )
    tasks = [system.make_task(cid, 1.0, epochs=1, lam=0.0) for cid in (0, 1, 2)]
    results = system.train_cohort(tasks, system.global_weights)
    system.executor.close()
    before = chunk_checksum(results)
    assert chunk_checksum(results) == before  # stable across calls
    corrupt_results(results)
    assert chunk_checksum(results) != before


# --------------------------------------------------------------------- #
# End-to-end bit-identity under injected faults
# --------------------------------------------------------------------- #
_BUDGETS = {FedAT: 8, FedAvg: 4}


def _config(cls, executor, **exec_kw):
    flat = dict(
        clients_per_round=4,
        local_epochs=1,
        max_rounds=_BUDGETS[cls],
        eval_every=2,
        num_tiers=3,
        num_unstable=2,
        seed=0,
        compression="polyline:4" if cls is FedAT else None,
        exec=ExecConfig(
            executor=executor, num_workers=2 if executor == "dist" else 0, **exec_kw
        ),
    )
    return route_config(cls.name, **knobs_read_by(cls.name, flat))


def _history(dataset, cls, executor, **kw):
    system = cls(dataset, build_model_builder(dataset, "tiny"), _config(cls, executor, **kw))
    return system.run()


def _chaos_history(dataset, cls, **kw):
    """A fault-injected dist run. A chunk whose attempts all draw a
    fault exhausts its retry budget and degrades (which ones do is fixed by
    the fault schedule, not by timing) — each one must be loud (one
    RuntimeWarning per counted chunk) and nothing else may warn."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        history = _history(dataset, cls, "dist", **kw)
    messages = [str(w.message) for w in caught]
    assert all("degrading to in-process" in m for m in messages), messages
    assert len(messages) == history.meta["faults"]["degraded_chunks"]
    return history


def _assert_identical(a, b):
    assert len(a.records) == len(b.records)
    for s, p in zip(a.records, b.records):
        assert dataclasses.asdict(s) == dataclasses.asdict(p)


@pytest.mark.parametrize("cls", [FedAvg, FedAT], ids=["fedavg", "fedat"])
def test_history_bit_identical_under_crash_and_corruption(tiny_bow_dataset, cls):
    serial = _history(tiny_bow_dataset, cls, "serial")
    chaos = _chaos_history(tiny_bow_dataset, cls, faults="crash:0.4+corrupt:0.4")
    _assert_identical(serial, chaos)
    counters = chaos.meta["faults"]
    assert counters["retries"] > 0
    assert counters["worker_deaths"] + counters["corrupt_detected"] > 0


def test_history_bit_identical_under_hangs(tiny_bow_dataset):
    serial = _history(tiny_bow_dataset, FedAvg, "serial")
    chaos = _chaos_history(tiny_bow_dataset, FedAvg, faults="hang:0.5", chunk_timeout=1.5)
    _assert_identical(serial, chaos)
    assert chaos.meta["faults"]["timeouts"] > 0
    assert chaos.meta["faults"]["respawns"] > 0


def test_null_fault_plan_changes_nothing(tiny_bow_dataset):
    """A fault plan with zero probabilities adds checksums and fault draws
    to the (always supervised) dispatch and nothing else: same history, all
    recovery counters zero."""
    plain = _history(tiny_bow_dataset, FedAvg, "dist")
    nulled = _history(tiny_bow_dataset, FedAvg, "dist", faults="crash:0")
    _assert_identical(plain, nulled)
    assert plain.meta["faults"] == nulled.meta["faults"]
    assert all(v == 0 for v in nulled.meta["faults"].values())


def test_degrade_finishes_cohort_in_process(tiny_bow_dataset):
    """crash:1.0 with no retries: every dispatched chunk dies, and the
    degradation path must still produce the fault-free history."""
    serial = _history(tiny_bow_dataset, FedAvg, "serial")
    with pytest.warns(RuntimeWarning, match="degrading to in-process"):
        chaos = _history(
            tiny_bow_dataset,
            FedAvg,
            "dist",
            faults="crash:1.0",
            chunk_retries=0,
        )
    _assert_identical(serial, chaos)
    assert chaos.meta["faults"]["degraded_chunks"] > 0


def test_exhausted_budget_raises_actionable_error(tiny_bow_dataset):
    system = FedAvg(
        tiny_bow_dataset,
        build_model_builder(tiny_bow_dataset, "tiny"),
        _config(
            FedAvg,
            "dist",
            faults="crash:1.0",
            chunk_retries=1,
            fault_degrade=False,
        ),
    )
    with pytest.raises(ExecutorFaultError) as excinfo:
        system.run()
    err = excinfo.value
    assert err.executor == "dist"
    assert err.num_workers == 2
    assert err.attempts == 2  # 1 + chunk_retries
    assert "chunk_retries" in str(err) and "fault_degrade" in str(err)
