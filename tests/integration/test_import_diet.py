"""A serial run loads only what it runs: no socket executor, no sweep, no
``numpy.ma`` (NumPy 2.4's plain ``np.unique`` imports it on first call), no
fault injection, no baseline method it does not run and no layer its model
does not use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.utils.arrays import sorted_unique

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules a serial FedAT system without faults must not load, building or
#: running; a name ending in "." stands for every module under it.
NOT_LOADED = (
    "socket",
    "selectors",
    "multiprocessing",
    "numpy.ma",
    "repro.exec.dist",
    "repro.exec.parallel",
    "repro.exec.supervision",
    "repro.exec.faults",
    "repro.experiments.sweep",
    "repro.baselines",
    "repro.baselines.",
    "repro.nn.recurrent",
)
#: Layers a logistic model does not use.
NOT_LOADED_BY_LOGISTIC = ("repro.nn.conv", "repro.nn.pooling")

_BUILD_SERIAL_SYSTEMS = """
import json, sys
from repro.experiments.config import build_model_builder, make_fl_config
from repro.experiments.runner import ALGORITHMS, build_federation, build_virtual_population

virtual = build_virtual_population("sentiment140", 30_000, "tiny", 0)
config = make_fl_config(
    "fedat", "tiny", 0, scenario="churn:0.2+arrival:0.1+bwdrift:2", retier_interval=4,
    eval_clients=50, max_rounds=6,
)
system = ALGORITHMS["fedat"](virtual, build_model_builder(virtual, "tiny"), config)
system.run()
print(json.dumps(sorted(sys.modules)))
eager = build_federation("cifar10", "tiny", 0)
ALGORITHMS["fedat"](eager, build_model_builder(eager, "tiny"), make_fl_config("fedat", "tiny", 0))
print(json.dumps(sorted(sys.modules)))
"""


def _unwanted(loaded: set[str], names) -> list[str]:
    return sorted(
        m for m in loaded if any(m.startswith(n) if n.endswith(".") else m == n for n in names)
    )


def test_a_serial_run_loads_no_socket_executor_sweep_or_masked_arrays():
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", _BUILD_SERIAL_SYSTEMS],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    virtual_run, both = (set(json.loads(line)) for line in out.stdout.splitlines()[-2:])
    assert "repro.exec.serial" in virtual_run and "repro.scenario.engine" in virtual_run
    assert "repro.nn.conv" in both and "repro.nn.pooling" in both  # the CNN's layers
    assert _unwanted(virtual_run, NOT_LOADED + NOT_LOADED_BY_LOGISTIC) == []
    assert _unwanted(both, NOT_LOADED) == []


def test_lazy_exports_resolve_to_their_homes():
    import repro.baselines
    import repro.exec
    import repro.nn
    from repro.baselines.tifl import TiFL
    from repro.exec.faults import FaultPlan, parse_faults
    from repro.experiments.config import ALGORITHMS
    from repro.nn.recurrent import LSTM

    assert repro.nn.LSTM is LSTM and repro.exec.FaultPlan is FaultPlan
    assert repro.exec.parse_faults is parse_faults and repro.baselines.TiFL is TiFL
    assert ALGORITHMS["tifl"] is TiFL and "tifl" in ALGORITHMS and "nosuch" not in ALGORITHMS
    assert list(ALGORITHMS) == ["fedat", "fedavg", "fedprox", "tifl", "fedasync", "asofed"]
    for module in (repro.nn, repro.exec, repro.baselines):
        with pytest.raises(AttributeError):
            module.NoSuchName
    with pytest.raises(KeyError):
        ALGORITHMS["nosuch"]


def test_the_socket_executor_and_sweep_still_import_by_name():
    from repro.exec import DistExecutor, ParallelExecutor
    from repro.exec.dist import DistExecutor as home
    from repro.experiments import SweepRunner
    from repro.experiments.sweep import SweepRunner as sweep_home

    assert DistExecutor is ParallelExecutor is home  # the perf ledger's name for it
    assert SweepRunner is sweep_home
    with pytest.raises(AttributeError):
        import repro.exec

        repro.exec.NoSuchExecutor


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
def test_sorted_unique_is_np_unique(dtype):
    rng = np.random.default_rng(0)
    for shape in [(0,), (1,), (50,), (6, 7)]:
        values = rng.integers(-5, 5, size=shape).astype(dtype)
        got, want = sorted_unique(values), np.unique(values)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
