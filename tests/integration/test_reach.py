"""The reach probe (``scripts/reach.py``) traces forked children too."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "reach.py"


def _reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_dist_run_records_worker_side_functions():
    """Only a forked dist worker serves a lease, and only the parent parses
    the command line: a tiny dist run records both."""
    reach = _reach()
    executed = reach.trace(
        [
            "-m repro run --method fedat --dataset sentiment140 --scale tiny --seed 1"
            " --rounds 8 --executor dist --num-workers 2"
        ]
    )
    entered = reach.entered(executed)
    assert "exec/dist/worker.py:_WorkerCore._serve_lease" in entered
    assert "cli.py:main" in entered
    assert "nn/plan.py:TrainingPlan.run_epochs" not in entered


def test_a_nested_function_owns_its_body():
    """A line of a nested function enters it, not the function around it."""
    reach = _reach()
    found = reach.functions()
    path, _, outer = found["nn/conv.py:_scatter_pairs"]
    _, _, inner = found["nn/conv.py:_scatter_pairs.<locals>.clip"]
    assert inner and not outer & inner
    assert reach.entered({(path, min(inner))}) == {"nn/conv.py:_scatter_pairs.<locals>.clip"}


_CALL_ORTHOGONAL = (
    "import os, threading\n"
    "import numpy as np\n"
    "from repro.nn.initializers import orthogonal\n"
    "\n"
    "def work():\n"
    "    orthogonal(np.random.default_rng(0), (2, 2))\n"
    "\n"
)


def test_os_exit_still_writes_the_record(tmp_path):
    """A process that leaves through ``os._exit`` (a dist worker does)
    skips atexit; what it ran is recorded all the same."""
    script = tmp_path / "exits.py"
    script.write_text(_CALL_ORTHOGONAL + "work()\nos._exit(0)\n")
    reach = _reach()
    assert "nn/initializers.py:orthogonal" in reach.entered(reach.trace([str(script)]))


def test_threads_started_later_are_traced(tmp_path):
    script = tmp_path / "threads.py"
    script.write_text(
        _CALL_ORTHOGONAL + "t = threading.Thread(target=work)\nt.start()\nt.join()\n"
    )
    reach = _reach()
    assert "nn/initializers.py:orthogonal" in reach.entered(reach.trace([str(script)]))
