"""Guard against reintroducing a switchable legacy twin.

``src/`` has one parameter layout (``Sequential`` always owns a
``FlatParameterStore``), one local-training loop (``TrainingPlan.run_epochs``),
one broadcast policy (shared memory, falling back on what the code observes)
and one staleness knob (``FLConfig.staleness``). The names below selected or
served the other side of each pair before they were deleted; a later change
must not quietly bring one back.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

REMOVED = re.compile(
    r"DEFAULT_FLAT_STORE|DEFAULT_TRAINING_PLAN|use_flat_store|shared_broadcast"
    r"|fedasync_staleness|fedasync_a\b|train_client\b|staleness_factor"
    # The pool's private supervisor (PR 19): attempts, budget, deadlines and
    # the whole-pool respawn as closures, and its own copy of the chunk
    # split. Both transports run on repro.exec.supervision now.
    r"|_run_chunks_supervised|retry_or_fail|respawn_and_retry"
    r"|def _chunk\b|ParallelExecutor\._chunk|exec\.dist\.leases|dist/leases"
)


def test_removed_switches_stay_removed():
    hits = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if REMOVED.search(line)
    ]
    assert not hits, "removed twin-selecting names are back in src/:\n" + "\n".join(hits)


def test_pattern_does_not_flag_the_surviving_knob():
    assert not REMOVED.search("fedasync_alpha: float = 0.6")
    assert REMOVED.search("fedasync_a: float = 0.5")
    assert not REMOVED.search("def _chunk_results(chunk):")
    assert REMOVED.search("    def _chunk(tasks, n):")


def test_one_lease_state_machine():
    """The second supervisor's module stays deleted, and the things it used
    to duplicate each have one home under ``exec/``."""
    exec_dir = SRC / "repro" / "exec"
    assert not (exec_dir / "dist" / "leases.py").exists()
    sources = {p: p.read_text() for p in sorted(exec_dir.rglob("*.py"))}

    def homes(pattern):
        return [p.name for p, text in sources.items() for _ in re.finditer(pattern, text)]

    assert homes(r"ExecutorFaultError\(\n") == ["supervision.py"]
    assert homes(r"warnings\.warn\(") == ["supervision.py"] * 2  # fallback + degrade
    assert homes(r'falling back to "\s+"serial execution') == ["supervision.py"]
    assert homes(r"np\.linspace\(") == ["supervision.py"]  # the chunk splitter
    assert homes(r"min_dispatch = ") == ["supervision.py"]
    assert homes(r"= 1 \+ \w*retr\w+") == ["supervision.py"]  # the attempt budget
    assert homes(r"chunk_checksum\(results\) !=") == ["supervision.py"]
