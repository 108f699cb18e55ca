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
