"""time/bytes-to-accuracy and table formatting tests."""

from repro.metrics.history import EvalRecord, RunHistory
from repro.metrics.report import format_table, time_to_accuracy


def _history():
    h = RunHistory("m", "d")
    accs = [0.1, 0.3, 0.55, 0.7]
    for i, a in enumerate(accs):
        h.append(
            EvalRecord(
                time=10.0 * i, round=i, accuracy=a, loss=1.0,
                accuracy_variance=0.0,
                uplink_bytes=1000 * i, downlink_bytes=500 * i,
            )
        )
    return h


def test_time_to_accuracy_first_crossing():
    h = _history()
    assert time_to_accuracy(h, 0.5) == 20.0
    assert time_to_accuracy(h, 0.1) == 0.0


def test_time_to_accuracy_unreachable():
    assert time_to_accuracy(_history(), 0.99) is None


def test_bytes_to_accuracy():
    h = _history()
    assert time_to_accuracy(h, 0.5, RunHistory.total_bytes) == 3000.0
    assert time_to_accuracy(h, 0.99, RunHistory.total_bytes) is None


def test_time_to_accuracy_counts_a_tie():
    assert time_to_accuracy(_history(), 0.55) == 20.0


def test_time_to_accuracy_reads_the_first_hit_not_the_best():
    h = RunHistory("m", "d")
    for i, a in enumerate([0.2, 0.6, 0.4, 0.8]):
        h.append(EvalRecord(5.0 * i, i, a, 1.0, 0.0, 100 * i, 0))
    assert time_to_accuracy(h, 0.5) == 5.0
    assert time_to_accuracy(h, 0.7) == 15.0


def test_uplink_to_accuracy():
    assert time_to_accuracy(_history(), 0.5, RunHistory.uplink) == 2000.0


def test_an_empty_history_never_reaches():
    assert time_to_accuracy(RunHistory("m", "d"), 0.0) is None


class TestFormatTable:
    def test_alignment_and_content(self):
        s = format_table(["name", "value"], [["a", 1.5], ["bbbb", None]])
        lines = s.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert "1.5000" in lines[2]
        assert "-" in lines[3]

    def test_empty_rows(self):
        s = format_table(["h1"], [])
        assert "h1" in s
