"""Run tracking, evaluation, and straggler-robustness metrics."""

from repro.metrics.evaluation import Evaluator
from repro.metrics.history import EvalRecord, RunHistory
from repro.metrics.report import format_table, time_to_accuracy
from repro.metrics.straggler import RobustnessReport, compare_robustness

__all__ = [
    "EvalRecord",
    "RunHistory",
    "Evaluator",
    "time_to_accuracy",
    "format_table",
    "RobustnessReport",
    "compare_robustness",
]
