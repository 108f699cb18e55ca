"""Time-series records of one FL training run."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["EvalRecord", "RunHistory"]


@dataclass(frozen=True)
class EvalRecord:
    """One evaluation snapshot of the global model."""

    time: float  # virtual seconds
    round: int  # global update counter (t in Algorithm 2)
    accuracy: float  # accuracy over the union of client test shards
    loss: float
    accuracy_variance: float  # variance of per-client test accuracies
    uplink_bytes: int
    downlink_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.uplink_bytes + self.downlink_bytes


@dataclass
class RunHistory:
    """Evaluation series plus run metadata for one (method, dataset) pair."""

    method: str
    dataset: str
    records: list[EvalRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def append(self, record: EvalRecord) -> None:
        if self.records and record.time < self.records[-1].time:
            raise ValueError("records must be appended in time order")
        self.records.append(record)

    # ------------------------------------------------------------------ #
    # Series accessors
    # ------------------------------------------------------------------ #
    def times(self) -> np.ndarray:
        return np.array([r.time for r in self.records])

    def rounds(self) -> np.ndarray:
        return np.array([r.round for r in self.records])

    def accuracies(self) -> np.ndarray:
        return np.array([r.accuracy for r in self.records])

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    def accuracy_variances(self) -> np.ndarray:
        return np.array([r.accuracy_variance for r in self.records])

    def uplink(self) -> np.ndarray:
        return np.array([r.uplink_bytes for r in self.records])

    def total_bytes(self) -> np.ndarray:
        return np.array([r.total_bytes for r in self.records])

    # ------------------------------------------------------------------ #
    # Summary statistics
    # ------------------------------------------------------------------ #
    def best_accuracy(self) -> float:
        """Best test accuracy after convergence — the Table 1 statistic."""
        if not self.records:
            raise ValueError("empty history")
        return float(self.accuracies().max())

    def final_accuracy(self, tail: int = 5) -> float:
        """Mean accuracy over the last ``tail`` evaluations."""
        acc = self.accuracies()
        return float(acc[-tail:].mean())

    def mean_accuracy_variance(self, skip_fraction: float = 0.25) -> float:
        """Average per-client accuracy variance, skipping early warm-up.

        Table 1's "Norm. Var." compares this statistic across methods.
        """
        var = self.accuracy_variances()
        start = int(len(var) * skip_fraction)
        return float(var[start:].mean()) if len(var) > start else float(var.mean())

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "dataset": self.dataset,
            "meta": self.meta,
            "records": [asdict(r) for r in self.records],
        }

    @staticmethod
    def from_dict(d: dict) -> "RunHistory":
        h = RunHistory(method=d["method"], dataset=d["dataset"], meta=d.get("meta", {}))
        for r in d["records"]:
            h.append(EvalRecord(**r))
        return h
