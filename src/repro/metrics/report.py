"""Derived statistics and plain-text table formatting for benches.

``time_to_accuracy`` reproduces the bar charts at the bottom of Fig 2, and
over a byte series Table 2 and Fig 4.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.metrics.history import RunHistory

__all__ = ["time_to_accuracy", "format_table"]


def time_to_accuracy(
    history: RunHistory,
    target: float,
    series: Callable[[RunHistory], np.ndarray] = RunHistory.times,
) -> float | None:
    """``series`` at the first evaluation whose test accuracy reaches
    ``target``: virtual time by default, bytes with ``RunHistory.total_bytes``.

    Returns ``None`` if the run never reaches the target (Fig 2 omits such
    methods from the bar chart; Table 2 prints "–").
    """
    hit = np.flatnonzero(history.accuracies() >= target)
    return float(series(history)[hit[0]]) if hit.size else None


def format_table(
    headers: list[str], rows: list[list[object]], *, float_fmt: str = "{:.4f}"
) -> str:
    """Render an aligned plain-text table (benchmark stdout artifacts)."""

    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return float_fmt.format(cell)
        if cell is None:
            return "-"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    sep = "-+-".join("-" * w for w in widths)
    body = "\n".join(
        " | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in str_rows
    )
    return f"{line}\n{sep}\n{body}" if body else f"{line}\n{sep}"
