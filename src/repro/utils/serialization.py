"""JSON persistence helpers for experiment results.

Results are plain dicts of floats/lists so they can be diffed, plotted and
committed. NumPy scalars/arrays are converted transparently.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["save_json", "load_json", "to_jsonable"]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert numpy types to JSON-serializable Python types."""
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, Path):
        return str(obj)
    return obj


def save_json(path: str | Path, obj: Any, *, indent: int = 2) -> Path:
    """Write ``obj`` to ``path`` as JSON, creating parent directories.

    The text goes to a temp file named for the writing process and then
    replaces ``path`` in one rename: a reader never sees a torn file, and
    two processes writing the same path never share a temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(to_jsonable(obj), indent=indent, sort_keys=True))
    os.replace(tmp, path)
    return path


def load_json(path: str | Path) -> Any:
    """Load JSON written by :func:`save_json`."""
    return json.loads(Path(path).read_text())
