"""Experiment harness: scale presets, runners, and table/figure generators.

Every table and figure in the paper's evaluation maps to a function here;
the ``benchmarks/`` directory wraps these in pytest-benchmark entry points
that print paper-vs-measured artifacts (README "Benchmarks").
"""

from repro.experiments.config import (
    SCALES,
    ScalePreset,
    build_model_builder,
    make_fl_config,
)
from repro.experiments.runner import (
    ALGORITHMS,
    RunSpec,
    build_federation,
    clear_cache,
    run_cached,
    run_experiment,
)
from repro.experiments.sweep import SweepCell, SweepRunner, SweepSpec

__all__ = [
    "ScalePreset",
    "SCALES",
    "make_fl_config",
    "build_model_builder",
    "ALGORITHMS",
    "RunSpec",
    "build_federation",
    "run_experiment",
    "run_cached",
    "clear_cache",
    "SweepCell",
    "SweepRunner",
    "SweepSpec",
]
