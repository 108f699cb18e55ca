"""Experiment harness: scale presets, the run description and its cache, sweeps.

The paper's evaluation is a list of claims in :mod:`repro.experiments.claims`
(imported on demand, not here): ``benchmarks/bench_claims.py`` checks them
and ``scripts/make_experiments_md.py`` renders them as ``EXPERIMENTS.md``.
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


def __getattr__(name: str):
    # The sweep (and the process pool it runs cells on) loads on first use.
    if name in ("SweepCell", "SweepRunner", "SweepSpec"):
        from repro.experiments import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
