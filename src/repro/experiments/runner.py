"""Experiment runner: builds a federation, runs one method, caches results.

Several figures/tables derive from the *same* runs (Table 1, Table 2,
Figs 2–4 all read the per-method training histories on the 2-class
non-IID datasets), so the runner memoizes histories in-process and on disk
under ``.bench_cache/`` keyed by a hash of all run parameters.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path

from repro.data.datasets import DATASETS, make_dataset, make_sample_bank
from repro.exec.base import ExecConfig
from repro.experiments.config import ALGORITHMS, SCALES, build_model_builder, make_fl_config
from repro.metrics.history import RunHistory
from repro.population.virtual import VirtualPopulation
from repro.sim.latency import PAPER_DELAY_BANDS, TierDelayModel
from repro.utils.rng import SeedSequenceFactory
from repro.utils.serialization import load_json, save_json

__all__ = [
    "ALGORITHMS",
    "build_federation",
    "build_virtual_population",
    "run_experiment",
    "run_cached",
    "clear_cache",
]

#: Default evaluation-subset size for virtual-population runs (evaluating a
#: million clients' shards is neither feasible nor what the paper reports).
DEFAULT_VIRTUAL_EVAL_CLIENTS = 200

_MEMORY_CACHE: dict[str, RunHistory] = {}
_CACHE_DIR = Path(".bench_cache")

def build_federation(
    dataset_name: str,
    scale: str = "bench",
    seed: int = 0,
    *,
    num_clients: int | None = None,
    classes_per_client: int | None | str = "default",
    **dataset_overrides,
):
    """Build the synthetic federation for one experiment.

    The data RNG stream is named by (dataset, seed) only — never by method —
    so all compared methods train on the identical federation.
    """
    preset = SCALES[scale]
    factory = SeedSequenceFactory(seed)
    rng = factory.rng(f"data/{dataset_name}")
    overrides = dict(dataset_overrides)
    overrides.setdefault(
        "num_clients",
        num_clients
        if num_clients is not None
        else (
            preset.large_num_clients
            if dataset_name in ("femnist", "reddit")
            else preset.num_clients
        ),
    )
    overrides.setdefault("samples_per_client", preset.samples_per_client)
    if dataset_name in ("cifar10", "fashion_mnist", "femnist"):
        c = 3 if dataset_name == "cifar10" else 1
        overrides.setdefault("image_shape", (preset.image_hw, preset.image_hw, c))
    if classes_per_client != "default":
        overrides["classes_per_client"] = classes_per_client
        # k-class overrides replace the dataset's default partitioner.
        if classes_per_client is not None:
            overrides.setdefault("dirichlet_alpha", None)
    return make_dataset(dataset_name, rng, **overrides)


def build_virtual_population(
    dataset_name: str,
    population: int,
    scale: str = "bench",
    seed: int = 0,
    *,
    classes_per_client: int | None | str = "default",
    **bank_overrides,
) -> VirtualPopulation:
    """Build a lazily derived population of ``population`` clients.

    The shared sample bank draws from ``data/<name>/bank`` — a stream
    disjoint from the eager ``data/<name>`` federation stream — and every
    client's shard derives on demand from ``population/client/<id>``, so
    memory stays O(bank + active cohort) no matter how many clients enroll.
    ``bank_overrides`` pass through to :func:`make_sample_bank`
    (``num_samples`` plus any :class:`DatasetSpec` field).
    """
    preset = SCALES[scale]
    factory = SeedSequenceFactory(seed)
    bank_rng = factory.rng(f"data/{dataset_name}/bank")
    overrides = dict(bank_overrides)
    if dataset_name in ("cifar10", "fashion_mnist", "femnist"):
        c = 3 if dataset_name == "cifar10" else 1
        overrides.setdefault("image_shape", (preset.image_hw, preset.image_hw, c))
    bank = make_sample_bank(dataset_name, bank_rng, **overrides)
    spec = DATASETS[dataset_name]
    if classes_per_client == "default":
        classes_per_client = spec.classes_per_client
    spc = preset.samples_per_client
    return VirtualPopulation(
        bank,
        population,
        seed=seed,
        samples_per_client=(max(2, spc // 2), spc),
        classes_per_client=classes_per_client,
        writer_shift=spec.writer_shift,
        name=dataset_name,
    )


def run_experiment(
    method: str,
    dataset_name: str,
    *,
    scale: str = "bench",
    seed: int = 0,
    classes_per_client: int | None | str = "default",
    num_clients: int | None = None,
    population: int | None = None,
    delay_counts: list[int] | None = None,
    dataset_overrides: dict | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    checkpoint_every: int = 1,
    **fl_overrides,
) -> RunHistory:
    """Run one (method, dataset) experiment and return its history.

    ``population`` switches the run onto a :class:`VirtualPopulation` of
    that many lazily derived clients (memory bounded by the active cohort);
    ``None`` keeps the eager pre-partitioned federation.

    ``checkpoint_dir`` enables round-granular in-run checkpointing (every
    ``checkpoint_every`` global updates, keyed by the full run parameters);
    with ``resume=True`` a killed run picks up from its last checkpoint and
    finishes with a history bit-identical to the uninterrupted run. The
    checkpoint is removed once the run completes.
    """
    if method not in ALGORITHMS:
        raise KeyError(f"unknown method {method!r}; options: {sorted(ALGORITHMS)}")
    if population is not None:
        dataset = build_virtual_population(
            dataset_name,
            population,
            scale,
            seed,
            classes_per_client=classes_per_client,
            **(dataset_overrides or {}),
        )
        fl_overrides.setdefault(
            "eval_clients", min(population, DEFAULT_VIRTUAL_EVAL_CLIENTS)
        )
    else:
        dataset = build_federation(
            dataset_name,
            scale,
            seed,
            num_clients=num_clients,
            classes_per_client=classes_per_client,
            **(dataset_overrides or {}),
        )
    config = make_fl_config(method, scale, seed, **fl_overrides)
    builder = build_model_builder(dataset, scale)
    delay_model = None
    if delay_counts is not None:
        env_rng = SeedSequenceFactory(seed).rng("env/delays")
        delay_model = TierDelayModel.from_counts(
            delay_counts, env_rng, PAPER_DELAY_BANDS
        )
    system = ALGORITHMS[method](dataset, builder, config, delay_model=delay_model)
    checkpointer = None
    if checkpoint_dir is not None:
        from repro.experiments.checkpoint import RunCheckpointer

        # Key the checkpoint by every parameter that shapes the run's
        # *results*, so a resume can never continue a different
        # experiment's state — but not by execution-only knobs, so a run
        # started serially can resume distributed (and vice versa).
        key = _cache_key(
            {
                "method": method,
                "dataset": dataset_name,
                "scale": scale,
                "seed": seed,
                "classes_per_client": classes_per_client,
                "num_clients": num_clients,
                "population": population,
                "delay_counts": delay_counts,
                "dataset_overrides": dataset_overrides,
                **fl_overrides,
            }
        )
        checkpointer = RunCheckpointer(checkpoint_dir, key, every=checkpoint_every)
        system.attach_checkpointer(checkpointer, resume=resume)
    history = system.run()
    if checkpointer is not None:
        checkpointer.clear()  # the run completed; keep the directory clean
    history.meta.update(
        {
            "scale": scale,
            "classes_per_client": (
                None if classes_per_client == "default" else classes_per_client
            ),
        }
    )
    if population is not None:
        history.meta["population"] = int(population)
    return history


def _cache_key(kwargs: dict) -> str:
    """Digest of the run parameters that shape its results.

    Execution settings are left out — ``exec`` and every
    :class:`ExecConfig` field passed flat — because by the
    executor-equivalence contract they never change a history bit.
    """
    execution = {f.name for f in fields(ExecConfig)} | {"exec"}
    keyed = {k: v for k, v in kwargs.items() if k not in execution}
    blob = json.dumps(keyed, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def run_cached(method: str, dataset_name: str, **kwargs) -> RunHistory:
    """Memoized :func:`run_experiment` (in-process and ``.bench_cache/``).

    Benchmarks for different tables/figures share runs through this cache;
    delete ``.bench_cache/`` (or call :func:`clear_cache`) to force re-runs.
    Keys ignore execution settings (see :func:`_cache_key`), so the same
    experiment run under a different executor (or fault schedule) hits the
    cache — the history bits are identical by contract, only volatile meta
    (timings, fault counters) differs.
    """
    key = _cache_key({"method": method, "dataset": dataset_name, **kwargs})
    if key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]
    path = _CACHE_DIR / f"{key}.json"
    if path.exists():
        history = RunHistory.from_dict(load_json(path))
        _MEMORY_CACHE[key] = history
        return history
    history = run_experiment(method, dataset_name, **kwargs)
    _MEMORY_CACHE[key] = history
    try:
        save_json(path, history.to_dict())
    except OSError:  # read-only checkout: in-memory cache still works
        pass
    return history


def clear_cache() -> None:
    """Drop both cache layers."""
    _MEMORY_CACHE.clear()
    if _CACHE_DIR.exists():
        for p in _CACHE_DIR.glob("*.json"):
            p.unlink()
