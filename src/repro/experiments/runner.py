"""Experiment runner: describes a run, builds its federation, runs it, stores it.

A :class:`RunSpec` is one experiment — method, dataset, scale, seed,
partition, population, delay counts and overrides — and is the one place
that splits execution settings off a run's flat keywords, checks the rest
and keys it: the stored run, the in-run checkpoint and every sweep cell
are named by :meth:`RunSpec.key`.

Finished runs live in one store: a directory of ``<key>.json`` files, each
a history without its volatile meta, written atomically.
:meth:`RunSpec.load` reads one (a missing, torn or malformed file is a
miss) and :meth:`RunSpec.save` writes one. The paper's claims share runs
(Tables 1–2 and Figs 2–4 read the same histories) through
:meth:`RunSpec.cached`, which runs on a miss in the default store,
``.bench_cache/``; a sweep's store is its out-dir, so a torn file re-runs
and an extended grid keeps its done cells.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from repro.core.config import FLConfig
from repro.data.datasets import DATASETS, make_dataset, make_sample_bank
from repro.exec.base import ExecConfig
from repro.experiments.checkpoint import strip_volatile_meta
from repro.experiments.config import ALGORITHMS, SCALES, build_model_builder, make_fl_config
from repro.metrics.history import RunHistory
from repro.population.virtual import VirtualPopulation
from repro.sim.latency import PAPER_DELAY_BANDS, TierDelayModel
from repro.utils.rng import SeedSequenceFactory
from repro.utils.serialization import load_json, save_json

__all__ = [
    "ALGORITHMS",
    "RunSpec",
    "build_federation",
    "build_virtual_population",
    "run_experiment",
    "run_cached",
    "clear_cache",
]

#: Default evaluation-subset size for virtual-population runs (evaluating a
#: million clients' shards is neither feasible nor what the paper reports).
DEFAULT_VIRTUAL_EVAL_CLIENTS = 200

#: Histories :meth:`RunSpec.cached` read or ran in this process, by store file.
_MEMORY_CACHE: dict[Path, RunHistory] = {}
#: The default store.
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


@dataclass(frozen=True)
class RunSpec:
    """One experiment: every setting that shapes its history, and no other.

    Build it from the flat keywords :func:`run_experiment` takes with
    :meth:`of`, which splits the execution settings off and checks the
    rest. ``fl_overrides`` are the flat FL knobs as sorted ``(key, value)``
    pairs; ``dataset_overrides`` likewise.
    """

    method: str
    dataset: str
    scale: str = "bench"
    seed: int = 0
    classes_per_client: int | None | str = "default"
    num_clients: int | None = None
    #: None = the eager pre-partitioned federation; an int runs the
    #: experiment on a VirtualPopulation of that many lazily derived clients.
    population: int | None = None
    delay_counts: tuple[int, ...] | None = None
    dataset_overrides: tuple[tuple[str, Any], ...] = ()
    fl_overrides: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, method: str, dataset: str, **flat) -> tuple[RunSpec, dict]:
        """The spec ``flat`` describes, and its execution settings.

        Execution settings are every :class:`ExecConfig` field, a whole
        ``exec``, and the in-run checkpoint settings: by the
        executor-equivalence contract none changes a history bit, so none
        keys the run. Refuses an unknown method, dataset or scale, and any
        knob ``make_fl_config`` refuses, before anything is built.
        """
        checkpoint = {"checkpoint_dir", "resume", "checkpoint_every"}
        execution_keys = {f.name for f in fields(ExecConfig)} | {"exec"} | checkpoint
        execution = {k: flat.pop(k) for k in execution_keys & flat.keys()}
        settings = {f.name for f in fields(cls)} - {"method", "dataset", "fl_overrides"}
        own = {k: flat.pop(k) for k in settings & flat.keys()}
        if own.get("delay_counts") is not None:
            own["delay_counts"] = tuple(own["delay_counts"])
        own["dataset_overrides"] = tuple(sorted((own.get("dataset_overrides") or {}).items()))
        spec = cls(method, dataset, **own, fl_overrides=tuple(sorted(flat.items())))
        for name, table in (("method", ALGORITHMS), ("dataset", DATASETS), ("scale", SCALES)):
            if (value := getattr(spec, name)) not in table:
                raise ValueError(f"unknown {name} {value!r}; options: {sorted(table)}")
        pop = spec.population
        if pop is not None and not (isinstance(pop, int) and pop >= 1):
            raise ValueError(f"population must be None or a positive int, got {pop!r}")
        spec.config(**{k: v for k, v in execution.items() if k not in checkpoint})
        return spec, execution

    def key(self) -> str:
        """Digest of the run: its method and dataset, each setting away
        from its default, and its FL overrides (so an experiment keeps its
        key when a setting with a default is added)."""
        keyed = {f.name: v for f in fields(self) if (v := getattr(self, f.name)) != f.default}
        keyed.update(keyed.pop("fl_overrides", ()))
        if "dataset_overrides" in keyed:
            keyed["dataset_overrides"] = dict(keyed["dataset_overrides"])
        blob = json.dumps(keyed, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:20]

    def config(self, **execution) -> FLConfig:
        """The run's :class:`FLConfig`, with ``execution`` routed to ``exec``."""
        flat = dict(self.fl_overrides)
        if self.population is not None:
            flat.setdefault("eval_clients", min(self.population, DEFAULT_VIRTUAL_EVAL_CLIENTS))
        return make_fl_config(self.method, self.scale, self.seed, **flat, **execution)

    def run(
        self,
        *,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        checkpoint_every: int = 1,
        **execution,
    ) -> RunHistory:
        """Build the federation and the system, run it, return its history.

        ``checkpoint_dir`` enables round-granular in-run checkpointing
        (every ``checkpoint_every`` global updates, keyed by :meth:`key`);
        with ``resume=True`` a killed run picks up from its last checkpoint
        and finishes with a history bit-identical to the uninterrupted run.
        The checkpoint is removed once the run completes.
        """
        partition = {"classes_per_client": self.classes_per_client, **dict(self.dataset_overrides)}
        if self.population is not None:
            dataset = build_virtual_population(
                self.dataset, self.population, self.scale, self.seed, **partition
            )
        else:
            dataset = build_federation(
                self.dataset, self.scale, self.seed, num_clients=self.num_clients, **partition
            )
        config = self.config(**execution)
        builder = build_model_builder(dataset, self.scale)
        delay_model = None
        if self.delay_counts is not None:
            env_rng = SeedSequenceFactory(self.seed).rng("env/delays")
            delay_model = TierDelayModel.from_counts(self.delay_counts, env_rng, PAPER_DELAY_BANDS)
        system = ALGORITHMS[self.method](dataset, builder, config, delay_model=delay_model)
        checkpointer = None
        if checkpoint_dir is not None:
            from repro.experiments.checkpoint import RunCheckpointer

            checkpointer = RunCheckpointer(checkpoint_dir, self.key(), every=checkpoint_every)
            system.attach_checkpointer(checkpointer, resume=resume)
        history = system.run()
        if checkpointer is not None:
            checkpointer.clear()  # the run completed; keep the directory clean
        cpc = None if self.classes_per_client == "default" else self.classes_per_client
        history.meta.update({"scale": self.scale, "classes_per_client": cpc})
        if self.population is not None:
            history.meta["population"] = int(self.population)
        return history

    def path(self, store: str | Path | None = None) -> Path:
        """The run's file in ``store`` (default ``.bench_cache/``)."""
        return Path(_CACHE_DIR if store is None else store) / f"{self.key()}.json"

    def load(self, store: str | Path | None = None) -> RunHistory | None:
        """The run's stored history, or None when its file is missing, torn
        or malformed."""
        try:
            return RunHistory.from_dict(load_json(self.path(store)))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def save(self, history: RunHistory, store: str | Path | None = None) -> Path:
        """Store ``history`` atomically, without its volatile meta: a run's
        file is the same bytes under every executor and every resume."""
        return save_json(self.path(store), strip_volatile_meta(history.to_dict()))

    def cached(self, **execution) -> RunHistory:
        """:meth:`load` from the default store, else :meth:`run` and
        :meth:`save`; memoized in-process by file. The key leaves execution
        settings out: their history bits are identical by contract.
        :func:`clear_cache` empties the default store."""
        path = self.path()
        if path not in _MEMORY_CACHE:
            history = self.load()
            if history is None:
                history = self.run(**execution)
                try:
                    self.save(history)
                except OSError:  # read-only checkout: in-memory cache still works
                    pass
            _MEMORY_CACHE[path] = history
        return _MEMORY_CACHE[path]


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
    """Run one (method, dataset) experiment and return its history: the
    :class:`RunSpec` these keywords describe, run (see :meth:`RunSpec.run`)."""
    named = {k: v for k, v in locals().items() if k not in ("method", "dataset_name")}
    spec, execution = RunSpec.of(method, dataset_name, **named.pop("fl_overrides"), **named)
    return spec.run(**execution)


def run_cached(method: str, dataset_name: str, **kwargs) -> RunHistory:
    """Memoized :func:`run_experiment`: the :class:`RunSpec` these keywords
    describe, through :meth:`RunSpec.cached`."""
    spec, execution = RunSpec.of(method, dataset_name, **kwargs)
    return spec.cached(**execution)


def clear_cache() -> None:
    """Forget every in-process history and empty the default store."""
    _MEMORY_CACHE.clear()
    if _CACHE_DIR.exists():
        for p in _CACHE_DIR.glob("*.json"):
            p.unlink()
