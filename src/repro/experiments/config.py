"""Scale presets, the method table, flat-key routing and model wiring.

Three presets:

- ``tiny`` — unit/integration tests: 20 clients, minutes of virtual time,
  4-filter CNNs. Seconds of wall time.
- ``bench`` — default for the benchmark suite: ~50–100 clients, reduced
  CNN capacity, budgets tuned so the whole suite runs in minutes while the
  paper's qualitative shapes (who wins, roughly by how much) reproduce.
- ``paper`` — paper-faithful sizes (100/500 clients, 32/64/64-filter CNN,
  thousands of global updates). Select with ``REPRO_SCALE=paper``.
"""

from __future__ import annotations

import importlib
import os
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.core.config import FLConfig
from repro.exec.base import ExecConfig
from repro.data.federated import FederatedDataset
from repro.nn.model import Sequential
from repro.nn.zoo import build_cnn, build_femnist_cnn, build_logistic, build_lstm_classifier

__all__ = [
    "ALGORITHMS", "ScalePreset", "SCALES", "active_scale", "make_fl_config", "route_config",
    "methods_taking", "knobs_read_by", "build_model_builder",
]


class _Methods(Mapping):
    """Method name -> system class, each entry held as ``"module:Class"``
    until its first lookup imports it: a run loads its own method only."""

    def __init__(self, entries: dict[str, str]):
        self._entries: dict[str, str | type] = dict(entries)

    def __getitem__(self, name: str) -> type:
        entry = self._entries[name]
        if isinstance(entry, str):
            module, _, attr = entry.partition(":")
            entry = self._entries[name] = getattr(importlib.import_module(module), attr)
        return entry

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


ALGORITHMS = _Methods(
    {
        "fedat": "repro.core.fedat:FedAT",
        "fedavg": "repro.baselines.fedavg:FedAvg",
        "fedprox": "repro.baselines.fedprox:FedProx",
        "tifl": "repro.baselines.tifl:TiFL",
        "fedasync": "repro.baselines.fedasync:FedAsync",
        "asofed": "repro.baselines.asofed:ASOFed",
    }
)


@dataclass(frozen=True)
class ScalePreset:
    """Sizing of one experiment scale."""

    name: str
    num_clients: int
    samples_per_client: int
    image_hw: int  # square image side for image datasets
    cnn_filters: tuple[int, int, int]
    cnn_dense: int
    max_time: float  # virtual-second cutoff shared by all methods
    max_rounds_sync: int  # server aggregations for FedAvg/FedProx/TiFL
    max_rounds_fedat: int  # tier updates (FedAT converges well within these)
    max_rounds_async: int  # single-client updates for FedAsync/ASO-Fed
    eval_every_sync: int
    eval_every_async: int
    num_unstable: int
    large_num_clients: int  # FEMNIST/Reddit deployments (paper: 500)


SCALES: dict[str, ScalePreset] = {
    "tiny": ScalePreset(
        name="tiny",
        num_clients=15,
        samples_per_client=24,
        image_hw=8,
        cnn_filters=(4, 8, 8),
        cnn_dense=16,
        max_time=260.0,
        max_rounds_sync=10,
        max_rounds_fedat=60,
        max_rounds_async=100,
        eval_every_sync=2,
        eval_every_async=10,
        num_unstable=2,
        large_num_clients=20,
    ),
    "bench": ScalePreset(
        name="bench",
        num_clients=100,
        samples_per_client=32,
        image_hw=8,
        cnn_filters=(6, 12, 12),
        cnn_dense=24,
        max_time=900.0,
        max_rounds_sync=200,
        max_rounds_fedat=450,
        max_rounds_async=3000,
        eval_every_sync=2,
        eval_every_async=8,
        num_unstable=10,
        large_num_clients=150,
    ),
    "paper": ScalePreset(
        name="paper",
        num_clients=100,
        samples_per_client=100,
        image_hw=16,
        cnn_filters=(32, 64, 64),
        cnn_dense=64,
        max_time=6000.0,
        max_rounds_sync=400,
        max_rounds_fedat=3000,
        max_rounds_async=8000,
        eval_every_sync=4,
        eval_every_async=20,
        num_unstable=10,
        large_num_clients=500,
    ),
}

#: Methods whose global-update counter ticks much faster than sync rounds.
ASYNC_METHODS = {"fedat", "fedasync", "asofed"}


def active_scale(default: str = "bench") -> str:
    """Scale selected via the ``REPRO_SCALE`` environment variable."""
    scale = os.environ.get("REPRO_SCALE", default)
    if scale not in SCALES:
        raise ValueError(f"REPRO_SCALE must be one of {sorted(SCALES)}, got {scale!r}")
    return scale


def make_fl_config(method: str, scale: str = "bench", seed: int = 0, **flat) -> FLConfig:
    """FLConfig for ``method`` at ``scale`` (paper §6 hyperparameters).

    ``flat`` keys override the presets and are routed by :func:`route_config`.
    """
    preset = SCALES[scale]
    is_async = method in ASYNC_METHODS
    if method == "fedat":
        budget = preset.max_rounds_fedat
    elif is_async:
        budget = preset.max_rounds_async
    else:
        budget = preset.max_rounds_sync
    defaults = dict(
        max_rounds=budget,
        max_time=preset.max_time,
        eval_every=preset.eval_every_async if is_async else preset.eval_every_sync,
        seed=seed,
        num_unstable=preset.num_unstable,
        dropout_horizon=preset.max_time * 2.0,
        compression="polyline:4" if method == "fedat" else None,
    )
    return route_config(method, **{**defaults, **flat})


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def methods_taking(knob: str) -> list[str]:
    """The methods whose ``Params`` declare ``knob``, in table order."""
    return [m for m, cls in ALGORITHMS.items() if knob in _names(cls.Params)]


def route_config(method: str, **flat) -> FLConfig:
    """``FLConfig`` for ``method`` from flat keys: ``ExecConfig`` fields go
    to ``exec``, the method's ``Params`` fields to ``algo``, the rest to
    ``FLConfig``. A key left over (a knob the method does not read, a typo)
    is refused, naming the methods that do take it."""
    for name, cls in (("exec", ExecConfig), ("algo", ALGORITHMS[method].Params)):
        mine = {k: flat.pop(k) for k in _names(cls) & flat.keys()}
        if mine:
            flat[name] = replace(flat.get(name) or cls(), **mine)
    stray = sorted(flat.keys() - _names(FLConfig))
    if stray:
        takers = methods_taking(stray[0])
        raise ValueError(
            f"{method} does not take {stray[0]!r}; "
            + (f"{', '.join(takers)} do" if takers else "no method does")
        )
    return FLConfig(**flat)


def knobs_read_by(method: str, flat: dict) -> dict:
    """``flat`` less the knobs ``method`` does not read, for grids that set
    one knob for every method; a key no method declares stays, to be refused."""
    own = _names(ALGORITHMS[method].Params) if method in ALGORITHMS else set()
    return {k: v for k, v in flat.items() if k in own or not methods_taking(k)}


def build_model_builder(dataset: FederatedDataset, scale: str = "bench"):
    """Return ``rng -> Sequential`` matching the dataset's task (paper §6)."""
    preset = SCALES[scale]

    def builder(rng: np.random.Generator) -> Sequential:
        if dataset.task == "image_classification":
            h, w, c = dataset.input_shape
            if dataset.name == "femnist":
                f = preset.cnn_filters
                return build_femnist_cnn(
                    (h, w, c),
                    dataset.num_classes,
                    rng=rng,
                    filters=(f[0], f[1]),
                    dense_units=preset.cnn_dense * 2,
                )
            return build_cnn(
                (h, w, c),
                dataset.num_classes,
                rng=rng,
                filters=preset.cnn_filters,
                dense_units=preset.cnn_dense,
            )
        if dataset.task == "text_classification":
            return build_logistic(dataset.input_shape[0], dataset.num_classes, rng=rng)
        if dataset.task == "next_token":
            vocab = dataset.meta.get("vocab_size", dataset.num_classes)
            return build_lstm_classifier(
                vocab,
                dataset.num_classes,
                rng=rng,
                embed_dim=max(8, preset.cnn_dense // 2),
                hidden_dim=max(8, preset.cnn_dense // 2),
            )
        raise ValueError(f"no model wired for task {dataset.task!r}")

    return builder
