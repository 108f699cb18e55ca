"""Baseline FL methods the paper compares against (§6, "FL Methods").

- :class:`FedAvg` — synchronous random-cohort averaging (McMahan et al.).
- :class:`FedProx` — FedAvg + proximal term + heterogeneous local epochs.
- :class:`TiFL` — synchronous tier-based selection with credit-bounded,
  accuracy-adaptive tier probabilities.
- :class:`FedAsync` — fully asynchronous single-client updates with
  staleness-weighted mixing.
- :class:`ASOFed` — asynchronous online FL keeping per-client weight copies
  on the server.

Each loads on first use: a run imports its own method's module only.
"""

import importlib

__all__ = ["FedAvg", "FedProx", "TiFL", "FedAsync", "ASOFed"]

#: Export -> the module that defines it.
_HOMES = {
    "FedAvg": "repro.baselines.fedavg",
    "FedProx": "repro.baselines.fedprox",
    "TiFL": "repro.baselines.tifl",
    "FedAsync": "repro.baselines.fedasync",
    "ASOFed": "repro.baselines.asofed",
}


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(importlib.import_module(_HOMES[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
