"""Baseline FL methods the paper compares against (§6, "FL Methods").

- :class:`FedAvg` — synchronous random-cohort averaging (McMahan et al.).
- :class:`FedProx` — FedAvg + proximal term + heterogeneous local epochs.
- :class:`TiFL` — synchronous tier-based selection with credit-bounded,
  accuracy-adaptive tier probabilities.
- :class:`FedAsync` — fully asynchronous single-client updates with
  staleness-weighted mixing.
- :class:`ASOFed` — asynchronous online FL keeping per-client weight copies
  on the server.
"""

from repro.baselines.asofed import ASOFed
from repro.baselines.fedasync import FedAsync
from repro.baselines.fedavg import FedAvg
from repro.baselines.fedprox import FedProx
from repro.baselines.tifl import TiFL

__all__ = ["FedAvg", "FedProx", "TiFL", "FedAsync", "ASOFed"]
