"""repro — a reproduction of FedAT (SC 2021).

FedAT: a high-performance and communication-efficient federated learning
system with asynchronous tiers (Chai et al.). This package implements the
full system on a from-scratch NumPy substrate:

- :mod:`repro.nn` — neural-network library (CNN/LSTM/logistic models);
- :mod:`repro.data` — synthetic federated datasets with non-IID partitions;
- :mod:`repro.compression` — polyline weight compression;
- :mod:`repro.sim` — discrete-event cluster simulator (stragglers, dropout);
- :mod:`repro.tiering` — latency profiling and tier assignment;
- :mod:`repro.core` — FedAT (Algorithm 2) and the tiered server;
- :mod:`repro.baselines` — FedAvg, FedProx, TiFL, FedAsync, ASO-Fed;
- :mod:`repro.population` — eager and lazily derived client populations;
- :mod:`repro.experiments` — runs, sweeps, and the paper's claims as data.

Quickstart::

    from repro import run_experiment
    history = run_experiment("fedat", "cifar10", scale="tiny",
                             classes_per_client=2, seed=0)
    print(history.best_accuracy())

Million-client runs use the population axis::

    history = run_experiment("fedat", "cifar10", scale="tiny",
                             population=1_000_000, seed=0)
"""

from repro.core.config import FLConfig
from repro.core.fedat import FedAT
from repro.core.staleness import StalenessPolicy
from repro.experiments.runner import (
    ALGORITHMS,
    build_federation,
    build_virtual_population,
    run_experiment,
)
from repro.metrics.history import RunHistory
from repro.population import (
    MaterializedPopulation,
    Population,
    VirtualPopulation,
    as_population,
)
from repro.scenario.spec import parse_scenario

__version__ = "1.0.0"

__all__ = [
    "FedAT",
    "FLConfig",
    "RunHistory",
    "ALGORITHMS",
    "StalenessPolicy",
    "Population",
    "MaterializedPopulation",
    "VirtualPopulation",
    "as_population",
    "parse_scenario",
    "run_experiment",
    "build_federation",
    "build_virtual_population",
    "__version__",
]
