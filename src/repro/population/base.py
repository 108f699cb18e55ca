"""The ``Population`` API: who is enrolled in the federation.

A ``Population`` is the census :class:`~repro.core.base.FLSystem` asks
instead of iterating a client list: it knows how many clients exist and
their task metadata, hands out per-client data and :class:`SimClient`
objects on demand, and answers the aggregate queries — train sizes,
evaluator construction and every latency question.

The latency questions are answered once, here, for every population: a
launch's draw (:meth:`Population.sample_round_latency`) and a profile of
everyone (:meth:`Population.profile_latencies`), both from
:meth:`train_sizes` and the :class:`~repro.sim.latency.ResponseLatencyModel`
handed over at :meth:`bind`. Clients carry data only.

Two implementations:

- :class:`MaterializedPopulation` wraps a :class:`FederatedDataset`; its
  clients are one eager ``list[SimClient]``.
- :class:`~repro.population.virtual.VirtualPopulation` derives clients
  lazily from seeded RNG over a shared :class:`~repro.data.datasets.SampleBank`,
  holding only a bounded cache — O(active cohort) memory at any enrolled
  size (the 1M-client FedAT demo).

``as_population`` is the constructor-side adapter: systems accept a
``Population`` or a ``FederatedDataset``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.federated import ClientData, FederatedDataset
from repro.metrics.evaluation import Evaluator
from repro.nn.model import Sequential
from repro.sim.client import SimClient
from repro.sim.latency import ResponseLatencyModel

__all__ = ["Population", "MaterializedPopulation", "as_population"]


class Population:
    """Abstract census of the enrolled client population.

    Subclasses provide the task metadata attributes (``name``,
    ``num_classes``, ``input_shape``, ``task``, ``meta``) that model
    builders and evaluators duck-type against — the same surface as
    :class:`FederatedDataset`.

    Lifecycle: systems call :meth:`bind` once (handing over the latency
    model and batch-schedule parameters), after which :attr:`clients` is an
    indexable provider of :class:`SimClient` objects and the latency
    queries are answered.
    """

    name: str
    num_classes: int
    input_shape: tuple[int, ...]
    task: str
    meta: dict
    #: Set by :meth:`bind`.
    latency_model: ResponseLatencyModel | None = None

    @property
    def num_clients(self) -> int:
        raise NotImplementedError

    @property
    def dataset(self) -> FederatedDataset | None:
        """The wrapped eager federation, or None for lazily derived ones."""
        return None

    @property
    def clients(self):
        """Indexable ``clients[client_id] -> SimClient`` provider (post-bind)."""
        raise NotImplementedError

    def bind(
        self,
        latency_model: ResponseLatencyModel,
        *,
        batch_size: int,
        seed: int,
    ):
        """Attach the simulation environment; returns :attr:`clients`."""
        raise NotImplementedError

    def client_data(self, client_id: int) -> ClientData:
        raise NotImplementedError

    def train_sizes(self) -> np.ndarray:
        """Training-set size per client (the ``n_k`` of Eq. 1)."""
        raise NotImplementedError

    def sample_round_latency(
        self, client_id: int, epochs: int, rng: np.random.Generator
    ) -> float:
        """Draw one round's compute+delay latency for ``client_id``."""
        n = int(self.train_sizes()[client_id])
        return self.latency_model.round_latency(int(client_id), n, epochs, rng)

    def profile_latencies(self, profiler, rng: np.random.Generator) -> np.ndarray:
        """Every client's latency estimate for tier assignment."""
        return profiler.profile_sizes(self.latency_model, self.train_sizes(), rng)

    def build_evaluator(
        self,
        model: Sequential,
        *,
        client_ids: Sequence[int] | None = None,
        max_test_per_client: int | None = None,
    ) -> Evaluator:
        raise NotImplementedError

    def materialize(self) -> FederatedDataset:
        """Eager :class:`FederatedDataset` over the full population."""
        raise NotImplementedError


class MaterializedPopulation(Population):
    """Population backed by an eager, fully partitioned federation.

    :meth:`bind` builds one :class:`SimClient` per shard, in order; the
    list is what the executor trains from and ships to workers as it is.
    """

    def __init__(self, dataset: FederatedDataset):
        self._dataset = dataset
        self._train_sizes = dataset.client_sizes()
        self._clients: list[SimClient] | None = None
        self.name = dataset.name
        self.num_classes = dataset.num_classes
        self.input_shape = dataset.input_shape
        self.task = dataset.task
        self.meta = dataset.meta

    @property
    def num_clients(self) -> int:
        return self._dataset.num_clients

    @property
    def dataset(self) -> FederatedDataset:
        return self._dataset

    @property
    def clients(self) -> list[SimClient]:
        if self._clients is None:
            raise RuntimeError("population is not bound; call bind() first")
        return self._clients

    def bind(
        self,
        latency_model: ResponseLatencyModel,
        *,
        batch_size: int,
        seed: int,
    ) -> list[SimClient]:
        self.latency_model = latency_model
        self._clients = [
            SimClient(c, batch_size=batch_size, seed=seed) for c in self._dataset.clients
        ]
        return self._clients

    def client_data(self, client_id: int) -> ClientData:
        return self._dataset.clients[client_id]

    def train_sizes(self) -> np.ndarray:
        return self._train_sizes

    def build_evaluator(
        self,
        model: Sequential,
        *,
        client_ids: Sequence[int] | None = None,
        max_test_per_client: int | None = None,
    ) -> Evaluator:
        if client_ids is None:
            return Evaluator(self._dataset, model, max_test_per_client=max_test_per_client)
        return Evaluator.from_clients(
            [self._dataset.clients[int(c)] for c in client_ids],
            model,
            max_test_per_client=max_test_per_client,
        )

    def materialize(self) -> FederatedDataset:
        return self._dataset


def as_population(obj) -> Population:
    """Adapt a system constructor's first argument to a :class:`Population`.

    Accepts a ``Population`` (passthrough) or a ``FederatedDataset``
    (wrapped in a :class:`MaterializedPopulation`).
    """
    if isinstance(obj, Population):
        return obj
    if isinstance(obj, FederatedDataset):
        return MaterializedPopulation(obj)
    raise TypeError(
        f"cannot interpret {type(obj).__name__} as a Population (expected "
        "Population or FederatedDataset; wrap raw ClientData shards in a "
        "FederatedDataset)"
    )
