"""Lazily derived client populations: millions enrolled, O(cohort) resident.

Every per-client artifact — shard size, class mix, samples, train/test
split, batch schedule — is a pure function of ``(population seed,
client_id)`` through named :class:`~repro.utils.rng.SeedSequenceFactory`
streams, so derivation is independent of access order: materializing client
7 first, last, twice, or in a pool worker yields bit-identical bytes. That
is the property the equivalence/property tests pin, and what makes a
1M-client FedAT run reproducible while only ever holding a bounded LRU of
live clients.

Derivation is per cohort: ``clients[ids]`` derives the clients a cohort
lacks in one :func:`derive_client_data` pass, and one client is the cohort
of one. ``clients`` is one self-contained, picklable store: the system,
the serial executor and every dist worker train from it (a pickled store
arrives with an empty cache). An evaluator's subset is derived the same
way, by blocks that bypass the cache, so only its test rows outlive the
build. A late arrival costs nothing here: its shard is derived when a
cohort first trains it.

Aggregate queries over the *whole* population (train sizes, and through
them every latency question :class:`~repro.population.base.Population`
answers) come from O(n) numpy vectors — never from materialized clients.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np

from repro.data.datasets import SampleBank
from repro.data.federated import ClientData, FederatedDataset
from repro.metrics.evaluation import Evaluator
from repro.nn.model import Sequential
from repro.population.base import Population
from repro.sim.client import SimClient
from repro.sim.latency import ResponseLatencyModel
from repro.utils.rng import SeedSequenceFactory

__all__ = ["VirtualPopulation"]

#: Refuse to silently materialize the whole population into an evaluator
#: above this size; callers must name an eval subset (FLConfig.eval_clients).
MAX_FULL_EVAL_CLIENTS = 10_000
#: Clients an evaluator derives at a time (the population cache's default
#: size): a large subset, such as a TiFL tier, never holds more full shards.
EVAL_BLOCK = 1024


def derive_sizes(num_clients: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Per-client total shard sizes: one vectorized draw from a named stream.

    A single int64 vector (8 MB at 1M clients) instead of per-client stream
    setup, which would cost a SeedSequence spawn per client just to learn a
    size. Client *content* streams stay per-client.
    """
    rng = SeedSequenceFactory(seed).rng("population/sizes")
    return rng.integers(lo, hi + 1, size=num_clients)


def train_sizes_from(sizes: np.ndarray) -> np.ndarray:
    """Vectorized image of :func:`train_test_split_client`'s size split.

    Must mirror that function exactly (``n_test = round(n * 0.2)`` clamped
    to ``[1 if n >= 2 else 0, n - 1]``) so aggregate latency math agrees
    with what a materialized client would report.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n_test = np.rint(sizes * 0.2).astype(np.int64)
    n_test = np.minimum(np.maximum(n_test, (sizes >= 2).astype(np.int64)), sizes - 1)
    return sizes - n_test


def derive_client_data(
    bank: SampleBank,
    client_ids: Sequence[int],
    sizes: Sequence[int],
    seed: int,
    classes_per_client: int | None,
    writer_shift: float,
) -> list[ClientData]:
    """Materialize the shards of ``client_ids`` (``sizes[i]`` samples each),
    every one from its client's private RNG stream.

    Mirrors the eager ``_assemble`` pipeline per client: class-restricted
    label draws (``classes_per_client=None`` means IID over the bank's
    classes), class-conditional sample picks from the bank, the per-client
    writer transform, then the standard 80/20 split. Each client draws from
    its own stream in that order, so its shard does not depend on the
    cohort it is derived with; a repeated id yields equal shards.

    The cohort is one pass: the streams come from one
    :meth:`~repro.utils.rng.SeedSequenceFactory.rngs` call, and the rows
    from one gather (already in each client's shuffled order), one in-place
    writer transform and one split. Each client's arrays are views of the
    cohort's.
    """
    ids = [int(cid) for cid in client_ids]
    if not ids:
        return []
    sizes = np.asarray(sizes, dtype=np.int64)
    rngs = SeedSequenceFactory(seed).rngs([f"population/client/{cid}" for cid in ids])
    present = bank.present_classes
    k = None if classes_per_client is None else min(int(classes_per_client), int(present.size))
    strength = float(writer_shift)
    labels, positions, shuffles, writers = [], [], [], []
    start = 0
    for rng, n in zip(rngs, sizes.tolist()):
        if k is None:
            drawn = present[rng.integers(0, present.size, size=n)]
        else:
            chosen = np.sort(rng.choice(present, size=k, replace=False))
            drawn = chosen[rng.integers(0, k, size=n)]
        labels.append(drawn)
        positions.append(rng.integers(0, bank.class_counts[drawn]))
        if strength:
            a = 1.0 + 0.2 * strength * rng.standard_normal()
            writers.append((a, 0.3 * strength * rng.standard_normal()))
        shuffles.append(rng.permutation(n) + start)
        start += n
    order = np.concatenate(shuffles)
    labels = np.concatenate(labels)
    x = bank.x[bank.locate(labels, np.concatenate(positions))[order]]
    y = labels[order].astype(np.int64, copy=False)
    if strength:
        # a * x + b per client, in the dtype that expression has.
        x = x.astype(np.result_type(x, 0.0), copy=False)
        column = (-1,) + (1,) * (x.ndim - 1)
        a, b = (
            np.repeat(np.array(col, dtype=x.dtype), sizes).reshape(column) for col in zip(*writers)
        )
        x *= a
        x += b
    n_test = sizes - train_sizes_from(sizes)
    ends = np.cumsum(sizes).tolist()
    return [
        ClientData(
            client_id=cid,
            x_train=x[lo + t : hi],
            y_train=y[lo + t : hi],
            x_test=x[lo : lo + t],
            y_test=y[lo : lo + t],
        )
        for cid, lo, hi, t in zip(ids, [0, *ends[:-1]], ends, n_test.tolist())
    ]


def _test_rows(shards: list[ClientData]) -> list[ClientData]:
    """The shards' test rows copied into one block, as train-less shards
    whose arrays are views of it: the derived block can then be freed."""
    x = np.concatenate([d.x_test for d in shards])
    y = np.concatenate([d.y_test for d in shards])
    ends = np.cumsum([d.num_test for d in shards]).tolist()
    return [
        ClientData(d.client_id, x[:0], y[:0], x[lo:hi], y[lo:hi])
        for d, lo, hi in zip(shards, [0, *ends[:-1]], ends)
    ]


class _LRU:
    """Tiny bounded LRU map; the population's only per-client state."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._items: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def get(self, key):
        if key not in self._items:
            return None
        self._items.move_to_end(key)
        return self._items[key]

    def put(self, key, value) -> None:
        self._items[key] = value
        self._items.move_to_end(key)
        while len(self._items) > self.maxsize:
            self._items.popitem(last=False)

    def get_many(self, keys: list, make) -> list:
        """``[self.get(key) for key in keys]``, the keys it lacks made by
        one ``make(missing)`` call (each missing key once) and put."""
        found = [self.get(key) for key in keys]
        missing = list(dict.fromkeys(key for key, value in zip(keys, found) if value is None))
        if not missing:
            return found
        made = dict(zip(missing, make(missing)))
        for key in missing:
            self.put(key, made[key])
        return [made[key] if value is None else value for key, value in zip(keys, found)]


def _checked(client_ids: Iterable[int], num_clients: int) -> list[int]:
    ids = [int(cid) for cid in client_ids]
    for cid in ids:
        if not 0 <= cid < num_clients:
            raise IndexError(f"client {cid} not in population")
    return ids


class _BoundClients:
    """The bound population's ``clients[client_id] -> SimClient`` store.

    It holds what derivation needs and nothing else, so one store serves
    the system, the serial executor and every dist worker. Pickling drops
    the cache and the size vector: a worker re-derives both for the
    clients it trains.
    """

    def __init__(self, population: "VirtualPopulation", batch_size: int, schedule_seed: int):
        self.bank = population.bank
        self.num_clients = population.num_clients
        self.seed = population.seed
        self.size_range = population.size_range
        self.classes_per_client = population.classes_per_client
        self.writer_shift = population.writer_shift
        self.batch_size = batch_size
        self.schedule_seed = schedule_seed
        self.cache_size = population.cache_size
        self._sizes = population.sizes()
        self._cache = _LRU(self.cache_size)

    def __len__(self) -> int:
        return self.num_clients

    def __getitem__(self, key: int | list[int]) -> SimClient | list[SimClient]:
        """``store[client_id]`` is one client; ``store[client_ids]`` (a
        list) the cohort's, the ones not cached derived in one pass."""
        if isinstance(key, list):
            return self._cache.get_many([int(cid) for cid in key], self._derive)
        return self[[key]][0]

    def _derive(self, client_ids: list[int]) -> list[SimClient]:
        client_ids = _checked(client_ids, self.num_clients)
        if self._sizes is None:
            lo, hi = self.size_range
            self._sizes = derive_sizes(self.num_clients, self.seed, lo, hi)
        shards = derive_client_data(
            self.bank,
            client_ids,
            self._sizes[client_ids],
            self.seed,
            self.classes_per_client,
            self.writer_shift,
        )
        return [
            SimClient(data, batch_size=self.batch_size, seed=self.schedule_seed)
            for data in shards
        ]

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_sizes"] = None
        state["_cache"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache = _LRU(self.cache_size)


class VirtualPopulation(Population):
    """Population whose clients are derived on demand from seeded RNG."""

    def __init__(
        self,
        bank: SampleBank,
        num_clients: int,
        *,
        seed: int = 0,
        samples_per_client: int | tuple[int, int] = (20, 60),
        classes_per_client: int | None = 2,
        writer_shift: float = 0.0,
        name: str | None = None,
        cache_size: int = 1024,
    ):
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if isinstance(samples_per_client, int):
            samples_per_client = (samples_per_client, samples_per_client)
        lo, hi = (int(samples_per_client[0]), int(samples_per_client[1]))
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid samples_per_client range ({lo}, {hi})")
        if classes_per_client is not None and classes_per_client < 1:
            raise ValueError("classes_per_client must be >= 1 (or None for IID)")
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.bank = bank
        self.seed = seed
        self.size_range = (lo, hi)
        self.classes_per_client = classes_per_client
        self.writer_shift = float(writer_shift)
        self.cache_size = cache_size
        self.name = name or f"{bank.name}@{num_clients}"
        self.num_classes = bank.num_classes
        self.input_shape = bank.input_shape
        self.task = bank.task
        self.meta = {"virtual": True, "enrolled": num_clients, **bank.meta}
        self._num_clients = int(num_clients)
        self._sizes: np.ndarray | None = None
        self._train_sizes: np.ndarray | None = None
        self._data_cache = _LRU(cache_size)
        self._clients: _BoundClients | None = None

    @property
    def num_clients(self) -> int:
        return self._num_clients

    def sizes(self) -> np.ndarray:
        if self._sizes is None:
            lo, hi = self.size_range
            self._sizes = derive_sizes(self._num_clients, self.seed, lo, hi)
        return self._sizes

    def train_sizes(self) -> np.ndarray:
        if self._train_sizes is None:
            self._train_sizes = train_sizes_from(self.sizes())
        return self._train_sizes

    # ------------------------------------------------------------------ #
    # Binding & per-client materialization
    # ------------------------------------------------------------------ #
    def bind(
        self,
        latency_model: ResponseLatencyModel,
        *,
        batch_size: int,
        seed: int,
    ) -> _BoundClients:
        self.latency_model = latency_model
        self._clients = _BoundClients(self, int(batch_size), int(seed))
        return self._clients

    @property
    def clients(self) -> _BoundClients:
        if self._clients is None:
            raise RuntimeError("population is not bound; call bind() first")
        return self._clients

    def client_data(self, client_id: int) -> ClientData:
        return self.cohort_data([client_id])[0]

    def cohort_data(self, client_ids: Sequence[int]) -> list[ClientData]:
        """The shards of ``client_ids``; the ones not cached are derived in
        one :func:`derive_client_data` pass."""
        return self._data_cache.get_many(_checked(client_ids, self._num_clients), self._derive)

    def _derive(self, client_ids: list[int]) -> list[ClientData]:
        return derive_client_data(
            self.bank,
            client_ids,
            self.sizes()[client_ids],
            self.seed,
            self.classes_per_client,
            self.writer_shift,
        )

    def build_evaluator(
        self,
        model: Sequential,
        *,
        client_ids: Sequence[int] | None = None,
        max_test_per_client: int | None = None,
    ) -> Evaluator:
        if client_ids is None:
            if self._num_clients > MAX_FULL_EVAL_CLIENTS:
                raise ValueError(
                    f"evaluating all {self._num_clients} virtual clients would "
                    "materialize the full population; set FLConfig.eval_clients "
                    "(or pass client_ids) to evaluate a fixed subset"
                )
            client_ids = range(self._num_clients)
        # Derived by blocks that bypass the data cache, so once the
        # evaluator has copied the test rows out, the shards are freed. Past
        # one block, each block's test rows are copied out before the next.
        ids = _checked(client_ids, self._num_clients)
        shards = []
        for lo in range(0, len(ids), EVAL_BLOCK):
            block = self._derive(ids[lo : lo + EVAL_BLOCK])
            shards += block if len(ids) <= EVAL_BLOCK else _test_rows(block)
        return Evaluator.from_clients(shards, model, max_test_per_client=max_test_per_client)

    def materialize(self) -> FederatedDataset:
        """Eager federation over the whole population (small-n tests only)."""
        if self._num_clients > MAX_FULL_EVAL_CLIENTS:
            raise ValueError(
                f"refusing to materialize {self._num_clients} clients eagerly"
            )
        dataset = FederatedDataset(
            name=self.name,
            clients=self.cohort_data(range(self._num_clients)),
            num_classes=self.num_classes,
            input_shape=self.input_shape,
            task=self.task,
            meta=dict(self.meta),
        )
        dataset.validate()
        return dataset
