"""Synthetic dataset generators mirroring the paper's five benchmarks.

Each generator produces class-conditional data a model can genuinely learn
(accuracy improves with training and saturates below 100% for noisy
presets), then partitions samples across clients with the requested
heterogeneity and applies the paper's per-client 80/20 train/test split.

Analogue design:

- ``cifar10`` / ``fashion_mnist``: class prototypes are smooth low-frequency
  images (coarse random grid, bilinear-upsampled); samples add white noise.
  Labels ↔ spatial structure, so the CNN's conv stack is exercised.
- ``sentiment140``: bag-of-words feature vectors from class-dependent token
  frequencies; convex logistic-regression task, one "tweet author" per
  client.
- ``femnist``: 62-class image analogue with power-law client sizes and a
  per-client writer transform (contrast/brightness shift) for natural
  feature heterogeneity.
- ``reddit``: token sequences from class-conditional Markov chains; the task
  is next-token prediction (sequence → next id), the LSTM language-model
  analogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.federated import ClientData, FederatedDataset, train_test_split_client
from repro.data.partition import (
    partition_dirichlet,
    partition_iid,
    partition_kclass,
    partition_power_law_sizes,
)

__all__ = ["DatasetSpec", "SampleBank", "make_dataset", "make_sample_bank", "DATASETS"]


@dataclass(frozen=True)
class DatasetSpec:
    """Size/shape knobs for one synthetic dataset build."""

    name: str
    num_clients: int = 100
    samples_per_client: int = 60
    num_classes: int = 10
    image_shape: tuple[int, int, int] = (16, 16, 3)
    feature_dim: int = 64
    vocab_size: int = 64
    seq_len: int = 10
    noise: float = 1.0
    classes_per_client: int | None = 2  # None => IID
    dirichlet_alpha: float | None = None
    power_law_sizes: bool = False
    #: Per-client feature-shift strength (0 disables). Models intra-class
    #: client heterogeneity — two clients holding the same label still have
    #: different local distributions, as in real federated data. Without
    #: it, any method that merely covers all classes converges to the same
    #: optimum and the paper's engagement-balance effects vanish.
    writer_shift: float = 0.0
    seed_hint: str = ""
    meta: dict = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# Raw sample synthesis
# --------------------------------------------------------------------------- #
def _smooth_prototypes(
    rng: np.random.Generator, num_classes: int, shape: tuple[int, int, int], coarse: int = 4
) -> np.ndarray:
    """Low-frequency class prototype images via coarse-grid upsampling."""
    h, w, c = shape
    protos = np.empty((num_classes, h, w, c))
    for k in range(num_classes):
        grid = rng.normal(0.0, 1.0, size=(coarse, coarse, c))
        # Bilinear-ish upsample with np.kron then light smoothing by local mean.
        up = np.kron(grid, np.ones((int(np.ceil(h / coarse)), int(np.ceil(w / coarse)), 1)))
        protos[k] = up[:h, :w, :]
    # Normalize prototype energy so classes are equally separable.
    protos /= protos.std(axis=(1, 2, 3), keepdims=True) + 1e-9
    return protos


def _synth_images(
    rng: np.random.Generator,
    n: int,
    num_classes: int,
    shape: tuple[int, int, int],
    noise: float,
) -> tuple[np.ndarray, np.ndarray]:
    protos = _smooth_prototypes(rng, num_classes, shape)
    y = rng.integers(0, num_classes, size=n)
    x = protos[y] + rng.normal(0.0, noise, size=(n, *shape))
    return x.astype(np.float64), y.astype(np.int64)


def _synth_bow(
    rng: np.random.Generator, n: int, num_classes: int, dim: int, noise: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bag-of-words-like sparse-ish nonneg features with class-topic structure."""
    topics = rng.gamma(2.0, 1.0, size=(num_classes, dim))
    # Each class emphasizes a distinct subset of the vocabulary. The 2.0
    # factor keeps classes overlapping enough that accuracy saturates well
    # below 100% — tuned so FL methods differentiate at bench budgets.
    for k in range(num_classes):
        emphasized = rng.choice(dim, size=max(2, dim // num_classes), replace=False)
        topics[k, emphasized] *= 2.0
    topics /= topics.sum(axis=1, keepdims=True)
    y = rng.integers(0, num_classes, size=n)
    # One call, row by row: the same draws a per-sample loop makes.
    counts = rng.multinomial(20, topics[y]).astype(np.float64)
    x = np.log1p(counts) + rng.normal(0.0, noise * 0.3, size=(n, dim))
    return x, y.astype(np.int64)


def _synth_markov_sequences(
    rng: np.random.Generator, n: int, vocab: int, seq_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Next-token prediction data from a single global Markov chain.

    The label is the token following the observed window, so
    ``num_classes == vocab`` — the language-model analogue used for the
    Reddit experiments (Fig 8).
    """
    # Sparse-ish transition matrix: each token strongly prefers a few successors.
    trans = rng.gamma(0.3, 1.0, size=(vocab, vocab))
    top = np.argsort(trans, axis=1)[:, -3:]
    boost = np.zeros_like(trans)
    np.put_along_axis(boost, top, 4.0, axis=1)
    trans = trans + boost
    trans /= trans.sum(axis=1, keepdims=True)
    cum = np.cumsum(trans, axis=1)

    x = np.empty((n, seq_len), dtype=np.int64)
    y = np.empty(n, dtype=np.int64)
    state = rng.integers(0, vocab, size=n)
    draws = rng.random(size=(n, seq_len + 1))
    for t in range(seq_len + 1):
        if t < seq_len:
            x[:, t] = state
        else:
            y[:] = state
        # Vectorized categorical draw via inverse-CDF on each row's chain.
        state = (cum[state] < draws[:, t : t + 1]).sum(axis=1)
        np.clip(state, 0, vocab - 1, out=state)
    return x, y


# --------------------------------------------------------------------------- #
# Federation assembly
# --------------------------------------------------------------------------- #
def _partition(
    spec: DatasetSpec, labels: np.ndarray, rng: np.random.Generator
) -> list[np.ndarray]:
    if spec.dirichlet_alpha is not None:
        return partition_dirichlet(labels, spec.num_clients, spec.dirichlet_alpha, rng)
    if spec.classes_per_client is None:
        return partition_iid(labels.size, spec.num_clients, rng)
    return partition_kclass(labels, spec.num_clients, spec.classes_per_client, rng)


def _apply_power_law(
    spec: DatasetSpec, parts: list[np.ndarray], rng: np.random.Generator
) -> list[np.ndarray]:
    """Trim shards to power-law sizes (keeps label structure, skews counts)."""
    if not spec.power_law_sizes:
        return parts
    sizes = partition_power_law_sizes(
        sum(p.size for p in parts), len(parts), rng, min_samples=4
    )
    out = []
    for p, target in zip(parts, sizes):
        target = min(int(target), p.size)
        target = max(target, min(4, p.size))
        out.append(p[:target] if target < p.size else p)
    return out


def _assemble(
    spec: DatasetSpec,
    x: np.ndarray,
    y: np.ndarray,
    parts: list[np.ndarray],
    rng: np.random.Generator,
    input_shape: tuple[int, ...],
    task: str,
) -> FederatedDataset:
    clients: list[ClientData] = []
    for cid, idx in enumerate(parts):
        cx, cy = x[idx], y[idx]
        if spec.writer_shift:
            # Per-client 'writer' transform: contrast & brightness shift
            # scaled by the configured strength.
            strength = float(spec.writer_shift)
            a = 1.0 + 0.2 * strength * rng.standard_normal()
            b = 0.3 * strength * rng.standard_normal()
            cx = a * cx + b
        clients.append(train_test_split_client(cx, cy, cid, rng))
    ds = FederatedDataset(
        name=spec.name,
        clients=clients,
        num_classes=spec.num_classes,
        input_shape=input_shape,
        task=task,
        meta={"spec": spec.name, **spec.meta},
    )
    ds.validate()
    return ds


def _build_image_dataset(spec: DatasetSpec, rng: np.random.Generator) -> FederatedDataset:
    n = spec.num_clients * spec.samples_per_client
    x, y = _synth_images(rng, n, spec.num_classes, spec.image_shape, spec.noise)
    parts = _apply_power_law(spec, _partition(spec, y, rng), rng)
    return _assemble(spec, x, y, parts, rng, spec.image_shape, "image_classification")


def _build_bow_dataset(spec: DatasetSpec, rng: np.random.Generator) -> FederatedDataset:
    n = spec.num_clients * spec.samples_per_client
    x, y = _synth_bow(rng, n, spec.num_classes, spec.feature_dim, spec.noise)
    parts = _apply_power_law(spec, _partition(spec, y, rng), rng)
    return _assemble(spec, x, y, parts, rng, (spec.feature_dim,), "text_classification")


def _build_sequence_dataset(spec: DatasetSpec, rng: np.random.Generator) -> FederatedDataset:
    n = spec.num_clients * spec.samples_per_client
    x, y = _synth_markov_sequences(rng, n, spec.vocab_size, spec.seq_len)
    parts = _apply_power_law(spec, _partition(spec, y, rng), rng)
    return _assemble(spec, x, y, parts, rng, (spec.seq_len,), "next_token")


_BUILDERS: dict[str, Callable[[DatasetSpec, np.random.Generator], FederatedDataset]] = {
    "cifar10": _build_image_dataset,
    "fashion_mnist": _build_image_dataset,
    "femnist": _build_image_dataset,
    "sentiment140": _build_bow_dataset,
    "reddit": _build_sequence_dataset,
}

#: Default specs per dataset name; callers override fields via make_dataset kwargs.
DATASETS: dict[str, DatasetSpec] = {
    "cifar10": DatasetSpec(
        name="cifar10", num_classes=10, image_shape=(16, 16, 3), noise=2.0,
        writer_shift=0.8,
    ),
    "fashion_mnist": DatasetSpec(
        name="fashion_mnist", num_classes=10, image_shape=(16, 16, 1), noise=1.4,
        writer_shift=0.8,
    ),
    "sentiment140": DatasetSpec(
        name="sentiment140", num_classes=3, feature_dim=64, noise=1.0,
        classes_per_client=2, writer_shift=0.8,
    ),
    "femnist": DatasetSpec(
        name="femnist", num_classes=62, image_shape=(16, 16, 1), noise=1.2,
        samples_per_client=40, classes_per_client=None, dirichlet_alpha=0.5,
        power_law_sizes=True, writer_shift=1.0,
    ),
    "reddit": DatasetSpec(
        name="reddit", vocab_size=64, seq_len=10, num_classes=64, noise=0.0,
        samples_per_client=50, classes_per_client=None, dirichlet_alpha=0.3,
        power_law_sizes=True,
    ),
}


def _resolve_spec(name: str, overrides: dict) -> DatasetSpec:
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; options: {sorted(DATASETS)}")
    base = DATASETS[name]
    if overrides:
        from dataclasses import replace

        bad = set(overrides) - set(base.__dataclass_fields__)
        if bad:
            raise TypeError(f"unknown spec fields: {sorted(bad)}")
        spec = replace(base, **overrides)
    else:
        spec = base
    # Reddit's label space is its vocabulary — keep them consistent.
    if name == "reddit":
        object.__setattr__(spec, "num_classes", spec.vocab_size)
    return spec


def make_dataset(
    name: str,
    rng: np.random.Generator,
    **overrides,
) -> FederatedDataset:
    """Build a federated dataset by name with optional spec overrides.

    >>> import numpy as np
    >>> ds = make_dataset("cifar10", np.random.default_rng(0),
    ...                   num_clients=10, samples_per_client=20,
    ...                   classes_per_client=2)
    >>> ds.num_clients
    10
    """
    spec = _resolve_spec(name, overrides)
    return _BUILDERS[name](spec, rng)


@dataclass
class SampleBank:
    """A labelled sample pool that virtual populations draw clients from.

    Million-client populations cannot pre-partition samples across clients
    (there would be a billion shards); instead each virtual client resamples
    its shard from this shared bank — class-conditional sampling with
    replacement across clients, so the bank stays small while the federation
    keeps the generators' label ↔ feature structure. The stable per-class
    index makes ``locate`` a pure O(1) map from (label, in-class position)
    to a bank row, which is what keeps client derivation order-independent.
    """

    name: str
    x: np.ndarray
    y: np.ndarray
    num_classes: int
    input_shape: tuple[int, ...]
    task: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.int64)
        if y.ndim != 1 or y.size == 0:
            raise ValueError("bank labels must be a non-empty 1-D array")
        if y.min() < 0 or y.max() >= self.num_classes:
            raise ValueError("bank label outside [0, num_classes)")
        self.y = y
        self.class_counts = np.bincount(y, minlength=self.num_classes)
        order = np.argsort(y, kind="stable")
        self._order = order
        self._starts = np.concatenate(([0], np.cumsum(self.class_counts)[:-1]))
        #: Classes with at least one sample; client label draws are
        #: restricted to these so a sparse bank can never strand a client.
        self.present_classes = np.flatnonzero(self.class_counts)

    def locate(self, labels: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Bank row for each (label, in-class position) pair."""
        return self._order[self._starts[labels] + positions]


def make_sample_bank(
    name: str,
    rng: np.random.Generator,
    *,
    num_samples: int = 4096,
    **overrides,
) -> SampleBank:
    """Build the sample pool behind a virtual population, by dataset name.

    Reuses the same raw-sample synthesizers as :func:`make_dataset` (same
    spec table, same override surface), but stops before partitioning:
    virtual clients partition on demand.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    spec = _resolve_spec(name, overrides)
    builder = _BUILDERS[name]
    if builder is _build_image_dataset:
        x, y = _synth_images(rng, num_samples, spec.num_classes, spec.image_shape, spec.noise)
        shape: tuple[int, ...] = spec.image_shape
        task = "image_classification"
    elif builder is _build_bow_dataset:
        x, y = _synth_bow(rng, num_samples, spec.num_classes, spec.feature_dim, spec.noise)
        shape, task = (spec.feature_dim,), "text_classification"
    else:
        x, y = _synth_markov_sequences(rng, num_samples, spec.vocab_size, spec.seq_len)
        shape, task = (spec.seq_len,), "next_token"
    return SampleBank(
        name=spec.name,
        x=x,
        y=y,
        num_classes=spec.num_classes,
        input_shape=tuple(shape),
        task=task,
        meta={"spec": spec.name, **spec.meta},
    )
