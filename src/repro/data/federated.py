"""Client-local datasets and the federation container."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ClientData",
    "FederatedDataset",
    "train_test_split_client",
]


@dataclass
class ClientData:
    """One client's local data, already split 80/20 train/test (paper §6)."""

    client_id: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    @property
    def num_train(self) -> int:
        return int(self.x_train.shape[0])

    @property
    def num_test(self) -> int:
        return int(self.x_test.shape[0])

    def validate(self) -> None:
        if self.x_train.shape[0] != self.y_train.shape[0]:
            raise ValueError(f"client {self.client_id}: train x/y length mismatch")
        if self.x_test.shape[0] != self.y_test.shape[0]:
            raise ValueError(f"client {self.client_id}: test x/y length mismatch")
        if self.num_train == 0:
            raise ValueError(f"client {self.client_id}: empty training set")


@dataclass
class FederatedDataset:
    """A federation of clients plus task metadata.

    ``input_shape`` is the per-sample shape (e.g. ``(H, W, C)`` for images,
    ``(T,)`` for token sequences, ``(D,)`` for feature vectors).
    """

    name: str
    clients: list[ClientData]
    num_classes: int
    input_shape: tuple[int, ...]
    task: str = "classification"
    meta: dict = field(default_factory=dict)

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    def client_sizes(self) -> np.ndarray:
        """Training-set size per client (the ``n_k`` of Eq. 1)."""
        return np.array([c.num_train for c in self.clients], dtype=np.int64)

    def global_test_set(self, max_per_client: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Concatenate client test sets (optionally subsampled per client).

        Used to evaluate a global model the way the paper reports test
        accuracy: over the union of client-held test shards.
        """
        xs, ys = [], []
        for c in self.clients:
            if max_per_client is not None and c.num_test > max_per_client:
                xs.append(c.x_test[:max_per_client])
                ys.append(c.y_test[:max_per_client])
            else:
                xs.append(c.x_test)
                ys.append(c.y_test)
        return np.concatenate(xs, axis=0), np.concatenate(ys, axis=0)

    def validate(self) -> None:
        for c in self.clients:
            c.validate()
        labels = np.concatenate([c.y_train for c in self.clients])
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise ValueError("label outside [0, num_classes)")


def train_test_split_client(
    x: np.ndarray,
    y: np.ndarray,
    client_id: int,
    rng: np.random.Generator,
    test_fraction: float = 0.2,
) -> ClientData:
    """Shuffle one client's samples and split 80/20 (paper §6 Hyperparameters).

    Guarantees at least one training sample and, when the client has ≥ 2
    samples, at least one test sample.
    """
    n = x.shape[0]
    if n == 0:
        raise ValueError(f"client {client_id} received no samples")
    order = rng.permutation(n)
    x, y = x[order], y[order]
    n_test = int(round(n * test_fraction))
    n_test = min(max(n_test, 1 if n >= 2 else 0), n - 1)
    return ClientData(
        client_id=client_id,
        x_train=x[n_test:],
        y_train=y[n_test:],
        x_test=x[:n_test],
        y_test=y[:n_test],
    )
