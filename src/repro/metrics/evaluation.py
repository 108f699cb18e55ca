"""Global-model evaluation over the federation's client test shards.

The paper reports (a) test accuracy of the global model over all clients'
held-out data and (b) the *variance of per-client test accuracies* —
Definition 3.1's balance criterion. Client shards are concatenated once at
construction and split by cached boundaries afterwards.

Two operational properties matter here:

- **Isolation.** The evaluator owns a structural replica of the model it
  was given, so mid-run evaluation never clobbers in-flight worker
  weights — with the flat parameter store the worker's weights are one
  shared buffer, and writing evaluation weights into it from another code
  path would be a genuine hazard. The flat vector it evaluates is the
  whole model, batch-norm's running statistics included, so the replica
  scores exactly what the weights say.
- **Bounded memory.** The forward pass runs in chunks of
  :data:`EVAL_CHUNK` rows and per-sample losses are accumulated, so peak
  memory no longer scales with the full concatenated federation test set.
  The chunk size is a constant because it can move results: a layer's
  GEMM over a different row count may take a different BLAS path, and a
  CNN's logits — so its loss — then differ in the last bits.
- **Fused forwards.** The chunked forwards run through the model's
  compiled forward-only :class:`~repro.nn.plan.TrainingPlan`: every chunk
  reuses the same arena activation buffers (consumed before the next chunk
  overwrites them) and max-pool layers skip building their training-only
  argmax masks — the same logits ``Sequential.forward`` produces.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.federated import ClientData, FederatedDataset
from repro.nn.activations import softmax
from repro.nn.losses import LOG_EPS
from repro.nn.model import Sequential

__all__ = ["Evaluator"]

#: Rows per evaluation forward pass. Every run evaluates at this size;
#: another one is for tests of the chunking only (see the module docstring).
EVAL_CHUNK = 256


class Evaluator:
    """Evaluates flat weight vectors against the federation test set."""

    def __init__(
        self,
        dataset: FederatedDataset,
        model: Sequential,
        *,
        max_test_per_client: int | None = None,
        eval_batch_size: int = EVAL_CHUNK,
    ):
        self._setup(dataset.clients, model, max_test_per_client, eval_batch_size)

    @classmethod
    def from_clients(
        cls,
        clients: Sequence[ClientData],
        model: Sequential,
        *,
        max_test_per_client: int | None = None,
        eval_batch_size: int = EVAL_CHUNK,
    ) -> "Evaluator":
        """Evaluator over an explicit client subset (tier evaluators,
        population eval subsets) without wrapping them in a throwaway
        :class:`FederatedDataset`."""
        self = object.__new__(cls)
        self._setup(list(clients), model, max_test_per_client, eval_batch_size)
        return self

    def _setup(
        self,
        clients: Sequence[ClientData],
        model: Sequential,
        max_test_per_client: int | None,
        eval_batch_size: int,
    ) -> None:
        if eval_batch_size < 1:
            raise ValueError("eval_batch_size must be >= 1")
        self._model = model.clone()  # see "Isolation" in the module docstring
        self._batch_size = eval_batch_size
        self._plan = self._model.training_plan(None)  # forward-only
        if not clients:
            raise ValueError(
                "cannot evaluate an empty federation (zero clients); "
                "callers should skip evaluation of empty tiers"
            )
        #: Clients backing each bounds slot, in ingestion order (duck-typed
        #: shards without an id fall back to their slot index).
        self.client_ids = [getattr(c, "client_id", i) for i, c in enumerate(clients)]
        self._slot = {cid: i for i, cid in enumerate(self.client_ids)}
        xs, ys, bounds = [], [], [0]
        for c in clients:
            x, y = c.x_test, c.y_test
            if max_test_per_client is not None and x.shape[0] > max_test_per_client:
                x, y = x[:max_test_per_client], y[:max_test_per_client]
            xs.append(x)
            ys.append(y)
            bounds.append(bounds[-1] + x.shape[0])
        self._x = np.concatenate(xs, axis=0)
        self._y = np.concatenate(ys, axis=0)
        self._bounds = np.array(bounds)

    @property
    def num_samples(self) -> int:
        return int(self._x.shape[0])

    def evaluate_flat(
        self,
        flat_weights: np.ndarray,
        *,
        views: dict[str, Sequence[int]] | None = None,
    ) -> dict:
        """Accuracy, loss, and per-client accuracy variance for ``flat_weights``.

        ``views`` names client-id subsets to additionally score in the same
        forward pass (e.g. the enrolled-so-far population under an arrival
        scenario); each view reports its client/sample counts and accuracy
        (``None`` when the view holds no test samples) under
        ``result["views"]``. Ids outside this evaluator are ignored.
        """
        self._model.set_flat_weights(flat_weights)
        n = self.num_samples
        correct = np.empty(n, dtype=np.float64)
        sample_losses = np.empty(n, dtype=np.float64)
        labels = np.asarray(self._y).reshape(-1)
        for start in range(0, n, self._batch_size):
            stop = min(start + self._batch_size, n)
            logits = self._plan.forward(self._x[start:stop], training=False)
            chunk_labels = labels[start:stop]
            pred = np.argmax(logits, axis=-1)
            correct[start:stop] = (pred == chunk_labels).astype(np.float64)
            probs = softmax(logits)
            sample_losses[start:stop] = -np.log(
                probs[np.arange(stop - start), chunk_labels] + LOG_EPS
            )
        # Per-client hits are exact sums of 0/1 floats, so each tested
        # client's accuracy is the float ``correct[a:b].mean()`` gives.
        sizes = np.diff(self._bounds)
        tested = sizes > 0
        hits = np.zeros(sizes.size)
        if tested.any():
            hits[tested] = np.add.reduceat(correct, self._bounds[:-1][tested])
        per_client = hits[tested] / sizes[tested]
        # Drop per-layer forward caches so the evaluator's replica does not
        # pin last-chunk activations between evaluations.
        self._plan.release_caches()
        out = {
            "accuracy": float(correct.mean()),
            "loss": float(sample_losses.mean()),
            "accuracy_variance": float(np.var(per_client)),
        }
        if views is not None:
            out["views"] = {
                name: self._score_view(hits, sizes, ids) for name, ids in views.items()
            }
        return out

    def _score_view(self, hits: np.ndarray, sizes: np.ndarray, client_ids: Sequence[int]) -> dict:
        slots = np.array([self._slot[cid] for cid in client_ids if cid in self._slot], dtype=int)
        samples = int(sizes[slots].sum())
        return {
            "clients": int(slots.size),
            "samples": samples,
            "accuracy": float(hits[slots].sum()) / samples if samples else None,
        }
