"""Chunked evaluation: bounded memory, the chunk size on a tiny fixture,
and the evaluator's model isolation."""

from dataclasses import fields

import numpy as np
import pytest

from repro.experiments.config import build_model_builder
from repro.metrics.evaluation import EVAL_CHUNK, Evaluator


@pytest.mark.parametrize("batch", [1, 7, 64, 10_000])
def test_chunk_size_never_changes_results(tiny_image_dataset, batch):
    """Softmax/argmax are row-wise and the loss is a mean over the same
    full per-sample vector, so on this tiny fixture these chunk sizes are
    bit-identical. That is the fixture's property, not a general one: on a
    larger CNN a layer's GEMM over another row count can take another BLAS
    path and move the logits' last bits, which is why runs evaluate at one
    constant chunk size."""
    model = build_model_builder(tiny_image_dataset, "tiny")(np.random.default_rng(0))
    flat = model.get_flat_weights()
    reference = Evaluator(tiny_image_dataset, model).evaluate_flat(flat)
    chunked = Evaluator(
        tiny_image_dataset, model, eval_batch_size=batch
    ).evaluate_flat(flat)
    assert chunked == reference


def test_evaluator_owns_a_replica(tiny_bow_dataset):
    """Evaluating must not write into the caller's (shared) flat buffer."""
    model = build_model_builder(tiny_bow_dataset, "tiny")(np.random.default_rng(0))
    before = model.get_flat_weights()
    ev = Evaluator(tiny_bow_dataset, model)
    assert ev._model is not model
    ev.evaluate_flat(np.zeros_like(before))
    np.testing.assert_array_equal(model.get_flat_weights(), before)


def test_the_reddit_model_is_replicated_and_scored_by_its_weights(tiny_bow_dataset):
    """Batch-norm's running statistics are entries of the flat vector, so
    the evaluator owns a replica of the reddit model too and scores exactly
    the statistics the vector holds."""
    from repro.nn.zoo import build_lstm_classifier

    model = build_lstm_classifier(vocab_size=20, num_classes=2, rng=np.random.default_rng(0))

    class _TokenClient:
        def __init__(self, c):
            rng = np.random.default_rng(c.client_id)
            self.x_test = rng.integers(0, 20, size=(4, 5))
            self.y_test = rng.integers(0, 2, size=4)

    ev = Evaluator.from_clients([_TokenClient(c) for c in tiny_bow_dataset.clients[:3]], model)
    assert ev._model is not model
    before = model.get_flat_weights()
    shifted = before.copy()
    shifted[model.store.trainable :] += 0.5  # running mean and variance
    assert ev.evaluate_flat(shifted)["loss"] != ev.evaluate_flat(before)["loss"]
    np.testing.assert_array_equal(model.get_flat_weights(), before)


def test_every_evaluator_a_run_builds_chunks_at_the_constant(tiny_bow_dataset):
    """No config field picks the chunk size: the global evaluator and
    TiFL's tier evaluators all run at ``EVAL_CHUNK``, the size every
    recorded history was evaluated at."""
    from repro.baselines.tifl import TiFL
    from repro.core.config import FLConfig
    from repro.experiments.config import route_config

    assert "eval_batch_size" not in {f.name for f in fields(FLConfig)}
    config = route_config("tifl", clients_per_round=4, max_rounds=2, num_tiers=3)
    system = TiFL(tiny_bow_dataset, build_model_builder(tiny_bow_dataset, "tiny"), config)
    evaluators = [system.evaluator, *filter(None, system._tier_evaluators)]
    assert len(evaluators) > 1
    assert {ev._batch_size for ev in evaluators} == {EVAL_CHUNK} == {256}


def test_rejects_bad_batch_size(tiny_bow_dataset):
    model = build_model_builder(tiny_bow_dataset, "tiny")(np.random.default_rng(0))
    with pytest.raises(ValueError):
        Evaluator(tiny_bow_dataset, model, eval_batch_size=0)


def test_per_client_numbers_match_the_loop_form(tiny_bow_dataset):
    """Per-client accuracies (and so their variance) and a view's numbers
    are those of a per-client loop over the hit vector, bit for bit, on
    ragged shards with empty ones among them."""
    from repro.data.federated import ClientData

    model = build_model_builder(tiny_bow_dataset, "tiny")(np.random.default_rng(0))
    sizes = [3, 0, 5, 1, 0, 7, 0]
    clients = []
    for cid, (source, n) in enumerate(zip(tiny_bow_dataset.clients, sizes)):
        x = np.concatenate([source.x_test, source.x_train])[:n]
        y = np.concatenate([source.y_test, source.y_train])[:n]
        clients.append(ClientData(10 + cid, source.x_train, source.y_train, x, y))
    evaluator = Evaluator.from_clients(clients, model, eval_batch_size=4)
    flat = model.get_flat_weights() + 0.3
    view_ids = [10, 11, 13, 15, 99]
    stats = evaluator.evaluate_flat(flat, views={"some": view_ids, "none": [11, 99]})

    evaluator._model.set_flat_weights(flat)
    correct = []
    for c in clients:
        pred = np.argmax(evaluator._model.forward(c.x_test, training=False), axis=-1)
        correct.append((pred == c.y_test).astype(np.float64))
    per_client = [hits.mean() for hits in correct if hits.size]
    assert stats["accuracy_variance"] == float(np.var(per_client))
    hits = sum(float(correct[cid - 10].sum()) for cid in view_ids if cid < 17)
    samples = sum(sizes[cid - 10] for cid in view_ids if cid < 17)
    assert stats["views"]["some"] == {"clients": 4, "samples": samples, "accuracy": hits / samples}
    assert stats["views"]["none"] == {"clients": 1, "samples": 0, "accuracy": None}
