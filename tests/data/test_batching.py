"""Fixed pseudo-random mini-batch schedule tests."""

import hashlib

import numpy as np
import pytest

from repro.data.batching import FixedBatchSchedule, cohort_streams


def test_epoch_covers_all_samples_once():
    s = FixedBatchSchedule(25, 10, client_id=0, seed=0)
    seen = np.concatenate(list(s.epochs(0, 1)))
    np.testing.assert_array_equal(np.sort(seen), np.arange(25))


def test_batch_sizes():
    s = FixedBatchSchedule(25, 10, client_id=0, seed=0)
    sizes = [b.size for b in s.epochs(0, 1)]
    assert sizes == [10, 10, 5]
    assert s.batches_per_epoch() == 3


def test_schedule_deterministic_across_instances():
    a = FixedBatchSchedule(30, 7, client_id=3, seed=42)
    b = FixedBatchSchedule(30, 7, client_id=3, seed=42)
    for ba, bb in zip(a.epochs(0, 2), b.epochs(0, 2)):
        np.testing.assert_array_equal(ba, bb)


def test_different_clients_get_different_schedules():
    a = FixedBatchSchedule(30, 30, client_id=0, seed=42)
    b = FixedBatchSchedule(30, 30, client_id=1, seed=42)
    assert not np.array_equal(next(a.epochs(0, 1)), next(b.epochs(0, 1)))


def test_epochs_differ_but_replay_from_the_same_cursor():
    s = FixedBatchSchedule(20, 20, client_id=0, seed=1)
    e0, e1 = s.epochs(0, 2)
    assert not np.array_equal(e0, e1)
    np.testing.assert_array_equal(next(s.epochs(0, 1)), e0)
    np.testing.assert_array_equal(next(s.epochs(1, 1)), e1)


def test_cursor_advances():
    s = FixedBatchSchedule(20, 20, client_id=0, seed=1)
    assert s.epochs_consumed == 0
    s.advance_to(3)
    assert s.epochs_consumed == 3
    s.advance_to(0)
    assert s.epochs_consumed == 0
    with pytest.raises(ValueError):
        s.advance_to(-1)


def test_epoch_order_is_pure_function():
    s = FixedBatchSchedule(15, 5, client_id=2, seed=9)
    np.testing.assert_array_equal(s.epoch_order(4), s.epoch_order(4))


def test_mask_rng_is_a_pure_function_of_seed_client_and_start_epoch():
    """A round's dropout masks, like its batches, depend on nothing else:
    not on other rounds, the cursor, or which instance draws them."""
    a = FixedBatchSchedule(15, 5, client_id=2, seed=9)
    b = FixedBatchSchedule(15, 5, client_id=2, seed=9)
    b.advance_to(7)
    draws = a.mask_rng(3).random(6)
    np.testing.assert_array_equal(b.mask_rng(3).random(6), draws)
    for other in (
        a.mask_rng(4),
        FixedBatchSchedule(15, 5, client_id=3, seed=9).mask_rng(3),
        FixedBatchSchedule(15, 5, client_id=2, seed=10).mask_rng(3),
    ):
        assert not np.array_equal(other.random(6), draws)


def test_batch_size_clamped_to_n():
    s = FixedBatchSchedule(4, 100, client_id=0, seed=0)
    assert s.batch_size == 4


def test_validation():
    with pytest.raises(ValueError):
        FixedBatchSchedule(0, 5, 0, 0)
    with pytest.raises(ValueError):
        FixedBatchSchedule(5, 0, 0, 0)


#: (n_samples, batch_size, client_id, seed, start_epoch, epochs): seeds of
#: one, two and three uint32 words, a one-sample shard, a ragged last batch.
PINNED_ROUNDS = [
    (25, 10, 0, 0, 0, 3),
    (26, 10, 17, 0, 4, 2),
    (1, 10, 3, 7, 0, 1),
    (100, 32, 29999, 2**31 - 1, 9, 3),
    (7, 3, 5, 2**40 + 3, 1, 2),
    (300, 10, 123, 2**64 + 1, 0, 1),
]
#: sha256 of those rounds' epoch orders as little-endian int64, recorded on
#: the per-stream derivation (one SeedSequence per epoch) before
#: cohort_streams existed. A NumPy release that changes seeding fails here.
PINNED_ORDERS = "795f582159446862e407718997ed9f6eb61a45482604c6894a357d53667f7a3f"


def _digest(orders):
    h = hashlib.sha256()
    for order in orders:
        h.update(order.astype("<i8").tobytes())
    return h.hexdigest()


def test_epoch_orders_are_pinned():
    """Epoch orders stream by stream and a cohort's in one batched pass:
    both are the recorded permutations."""
    rounds = [
        (FixedBatchSchedule(n, bs, cid, seed), start, epochs)
        for n, bs, cid, seed, start, epochs in PINNED_ROUNDS
    ]
    one_by_one = [
        s.epoch_order(e) for s, start, epochs in rounds for e in range(start, start + epochs)
    ]
    assert _digest(one_by_one) == PINNED_ORDERS
    orders, generators = cohort_streams(rounds)
    assert generators is None
    assert _digest(orders) == PINNED_ORDERS


def test_cohort_streams_are_each_rounds_own():
    """A round's order is its epochs' permutations end to end and its mask
    generator is ``mask_rng``'s, whatever else shares the pass: cohorts
    small enough for NumPy's per-stream path and large ones, mixed seeds."""
    schedules = [FixedBatchSchedule(5 + 3 * c, 4, c, seed=c % 2) for c in range(9)]
    rounds = [(s, c % 4, 1 + c % 3) for c, s in enumerate(schedules)]
    for k in (1, 2, 9):
        orders, generators = cohort_streams(rounds[:k], masks=True)
        assert len(orders) == len(generators) == k
        for (s, start, epochs), order, generator in zip(rounds, orders, generators):
            want = [s.epoch_order(e) for e in range(start, start + epochs)]
            np.testing.assert_array_equal(order, np.concatenate(want))
            assert generator.bit_generator.state == s.mask_rng(start).bit_generator.state
    assert cohort_streams([], masks=True) == ([], [])
