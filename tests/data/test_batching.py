"""Fixed pseudo-random mini-batch schedule tests."""

import numpy as np
import pytest

from repro.data.batching import FixedBatchSchedule


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


def test_cursor_advances_and_resets():
    s = FixedBatchSchedule(20, 20, client_id=0, seed=1)
    assert s.epochs_consumed == 0
    s.advance_to(3)
    assert s.epochs_consumed == 3
    s.reset()
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
