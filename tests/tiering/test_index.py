"""Ordered tier index: every incremental split equals the full re-sort.

``Tiering.from_latencies`` is the oracle throughout — the index may only
ever be a cheaper way to compute what the stateless sort computes.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tiering import LatencyTracker, TierIndex, Tiering
from tests.helpers import tier_map

#: Three values only, so equal estimates (ties broken by id) are the
#: common case rather than a measure-zero one.
LATENCIES = st.sampled_from([1.0, 2.0, 3.0])


def _oracle(estimates: np.ndarray, enrolled: set[int], num_tiers: int) -> Tiering:
    ids = np.array(sorted(enrolled), dtype=np.int64)
    return Tiering.from_latencies(estimates[ids], num_tiers, allow_empty=True, client_ids=ids)


def _moved_one_by_one(old: Tiering, new: Tiering, num_clients: int) -> int:
    """The per-client count ``FLSystem.apply_retier`` used to make."""
    was, now = tier_map(old), tier_map(new)
    return sum(1 for c in range(num_clients) if c in was and c in now and was[c] != now[c])


def _assert_same_split(got: Tiering, want: Tiering) -> None:
    assert got.num_tiers == want.num_tiers
    assert got.sizes() == want.sizes()
    for m in range(want.num_tiers):
        # Same ids in the same (id-sorted) order, same dtype.
        np.testing.assert_array_equal(got.clients_in(m), want.clients_in(m))
        assert got.clients_in(m).dtype == np.int64


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_enroll_observe_split_sequences_match_the_full_sort(data):
    n = data.draw(st.integers(1, 14), label="clients")
    num_tiers = data.draw(st.integers(1, 6), label="tiers")  # often more tiers than clients
    prior = np.array(data.draw(st.lists(LATENCIES, min_size=n, max_size=n), label="prior"))
    enrolled = data.draw(st.sets(st.integers(0, n - 1)), label="founders")  # may be empty
    tracker = LatencyTracker(prior, alpha=data.draw(st.sampled_from([0.5, 1.0])))
    index = tracker.make_index(num_tiers, client_ids=sorted(enrolled))
    last = index.split()
    _assert_same_split(last, _oracle(tracker.estimates, enrolled, num_tiers))
    #: Splits nobody reads until the very end, each with what it must say:
    #: a Tiering derives its arrays lazily and must not see later changes.
    unread = []

    ops = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["enroll", "observe", "observe", "split", "pickle"]),
                st.integers(0, n - 1),
                LATENCIES,
            ),
            max_size=40,
        ),
        label="ops",
    )
    for op, cid, latency in [*ops, ("split", 0, 1.0)]:
        if op == "enroll" and cid not in enrolled:
            index.enroll(cid)
            enrolled.add(cid)
        elif op == "observe":  # enrolled or not: a client may be heard before it enrolls
            tracker.observe(cid, latency)
        elif op == "pickle":  # what a checkpoint does to the pair, mid-sequence
            tracker, index, last = pickle.loads(pickle.dumps((tracker, index, last)))
            assert index.estimates is tracker.estimates
        elif op == "split":
            new = index.split()
            _assert_same_split(new, _oracle(tracker.estimates, enrolled, num_tiers))
            assert new.moved_from(last) == _moved_one_by_one(last, new, n)
            last = new
            unread.append((index.split(), _oracle(tracker.estimates, enrolled, num_tiers)))
        assert len(index) == len(enrolled)
        assert sorted(index._order.tolist()) == sorted(enrolled)
        assert np.flatnonzero(index._enrolled).tolist() == sorted(enrolled)
    for idle, want in unread:
        _assert_same_split(idle, want)


def test_index_over_a_fixed_prior_grows_by_arrival():
    """No tracker: arrivals slot in by their profiled latency (FedAT's
    arrival path with online re-tiering off)."""
    prior = np.array([5.0, 1.0, 3.0, 2.0, 4.0, 0.5])
    index = TierIndex(prior, 3, client_ids=[0, 2, 4])
    np.testing.assert_array_equal(index.split().sizes(), [1, 1, 1])
    index.enroll(5)
    index.enroll(1)
    split = index.split()
    _assert_same_split(split, _oracle(prior, {0, 1, 2, 4, 5}, 3))
    assert tier_map(split)[5] == 0 and tier_map(split)[0] == 2
    assert 3 not in index._order and 3 not in tier_map(split)


def test_index_validation():
    prior = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="num_tiers"):
        TierIndex(prior, 0)
    with pytest.raises(ValueError, match="outside"):
        TierIndex(prior, 2, client_ids=[0, 3])
    with pytest.raises(ValueError, match="outside"):
        TierIndex(prior, 2, client_ids=[-1])
    with pytest.raises(ValueError, match="twice"):
        TierIndex(prior, 2, client_ids=[1, 1])
    index = TierIndex(prior, 2, client_ids=[0])
    with pytest.raises(ValueError, match="already enrolled"):
        index.enroll(0)
    with pytest.raises(ValueError, match="outside"):
        index.enroll(3)
    assert index._order.tolist() == [0]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_tracker_rejects_non_finite_latencies_loudly(bad):
    """A NaN passes ``latency < 0``; in the ordered index it would have no
    position and every later bisect would be silently wrong."""
    tracker = LatencyTracker(np.array([1.0, 2.0, 3.0]))
    tracker.make_index(2)
    with pytest.raises(ValueError, match="client 1 "):
        tracker.observe(1, bad)
    np.testing.assert_array_equal(tracker.estimates, [1.0, 2.0, 3.0])
    assert tracker.num_observations.sum() == 0
    with pytest.raises(ValueError, match="client 2 "):
        LatencyTracker(np.array([1.0, 2.0, bad]))


def test_stateless_retier_accepts_an_unsorted_id_list():
    """The one-shot form the perf ledger times: explicit ids in any order."""
    rng = np.random.default_rng(0)
    tracker = LatencyTracker(rng.uniform(1.0, 30.0, size=50))
    ids = [c for c in range(50) if c % 3] + list(range(0, 50, 6))
    _assert_same_split(tracker.retier(4, client_ids=ids), _oracle(tracker.estimates, set(ids), 4))


def test_tiering_membership_is_dense_and_small():
    t = Tiering([np.array([4, 0]), np.array([], dtype=np.int64), np.array([2])])
    assert t._tier_of.dtype == np.int8  # one byte per client id, not two int64 vectors
    assert tier_map(t) == {0: 0, 2: 2, 4: 0}
    assert t._membership().tolist() == [0, -1, 2, -1, 0]  # -1: not tiered
    with pytest.raises(ValueError, match="non-negative"):
        Tiering([np.array([-1, 0])])
    with pytest.raises(ValueError, match="more than one tier"):
        Tiering([np.array([1, 1])])
    many = Tiering([np.arange(3)] + [np.array([], dtype=np.int64)] * 200)
    assert many._tier_of.dtype == np.int16
