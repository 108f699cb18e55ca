"""NetworkMeter and UnstableClientPolicy tests."""

import numpy as np
import pytest

from repro.sim.failures import UnstableClientPolicy
from repro.sim.network import NetworkMeter


class TestNetworkMeter:
    def test_accumulates(self):
        m = NetworkMeter()
        m.record_upload(100)
        m.record_upload(50)
        m.record_download(30)
        assert m.uplink_bytes == 150
        assert m.downlink_bytes == 30
        assert m.total_bytes == 180
        assert m.uplink_messages == 2
        assert m.downlink_messages == 1

    def test_snapshot(self):
        m = NetworkMeter()
        m.record_download(7)
        snap = m.snapshot()
        assert snap["downlink_bytes"] == 7 and snap["total_bytes"] == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NetworkMeter().record_upload(-1)


class TestUnstableClients:
    def test_selects_requested_count(self, rng):
        p = UnstableClientPolicy(100, rng, num_unstable=10, horizon=100.0)
        assert len(p._dropout_time) == 10

    def test_clamped_to_population(self, rng):
        p = UnstableClientPolicy(5, rng, num_unstable=10, horizon=10.0)
        assert len(p._dropout_time) == 5

    def test_alive_before_dropout_dead_after(self, rng):
        p = UnstableClientPolicy(20, rng, num_unstable=5, horizon=50.0)
        cid, t = next(iter(p._dropout_time.items()))
        assert p.alive_array([cid], t - 1e-9).tolist() == [cid]
        assert p.alive_array([cid], t).size == 0
        assert p.alive_array([cid], t + 100).size == 0

    def test_stable_clients_always_alive(self, rng):
        p = UnstableClientPolicy(20, rng, num_unstable=5, horizon=50.0)
        stable = [c for c in range(20) if c not in p._dropout_time]
        assert len(stable) == 15
        assert p.alive_array(stable, 1e12).tolist() == stable

    def test_alive_clients_filter(self, rng):
        p = UnstableClientPolicy(10, rng, num_unstable=10, horizon=1.0)
        assert p.alive_array(np.arange(10), 2.0).tolist() == []
        assert p.alive_array(np.arange(10), 0.0).tolist() == list(range(10))

    def test_will_complete(self, rng):
        p = UnstableClientPolicy(10, rng, num_unstable=1, horizon=100.0)
        cid, t = next(iter(p._dropout_time.items()))
        assert p.will_complete(cid, 0.0, t - 1.0)
        assert not p.will_complete(cid, 0.0, t + 1.0)
        stable = next(c for c in range(10) if c != cid)
        assert p.will_complete(stable, 0.0, 1e9)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            UnstableClientPolicy(10, rng, num_unstable=-1)
        with pytest.raises(ValueError):
            UnstableClientPolicy(10, rng, horizon=0.0)

    def test_no_comeback(self, rng):
        """Once dropped, never alive again (paper: 'it will not come back')."""
        p = UnstableClientPolicy(30, rng, num_unstable=30, horizon=10.0)
        for c in range(30):
            t = p._dropout_time[c]
            for probe in np.linspace(t, t + 100, 7):
                assert p.alive_array([c], probe).size == 0
