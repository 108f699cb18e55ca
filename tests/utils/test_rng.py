"""RNG factory tests."""

import numpy as np

from repro.utils.rng import SeedSequenceFactory


class TestFactory:
    def test_same_name_same_stream(self):
        f = SeedSequenceFactory(3)
        np.testing.assert_array_equal(f.rng("x").random(5), f.rng("x").random(5))

    def test_different_names_differ(self):
        f = SeedSequenceFactory(3)
        assert not np.allclose(f.rng("x").random(20), f.rng("y").random(20))

    def test_order_independence(self):
        """Adding consumers must not perturb existing streams."""
        f1 = SeedSequenceFactory(5)
        _ = f1.rng("a")
        v1 = f1.rng("b").random(5)
        f2 = SeedSequenceFactory(5)
        v2 = f2.rng("b").random(5)  # "a" never requested
        np.testing.assert_array_equal(v1, v2)

    def test_seed_changes_all_streams(self):
        a = SeedSequenceFactory(1).rng("x").random(10)
        b = SeedSequenceFactory(2).rng("x").random(10)
        assert not np.allclose(a, b)

    def test_none_seed_defaults_to_zero(self):
        a = SeedSequenceFactory(None).rng("x").random(5)
        b = SeedSequenceFactory(0).rng("x").random(5)
        np.testing.assert_array_equal(a, b)

    def test_child_namespacing(self):
        f = SeedSequenceFactory(9)
        direct = f.rng("sub/leaf").random(5)
        via_child = f.child("sub").rng("leaf").random(5)
        np.testing.assert_array_equal(direct, via_child)

    def test_integers_helper(self):
        f = SeedSequenceFactory(0)
        v = f.integers("ints", 10, high=100)
        assert v.shape == (10,)
        assert np.all((0 <= v) & (v < 100))

    def test_seed_property(self):
        assert SeedSequenceFactory(11).seed == 11
        assert SeedSequenceFactory(None).seed == 0

    def test_rng_is_the_named_seed_sequence(self):
        f = SeedSequenceFactory(4)
        np.testing.assert_array_equal(
            f.rng("client/3").random(5),
            np.random.default_rng(f.seed_sequence("client/3")).random(5),
        )
