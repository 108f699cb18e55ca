"""RNG factory tests."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    def test_seed_property(self):
        assert SeedSequenceFactory(11).seed == 11
        assert SeedSequenceFactory(None).seed == 0

    def test_rng_is_the_named_seed_sequence(self):
        f = SeedSequenceFactory(4)
        np.testing.assert_array_equal(
            f.rng("client/3").random(5),
            np.random.default_rng(f.seed_sequence("client/3")).random(5),
        )

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_a_seed_no_stream_takes_is_refused_by_value(self, seed):
        with pytest.raises(ValueError, match=re.escape(repr(seed))):
            SeedSequenceFactory(seed)


#: Seeds of every entropy width: None (0), 0, one uint32 word, two words
#: (at and above 2**32), and three or more (at and above 2**64).
SEEDS = st.one_of(
    st.none(),
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**130),
)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, names=st.lists(st.text(max_size=12), min_size=1, max_size=200))
@example(seed=2**64 + 5, names=["client/0/epoch/0", "ünï/名前", "", "client/0/epoch/0"])
def test_batched_streams_are_numpys_seed_sequence_streams(seed, names):
    """Every generator ``rngs`` derives — any batch size, any name, ASCII or
    not — is in exactly the state NumPy's own ``SeedSequence`` path gives
    the named stream."""
    factory = SeedSequenceFactory(seed)
    generators = factory.rngs(names)
    assert len(generators) == len(names)
    for generator, name in zip(generators, names):
        want = np.random.default_rng(factory.seed_sequence(name))
        assert generator.bit_generator.state == want.bit_generator.state
