"""StalenessPolicy: parsing, factor semantics, and server integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ASOFed, FedAsync
from repro.core.fedat import FedAT
from repro.core.server import TieredServer
from repro.core.staleness import StalenessPolicy
from repro.experiments.config import build_model_builder, route_config


class TestParse:
    def test_none_passthrough(self):
        assert StalenessPolicy.parse(None) is None

    def test_kind_only(self):
        p = StalenessPolicy.parse("poly")
        assert p.kind == "poly" and p.a == 0.5

    def test_full_spec(self):
        p = StalenessPolicy.parse("hinge:0.25:6")
        assert (p.kind, p.a, p.b) == ("hinge", 0.25, 6.0)

    def test_empty_parts_take_defaults(self):
        p = StalenessPolicy.parse("hinge::8")
        assert (p.a, p.b) == (0.5, 8.0)

    def test_rejects_bad_specs(self):
        for spec in ("exp", "poly:x", "poly:0.5:4", "constant:1:2:3"):
            with pytest.raises(ValueError):
                StalenessPolicy.parse(spec)

    @pytest.mark.parametrize(
        "spec", ["hinge:-0.5:4", "poly:-1", "poly:nan", "poly:inf", "hinge:0.5:-1", "hinge:0.5:nan"]
    )
    def test_rejects_arguments_that_break_a_run(self, spec):
        """A negative or non-finite ``a`` or ``b`` would divide by zero
        (hinge:-0.5:4 at six versions stale), grow a stale update's weight
        past 1 (poly:-1 turns FedAsync's α = 0.6 into 3.6 at staleness 5) or
        return NaN into the model; it is refused whether parsed or built."""
        with pytest.raises(ValueError, match="finite and >= 0"):
            StalenessPolicy.parse(spec)
        kind, *args = spec.split(":")
        with pytest.raises(ValueError, match="finite and >= 0"):
            StalenessPolicy(kind, *map(float, args))

    def test_zero_arguments_are_allowed(self):
        assert StalenessPolicy.parse("poly:0").factor(9) == 1.0
        assert StalenessPolicy.parse("hinge:0:0").factor(9) == 1.0


class TestFactor:
    def test_constant_is_one_everywhere(self):
        p = StalenessPolicy("constant")
        assert p.is_constant
        assert [p.factor(s) for s in (0, 1, 100)] == [1.0, 1.0, 1.0]

    def test_poly_decays_from_one(self):
        p = StalenessPolicy("poly", a=0.5)
        vals = [p.factor(s) for s in range(6)]
        assert vals[0] == 1.0
        assert vals == sorted(vals, reverse=True)
        assert p.factor(3) == pytest.approx((1 + 3) ** -0.5)

    def test_hinge_flat_then_decays(self):
        p = StalenessPolicy("hinge", a=0.5, b=4.0)
        assert p.factor(4) == 1.0
        assert p.factor(6) == pytest.approx(1.0 / (0.5 * 2 + 1))

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError):
            StalenessPolicy("poly").factor(-1)


ARGS = st.floats(0.0, 50.0)
STALENESS = st.floats(0.0, 1e4)


class TestFactorProperties:
    """``s(Δτ)`` over a, b ∈ [0, 50] and Δτ ∈ [0, 1e4]."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["constant", "poly", "hinge"]), ARGS, ARGS, STALENESS, STALENESS)
    def test_in_unit_interval_and_non_increasing(self, kind, a, b, s1, s2):
        p = StalenessPolicy(kind, a=a, b=b)
        lo, hi = sorted((s1, s2))
        assert 0.0 < p.factor(hi) <= p.factor(lo) <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(ARGS, ARGS, STALENESS)
    def test_hinge_is_one_through_b_then_continuous(self, a, b, s):
        p = StalenessPolicy("hinge", a=a, b=b)
        if s <= b:
            assert p.factor(s) == 1.0
        else:
            assert p.factor(s) == 1.0 / (a * (s - b) + 1.0)
        # Just above b the factor tends to 1: no jump where the hinge bends.
        assert p.factor(b + 1e-9) == pytest.approx(1.0, abs=1e-7)

    @settings(max_examples=300, deadline=None)
    @given(ARGS, STALENESS)
    def test_poly_is_the_power_law(self, a, s):
        assert StalenessPolicy("poly", a=a).factor(s) == (s + 1.0) ** -a

    def test_hinge_is_ours_not_the_unshifted_form(self):
        """``1 / (a·(Δτ − b) + 1)``: at a = 0.5, b = 4, Δτ = 5 that is 2/3.
        The unshifted ``1 / (a·(Δτ − b))`` gives 2 there, above 1."""
        assert StalenessPolicy("hinge", a=0.5, b=4.0).factor(5) == pytest.approx(2 / 3)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["poly", "hinge"]),
        ARGS,
        st.floats(0.0, 5.0),
        st.lists(st.integers(0, 2), min_size=1, max_size=30),
    )
    def test_modulated_tier_weights_stay_a_distribution(self, kind, a, b, tiers):
        server = TieredServer(np.zeros(2), 3, staleness=StalenessPolicy(kind, a=a, b=b))
        for tier in tiers:
            server.submit_tier_update(tier, np.full(2, float(tier)))
            weights = server.tier_weight_vector()
            assert np.all(weights >= 0.0)
            assert weights.sum() == pytest.approx(1.0)


class TestTieredServerModulation:
    def _server(self, policy):
        return TieredServer(np.zeros(4), 3, staleness=policy)

    def test_constant_policy_matches_no_policy(self):
        a = self._server(None)
        b = self._server(StalenessPolicy("constant"))
        for server in (a, b):
            server.submit_tier_update(0, np.ones(4))
            server.submit_tier_update(1, np.full(4, 2.0))
            server.submit_tier_update(0, np.full(4, 3.0))
        np.testing.assert_array_equal(a.global_weights, b.global_weights)
        np.testing.assert_array_equal(a.tier_weight_vector(), b.tier_weight_vector())

    def test_stale_tier_downweighted(self):
        # Two tiers: under §4.2 mirror weighting tier 0 carries tier 1's
        # update share, so after tier 1 races ahead tier 0's *model* is the
        # stale, heavily weighted one — exactly what damping must shrink.
        plain = TieredServer(np.zeros(4), 2)
        damped = TieredServer(np.zeros(4), 2, staleness=StalenessPolicy("poly", a=0.5))
        for server in (plain, damped):
            server.submit_tier_update(0, np.ones(4))
            for _ in range(5):  # tier 1 keeps updating; tier 0 goes stale
                server.submit_tier_update(1, np.full(4, 10.0))
        assert damped.tier_weight_vector()[0] < plain.tier_weight_vector()[0]
        assert damped.global_weights[0] > plain.global_weights[0]

    def test_submitting_tier_has_zero_staleness(self):
        server = self._server(StalenessPolicy("poly", a=0.5))
        server.submit_tier_update(2, np.ones(4))
        assert server._last_update[2] == server.total_updates


class TestSystemIntegration:
    def test_fedat_constant_staleness_is_bit_identical(self, tiny_bow_dataset):
        """`staleness="constant"` must not perturb the paper's §4.2
        weighting — histories stay bit-identical to the default."""
        def run(**over):
            config = route_config(
                "fedat", clients_per_round=4, local_epochs=1, num_tiers=3,
                max_rounds=8, max_time=300.0, eval_every=4, num_unstable=2,
                seed=0, compression=None, **over,
            )
            builder = build_model_builder(tiny_bow_dataset, "tiny")
            h = FedAT(tiny_bow_dataset, builder, config).run()
            d = h.to_dict()
            d["meta"].pop("phase_seconds", None)
            return d

        assert run() == run(staleness="constant")

    def test_fedat_poly_staleness_changes_weighting(self, tiny_bow_dataset):
        def run(**over):
            config = route_config(
                "fedat", clients_per_round=4, local_epochs=1, num_tiers=3,
                max_rounds=12, max_time=300.0, eval_every=4, num_unstable=2,
                seed=0, compression=None, **over,
            )
            builder = build_model_builder(tiny_bow_dataset, "tiny")
            return FedAT(tiny_bow_dataset, builder, config).run()

        base = run()
        damped = run(staleness="poly:0.5")
        assert [r.accuracy for r in base.records] != [
            r.accuracy for r in damped.records
        ]

    @pytest.mark.parametrize("cls", [FedAT, FedAsync, ASOFed])
    def test_params_validate_staleness_spec(self, cls):
        with pytest.raises(ValueError):
            cls.Params(staleness="exponential")
