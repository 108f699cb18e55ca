"""Public Population API surface: adapters, exports."""

import numpy as np
import pytest

import repro
from repro.core.config import FLConfig
from repro.baselines.fedavg import FedAvg
from repro.experiments.config import build_model_builder
from repro.population.base import MaterializedPopulation, Population, as_population


class TestAsPopulation:
    def test_population_passthrough(self, tiny_bow_dataset):
        pop = MaterializedPopulation(tiny_bow_dataset)
        assert as_population(pop) is pop

    def test_dataset_wrapped(self, tiny_bow_dataset):
        pop = as_population(tiny_bow_dataset)
        assert isinstance(pop, MaterializedPopulation)
        assert pop.dataset is tiny_bow_dataset
        assert pop.num_clients == tiny_bow_dataset.num_clients

    def test_raw_client_list_rejected(self, tiny_bow_dataset):
        """Raw shard lists were a one-release shim; they now get the same
        TypeError as any other non-population, naming the wrapper to use."""
        with pytest.raises(TypeError, match="FederatedDataset"):
            as_population(list(tiny_bow_dataset.clients))
        config = FLConfig(
            clients_per_round=4, local_epochs=1, max_rounds=2,
            max_time=100.0, eval_every=1, num_unstable=0, seed=0,
            compression=None,
        )
        builder = build_model_builder(tiny_bow_dataset, "tiny")
        with pytest.raises(TypeError, match="FederatedDataset"):
            FedAvg(list(tiny_bow_dataset.clients), builder, config)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError, match="Population"):
            as_population(42)
        with pytest.raises(TypeError, match="Population"):
            as_population([1, 2, 3])


class TestMaterializedPopulation:
    def test_unbound_access_raises(self, tiny_bow_dataset):
        pop = MaterializedPopulation(tiny_bow_dataset)
        with pytest.raises(RuntimeError, match="bind"):
            _ = pop.clients

    def test_train_sizes_match_dataset(self, tiny_bow_dataset):
        pop = MaterializedPopulation(tiny_bow_dataset)
        np.testing.assert_array_equal(
            pop.train_sizes(), tiny_bow_dataset.client_sizes()
        )

    def test_materialize_is_identity(self, tiny_bow_dataset):
        pop = MaterializedPopulation(tiny_bow_dataset)
        assert pop.materialize() is tiny_bow_dataset


class TestPublicExports:
    def test_top_level_surface(self):
        for name in (
            "Population",
            "MaterializedPopulation",
            "VirtualPopulation",
            "as_population",
            "parse_scenario",
            "FLConfig",
            "StalenessPolicy",
            "ALGORITHMS",
            "run_experiment",
            "build_virtual_population",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_population_is_abstract_contract(self):
        base = Population()
        with pytest.raises(NotImplementedError):
            _ = base.num_clients
        assert base.dataset is None
