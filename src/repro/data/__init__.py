"""Synthetic federated datasets and non-IID partitioners.

The paper evaluates on CIFAR-10, Fashion-MNIST, Sentiment140, FEMNIST and
Reddit (via LEAF). Offline we generate class-conditional synthetic analogues
with the same *heterogeneity structure*: shard-based "k classes per client"
non-IID splits, LEAF-style power-law client sizes, and per-user feature
shift.
"""

from repro.data.batching import FixedBatchSchedule
from repro.data.datasets import DATASETS, DatasetSpec, make_dataset
from repro.data.federated import ClientData, FederatedDataset, train_test_split_client
from repro.data.partition import (
    partition_dirichlet,
    partition_iid,
    partition_kclass,
    partition_power_law_sizes,
)

__all__ = [
    "ClientData",
    "FederatedDataset",
    "train_test_split_client",
    "partition_iid",
    "partition_kclass",
    "partition_dirichlet",
    "partition_power_law_sizes",
    "FixedBatchSchedule",
    "make_dataset",
    "DatasetSpec",
    "DATASETS",
]
