"""Shared utilities: deterministic RNG management, JSON serialization and
array helpers."""

from repro.utils.arrays import sorted_unique
from repro.utils.rng import SeedSequenceFactory
from repro.utils.serialization import load_json, save_json

__all__ = [
    "SeedSequenceFactory",
    "sorted_unique",
    "save_json",
    "load_json",
]
