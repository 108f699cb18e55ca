"""Shared utilities: deterministic RNG management and JSON serialization."""

from repro.utils.rng import SeedSequenceFactory
from repro.utils.serialization import load_json, save_json

__all__ = [
    "SeedSequenceFactory",
    "save_json",
    "load_json",
]
