"""Population API: eager and lazily derived client populations."""

from repro.population.base import MaterializedPopulation, Population, as_population
from repro.population.virtual import VirtualPopulation

__all__ = [
    "Population",
    "MaterializedPopulation",
    "VirtualPopulation",
    "as_population",
]
