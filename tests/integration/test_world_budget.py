"""Work budget of a dynamic virtual world, in counts rather than clocks.

The ``fedat_virtual`` golden shape (2,000 virtual clients, churn + arrivals,
re-tier every 4 rounds — the smoke shape of the ledger's ``world_30k``) must
run without re-sorting the enrolled population and without asking the
scenario about every pooled client one Python call at a time, and its build
derives the eval subset in one pass that leaves the population's data cache
empty. Counts repeat exactly on any machine; the ledger owns the wall-clock
side.
"""

import numpy as np
import pytest

from repro.experiments.config import build_model_builder, make_fl_config
from repro.experiments.runner import ALGORITHMS, build_virtual_population
from repro.metrics.evaluation import Evaluator
from repro.population import virtual
from repro.scenario import ScenarioEngine
from repro.tiering import Tiering


def _counting(monkeypatch, owner, attr) -> list:
    """Count calls to ``owner.attr`` from here on."""
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    static = isinstance(vars(owner)[attr], staticmethod)
    monkeypatch.setattr(owner, attr, staticmethod(counted) if static else counted)
    return calls


def _fedat_virtual():
    population = build_virtual_population("sentiment140", 2000, "tiny", 7)
    config = make_fl_config(
        "fedat",
        "tiny",
        7,
        max_rounds=12,
        eval_every=3,
        scenario="churn:0.2+arrival:0.1",
        retier_interval=4,
        eval_clients=50,
    )
    return population, config


def test_fedat_virtual_never_resorts_nor_polls_the_pool(monkeypatch):
    population, config = _fedat_virtual()
    system = ALGORITHMS["fedat"](population, build_model_builder(population, "tiny"), config)
    pooled = []
    alive = system.alive
    monkeypatch.setattr(system, "alive", lambda ids, *a: pooled.append(len(ids)) or alive(ids, *a))

    # Everything up to here is the initial build; count the run alone.
    lexsorts = _counting(monkeypatch, np, "lexsort")
    full_splits = _counting(monkeypatch, Tiering, "from_latencies")
    scalar_queries = _counting(monkeypatch, ScenarioEngine, "is_available")
    history = system.run()

    # The budget is only worth something if the world actually moved.
    assert len(history.meta["arrival_trace"]) >= 5
    assert len(history.meta["retier_trace"]) == 3
    assert sum(r["moved"] for r in history.meta["retier_trace"]) > 0

    assert len(lexsorts) == 0, "a re-tier or an arrival re-sorted the enrolled population"
    assert len(full_splits) == 0
    # Scalar availability is asked per *launched* client (does it stay online
    # for its round?), never per pooled client: the pools offered to alive()
    # are an order of magnitude more.
    launched = history.meta["network"]["downlink_messages"]
    assert sum(pooled) > 10 * launched
    assert len(scalar_queries) <= launched


def test_building_the_world_derives_the_eval_subset_once(monkeypatch):
    population, config = _fedat_virtual()
    derived = []
    derive = virtual.derive_client_data
    monkeypatch.setattr(
        virtual,
        "derive_client_data",
        lambda bank, ids, *a: derived.append(list(ids)) or derive(bank, ids, *a),
    )
    system = ALGORITHMS["fedat"](population, build_model_builder(population, "tiny"), config)
    assert [len(ids) for ids in derived] == [50]
    assert derived[0] == system.evaluator.client_ids
    assert len(population._data_cache) == 0, "the eval subset went through the data cache"


@pytest.mark.parametrize("block", [virtual.EVAL_BLOCK, 7])
@pytest.mark.parametrize("max_test", [None, 2])
def test_the_one_pass_evaluator_is_the_per_client_one(monkeypatch, block, max_test):
    """Deriving the eval subset in blocks (one block, or many with each
    block's test rows copied out) builds the evaluator a client at a time
    would."""
    monkeypatch.setattr(virtual, "EVAL_BLOCK", block)
    population, _ = _fedat_virtual()
    model = build_model_builder(population, "tiny")(np.random.default_rng(0))
    ids = np.sort(np.random.default_rng(3).choice(2000, size=40, replace=False)).tolist()
    ids += ids[:3]  # a repeated id is evaluated twice, as before
    fresh, _ = _fedat_virtual()
    want = Evaluator.from_clients(
        [fresh.client_data(c) for c in ids], model, max_test_per_client=max_test
    )
    got = population.build_evaluator(model, client_ids=ids, max_test_per_client=max_test)
    assert got.client_ids == want.client_ids == ids
    assert got._bounds.tolist() == want._bounds.tolist()
    for a, b in ((got._x, want._x), (got._y, want._y)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
