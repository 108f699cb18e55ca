"""The paper's claims (``repro.experiments.claims``), one test per (claim, seed).

Runs go through the run cache, so claims share their training runs (Table 1's
35 feed Table 2 and Figs 2–4) and a rerun reads them from ``.bench_cache/``.
``REPRO_SCALE`` picks the scale (default ``bench``). A failure recorded in the
manifest applies at the scale it was measured at and is expected strictly:
the test fails when the recorded pair starts to hold. One test can train tens
of runs, longer than tier-1's two-minute hang dump, so switch that off:

    python -m pytest benchmarks/bench_claims.py -q -o faulthandler_timeout=0
"""

import pytest

from repro.experiments.claims import CLAIMS, SEEDS, evaluate
from repro.experiments.config import active_scale

SCALE = active_scale()


def _case(claim, seed):
    failed = claim.recorded(seed, SCALE)
    marks = ()
    if failed is not None:
        reason = f"recorded failure: measured {failed:.4g} at {SCALE} scale"
        marks = pytest.mark.xfail(strict=True, reason=reason)
    return pytest.param(claim, seed, marks=marks, id=f"{claim.id}-s{seed}")


@pytest.mark.parametrize(("claim", "seed"), [_case(c, s) for c in CLAIMS for s in SEEDS])
def test_claim(claim, seed):
    value = evaluate(claim, seed, SCALE)
    assert claim.holds(value), (
        f"{claim.id} at seed {seed}: {claim.statement} = {value:.4g}, "
        f"not {claim.relation} {claim.tolerance}"
    )
