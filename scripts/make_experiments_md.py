"""Render EXPERIMENTS.md from the claims manifest (``repro.experiments.claims``).

Every claim is evaluated at every seed in ``SEEDS`` through the run cache:
after ``python -m pytest benchmarks/bench_claims.py`` this only reads
``.bench_cache/``; on a cold cache it trains each run once. ``REPRO_SCALE``
picks the scale (default ``bench``).

    python scripts/make_experiments_md.py
"""

from __future__ import annotations

import math
from itertools import groupby
from pathlib import Path

import numpy as np

from repro.experiments.claims import CLAIMS, SEEDS, Claim, evaluate
from repro.experiments.config import active_scale

ROOT = Path(__file__).resolve().parents[1]

HEADER = """# EXPERIMENTS — the paper's claims, measured

Generated by `python scripts/make_experiments_md.py` from the claims
manifest, `src/repro/experiments/claims.py`; `benchmarks/bench_claims.py`
checks the same claims. Scale `{scale}`, seeds {seeds}.

Each row is one claim of FedAT's evaluation (arXiv 2010.05958): a metric of
named runs and the bound it must meet, its value at each seed, the mean ±
standard deviation over the seeds, the paper's value of the same metric where
the paper prints its numbers, and a verdict. A failure the manifest records,
with the value measured at bench scale, reads "fails at seed … (recorded)";
any other failure, or a recorded one that no longer happens, reads BROKEN.
Scenarios are written `dataset#k`: k classes per client, `#iid` for IID.

## Data substitution

The paper trains on CIFAR-10, Fashion-MNIST, Sentiment140, FEMNIST and Reddit
on a cluster whose clients sleep a random delay from one of five bands. This
reproduction ships no dataset and fetches none: `repro.data.datasets`
generates a synthetic analogue of each — class-conditional images built from
smooth prototypes for CIFAR-10 and Fashion-MNIST, a 62-class image task with
power-law client sizes and a per-client writer shift for FEMNIST, bag-of-words
features for a convex Sentiment140 task, next-token prediction over Markov
chain token sequences for Reddit — and partitions it as the paper does. Time
is virtual seconds of the event simulator, whose clients draw the paper's five
delay bands. Absolute accuracies, times and bytes are therefore not the
paper's (the synthetic classes are easier than CIFAR-10's); the claims are the
paper's orderings and factors, each measured within this substrate, and the
notes say where the substrate changes an outcome. Theorem 5.1 is checked on
FedAT itself by `tests/theory/test_convergence_theorem.py`.
"""


def verdict(claim: Claim, values: dict[int, float], scale: str) -> str:
    """``holds``; ``fails at seed …`` when each failure is recorded; else ``BROKEN: …``."""
    failed = [s for s, v in values.items() if not claim.holds(v)]
    recorded = [s for s in values if claim.recorded(s, scale) is not None]
    if failed == recorded:
        return f"fails at seed{_seeds(failed)} (recorded)" if failed else "holds"
    new = [s for s in failed if s not in recorded]
    gone = [s for s in recorded if s not in failed]
    parts = [f"fails at seed{_seeds(new)}"] if new else []
    parts += [f"recorded failure at seed{_seeds(gone)} now holds"] if gone else []
    return "BROKEN: " + "; ".join(parts)


def _seeds(seeds: list[int]) -> str:
    return ("s " if len(seeds) > 1 else " ") + ", ".join(map(str, seeds))


def _fmt(value: float | None) -> str:
    if value is None:
        return "–"
    return "∞" if value == math.inf else f"{value:.4g}"


def _mean(values: list[float]) -> str:
    if not all(map(math.isfinite, values)):
        return "–"
    sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return f"{np.mean(values):.4g} ± {sd:.2g}"


def render(claims: list[Claim], seeds: tuple[int, ...], scale: str) -> str:
    """EXPERIMENTS.md for ``claims``, each evaluated at every seed in ``seeds``."""
    out = [HEADER.format(scale=scale, seeds=", ".join(map(str, seeds)))]
    for ref, group in groupby(claims, key=lambda c: c.paper_ref):
        group = list(group)
        out += [f"## {ref}", ""]
        out.append("| claim | metric | bound | " + " | ".join(f"seed {s}" for s in seeds))
        out[-1] += " | mean ± sd | paper | verdict |"
        out.append("|---" * (len(seeds) + 6) + "|")
        for claim in group:
            values = {s: evaluate(claim, s, scale) for s in seeds}
            row = [f"`{claim.id}`", claim.statement, f"{claim.relation} {claim.tolerance:g}"]
            row += [_fmt(v) for v in values.values()]
            row += [_mean(list(values.values())), _fmt(claim.paper_value)]
            out.append("| " + " | ".join(row + [verdict(claim, values, scale)]) + " |")
        notes = {c.note: [d.id for d in group if d.note == c.note] for c in group if c.note}
        for note, ids in notes.items():
            out += ["", f"*{', '.join(f'`{i}`' for i in ids)}*: {note}"]
        out.append("")
    return "\n".join(out)


def main() -> None:
    path = ROOT / "EXPERIMENTS.md"
    path.write_text(render(CLAIMS, SEEDS, active_scale()))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
