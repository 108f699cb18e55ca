"""Ablation benches for the design choices DESIGN.md §5 calls out.

1. Proximal λ — §4.1's local constraint (λ=0 degrades FedAT's intra-tier
   step to plain FedAvg).
2. Tier count M — the paper fixes M=5; sweep 2/5/8.
3. Mis-tiering — §2.1 claims FedAT "can tolerate mis-tiering caused by
   mis-profiling and performance variation".
4. FedAsync staleness function — constant (paper's baseline behaviour)
   vs poly/hinge (adaptive variants from the FedAsync paper).
"""

from conftest import once

from repro.experiments.runner import run_cached


def test_ablation_lambda(benchmark, scale, seed, artifact):
    def run():
        return {
            lam: run_cached(
                "fedat", "sentiment140", scale=scale, seed=seed,
                classes_per_client=2, lam=lam,
            ).best_accuracy()
            for lam in (0.0, 0.05, 0.4)
        }

    result = once(benchmark, run)
    print("\n=== Ablation: proximal λ (FedAT, Sentiment140) ===")
    for lam, acc in result.items():
        print(f"  λ={lam:4.2f}: best={acc:.3f}")
    artifact("ablation_lambda", {str(k): v for k, v in result.items()})
    # All settings must learn; the constraint must not be catastrophic.
    assert min(result.values()) > 0.5
    assert max(result.values()) - min(result.values()) < 0.25


def test_ablation_tier_count(benchmark, scale, seed, artifact):
    def run():
        return {
            m: run_cached(
                "fedat", "sentiment140", scale=scale, seed=seed,
                classes_per_client=2, num_tiers=m,
            ).best_accuracy()
            for m in (2, 5, 8)
        }

    result = once(benchmark, run)
    print("\n=== Ablation: tier count M (FedAT, Sentiment140) ===")
    for m, acc in result.items():
        print(f"  M={m}: best={acc:.3f}")
    artifact("ablation_tiers", {str(k): v for k, v in result.items()})
    assert min(result.values()) > 0.5
    assert max(result.values()) - min(result.values()) < 0.2


def test_ablation_mistiering(benchmark, scale, seed, artifact):
    """FedAT with 30% of clients assigned to wrong tiers still converges
    close to the correctly tiered run (paper §2.1 robustness claim)."""

    def run():
        clean = run_cached(
            "fedat", "sentiment140", scale=scale, seed=seed, classes_per_client=2,
        ).best_accuracy()
        mis = run_cached(
            "fedat", "sentiment140", scale=scale, seed=seed, classes_per_client=2,
            misprofile_fraction=0.3,
        ).best_accuracy()
        return {"clean": clean, "mistiered_30pct": mis}

    result = once(benchmark, run)
    print("\n=== Ablation: mis-tiering tolerance (FedAT) ===")
    print(f"  clean={result['clean']:.3f} mistiered={result['mistiered_30pct']:.3f}")
    artifact("ablation_mistier", result)
    assert result["mistiered_30pct"] > result["clean"] - 0.06


def test_ablation_staleness(benchmark, scale, seed, artifact):
    """Adaptive staleness damping rescues FedAsync's stability — the gap
    between constant and poly/hinge explains why the paper's plain
    FedAsync baseline oscillates under non-IID data."""

    def run():
        return {
            spec.partition(":")[0]: run_cached(
                "fedasync", "cifar10", scale=scale, seed=seed,
                classes_per_client=2, staleness=spec,
            ).best_accuracy()
            for spec in ("constant", "poly:0.5", "hinge:0.5:4")
        }

    result = once(benchmark, run)
    print("\n=== Ablation: FedAsync staleness function (CIFAR) ===")
    for fn, acc in result.items():
        print(f"  {fn:9s}: best={acc:.3f}")
    artifact("ablation_staleness", result)
    assert result["poly"] >= result["constant"] - 0.02, (
        "staleness damping should not hurt FedAsync"
    )
