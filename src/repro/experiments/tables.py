"""Table 1 and Table 2 generators.

Table 1: best prediction accuracy + per-client accuracy variance for five
methods across seven dataset scenarios. Table 2: MB transferred to reach a
target accuracy on the 2-class non-IID datasets.

Absolute numbers differ from the paper (synthetic data, NumPy substrate);
the artifacts the benches assert on are the *shape* claims: FedAT has the
best accuracy and lowest variance, FedAsync the worst accuracy and the
highest communication cost.
"""

from __future__ import annotations

from repro.experiments.runner import run_cached
from repro.metrics.history import RunHistory
from repro.metrics.report import bytes_to_accuracy, format_table

__all__ = [
    "TABLE1_SCENARIOS",
    "TABLE_METHODS",
    "table1",
    "format_table1",
    "table2",
    "format_table2",
]

#: (dataset, classes_per_client); None means IID.
TABLE1_SCENARIOS: list[tuple[str, int | None]] = [
    ("cifar10", 2),
    ("cifar10", 4),
    ("cifar10", 6),
    ("cifar10", 8),
    ("cifar10", None),
    ("fashion_mnist", 2),
    ("sentiment140", 2),
]

TABLE_METHODS = ["tifl", "fedavg", "fedprox", "fedasync", "fedat"]

#: Paper Table 1 accuracies, printed beside the measured ones.
PAPER_TABLE1 = {
    ("cifar10", 2): {
        "tifl": 0.527,
        "fedavg": 0.547,
        "fedprox": 0.509,
        "fedasync": 0.480,
        "fedat": 0.591,
    },
    ("cifar10", 4): {
        "tifl": 0.615,
        "fedavg": 0.628,
        "fedprox": 0.609,
        "fedasync": 0.541,
        "fedat": 0.633,
    },
    ("cifar10", 6): {
        "tifl": 0.654,
        "fedavg": 0.654,
        "fedprox": 0.624,
        "fedasync": 0.531,
        "fedat": 0.673,
    },
    ("cifar10", 8): {
        "tifl": 0.655,
        "fedavg": 0.667,
        "fedprox": 0.650,
        "fedasync": 0.561,
        "fedat": 0.681,
    },
    ("cifar10", None): {
        "tifl": 0.685,
        "fedavg": 0.686,
        "fedprox": 0.669,
        "fedasync": 0.567,
        "fedat": 0.701,
    },
    ("fashion_mnist", 2): {
        "tifl": 0.859,
        "fedavg": 0.842,
        "fedprox": 0.831,
        "fedasync": 0.795,
        "fedat": 0.873,
    },
    ("sentiment140", 2): {
        "tifl": 0.739,
        "fedavg": 0.741,
        "fedprox": 0.742,
        "fedasync": 0.740,
        "fedat": 0.748,
    },
}


def _scenario_key(dataset: str, k: int | None) -> str:
    return f"{dataset}#{'iid' if k is None else k}"


def _runs_for_scenario(
    dataset: str, k: int | None, scale: str, seed: int, methods: list[str]
) -> dict[str, RunHistory]:
    return {
        m: run_cached(m, dataset, scale=scale, seed=seed, classes_per_client=k)
        for m in methods
    }


def table1(
    scale: str = "bench", seed: int = 0, methods: list[str] | None = None
) -> dict:
    """Reproduce Table 1: accuracy and normalized variance per scenario."""
    methods = methods or TABLE_METHODS
    out: dict = {"scale": scale, "seed": seed, "scenarios": {}}
    for dataset, k in TABLE1_SCENARIOS:
        runs = _runs_for_scenario(dataset, k, scale, seed, methods)
        fedat_var = runs["fedat"].mean_accuracy_variance() if "fedat" in runs else None
        cell: dict = {}
        for m, h in runs.items():
            var = h.mean_accuracy_variance()
            cell[m] = {
                "accuracy": h.best_accuracy(),
                "variance": var,
                "norm_variance": (
                    var / fedat_var if fedat_var not in (None, 0.0) else None
                ),
                "paper_accuracy": PAPER_TABLE1[(dataset, k)][m],
            }
        accs = {m: c["accuracy"] for m, c in cell.items() if m != "fedat"}
        if "fedat" in cell and accs:
            fedat_acc = cell["fedat"]["accuracy"]
            cell["improvement_vs_best_baseline"] = fedat_acc - max(accs.values())
            cell["improvement_vs_worst_baseline"] = fedat_acc - min(accs.values())
        out["scenarios"][_scenario_key(dataset, k)] = cell
    return out


def format_table1(result: dict) -> str:
    """Plain-text rendering in the paper's layout (methods × scenarios)."""
    scenarios = list(result["scenarios"])
    headers = ["method", "metric", *scenarios]
    rows = []
    methods = [m for m in TABLE_METHODS if m in next(iter(result["scenarios"].values()))]
    for m in methods:
        rows.append(
            [m, "accuracy"]
            + [result["scenarios"][s][m]["accuracy"] for s in scenarios]
        )
        rows.append(
            [m, "norm.var"]
            + [result["scenarios"][s][m]["norm_variance"] for s in scenarios]
        )
        rows.append(
            [m, "paper.acc"]
            + [result["scenarios"][s][m]["paper_accuracy"] for s in scenarios]
        )
    return format_table(headers, rows, float_fmt="{:.3f}")


#: Table 2 datasets and the paper's reported MB (for side-by-side printing).
PAPER_TABLE2 = {
    "cifar10": {
        "fedavg": 1828.54,
        "tifl": 2140.71,
        "fedprox": None,
        "fedasync": None,
        "fedat": 1675.82,
    },
    "fashion_mnist": {
        "fedavg": 1048.25,
        "tifl": 1041.98,
        "fedprox": 2169.95,
        "fedasync": 9895.53,
        "fedat": 1041.54,
    },
    "sentiment140": {
        "fedavg": 16.71,
        "tifl": 17.20,
        "fedprox": 18.42,
        "fedasync": 82.27,
        "fedat": 16.41,
    },
}


def table2(
    scale: str = "bench",
    seed: int = 0,
    *,
    target_fraction: float = 0.9,
    methods: list[str] | None = None,
) -> dict:
    """Reproduce Table 2: MB transferred to reach a target accuracy.

    The paper uses absolute targets (0.50/0.79/0.73) tied to its datasets;
    here the target is ``target_fraction × FedAvg's best accuracy`` on the
    same runs, which lands in the same regime (just below the synchronous
    methods' converged accuracy).
    """
    methods = methods or TABLE_METHODS
    out: dict = {"scale": scale, "seed": seed, "datasets": {}}
    for dataset in ("cifar10", "fashion_mnist", "sentiment140"):
        runs = _runs_for_scenario(dataset, 2, scale, seed, methods)
        target = target_fraction * runs["fedavg"].best_accuracy()
        cell = {"target_accuracy": target}
        for m, h in runs.items():
            b = bytes_to_accuracy(h, target)
            cell[m] = {
                "megabytes": None if b is None else b / 1e6,
                "paper_megabytes": PAPER_TABLE2[dataset][m],
            }
        out["datasets"][dataset] = cell
    return out


def format_table2(result: dict) -> str:
    datasets = list(result["datasets"])
    headers = ["method", *[f"{d} (MB)" for d in datasets], *[f"{d} (paper)" for d in datasets]]
    rows = []
    methods = [m for m in TABLE_METHODS if m in ALL_METHODS_IN(result)]
    for m in methods:
        row = [m]
        row += [result["datasets"][d][m]["megabytes"] for d in datasets]
        row += [result["datasets"][d][m]["paper_megabytes"] for d in datasets]
        rows.append(row)
    target_row = ["(target)"] + [
        result["datasets"][d]["target_accuracy"] for d in datasets
    ] + [None] * len(datasets)
    rows.append(target_row)
    return format_table(headers, rows, float_fmt="{:.2f}")


def ALL_METHODS_IN(result: dict) -> set[str]:
    first = next(iter(result["datasets"].values()))
    return {k for k in first if k != "target_accuracy"}
