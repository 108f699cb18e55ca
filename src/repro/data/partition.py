"""Non-IID partitioners.

These assign *sample indices* to clients; they are agnostic to the feature
arrays. The key knob throughout the paper's evaluation is "#class" — the
number of distinct labels each client holds (Table 1, Fig 3) — implemented
by :func:`partition_kclass` in the shard style of McMahan et al. (2017).
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import sorted_unique

__all__ = [
    "partition_iid",
    "partition_kclass",
    "partition_dirichlet",
    "partition_power_law_sizes",
]


def _check_args(n_samples: int, num_clients: int) -> None:
    if num_clients <= 0:
        raise ValueError(f"num_clients must be positive, got {num_clients}")
    if n_samples < num_clients:
        raise ValueError(
            f"cannot split {n_samples} samples across {num_clients} clients"
        )


def partition_iid(
    n_samples: int, num_clients: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Uniform random split into near-equal shards."""
    _check_args(n_samples, num_clients)
    perm = rng.permutation(n_samples)
    return [np.sort(part) for part in np.array_split(perm, num_clients)]


def partition_kclass(
    labels: np.ndarray,
    num_clients: int,
    classes_per_client: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Each client receives samples from exactly ``classes_per_client`` labels.

    Classes are assigned round-robin over a shuffled class order so every
    class is held by roughly ``num_clients * k / C`` clients, then each
    class's sample pool is split evenly among its holders. This reproduces
    the "#class = k" sweep of Table 1 / Fig 3 (k = C recovers a balanced
    label-IID split).

    When ``num_clients * k < num_classes`` not every class can have a
    holder; samples of unheld classes are left unassigned (the constraint
    "exactly k classes per client" takes precedence over full coverage).
    """
    labels = np.asarray(labels).reshape(-1)
    _check_args(labels.size, num_clients)
    classes = sorted_unique(labels)
    num_classes = classes.size
    k = int(classes_per_client)
    if not 1 <= k <= num_classes:
        raise ValueError(
            f"classes_per_client must be in [1, {num_classes}], got {k}"
        )

    # Round-robin class assignment: client i takes k consecutive entries of a
    # repeated shuffled class sequence, so class usage counts differ by ≤ 1.
    class_order = rng.permutation(classes)
    seq = np.resize(class_order, num_clients * k)
    holders: dict[int, list[int]] = {int(c): [] for c in classes}
    assigned: list[list[int]] = []
    for i in range(num_clients):
        mine = seq[i * k : (i + 1) * k]
        # Guard against duplicates when k does not divide the cycle cleanly.
        uniq: list[int] = []
        extra = 0
        for c in mine:
            c = int(c)
            while c in uniq:
                extra += 1
                c = int(class_order[(i + extra) % num_classes])
            uniq.append(c)
        assigned.append(uniq)
        for c in uniq:
            holders[c].append(i)

    # Split each class's pool among its holders.
    parts: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for c in classes:
        pool = np.flatnonzero(labels == c)
        pool = rng.permutation(pool)
        who = holders[int(c)]
        if not who:
            continue
        for owner, chunk in zip(who, np.array_split(pool, len(who))):
            if chunk.size:
                parts[owner].append(chunk)

    out: list[np.ndarray] = []
    for i in range(num_clients):
        if parts[i]:
            out.append(np.sort(np.concatenate(parts[i])))
        else:
            out.append(np.empty(0, dtype=np.int64))
    _steal_for_empty_clients(out, rng)
    return out


def partition_dirichlet(
    labels: np.ndarray,
    num_clients: int,
    alpha: float,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Dirichlet label-skew partition (Hsu et al. style).

    Smaller ``alpha`` ⇒ more skew. Used for the FEMNIST/Reddit analogues'
    "natural" heterogeneity where clients have overlapping but unequal label
    distributions.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    labels = np.asarray(labels).reshape(-1)
    _check_args(labels.size, num_clients)
    classes = sorted_unique(labels)
    parts: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for c in classes:
        pool = rng.permutation(np.flatnonzero(labels == c))
        # Proportions of this class that each client receives.
        props = rng.dirichlet(np.full(num_clients, alpha))
        counts = np.floor(props * pool.size).astype(int)
        # Distribute the rounding remainder to the largest shares.
        remainder = pool.size - counts.sum()
        if remainder > 0:
            top = np.argsort(props)[::-1][:remainder]
            counts[top] += 1
        start = 0
        for i, cnt in enumerate(counts):
            if cnt > 0:
                parts[i].append(pool[start : start + cnt])
                start += cnt
    out = [
        np.sort(np.concatenate(p)) if p else np.empty(0, dtype=np.int64)
        for p in parts
    ]
    _steal_for_empty_clients(out, rng)
    return out


def partition_power_law_sizes(
    n_samples: int,
    num_clients: int,
    rng: np.random.Generator,
    *,
    exponent: float = 1.5,
    min_samples: int = 2,
) -> np.ndarray:
    """LEAF-style power-law client sizes: a few heavy users, many light ones.

    Returns per-client sample counts summing to ``n_samples``.
    """
    _check_args(n_samples, num_clients)
    if min_samples * num_clients > n_samples:
        raise ValueError("min_samples too large for n_samples/num_clients")
    raw = rng.pareto(exponent, size=num_clients) + 1.0
    weights = raw / raw.sum()
    counts = np.maximum(np.floor(weights * (n_samples - min_samples * num_clients)), 0)
    counts = counts.astype(np.int64) + min_samples
    # Fix the rounding gap deterministically by adding to the largest clients.
    gap = n_samples - int(counts.sum())
    order = np.argsort(counts)[::-1]
    i = 0
    while gap != 0:
        idx = order[i % num_clients]
        step = 1 if gap > 0 else -1
        if counts[idx] + step >= min_samples:
            counts[idx] += step
            gap -= step
        i += 1
    return counts


def _steal_for_empty_clients(parts: list[np.ndarray], rng: np.random.Generator) -> None:
    """Ensure no client ends up empty by stealing from the largest shard."""
    for i, p in enumerate(parts):
        if p.size >= 2:
            continue
        donor = int(np.argmax([q.size for q in parts]))
        if parts[donor].size <= 4:
            raise ValueError("partition produced unrecoverably small shards")
        take = rng.choice(parts[donor], size=2 - p.size, replace=False)
        kept = sorted_unique(parts[donor])
        parts[donor] = kept[~np.isin(kept, take)]
        parts[i] = np.sort(np.concatenate([p, take])) if p.size else np.sort(take)
