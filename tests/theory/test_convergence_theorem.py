"""Theorem 5.1 (convex convergence of FedAT), checked on ``FedAT`` itself.

Theorem 5.1 predicts suboptimality of the form
``(1 − 2μBησ)^T · Δ0 + O(η²γ²B²G²c²)`` — geometric decay onto a plateau
whose height comes from local-solve inexactness and client heterogeneity.
We verify: (a) the decay is geometric; (b) with homogeneous clients the
plateau vanishes (exact convergence); (c) heterogeneity raises the plateau;
(d) the decay survives λ = 0.

Every run is ``FedAT(...).run()`` — tiering, the event loop, the flush, the
proximal pull, the tiered server and the evaluator — on a federation built
so that the theorem's quantities can be read off the history:

- Two-class logistic regression on synthetic data with label noise, so the
  pooled data is not separable and the minimiser exists. Two-class softmax
  has one flat direction (both class columns shifted together); the
  gradient has no component along it, so gradient descent never moves there.
- Every client's test set is its training set, so the evaluator's loss at
  each eval is exactly ``f(w) = Σ n_k/N f_k``; ``f*`` comes from Newton's
  method on the pooled data.
- Full-batch SGD, raw float32 transfer, no dropouts, no compute time, and
  delay bands ``(1, 1), (2, 2), (3, 3)``: tier m reports every m + 1 time
  units, and every tier client trains in every round of its tier.
"""

import numpy as np
import pytest

from repro.core.config import FLConfig
from repro.core.fedat import FedAT
from repro.data.federated import ClientData, FederatedDataset
from repro.nn.losses import LOG_EPS
from repro.nn.zoo import build_logistic
from repro.sim.latency import TierDelayModel

DIM = 4
TIER_SIZE = 3
SHARD = 40
ROUNDS = 200


def geometric_rate_bound(suboptimality: np.ndarray, *, tail_fraction: float = 0.2) -> dict:
    """Fit the decay phase of a suboptimality trace to ``floor + C · ρ^t``.

    Theorem 5.1 predicts exactly this shape: a geometric term
    ``(1 − 2μBησ)^T`` decaying onto an ``O(η²γ²B²G²c²)`` plateau. The
    plateau is estimated from the trace tail and subtracted before the
    log-linear fit, so ρ measures the *transient* rate. ρ < 1 certifies
    geometric decay.
    """
    s = np.asarray(suboptimality, dtype=float)
    if s.ndim != 1 or s.size < 10:
        raise ValueError("need a 1-D trace with >= 10 points")
    n_tail = max(3, int(s.size * tail_fraction))
    floor = float(np.median(s[-n_tail:]))
    shifted = s - floor
    peak = float(shifted.max())
    if peak <= 0:
        return {"rho": 0.0, "floor": floor, "n_fit": 0}
    # Fit the leading contiguous run of points clearly above the plateau.
    mask = shifted > max(peak * 1e-3, 1e-15)
    idx = np.flatnonzero(mask)
    if idx.size < 5:
        return {"rho": 0.0, "floor": floor, "n_fit": int(idx.size)}
    breaks = np.flatnonzero(np.diff(idx) > 1)
    run_end = int(breaks[0]) + 1 if breaks.size else idx.size
    idx = idx[: max(run_end, 5)]
    t, y = idx.astype(float), np.log(shifted[idx])
    slope, _ = np.polyfit(t, y, 1)
    return {"rho": float(np.exp(slope)), "floor": floor, "n_fit": int(idx.size)}


def federation(*, homogeneous: bool) -> FederatedDataset:
    """Nine clients, each shard drawn around its own labelling direction and
    feature mean with 30 % of labels flipped; ``homogeneous`` gives every
    client the first client's shard."""
    rng = np.random.default_rng(0)
    clients = []
    for k in range(3 * TIER_SIZE):
        if homogeneous and clients:
            x, y = clients[0].x_train, clients[0].y_train
        else:
            direction = rng.normal(size=DIM)
            x = rng.normal(size=(SHARD, DIM)) + 0.5 * rng.normal(size=DIM)
            y = (x @ direction > 0).astype(np.int64)
            flip = rng.random(SHARD) < 0.3
            y[flip] = 1 - y[flip]
        clients.append(ClientData(k, x, y, x, y))
    return FederatedDataset("convex-logistic", clients, 2, (DIM,))


def pooled(dataset: FederatedDataset, ids=None) -> tuple[np.ndarray, np.ndarray]:
    """The training data of clients ``ids`` (all when None), with a bias
    column appended to the features."""
    clients = dataset.clients if ids is None else [dataset.clients[k] for k in ids]
    x = np.concatenate([c.x_train for c in clients])
    y = np.concatenate([c.y_train for c in clients])
    return np.hstack([x, np.ones((len(x), 1))]), y


def objective(theta: np.ndarray, xb: np.ndarray, y: np.ndarray) -> float:
    """Mean two-class softmax cross-entropy, written as the binary logistic
    loss of the class-column difference ``theta``, in the evaluator's
    formula."""
    p_true = 1.0 / (1.0 + np.exp(-np.where(y == 1, 1.0, -1.0) * (xb @ theta)))
    return float(np.mean(-np.log(p_true + LOG_EPS)))


def newton(xb: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimise :func:`objective` by Newton's method; returns the minimiser
    and the gradient and Hessian there."""

    def derivatives(theta):
        p = 1.0 / (1.0 + np.exp(-(xb @ theta)))
        return xb.T @ (p - y) / len(y), (xb * (p * (1 - p))[:, None]).T @ xb / len(y)

    theta = np.zeros(xb.shape[1])
    for _ in range(50):
        grad, hess = derivatives(theta)
        theta = theta - np.linalg.solve(hess, grad)
    return (theta, *derivatives(theta))


def class_difference(flat: np.ndarray) -> np.ndarray:
    """``theta`` of a flat logistic model (``w`` of shape (DIM, 2), then
    ``b``)."""
    w, b = flat[: 2 * DIM].reshape(DIM, 2), flat[2 * DIM :]
    return np.append(w[:, 1] - w[:, 0], b[1] - b[0])


def run_fedat(dataset: FederatedDataset, **params) -> tuple[np.ndarray, FedAT]:
    """One FedAT run (``params`` override ``FedAT.Params``); returns
    ``f(w_t) − f*`` at every global update t, and the system."""
    config = FLConfig(
        optimizer="sgd",
        learning_rate=1.0,
        batch_size=SHARD,
        local_epochs=3,
        max_rounds=ROUNDS,
        eval_every=1,
        compression=None,
        num_unstable=0,
        compute_per_sample=0.0,
        compute_base=0.0,
        clients_per_round=TIER_SIZE,
        algo=FedAT.Params(**{"num_tiers": 3, "lam": 0.4, **params}),
    )
    delays = TierDelayModel.from_counts(
        [TIER_SIZE] * 3,
        np.random.default_rng(0),
        bands=((1.0, 1.0), (2.0, 2.0), (3.0, 3.0)),
        shuffle=False,
    )
    system = FedAT(
        dataset,
        lambda rng: build_logistic(DIM, 2, rng=rng),
        config,
        delay_model=delays,
    )
    history = system.run()
    assert history.rounds().tolist() == list(range(ROUNDS + 1))
    xb, y = pooled(dataset)
    return history.losses() - objective(newton(xb, y)[0], xb, y), system


@pytest.fixture(scope="module")
def heterogeneous():
    return run_fedat(federation(homogeneous=False))


@pytest.fixture(scope="module")
def homogeneous():
    return run_fedat(federation(homogeneous=True))


@pytest.fixture(scope="module")
def lam_zero():
    return run_fedat(federation(homogeneous=False), lam=0.0)


def plateau(suboptimality: np.ndarray) -> float:
    return float(np.median(suboptimality[-20:]))


@pytest.mark.parametrize("kind", ["heterogeneous", "homogeneous"])
class TestFederation:
    """The theorem's premises hold on the federations the runs use."""

    @pytest.fixture
    def dataset(self, kind):
        return federation(homogeneous=kind == "homogeneous")

    def test_optimum_is_stationary(self, dataset):
        _, grad, _ = newton(*pooled(dataset))
        assert np.abs(grad).max() < 1e-12

    def test_objective_is_strongly_convex(self, dataset):
        """Label noise keeps the data non-separable, so the Hessian at the
        optimum is positive definite: μ > 0 in ``theta``."""
        _, _, hess = newton(*pooled(dataset))
        assert np.linalg.eigvalsh(hess).min() > 0.01

    def test_client_optima_differ_only_when_heterogeneous(self, kind, dataset):
        """Distinct local minimisers are what the plateau term measures."""
        optima = np.array([newton(*pooled(dataset, [k]))[0] for k in range(3 * TIER_SIZE)])
        spread = np.abs(optima - optima[0]).max()
        assert spread == 0.0 if kind == "homogeneous" else spread > 0.5

    def test_optimum_lower_bounds_the_run(self, kind, request):
        """``f*`` is below every global model the run produces, and the
        evaluator's loss is ``f`` of the global model."""
        s, system = request.getfixturevalue(kind)
        assert s.min() > -1e-12
        xb, y = pooled(system.dataset)
        assert system.history.records[-1].loss == pytest.approx(
            objective(class_difference(system.global_weights), xb, y), rel=1e-12
        )


class TestTheorem51:
    def test_geometric_decay_to_plateau(self, heterogeneous):
        fit = geometric_rate_bound(heterogeneous[0])
        assert 0.0 < fit["rho"] < 1.0, "suboptimality must decay geometrically"
        assert fit["n_fit"] >= 5

    def test_plateau_below_initial(self, heterogeneous):
        s = heterogeneous[0]
        assert plateau(s) < s[0] / 5

    def test_tiering_recovers_the_delay_parts(self, heterogeneous):
        tiering = heterogeneous[1].tiering
        assert [tiering.clients_in(m).tolist() for m in range(3)] == [
            [0, 1, 2],
            [3, 4, 5],
            [6, 7, 8],
        ]

    def test_tier_update_counts_asymmetric(self, heterogeneous):
        """Faster tiers accumulate more updates (the premise of §4.2): a
        tier reporting every m + 1 time units gets them in the ratio
        6 : 3 : 2."""
        counts = heterogeneous[1].history.meta["tier_update_counts"]
        assert sum(counts) == ROUNDS
        assert counts[0] > counts[1] > counts[2]
        np.testing.assert_allclose(np.array(counts) / ROUNDS, np.array([6, 3, 2]) / 11, atol=0.01)

    def test_homogeneous_clients_converge_exactly(self, homogeneous):
        """Identical local objectives ⇒ the theorem's plateau term vanishes:
        FedAT must drive suboptimality to (numerically) zero, geometrically."""
        s = homogeneous[0]
        assert abs(s[-1]) < 1e-8
        assert 0.0 < geometric_rate_bound(s)["rho"] < 1.0

    def test_heterogeneity_raises_plateau(self, heterogeneous, homogeneous):
        assert plateau(homogeneous[0]) < plateau(heterogeneous[0]) / 10

    def test_lambda_zero_still_converges(self, lam_zero):
        """λ = 0 reduces local solves to plain GD on F_k; FedAT still
        converges (the theorem covers γ-inexact solves)."""
        s = lam_zero[0]
        assert s[-1] < s[0] / 5
        assert 0.0 < geometric_rate_bound(s)["rho"] < 1.0

    def test_proximal_pull_reaches_training(self, heterogeneous, lam_zero):
        """λ changes nothing before the first informative update (see
        below) and every global model after it."""
        pulled, free = heterogeneous[0], lam_zero[0]
        assert pulled[1] == free[1]
        assert np.all(pulled[2:] != free[2:])

    def test_uniform_weights_converge_too(self):
        """The Fig 6 ablation's equal tier weights decay onto a plateau as
        well: the theorem does not rest on the §4.2 mirror rule."""
        s, _ = run_fedat(federation(homogeneous=False), server_weighting="uniform")
        assert plateau(s) < s[0] / 5
        assert 0.0 < geometric_rate_bound(s)["rho"] < 1.0

    def test_first_update_is_invisible_under_mirror_weights(self, heterogeneous):
        """The §4.2 mirror rule gives tier m the update-count share of tier
        M − 1 − m. The fastest tier reports first (t = 1), while the slowest
        tier's count is still 0, so that update gets weight 0 and the global
        model is the initial one. It is the only global update in the run
        that leaves f unchanged: from t = 2 on the middle tier's model moves
        the mix, and every later update reweights it."""
        s = heterogeneous[0]
        assert s[1] == s[0]
        assert np.flatnonzero(np.diff(s) == 0).tolist() == [0]


def test_rate_bound_on_synthetic_series():
    t = np.arange(250)  # long enough that the tail is pure plateau
    series = 10.0 * 0.9**t + 1e-4
    fit = geometric_rate_bound(series)
    assert abs(fit["rho"] - 0.9) < 0.02
    assert fit["floor"] == pytest.approx(1e-4, rel=0.1)


def test_rate_bound_validates():
    with pytest.raises(ValueError):
        geometric_rate_bound(np.ones(3))


def test_rate_bound_flat_series():
    fit = geometric_rate_bound(np.ones(50))
    assert fit["rho"] == 0.0
