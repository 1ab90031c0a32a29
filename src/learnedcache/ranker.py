"""Pairwise linear ranker over one-hot encoded, discretized features.

A page's score is beta(x) = w . onehot(x); the probability that page A beats
page B (A is reused sooner) is sigmoid(beta_A - beta_B), the Bradley-Terry
model. High score means reused soon (worth keeping), so the eviction policy
drops the lowest-scoring candidates. A PairSet is the encoded table of a
dataset's rows and two arrays of row numbers into it, one pair per position;
training minimizes the pairs' binary cross-entropy with Adam, early-stopping
on validation loss.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .discretizer import FeatureBins
from .errors import ConfigurationError, InternalError, SamplingError, SingleClassError
from .features import DatasetRow

PAIR_BUDGET_CAP = 500_000
PAIRS_PER_ROW = 50

# Adam moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def bt_probability(beta_a: float, beta_b: float) -> float:
    """Bradley-Terry win probability in its exponential-ratio form."""
    z = beta_a - beta_b
    if z > 700.0:
        return 1.0
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass(frozen=True, eq=False)
class PairSet:
    """Row pairs as row numbers into one encoded table: pair i is rows[a[i]]
    against rows[b[i]]."""

    rows: np.ndarray  # (m, k) int64, one active flattened bin index per feature
    a: np.ndarray  # (n,) int64 row numbers
    b: np.ndarray
    y: np.ndarray  # float64, 1.0 where row a is reused strictly sooner than row b

    def __len__(self) -> int:
        return len(self.y)


def bin_offsets(bins: Sequence[FeatureBins]) -> tuple[int, ...]:
    offs = []
    total = 0
    for b in bins:
        offs.append(total)
        total += b.n_bins
    return tuple(offs)


@dataclass
class LinearRanker:
    bins: tuple[FeatureBins, ...]
    weights: np.ndarray  # float64, one weight per (feature, bin)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        dim = sum(b.n_bins for b in self.bins)
        if self.weights.shape != (dim,):
            raise ConfigurationError(f"weights must have shape ({dim},), got {self.weights.shape}")


def default_pair_budget(n_rows: int) -> int:
    return min(PAIR_BUDGET_CAP, PAIRS_PER_ROW * n_rows)


def _encode_matrix(rows: Sequence[DatasetRow], bins: Sequence[FeatureBins]) -> np.ndarray:
    """Flattened one-hot indices, one row per entry: feature j activates
    offset_j + its bin."""
    if rows and len(rows[0].features) != len(bins):
        raise ConfigurationError(
            f"{len(bins)} bin sets for rows of {len(rows[0].features)} features")
    offs = bin_offsets(bins)
    out = np.empty((len(rows), len(bins)), dtype=np.int64)
    # one column at a time: far cheaper than numpy reading a list of row tuples
    columns = zip(*(r.features for r in rows))
    for j, (b, col) in enumerate(zip(bins, columns)):
        raw = np.fromiter(col, dtype=np.uint64, count=len(rows))
        edges = np.asarray(b.edges, dtype=np.uint64)
        out[:, j] = np.searchsorted(edges, raw, side="right") + offs[j]
    return out


def sample_pairs(
    rows: Sequence[DatasetRow],
    bins: Sequence[FeatureBins],
    n_pairs: int,
    seed: int,
) -> PairSet:
    """Uniformly sample row pairs with distinct reuse times from the rows'
    encoded table.

    The sooner-reused row of a pair is the winner (label 1 when row a wins).
    MISSING (2**64 - 1) compares greater than any finite reuse time, so a
    never-reused page loses to everything; pairs whose reuse times are equal
    are rejected and redrawn.
    """
    if n_pairs < 1:
        raise ConfigurationError("n_pairs must be >= 1")
    if not rows:
        raise SamplingError("empty dataset")
    reuse = np.array([r.reuse_time_ns for r in rows], dtype=np.uint64)
    if np.unique(reuse).size < 2:
        raise SamplingError("need at least two distinct reuse times to form pairs")

    enc = _encode_matrix(rows, bins)
    rng = np.random.default_rng(seed)
    picked_a: list[np.ndarray] = []
    picked_b: list[np.ndarray] = []
    got = 0
    while got < n_pairs:
        m = max(1024, int((n_pairs - got) * 1.5))
        a = rng.integers(0, len(rows), size=m)
        b = rng.integers(0, len(rows), size=m)
        keep = reuse[a] != reuse[b]
        a, b = a[keep], b[keep]
        picked_a.append(a)
        picked_b.append(b)
        got += a.size
    ia = np.concatenate(picked_a)[:n_pairs]
    ib = np.concatenate(picked_b)[:n_pairs]
    return PairSet(enc, ia, ib, (reuse[ia] < reuse[ib]).astype(np.float64))


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 50
    batch_size: int = 512
    patience: int = 5
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ConfigurationError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.patience < 1:
            raise ConfigurationError("patience must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError("learning_rate must be finite and > 0")


class EpochStats(NamedTuple):
    epoch: int
    train_loss: float
    val_loss: float
    val_auc: float  # nan when the validation pairs are single-class
    val_f1: float


@dataclass
class TrainResult:
    ranker: LinearRanker
    history: list[EpochStats]
    best_epoch: int


def _logits(w: np.ndarray, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    return w[xa].sum(axis=1) - w[xb].sum(axis=1)


def _set_logits(w: np.ndarray, pairs: PairSet) -> np.ndarray:
    """_logits on the pairs' rows, bit for bit: each table row is the same
    sum of the same gathered weights, taken once."""
    s = w.take(pairs.rows).sum(axis=1)
    return s.take(pairs.a) - s.take(pairs.b)


def _bce(logits: np.ndarray, y: np.ndarray) -> float:
    # -y*log(p) - (1-y)*log(1-p) in the overflow-safe logit form
    return float(np.mean(np.logaddexp(0.0, logits) - y * logits))


def bce_loss(w: np.ndarray, xa: np.ndarray, xb: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy of the pairwise model; used by tests too."""
    return _bce(_logits(w, xa, xb), y)


def _bce_grad_at(
    logits: np.ndarray, xa: np.ndarray, xb: np.ndarray, y: np.ndarray, dim: int
) -> np.ndarray:
    # d loss / d logit goes +coef onto row a's bins and -coef onto row b's; one
    # bincount over xa then xb keeps the summation order of adding xa, then xb
    coef = (1.0 / (1.0 + np.exp(-logits)) - y) / len(y)
    k = xa.shape[1]
    return np.bincount(
        np.concatenate((xa.ravel(), xb.ravel())),
        weights=np.concatenate((np.repeat(coef, k), np.repeat(-coef, k))),
        minlength=dim,
    )


def bce_grad(w: np.ndarray, xa: np.ndarray, xb: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic gradient of bce_loss with respect to w; training uses the same code."""
    return _bce_grad_at(_logits(w, xa, xb), xa, xb, y, len(w))


# A diverging rate overflows the weights to inf and the logits to nan. train
# rejects that run by its validation loss, so numpy need not warn about it.
@np.errstate(over="ignore", invalid="ignore")
def train(
    train_pairs: PairSet,
    val_pairs: PairSet,
    bins: Sequence[FeatureBins],
    config: TrainConfig = TrainConfig(),
) -> TrainResult:
    """Adam + early stopping; returns the best-validation-loss weights.

    Raises ConfigurationError when no epoch reaches a finite validation loss
    (the learning rate diverges), since there is no best epoch to return.
    """
    if not train_pairs or not val_pairs:
        raise ConfigurationError("need non-empty train and validation pair sets")
    bins = tuple(bins)
    dim = sum(b.n_bins for b in bins)
    rows, a, b, y = train_pairs.rows, train_pairs.a, train_pairs.b, train_pairs.y
    # column j must hold feature j's bins
    starts = np.array(bin_offsets(bins))
    ends = starts + [fb.n_bins for fb in bins]
    for table in (rows, val_pairs.rows):
        if table.size and (table.shape[1] != len(bins) or (table.min(axis=0) < starts).any()
                           or (table.max(axis=0) >= ends).any()):
            raise InternalError("pair encoding outside the bin index space")

    w = np.zeros(dim)
    m = np.zeros(dim)
    v = np.zeros(dim)
    step = 0
    rng = np.random.default_rng(config.seed)
    n = len(train_pairs)

    best_loss = math.inf
    best_w = w.copy()
    best_epoch = 0
    bad = 0
    history: list[EpochStats] = []

    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            ba = rows.take(a.take(idx), axis=0)
            bb = rows.take(b.take(idx), axis=0)
            by = y[idx]
            s = _logits(w, ba, bb)
            loss_sum += float(np.sum(np.logaddexp(0.0, s) - by * s))
            g = _bce_grad_at(s, ba, bb, by, dim)

            step += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1**step)
            v_hat = v / (1.0 - ADAM_BETA2**step)
            w -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

        s_val = _set_logits(w, val_pairs)
        val_loss = _bce(s_val, val_pairs.y)
        val_auc, val_f1 = _metrics(s_val, val_pairs.y)
        history.append(EpochStats(epoch, loss_sum / n, val_loss,
                                  math.nan if val_auc is None else val_auc, val_f1))

        if val_loss < best_loss:
            best_loss = val_loss
            best_w = w.copy()
            best_epoch = epoch
            bad = 0
        else:
            bad += 1
            if bad >= config.patience:
                break

    if not best_epoch:
        raise ConfigurationError(
            "no epoch reached a finite validation loss; lower the learning rate"
        )
    return TrainResult(LinearRanker(bins, best_w), history, best_epoch)


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based ROC AUC with half credit for score ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUC undefined for a single-class sample")
    # Members of a tie group share its average rank, so their order within
    # the group changes no rank and the default (unstable) sort will do. NaN
    # equals nothing, so each NaN is a group of its own: the trailing NaN
    # block is sorted by index to rank NaNs in index order.
    order = np.argsort(scores)
    n_nan = int(np.count_nonzero(np.isnan(scores)))
    if n_nan:  # argsort puts NaNs last
        order[-n_nan:].sort()
    sorted_scores = scores[order]
    boundaries = np.nonzero(sorted_scores[1:] != sorted_scores[:-1])[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(scores)]))
    avg_rank = (starts + ends + 1) / 2.0  # 1-based average rank per tie group
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(avg_rank, ends - starts)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def f1_score(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions).astype(bool)
    actual = np.asarray(labels) == 1
    tp = int(np.sum(predictions & actual))
    fp = int(np.sum(predictions & ~actual))
    fn = int(np.sum(~predictions & actual))
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


class EvalMetrics(NamedTuple):
    auc: float | None  # None when the pair set is single-class
    f1: float


def _metrics(logits: np.ndarray, y: np.ndarray) -> EvalMetrics:
    try:
        auc = auc_score(logits, y)
    except SingleClassError:
        auc = None
    return EvalMetrics(auc, f1_score(logits >= 0.0, y))


def evaluate(ranker: LinearRanker, pairs: PairSet) -> EvalMetrics:
    if not pairs:
        raise ConfigurationError("cannot evaluate on an empty pair set")
    return _metrics(_set_logits(ranker.weights, pairs), pairs.y)


def write_history_csv(history: Sequence[EpochStats], path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "train_loss", "val_loss", "val_auc", "val_f1"])
        for row in history:
            w.writerow([row.epoch, repr(row.train_loss), repr(row.val_loss),
                        repr(row.val_auc), repr(row.val_f1)])
