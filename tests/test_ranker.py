"""Pairwise ranking model: encoding, loss, training, metrics."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from learnedcache.discretizer import FeatureBins, fit_all
from learnedcache.errors import ConfigurationError, InternalError, SamplingError, SingleClassError
from learnedcache.features import MISSING, DatasetRow, FeatureVector
from learnedcache.ranker import (
    EpochStats,
    PairSet,
    TrainConfig,
    auc_score,
    bce_grad,
    bce_loss,
    bin_offsets,
    bt_probability,
    default_pair_budget,
    _encode_matrix,
    _logits,
    _set_logits,
    evaluate,
    f1_score,
    sample_pairs,
    sigmoid,
    train,
    write_history_csv,
    LinearRanker,
)
from learnedcache.trace import PageKey

from reference_impls import ref_auc, ref_encode


def make_row(features, reuse, i=0):
    return DatasetRow(FeatureVector(*features), 1000 + i, reuse, PageKey(1, 1, i))


def sides(pairs):
    """The pairs' a and b rows, gathered from their table."""
    return pairs.rows.take(pairs.a, axis=0), pairs.rows.take(pairs.b, axis=0)


def test_sigmoid_midpoint_and_known_value():
    assert sigmoid(0.0) == 0.5
    assert abs(sigmoid(math.log(3)) - 0.75) < 1e-15


def test_sigmoid_saturates_without_overflow():
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0


def test_preference_probability_depends_only_on_score_difference():
    assert bt_probability(2.0, 2.0) == 0.5
    assert abs(bt_probability(1.0, 0.0) + bt_probability(0.0, 1.0) - 1.0) < 1e-15
    assert abs(bt_probability(5.5, 3.5) - bt_probability(2.0, 0.0)) < 1e-15


def test_preference_probability_saturates_without_overflow():
    # exp(1000) overflows a float
    assert bt_probability(1000.0, 0.0) == 1.0


def test_bin_offsets_accumulate_bin_counts():
    bins = (FeatureBins((1, 2)), FeatureBins(()), FeatureBins((5, 6, 7)))
    assert bin_offsets(bins) == (0, 3, 4)


def test_encode_places_each_feature_in_its_own_block():
    bins = (FeatureBins((10,)), FeatureBins((5, 50)), FeatureBins(()))
    vals = [(0, 0, 0), (10, 5, 7), (99, 60, 1), (3, 49, 2)]
    enc = _encode_matrix([SimpleNamespace(features=v) for v in vals], bins)
    assert enc.dtype == np.int64
    assert [tuple(row) for row in enc.tolist()] == [ref_encode(v, bins) for v in vals]


def test_weights_shape_is_validated():
    with pytest.raises(ConfigurationError):
        LinearRanker((FeatureBins((1,)),), np.zeros(3))


def _win_prob(w, xa, xb):
    """P(a reused sooner than b), read off the loss of the one pair (a, b) labelled 1."""
    return math.exp(-bce_loss(w, np.array([xa]), np.array([xb]), np.ones(1)))


def test_pair_probability_is_antisymmetric():
    rng = np.random.default_rng(7)
    bins = (FeatureBins((10,)), FeatureBins((3, 9)))
    w = rng.normal(size=5)
    xa = ref_encode((0, 5), bins)
    xb = ref_encode((11, 10), bins)
    assert abs(_win_prob(w, xa, xb) + _win_prob(w, xb, xa) - 1.0) < 1e-15


def test_shifting_one_feature_block_leaves_probabilities_alone():
    bins = (FeatureBins((10,)), FeatureBins((3, 9)))
    w = np.array([0.5, -0.2, 1.0, 0.0, -1.0])
    shifted = w.copy()
    shifted[:2] += 7.0  # constant added to every bin of feature 0
    xa = ref_encode((0, 5), bins)
    xb = ref_encode((11, 10), bins)
    p1 = _win_prob(w, xa, xb)
    p2 = _win_prob(shifted, xa, xb)
    assert abs(p1 - p2) < 1e-12


def test_pair_budget_is_capped():
    assert default_pair_budget(10) == 500
    assert default_pair_budget(10_000) == 500_000
    assert default_pair_budget(1_000_000) == 500_000


def test_sampled_pairs_label_the_sooner_reused_row():
    rows = [
        make_row((0, 0, 0, 0, 0, 0, 0, 0, 0), reuse=10, i=0),
        make_row((100, 0, 0, 0, 0, 0, 0, 0, 0), reuse=20, i=1),
        make_row((200, 0, 0, 0, 0, 0, 0, 0, 0), reuse=MISSING, i=2),
    ]
    bins = fit_all([[r.features[j] for r in rows] for j in range(9)])
    enc_to_reuse = {ref_encode(tuple(r.features), bins): r.reuse_time_ns for r in rows}
    assert len(enc_to_reuse) == 3  # encodings must identify the rows
    pairs = sample_pairs(rows, bins, 200, seed=3)
    assert len(pairs) == 200
    # one table row per dataset row, and pairs are row numbers into it
    assert np.array_equal(pairs.rows, _encode_matrix(rows, bins))
    assert pairs.a.shape == pairs.b.shape == (200,)
    assert pairs.a.dtype == pairs.b.dtype == np.int64
    assert 0 <= min(pairs.a.min(), pairs.b.min()) <= max(pairs.a.max(), pairs.b.max()) < len(rows)
    assert pairs.y.dtype == np.float64
    for a, b, y in zip(pairs.a, pairs.b, pairs.y):
        ra = enc_to_reuse[tuple(pairs.rows[a].tolist())]
        rb = enc_to_reuse[tuple(pairs.rows[b].tolist())]
        assert ra != rb
        assert y == (1.0 if ra < rb else 0.0)


def test_sampling_is_deterministic_per_seed():
    rows = [make_row(((i * 17) % 97, 0, 0, 0, 0, 0, 0, 0, 0), reuse=i + 1, i=i) for i in range(40)]
    bins = fit_all([[r.features[j] for r in rows] for j in range(9)])
    a = sample_pairs(rows, bins, 100, seed=5)
    b = sample_pairs(rows, bins, 100, seed=5)
    c = sample_pairs(rows, bins, 100, seed=6)
    same = lambda p, q: all(np.array_equal(getattr(p, f), getattr(q, f)) for f in ("rows", "a", "b", "y"))
    assert same(a, b)
    assert not same(a, c)


def test_sampling_rejects_degenerate_inputs():
    rows = [make_row((i, 0, 0, 0, 0, 0, 0, 0, 0), reuse=5, i=i) for i in range(10)]
    bins = fit_all([[r.features[j] for r in rows] for j in range(9)])
    with pytest.raises(ConfigurationError):
        sample_pairs(rows, bins, 0, seed=1)
    with pytest.raises(SamplingError):
        sample_pairs([], bins, 10, seed=1)
    with pytest.raises(SamplingError):
        sample_pairs(rows, bins, 10, seed=1)  # every reuse time equal


def test_sampling_refuses_bins_that_do_not_match_the_feature_count():
    # more bins than features would encode a column of unset memory, fewer
    # would drop features
    rows = [make_row((i, 0, 0, 0, 0, 0, 0, 0, 0), reuse=i + 1, i=i) for i in range(10)]
    bins = fit_all([[r.features[j] for r in rows] for j in range(9)])
    for wrong in (bins + bins[:1], bins[:8]):
        with pytest.raises(ConfigurationError, match=f"^{len(wrong)} bin sets for rows of 9 features$"):
            sample_pairs(rows, wrong, 10, seed=1)


def _toy_pairs():
    # one binary feature, two bins; group A (bin 0) always reused sooner
    xa = np.array([[0], [1], [0], [1]])
    xb = np.array([[1], [0], [1], [0]])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    return xa, xb, y


def test_loss_at_zero_weights_is_log_two():
    xa, xb, y = _toy_pairs()
    assert abs(bce_loss(np.zeros(2), xa, xb, y) - math.log(2)) < 1e-15


def test_gradient_at_zero_weights_has_half_magnitude():
    # d/ds of log(1 + e^s) - y*s at s = 0 is 0.5 - y, spread over the
    # active bins of each side and averaged over the batch
    xa = np.array([[0]])
    xb = np.array([[1]])
    y = np.array([1.0])
    g = bce_grad(np.zeros(2), xa, xb, y)
    assert np.allclose(g, [-0.5, 0.5])


def test_gradient_contributions_cancel_on_shared_bins():
    xa = np.array([[0]])
    xb = np.array([[0]])
    y = np.array([1.0])
    g = bce_grad(np.zeros(1), xa, xb, y)
    assert np.allclose(g, [0.0])


def test_swapping_sides_and_flipping_labels_preserves_loss_and_gradient():
    rng = np.random.default_rng(11)
    dim = 12
    w = rng.normal(size=dim)
    xa = rng.integers(0, dim, size=(64, 3))
    xb = rng.integers(0, dim, size=(64, 3))
    y = rng.integers(0, 2, size=64).astype(float)
    assert abs(bce_loss(w, xa, xb, y) - bce_loss(w, xb, xa, 1.0 - y)) < 1e-12
    assert np.allclose(bce_grad(w, xa, xb, y), bce_grad(w, xb, xa, 1.0 - y), atol=1e-12)


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    dim = 15
    for _ in range(5):
        w = rng.normal(scale=0.8, size=dim)
        xa = rng.integers(0, dim, size=(32, 4))
        xb = rng.integers(0, dim, size=(32, 4))
        y = rng.integers(0, 2, size=32).astype(float)
        g = bce_grad(w, xa, xb, y)
        h = 1e-5
        fd = np.zeros(dim)
        for i in range(dim):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (bce_loss(wp, xa, xb, y) - bce_loss(wm, xa, xb, y)) / (2 * h)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-5, rel


def test_gradient_accumulates_row_a_bins_then_row_b_bins_in_order():
    # a small dim makes bins repeat, so any other summation order would
    # show up in the low bits
    rng = np.random.default_rng(8)
    dim = 5
    w = rng.normal(size=dim)
    xa = rng.integers(0, dim, size=(300, 3))
    xb = rng.integers(0, dim, size=(300, 3))
    y = rng.integers(0, 2, size=300).astype(float)
    s = w[xa].sum(axis=1) - w[xb].sum(axis=1)
    coef = (1.0 / (1.0 + np.exp(-s)) - y) / len(y)
    want = [0.0] * dim
    for rows, sign in ((xa, 1.0), (xb, -1.0)):
        for i, row in enumerate(rows):
            for idx in row:
                want[idx] += sign * coef[i]
    assert bce_grad(w, xa, xb, y).tolist() == want


def _separable_setup(n_pairs=1500, seed=0):
    rows = []
    for i in range(60):
        fast = i % 2 == 0
        f0 = 0 if fast else 100
        reuse = 10 if fast else 100_000
        rows.append(make_row((f0, 0, 0, 0, 0, 0, 0, 0, 0), reuse=reuse, i=i))
    bins = fit_all([[r.features[j] for r in rows] for j in range(9)])
    tr = sample_pairs(rows, bins, n_pairs, seed=seed)
    va = sample_pairs(rows, bins, n_pairs // 3, seed=seed + 1)
    return rows, bins, tr, va


def test_training_separates_a_perfectly_predictive_feature():
    _, bins, tr, va = _separable_setup()
    cfg = TrainConfig(max_epochs=12, batch_size=256, learning_rate=0.05, seed=1)
    result = train(tr, va, bins, cfg)
    metrics = evaluate(result.ranker, va)
    assert metrics.auc == 1.0
    assert metrics.f1 == 1.0
    # the fast group must get the higher strength score
    fast_enc = ref_encode((0, 0, 0, 0, 0, 0, 0, 0, 0), bins)
    slow_enc = ref_encode((100, 0, 0, 0, 0, 0, 0, 0, 0), bins)
    w = result.ranker.weights
    assert sigmoid(w[list(fast_enc)].sum() - w[list(slow_enc)].sum()) > 0.9
    # training loss should drop substantially from the indifferent start
    assert result.history[-1].train_loss < 0.3 < math.log(2)


def test_training_is_deterministic():
    _, bins, tr, va = _separable_setup()
    cfg = TrainConfig(max_epochs=4, batch_size=128, seed=9)
    r1 = train(tr, va, bins, cfg)
    r2 = train(tr, va, bins, cfg)
    assert np.array_equal(r1.ranker.weights, r2.ranker.weights)
    assert r1.history == r2.history
    assert r1.best_epoch == r2.best_epoch


def test_flipping_every_label_negates_the_learned_weights():
    _, bins, tr, va = _separable_setup(n_pairs=600)
    flip = lambda ps: PairSet(ps.rows, ps.a, ps.b, 1 - ps.y)
    cfg = TrainConfig(max_epochs=5, batch_size=128, seed=2)
    w_pos = train(tr, va, bins, cfg).ranker.weights
    w_neg = train(flip(tr), flip(va), bins, cfg).ranker.weights
    assert np.allclose(w_neg, -w_pos, atol=1e-7)


def test_history_epochs_are_sequential_and_bounded():
    _, bins, tr, va = _separable_setup(n_pairs=400)
    cfg = TrainConfig(max_epochs=3, batch_size=128, seed=0)
    result = train(tr, va, bins, cfg)
    assert [h.epoch for h in result.history] == list(range(1, len(result.history) + 1))
    assert len(result.history) <= 3
    assert 1 <= result.best_epoch <= len(result.history)


def test_returned_weights_are_the_best_validation_epoch():
    _, bins, tr, va = _separable_setup(n_pairs=400)
    cfg = TrainConfig(max_epochs=8, batch_size=64, learning_rate=0.05, seed=3)
    result = train(tr, va, bins, cfg)
    best = min(h.val_loss for h in result.history)
    assert result.history[result.best_epoch - 1].val_loss == best
    assert abs(bce_loss(result.ranker.weights, *sides(va), va.y) - best) < 1e-12


def test_set_logits_equal_logits_on_gathered_rows():
    # 300 rows over 100 distinct feature rows of 9 features in 6 values, 900
    # pairs, and normal weights, so a sum in another order rounds differently
    rng = np.random.default_rng(5)
    distinct = [tuple(int(v) for v in rng.integers(0, 6, 9)) for _ in range(100)]
    rows = [make_row(distinct[i % 100], int(rng.integers(1, 50)), i) for i in range(300)]
    bins = fit_all([[r.features[j] for r in rows] for j in range(9)])
    va = sample_pairs(rows, bins, 900, seed=2)
    for seed in range(3):
        w = np.random.default_rng(seed).normal(size=sum(b.n_bins for b in bins))
        assert np.array_equal(_set_logits(w, va), _logits(w, *sides(va)))


def test_validation_history_is_what_scoring_every_pair_gives():
    # the epoch loop scores each validation table row once and differences
    # the pairs; its history must hold, bit for bit, what scoring every
    # gathered pair side with bce_loss gives, and what evaluate gives
    rng = np.random.default_rng(5)
    rows = [make_row(tuple(int(v) for v in rng.integers(0, 6, 9)), int(rng.integers(1, 50)), i)
            for i in range(300)]
    bins = fit_all([[r.features[j] for r in rows] for j in range(9)])
    tr = sample_pairs(rows, bins, 2000, seed=1)
    va = sample_pairs(rows, bins, 900, seed=2)
    for epochs in (1, 2, 4):
        result = train(tr, va, bins, TrainConfig(max_epochs=epochs, learning_rate=0.01, seed=epochs))
        best = result.history[result.best_epoch - 1]
        metrics = evaluate(result.ranker, va)
        assert best.val_loss == bce_loss(result.ranker.weights, *sides(va), va.y)
        assert (best.val_auc, best.val_f1) == (metrics.auc, metrics.f1)


def test_early_stopping_waits_for_patience():
    # with a huge learning rate validation loss deteriorates immediately,
    # so training should stop after exactly patience epochs past the best
    _, bins, tr, va = _separable_setup(n_pairs=300)
    cfg = TrainConfig(max_epochs=50, batch_size=32, learning_rate=25.0, patience=2, seed=4)
    result = train(tr, va, bins, cfg)
    assert len(result.history) < 50
    assert len(result.history) == result.best_epoch + 2


def test_training_that_never_reaches_a_finite_validation_loss_is_rejected():
    # a finite but huge rate overflows the weights within the first epoch,
    # so every validation loss is nan and no epoch can be returned as best
    _, bins, tr, va = _separable_setup(n_pairs=300)
    cfg = TrainConfig(max_epochs=3, batch_size=32, learning_rate=1e308, seed=4)
    with pytest.raises(ConfigurationError, match="finite validation loss"):
        train(tr, va, bins, cfg)


def _pairs(xa, xb, y):
    """Pair i of xa and xb: the table holds xa's rows, then xb's."""
    n = len(y)
    return PairSet(np.concatenate((np.array(xa, dtype=np.int64), np.array(xb, dtype=np.int64))),
                   np.arange(n), np.arange(n, 2 * n), np.array(y, dtype=np.float64))


def _no_pairs():
    return _pairs(np.empty((0, 1)), np.empty((0, 1)), [])


def test_train_rejects_empty_pair_sets():
    bins = (FeatureBins((1,)),)
    pair = _pairs([[0]], [[1]], [1])
    with pytest.raises(ConfigurationError):
        train(_no_pairs(), pair, bins)
    with pytest.raises(ConfigurationError):
        train(pair, _no_pairs(), bins)


def test_train_rejects_out_of_range_encodings():
    bins = (FeatureBins((1,)),)
    with pytest.raises(InternalError):
        train(_pairs([[5]], [[0]], [1]), _pairs([[0]], [[1]], [1]), bins)
    # in the bin index space, but column 0 holds feature 1's bin
    bins = (FeatureBins((1,)), FeatureBins((1,)))
    good = _pairs([[0, 2]], [[1, 3]], [1])
    with pytest.raises(InternalError):
        train(good, _pairs([[2, 2]], [[1, 3]], [1]), bins)
    with pytest.raises(InternalError):
        train(_pairs([[0, 2, 3]], [[1, 3, 3]], [1]), good, bins)


def test_config_validation():
    for kwargs in (
        {"max_epochs": 0},
        {"batch_size": 0},
        {"patience": 0},
        {"learning_rate": 0.0},
        {"learning_rate": math.inf},
        {"learning_rate": math.nan},
    ):
        with pytest.raises(ConfigurationError):
            TrainConfig(**kwargs)


def test_auc_is_half_for_uninformative_scores():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 2, size=4000)
    scores = rng.normal(size=4000)
    assert abs(auc_score(scores, labels) - 0.5) < 0.03
    assert auc_score(np.zeros(100), np.arange(100) % 2) == 0.5


def test_auc_extremes_and_tie_credit():
    labels = np.array([0, 0, 1, 1])
    assert auc_score(np.array([1.0, 2.0, 3.0, 4.0]), labels) == 1.0
    assert auc_score(np.array([4.0, 3.0, 2.0, 1.0]), labels) == 0.0
    # one positive tied with the only negative: half credit for that pair
    assert auc_score(np.array([0.0, 0.0, 1.0]), np.array([0, 1, 1])) == 0.75


# the tie-prone values: signed zeros (equal to each other), infinities and NaN
_AUC_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0]


@settings(deadline=None, max_examples=200)
@given(
    palette=st.lists(st.sampled_from(_AUC_SPECIALS) | st.floats(), min_size=1, max_size=6),
    n=st.integers(2, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_auc_matches_the_stable_sort_reference_bit_for_bit(palette, n, seed):
    # a few distinct values over up to 3000 scores: large tie groups, which an
    # unstable sort leaves in any order (small arrays are sorted stably anyway)
    rng = np.random.default_rng(seed)
    scores = rng.choice(np.array(palette), size=n)
    labels = rng.integers(0, 2, size=n)
    labels[:2] = (0, 1)
    got, want = auc_score(scores, labels), ref_auc(scores, labels)
    assert got.hex() == want.hex()


def test_auc_ranks_nans_in_index_order():
    # NaN equals nothing, so each NaN is ranked alone; index order decides
    scores = np.array([math.nan] * 40 + [0.0] * 40)
    labels = np.arange(80) % 3 == 0
    assert auc_score(scores, labels) == ref_auc(scores, labels)


def test_auc_requires_both_classes():
    with pytest.raises(SingleClassError):
        auc_score(np.array([1.0, 2.0]), np.array([1, 1]))


def test_f1_from_counted_confusion():
    preds = np.array([True, True, False, False])
    labels = np.array([1, 0, 1, 0])
    assert f1_score(preds, labels) == 0.5  # tp=1 fp=1 fn=1
    assert f1_score(np.array([True, False]), np.array([1, 0])) == 1.0
    assert f1_score(np.array([False, False]), np.array([0, 0])) == 0.0


def test_evaluate_reports_none_auc_on_single_class_pairs():
    bins = (FeatureBins((1,)),)
    pairs = _pairs([[0]] * 8, [[1]] * 8, [1] * 8)
    result = train(pairs, pairs, bins, TrainConfig(max_epochs=2, batch_size=4))
    assert math.isnan(result.history[0].val_auc)
    metrics = evaluate(result.ranker, pairs)
    assert metrics.auc is None
    assert metrics.f1 == result.history[result.best_epoch - 1].val_f1
    with pytest.raises(ConfigurationError):
        evaluate(result.ranker, _no_pairs())


def test_history_csv_is_readable(tmp_path):
    hist = [
        EpochStats(1, 0.7, 0.69, 0.51, 0.5),
        EpochStats(2, 0.6123456789012345, 0.58, 0.77, 0.7),
    ]
    path = tmp_path / "h.csv"
    write_history_csv(hist, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_auc,val_f1"
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert int(cells[0]) == 2
    assert float(cells[1]) == 0.6123456789012345  # full precision survives
