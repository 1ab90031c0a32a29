"""Quantile bin fitting and lookup."""

import random

import pytest

from learnedcache.discretizer import (
    MAX_BINS,
    FeatureBins,
    discretize,
    discretize_binary_search,
    fit_all,
    fit_quantile_bins,
)
from learnedcache.errors import ConfigurationError, FitError

from reference_impls import ref_discretize

MISSING = 2**64 - 1


def test_even_grid_gets_evenly_spaced_edges():
    bins = fit_quantile_bins(range(100))
    assert bins.edges == (10, 20, 30, 40, 50, 60, 70, 80, 90)
    assert bins.n_bins == 10


def test_shuffled_input_gives_same_edges():
    vals = list(range(100))
    random.Random(0).shuffle(vals)
    assert fit_quantile_bins(vals).edges == fit_quantile_bins(range(100)).edges


def test_constant_sample_collapses_to_one_bin():
    bins = fit_quantile_bins([7] * 50)
    assert bins.edges == ()
    assert bins.n_bins == 1
    assert discretize(0, bins) == 0
    assert discretize(7, bins) == 0
    assert discretize(MISSING, bins) == 0


def test_single_outlier_yields_two_bins():
    bins = fit_quantile_bins([0] * 9 + [100])
    assert bins.edges == (100,)
    assert discretize(99, bins) == 0
    assert discretize(100, bins) == 1  # a value equal to an edge goes up
    assert discretize(101, bins) == 1


def test_heavy_duplication_collapses_duplicate_edges():
    vals = [0] * 50 + [10] * 25 + [20] * 25
    bins = fit_quantile_bins(vals)
    assert bins.edges == (10, 20)
    assert [discretize(v, bins) for v in (0, 9, 10, 19, 20, MISSING)] == [0, 0, 1, 1, 2, 2]


def test_bottom_bin_is_never_empty():
    # candidates equal to the sample minimum are dropped, so the smallest
    # value always lands in bin 0 and bin 0 always holds something
    for seed in range(20):
        rng = random.Random(seed)
        vals = [rng.choice([0, 0, 0, 1, 5, 9]) for _ in range(200)]
        bins = fit_quantile_bins(vals)
        assert discretize(min(vals), bins) == 0


def test_fit_caps_bin_count():
    bins = fit_quantile_bins(range(1000))
    assert bins.n_bins <= MAX_BINS


def test_fit_respects_smaller_max_bins():
    bins = fit_quantile_bins(range(100), max_bins=4)
    assert bins.edges == (25, 50, 75)


def test_fit_rejects_bad_max_bins():
    with pytest.raises(ConfigurationError):
        fit_quantile_bins(range(10), max_bins=0)
    with pytest.raises(ConfigurationError):
        fit_quantile_bins(range(10), max_bins=MAX_BINS + 1)


def test_fit_rejects_empty_sample():
    with pytest.raises(FitError):
        fit_quantile_bins([])


def test_edges_must_strictly_increase():
    with pytest.raises(ConfigurationError):
        FeatureBins((5, 5))
    with pytest.raises(ConfigurationError):
        FeatureBins((5, 4))


def test_edges_must_be_u64s():
    for edges in ((-1,), (-1, 5), (2**64,), (5, 2**64)):
        with pytest.raises(ConfigurationError, match="u64"):
            FeatureBins(edges)
    assert FeatureBins((0, 2**64 - 1)).n_bins == 3


def test_too_many_edges_rejected():
    with pytest.raises(ConfigurationError):
        FeatureBins(tuple(range(1, MAX_BINS + 1)))


def test_lookup_is_monotone_in_the_value():
    bins = fit_quantile_bins([random.Random(1).randrange(10**6) for _ in range(500)])
    last = 0
    for v in range(0, 10**6, 997):
        b = discretize(v, bins)
        assert b >= last
        last = b


def test_missing_sentinel_lands_in_top_bin():
    bins = fit_quantile_bins(range(100))
    assert discretize(MISSING, bins) == bins.n_bins - 1
    assert discretize_binary_search(MISSING, bins) == bins.n_bins - 1


def test_cascade_and_binary_search_agree_with_counting_rule():
    rng = random.Random(42)
    for _ in range(30):
        n_edges = rng.randint(0, 9)
        edges = sorted(rng.sample(range(10**9), n_edges))
        bins = FeatureBins(tuple(edges))
        probes = [rng.randrange(2**64) for _ in range(50)]
        probes += edges + [e - 1 for e in edges] + [e + 1 for e in edges]
        probes += [0, 1, MISSING, MISSING - 1]
        for v in probes:
            expect = ref_discretize(v, edges)
            assert discretize(v, bins) == expect
            assert discretize_binary_search(v, bins) == expect


def test_near_uniform_mass_on_continuous_data():
    rng = random.Random(9)
    vals = sorted(rng.randrange(2**40) for _ in range(5000))
    bins = fit_quantile_bins(vals)
    assert bins.n_bins == 10
    counts = [0] * bins.n_bins
    for v in vals:
        counts[discretize(v, bins)] += 1
    for c in counts:
        assert 0.08 * len(vals) <= c <= 0.12 * len(vals), counts


def test_fit_all_fits_each_column_independently():
    cols = [list(range(100)), [3] * 10, [0] * 9 + [100]]
    all_bins = fit_all(cols)
    assert [b.edges for b in all_bins] == [
        fit_quantile_bins(c).edges for c in cols
    ]
