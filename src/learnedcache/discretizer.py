"""Quantile discretization of u64 feature values into at most MAX_BINS bins.

Bin semantics are [start, end): a value belongs to bin i when it is >= the
(i-1)-th edge and < the i-th edge; values below the first edge land in bin 0
and values >= the last edge land in the top bin. The MISSING sentinel is the
largest u64, so it always falls in the top bin.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigurationError, FitError

MAX_BINS = 10


@dataclass(frozen=True)
class FeatureBins:
    """Strictly increasing interior bin edges for a single feature."""

    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.edges, self.edges[1:]):
            if b <= a:
                raise ConfigurationError("bin edges must be strictly increasing")
        if len(self.edges) + 1 > MAX_BINS:
            raise ConfigurationError(f"more than {MAX_BINS} bins")
        if self.edges and self.edges[0] < 0:
            raise ConfigurationError("bin edges must be unsigned")

    @property
    def n_bins(self) -> int:
        return len(self.edges) + 1


def fit_quantile_bins(values: Iterable[int], max_bins: int = MAX_BINS) -> FeatureBins:
    """Fit near-uniform-occupancy bins via the lower nearest-rank rule.

    Candidate edges are the sorted sample values at ranks floor(k*n/max_bins)
    for k = 1..max_bins-1. Duplicates collapse, and candidates that do not
    exceed the sample minimum are dropped: with [start, end) lookup such an
    edge would pin an empty bottom bin (a constant sample yields one bin).
    """
    if not 1 <= max_bins <= MAX_BINS:
        raise ConfigurationError(f"max_bins must be in [1, {MAX_BINS}]")
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise FitError("cannot fit bins on an empty sample")
    lo = ordered[0]
    edges: list[int] = []
    for k in range(1, max_bins):
        cand = ordered[k * n // max_bins]
        if cand > lo and (not edges or cand > edges[-1]):
            edges.append(cand)
    return FeatureBins(tuple(edges))


def discretize(value: int, bins: FeatureBins) -> int:
    """Bin index by cascading comparisons against each edge in turn."""
    for i, edge in enumerate(bins.edges):
        if value < edge:
            return i
    return len(bins.edges)


def discretize_binary_search(value: int, bins: FeatureBins) -> int:
    """Bin index via binary search; agrees with discretize() everywhere."""
    return bisect_right(bins.edges, value)


def fit_all(columns: Sequence[Sequence[int]]) -> tuple[FeatureBins, ...]:
    """Fit up to MAX_BINS bins per column of a feature matrix."""
    return tuple(fit_quantile_bins(col) for col in columns)
