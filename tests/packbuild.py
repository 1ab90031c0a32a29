"""Shared builders for model packs and synthetic access streams, and the
feature reader the tests share."""

from __future__ import annotations

import random

import numpy as np

from learnedcache.features import FEATURE_NAMES, FEATURE_ROW, N_FEATURES, FeatureVector
from learnedcache.modelpack import DEFAULT_WEIGHT_SCALE, ModelPack, pack_from_dict
from learnedcache.trace import PageKey

U64_MAX = 2**64 - 1


def build_pack(
    per_feature: list[tuple[list[int], list[float]]],
    scale: int = DEFAULT_WEIGHT_SCALE,
    names=None,
) -> ModelPack:
    """Build a validated pack from (bin_edges, weights_float) per feature.

    Integer weights are derived the same way the exporter derives them, by
    truncating weight * scale toward zero.
    """
    if names is None:
        names = list(FEATURE_NAMES[: len(per_feature)])
    feats = []
    for i, (edges, wf) in enumerate(per_feature):
        feats.append(
            {
                "index": i,
                "name": names[i],
                "n_bins": len(edges) + 1,
                "bin_edges": list(edges),
                "weights_float": [float(w) for w in wf],
                "weights_int": [int(float(w) * scale) for w in wf],
            }
        )
    return pack_from_dict(
        {
            "feature_names": list(names),
            "n_features": len(feats),
            "weight_scale": scale,
            "features": feats,
        }
    )


def zero_pack(n_features: int = N_FEATURES) -> ModelPack:
    """All features constant zero; scores every candidate identically."""
    return build_pack([([], [0.0]) for _ in range(n_features)])


def random_pack(rng: random.Random, n_features: int = N_FEATURES, max_bins: int = 10) -> ModelPack:
    """Random pack mixing tiny, mid-range, and near-limit u64 edges."""
    pools = (
        lambda: rng.randint(0, 50),
        lambda: rng.randint(0, 10**6),
        lambda: rng.randint(0, 10**12),
        lambda: rng.randint(U64_MAX - 10**9, U64_MAX - 1),
    )
    per_feature = []
    for _ in range(n_features):
        n_bins = rng.randint(1, max_bins)
        edges: set[int] = set()
        pool = rng.choice(pools)
        while len(edges) < n_bins - 1:
            edges.add(pool())
        weights = [rng.uniform(-3.0, 3.0) for _ in range(n_bins)]
        per_feature.append((sorted(edges), weights))
    return build_pack(per_feature)


def make_accesses(
    rng: random.Random,
    n: int,
    n_inodes: int = 4,
    pages_per_inode: int = 10,
    t_step_max: int = 2_000_000,
) -> list[tuple[PageKey, int]]:
    """Random access stream over a small page universe, time nondecreasing."""
    t = 0
    out = []
    for _ in range(n):
        if rng.random() < 0.9:
            t += rng.randint(1, t_step_max)
        # else: reuse the previous timestamp to exercise ties
        key = PageKey(1, 10 + rng.randrange(n_inodes), rng.randrange(pages_per_inode))
        out.append((key, t))
    return out


def window_features(tracker, keys, t_now: int) -> list[FeatureVector]:
    """The features of each seen page in keys as of t_now: its column of the
    FEATURE_ROW rows of tracker.window's block, offset_distance included."""
    slots = np.array([tracker.page_slot[k] for k in keys], dtype=np.int64)
    block = tracker.window(slots, t_now, True)
    return [FeatureVector._make(col) for col in block[list(FEATURE_ROW)].T.tolist()]
