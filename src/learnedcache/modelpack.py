"""Integer quantization and the portable JSON model format.

weights_int[i] = trunc(weights_float[i] * weight_scale), truncation toward
zero, so an integer-only scorer (shifts, adds, compares; no floating point)
can rank eviction candidates. Scores are sums of per-feature integer weights
selected by [start, end) bin lookup.

int_score is the plain reference for one feature vector. PreparedScorer
scores a whole eviction window straight from the tracker table: it gathers
each candidate's page and file columns in one take, derives the
time-dependent features in place, and looks every binned feature's weight up
in one merged rank table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discretizer import MAX_BINS
from .errors import PackValidationError, QuantizationError
from .features import (
    FEATURE_NAMES,
    HALF_LIFE_NS,
    I_D1, I_D2, I_EMA, I_SIZE,
    P_D1, P_D2, P_EMA, P_INODE, P_LAST, P_OFF,
)
from .ranker import LinearRanker

_HALF_LIFE_U64 = np.uint64(HALF_LIFE_NS)

DEFAULT_WEIGHT_SCALE = 10_000
_I64_MAX = 2**63 - 1
_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class PackFeature:
    index: int
    name: str
    bin_edges: tuple[int, ...]
    weights_float: tuple[float, ...]
    weights_int: tuple[int, ...]

    @property
    def n_bins(self) -> int:
        return len(self.bin_edges) + 1


@dataclass(frozen=True)
class ModelPack:
    feature_names: tuple[str, ...]
    weight_scale: int
    features: tuple[PackFeature, ...]

    @property
    def n_features(self) -> int:
        return len(self.features)


def quantize(
    ranker: LinearRanker,
    weight_scale: int = DEFAULT_WEIGHT_SCALE,
    names: Sequence[str] = FEATURE_NAMES,
) -> ModelPack:
    if weight_scale < 1:
        raise QuantizationError("weight_scale must be >= 1")
    if len(names) != len(ranker.bins):
        raise QuantizationError(f"expected {len(ranker.bins)} feature names, got {len(names)}")
    feats = []
    pos = 0
    for j, b in enumerate(ranker.bins):
        wf = tuple(float(w) for w in ranker.weights[pos:pos + b.n_bins])
        pos += b.n_bins
        wi = []
        for w in wf:
            q = w * weight_scale
            if math.isfinite(q):
                q = int(q)  # int() truncates toward zero
            if not -_I64_MAX - 1 <= q <= _I64_MAX:  # also rejects inf and nan
                raise QuantizationError(f"quantized weight {q} overflows 64-bit range")
            wi.append(q)
        feats.append(PackFeature(j, str(names[j]), b.edges, wf, tuple(wi)))
    return ModelPack(tuple(str(n) for n in names), weight_scale, tuple(feats))


def pack_to_dict(pack: ModelPack) -> dict:
    return {
        "feature_names": list(pack.feature_names),
        "n_features": pack.n_features,
        "weight_scale": pack.weight_scale,
        "features": [
            {
                "index": fe.index,
                "name": fe.name,
                "n_bins": fe.n_bins,
                "bin_edges": list(fe.bin_edges),
                "weights_float": list(fe.weights_float),
                "weights_int": list(fe.weights_int),
            }
            for fe in pack.features
        ],
    }


def export_json(pack: ModelPack, path: str) -> None:
    with open(path, "w") as f:
        json.dump(pack_to_dict(pack), f, indent=2, allow_nan=False)
        f.write("\n")


def _expect(obj: dict, field: str, kind, where: str):
    if field not in obj:
        raise PackValidationError(f"{where}{field}", "missing required field")
    val = obj[field]
    if kind is int:
        ok = isinstance(val, int) and not isinstance(val, bool)
    elif kind is float:
        ok = isinstance(val, (int, float)) and not isinstance(val, bool)
    else:
        ok = isinstance(val, kind)
    if not ok:
        raise PackValidationError(f"{where}{field}", f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def pack_from_dict(obj: dict) -> ModelPack:
    if not isinstance(obj, dict):
        raise PackValidationError("$", "model pack must be a JSON object")
    names = _expect(obj, "feature_names", list, "")
    n_features = _expect(obj, "n_features", int, "")
    scale = _expect(obj, "weight_scale", int, "")
    raw_feats = _expect(obj, "features", list, "")
    if scale < 1:
        raise PackValidationError("weight_scale", "must be >= 1")
    if n_features != len(raw_feats):
        raise PackValidationError("n_features", f"is {n_features} but features has {len(raw_feats)} entries")
    if len(names) != len(raw_feats):
        raise PackValidationError("feature_names", f"has {len(names)} entries for {len(raw_feats)} features")

    feats = []
    for i, fo in enumerate(raw_feats):
        where = f"features[{i}]."
        if not isinstance(fo, dict):
            raise PackValidationError(f"features[{i}]", "must be a JSON object")
        index = _expect(fo, "index", int, where)
        name = _expect(fo, "name", str, where)
        n_bins = _expect(fo, "n_bins", int, where)
        edges = _expect(fo, "bin_edges", list, where)
        wf = _expect(fo, "weights_float", list, where)
        wi = _expect(fo, "weights_int", list, where)
        if index != i:
            raise PackValidationError(f"{where}index", f"is {index}, expected {i}")
        if not isinstance(names[i], str) or name != names[i]:
            raise PackValidationError(f"{where}name", f"{name!r} does not match feature_names[{i}]")
        if not 1 <= n_bins <= MAX_BINS:
            raise PackValidationError(f"{where}n_bins", f"must be in [1, {MAX_BINS}]")
        if len(edges) != n_bins - 1:
            raise PackValidationError(f"{where}bin_edges", f"expected {n_bins - 1} edges, got {len(edges)}")
        for k, e in enumerate(edges):
            if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e <= _U64_MAX:
                raise PackValidationError(f"{where}bin_edges[{k}]", "must be a u64")
            if k and e <= edges[k - 1]:
                raise PackValidationError(f"{where}bin_edges[{k}]", "edges must be strictly increasing")
        if len(wf) != n_bins:
            raise PackValidationError(f"{where}weights_float", f"expected {n_bins} weights, got {len(wf)}")
        if len(wi) != n_bins:
            raise PackValidationError(f"{where}weights_int", f"expected {n_bins} weights, got {len(wi)}")
        scaled = []
        for k, w in enumerate(wf):
            if not isinstance(w, (int, float)) or isinstance(w, bool):
                raise PackValidationError(f"{where}weights_float[{k}]", "must be a finite number")
            try:
                s = float(w) * scale
            except OverflowError:  # an int operand too large for a float
                s = math.inf
            if not math.isfinite(s):
                raise PackValidationError(
                    f"{where}weights_float[{k}]",
                    f"must be a finite number that stays finite times weight_scale {scale}",
                )
            scaled.append(int(s))
        for k, q in enumerate(wi):
            if not isinstance(q, int) or isinstance(q, bool):
                raise PackValidationError(f"{where}weights_int[{k}]", "must be an integer")
            if q != scaled[k]:
                raise PackValidationError(
                    f"{where}weights_int[{k}]",
                    f"is {q} but trunc(weights_float[{k}] * {scale}) = {scaled[k]}",
                )
        feats.append(
            PackFeature(index, name, tuple(edges), tuple(float(w) for w in wf), tuple(wi))
        )
    return ModelPack(tuple(names), scale, tuple(feats))


def load_json(path: str) -> ModelPack:
    with open(path) as f:
        try:
            obj = json.load(f)
        # ValueError covers JSONDecodeError and text that is not UTF-8;
        # RecursionError is JSON nested deeper than the decoder recurses
        except (ValueError, RecursionError) as exc:
            raise PackValidationError("$", f"invalid JSON: {exc}") from None
    return pack_from_dict(obj)


def int_score(pack: ModelPack, raw_features: Sequence[int]) -> int:
    """Integer-only candidate score: sum of selected weights_int per feature."""
    total = 0
    for fe in pack.features:
        v = raw_features[fe.index]
        b = 0
        for edge in fe.bin_edges:
            if v < edge:
                break
            b += 1
        total += fe.weights_int[b]
    return total


# score_window gathers one (6, 2w) block for a window of w pages in one take
# from the tracker table: the page columns, then each page's file column
# (its P_INODE cell). Page and file columns number their fields alike, so
# each block row holds one field for pages and files side by side: one
# subtract turns row P_LAST into both elapsed times (the page half is the
# access gap, feature 8), one shift decays both ema scores in row P_EMA, and
# row P_OFF holds the page offsets next to their files' last offsets. Viewed
# as (12, w), row 2 * field + is_file holds one field.
#
# (12, w) row that holds each feature, by FEATURE_NAMES index, once
# score_window has derived the access gap, ema decays and offset distance
_ROW = (2 * P_D1, 2 * P_D2, 2 * I_D1 + 1, 2 * I_D2 + 1, 2 * P_OFF, 2 * I_SIZE + 1,
        2 * P_EMA, 2 * I_EMA + 1, 2 * P_LAST)


class PreparedScorer:
    """Precomputed tables for scoring an eviction window in one pass.

    score_window is the only scorer the simulator uses; tests verify it
    agrees element-for-element with the int_score() reference. Features
    whose pack entry has a single bin contribute a constant folded into a
    precomputed base score.

    Binned features share one merged edge list: a single binary search gives
    each value its rank in the merged list, and a per-feature table maps that
    rank straight to the feature's integer weight (the base score is folded
    into the first table row). The tables are int64 when the worst-case
    |score| fits in int64 and exact Python ints (dtype=object) otherwise, so
    wide packs score exactly through the same path.
    """

    __slots__ = ("base", "_elapsed", "_ema", "_offset", "_rows", "_u_edges", "_wflat", "_row_off")

    def __init__(self, pack: ModelPack):
        binned = [fe for fe in pack.features if fe.n_bins > 1]
        self.base = sum(fe.weights_int[0] for fe in pack.features if fe.n_bins == 1)
        idx = {fe.index for fe in binned}
        self._elapsed = not idx.isdisjoint((6, 7, 8))
        self._ema = 6 in idx or 7 in idx
        self._offset = 4 in idx
        # with no binned feature, one all-zero row (any block row) carries base
        self._rows = np.array([_ROW[fe.index] for fe in binned] or [0], dtype=np.intp)

        union = sorted({e for fe in binned for e in fe.bin_edges})
        self._u_edges = np.array(union, dtype=np.uint64)
        bound = abs(self.base) + sum(max(abs(w) for w in fe.weights_int) for fe in binned)
        dtype = np.int64 if bound <= _I64_MAX else object
        wtab = np.zeros((len(self._rows), len(union) + 1), dtype=dtype)
        for a, fe in enumerate(binned):
            # weight for merged-list rank r: rank r means the value sits at or
            # above union[r-1], so this feature's bin is the number of its own
            # edges <= union[r-1] (rank 0 sits below every edge: bin 0)
            lut = np.concatenate(
                ([0], np.searchsorted(np.array(fe.bin_edges, dtype=np.uint64),
                                      self._u_edges, side="right"))
            )
            wtab[a] = np.array(fe.weights_int, dtype=dtype)[lut]
        wtab[0] += self.base
        self._wflat = wtab.reshape(-1)
        self._row_off = (np.arange(len(self._rows)) * (len(union) + 1)).reshape(-1, 1)

    def score_window(self, tracker, slots: np.ndarray, t_now_ns: int) -> np.ndarray:
        """Score resident pages given their tracker column slots.

        Equivalent to int_score(pack, tracker.extract_features(key, t_now))
        per candidate, but reads the tracker table directly and derives
        only the features the pack discriminates on.
        """
        w = len(slots)
        tab = tracker.tab
        g = tab.take(np.concatenate((slots, tab[P_INODE].take(slots).view(np.int64))), axis=1)
        if self._elapsed:
            d = g[P_LAST]
            np.subtract(t_now_ns, d, out=d)
        if self._ema:  # implies _elapsed: d holds both elapsed times
            # a shift by 64 or more whole half-lives gives 0, as Python's >> does
            e = g[P_EMA]
            np.right_shift(e, d // _HALF_LIFE_U64, out=e)
        if self._offset:
            # |offset - last_offset|: of the two wrapped u64 differences
            # the smaller one is the true distance
            r, s = g[P_OFF, :w], g[P_OFF, w:]
            np.subtract(r, s, out=r)
            np.negative(r, out=s)
            np.minimum(r, s, out=r)
        ranks = self._u_edges.searchsorted(g.reshape(12, w).take(self._rows, axis=0), side="right")
        ranks += self._row_off
        # ranks are in range by construction; clip mode skips the bounds check
        return self._wflat.take(ranks, mode="clip").sum(axis=0)
