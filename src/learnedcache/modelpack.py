"""Integer quantization and the portable JSON model format.

weights_int[i] = trunc(weights_float[i] * weight_scale), truncation toward
zero, so an integer-only scorer (shifts, adds, compares; no floating point)
can rank eviction candidates. Scores are sums of per-feature integer weights
selected by [start, end) bin lookup. Scores stay in int64, as in the
paper's eBPF scorer (no bignums): quantize and pack_from_dict refuse a pack
whose score_bound passes 2**63 - 1.

PreparedScorer scores a whole eviction window: it reads one contiguous
slice of the tracker's window block (features.AccessTracker.window, which
owns the table layout and the feature derivation), the block rows from the
lowest to the highest binned feature's, and looks every row's weight up in
one merged rank table, where the rows in that slice that hold no binned
feature weigh 0; an int64 dot with a vector of ones sums each page's
column. The tests check it against int_score in tests/reference_impls.py,
the plain reference for one feature vector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discretizer import MAX_BINS
from .errors import ConfigurationError, PackValidationError, QuantizationError
from .features import FEATURE_NAMES, FEATURE_ROW, N_FEATURES
from .ranker import LinearRanker

DEFAULT_WEIGHT_SCALE = 10_000
_I64_MAX = 2**63 - 1
_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class PackFeature:
    name: str
    bin_edges: tuple[int, ...]
    weights_float: tuple[float, ...]
    weights_int: tuple[int, ...]

    @property
    def n_bins(self) -> int:
        return len(self.bin_edges) + 1


@dataclass(frozen=True)
class ModelPack:
    weight_scale: int
    features: tuple[PackFeature, ...]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(fe.name for fe in self.features)

    @property
    def n_features(self) -> int:
        return len(self.features)


def score_bound(features: Sequence[PackFeature]) -> int:
    """Largest |score|, or |partial sum of a score|, these features can give."""
    return sum(max(map(abs, fe.weights_int)) for fe in features)


def quantize(ranker: LinearRanker, names: Sequence[str] = FEATURE_NAMES) -> ModelPack:
    if len(names) != len(ranker.bins):
        raise QuantizationError(f"expected {len(ranker.bins)} feature names, got {len(names)}")
    feats = []
    pos = 0
    for j, b in enumerate(ranker.bins):
        wf = tuple(float(w) for w in ranker.weights[pos:pos + b.n_bins])
        pos += b.n_bins
        q = [w * DEFAULT_WEIGHT_SCALE for w in wf]
        if not all(map(math.isfinite, q)):
            raise QuantizationError(f"{names[j]}: a quantized weight is not finite")
        # int() truncates toward zero
        feats.append(PackFeature(str(names[j]), b.edges, wf, tuple(map(int, q))))
    if (bound := score_bound(feats)) > _I64_MAX:
        raise QuantizationError(f"score bound {bound} exceeds 2**63 - 1")
    return ModelPack(DEFAULT_WEIGHT_SCALE, tuple(feats))


def pack_to_dict(pack: ModelPack) -> dict:
    return {
        "feature_names": list(pack.feature_names),
        "n_features": pack.n_features,
        "weight_scale": pack.weight_scale,
        "features": [
            {
                "index": i,
                "name": fe.name,
                "n_bins": fe.n_bins,
                "bin_edges": list(fe.bin_edges),
                "weights_float": list(fe.weights_float),
                "weights_int": list(fe.weights_int),
            }
            for i, fe in enumerate(pack.features)
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
            PackFeature(name, tuple(edges), tuple(float(w) for w in wf), tuple(wi))
        )
    if (bound := score_bound(feats)) > _I64_MAX:
        raise PackValidationError("features", f"score bound {bound} exceeds 2**63 - 1")
    return ModelPack(scale, tuple(feats))


def load_json(path: str) -> ModelPack:
    with open(path) as f:
        try:
            obj = json.load(f)
        # ValueError covers JSONDecodeError and text that is not UTF-8;
        # RecursionError is JSON nested deeper than the decoder recurses
        except (ValueError, RecursionError) as exc:
            raise PackValidationError("$", f"invalid JSON: {exc}") from None
    return pack_from_dict(obj)


class PreparedScorer:
    """Precomputed tables for scoring an eviction window in one pass.

    score_window is the only scorer the simulator uses; tests verify it
    agrees element-for-element with the int_score reference in
    tests/reference_impls.py. Features whose pack entry has a single bin
    contribute a constant folded into a precomputed base score.

    Binned features share one merged edge list: a single binary search gives
    each value its rank in the merged list, and a per-row table maps that
    rank straight to the feature's integer weight (the base score is folded
    into the first table row). The search covers the block rows lo..hi-1
    from the lowest to the highest binned feature's row, one contiguous
    slice; a row in between that holds no binned feature has an all-zero
    table. Each row's table starts at its own offset in one flat array; the
    offsets for a window of width w are kept as a (rows, w) array, made the
    first time that width is scored, so the add that shifts the ranks is
    one of two arrays of the same shape. The tables are int64, which
    score_bound fits, and each page's weights are summed with an int64 dot
    with a vector of ones, exact because every partial sum lies within
    score_bound.

    Pack feature i is scored on the block row of FEATURE_NAMES[i], so a
    pack whose names are not the first n of FEATURE_NAMES is refused.
    """

    __slots__ = ("base", "_offset", "_slice", "_u_edges", "_wflat", "_row_off", "_ones", "_offsets")

    def __init__(self, pack: ModelPack):
        n = pack.n_features
        if n > N_FEATURES:
            raise ConfigurationError(
                f"model pack has {n} features; the simulator computes {N_FEATURES}"
            )
        if pack.feature_names != FEATURE_NAMES[:n]:
            raise ConfigurationError(
                f"model pack features {list(pack.feature_names)} are not the "
                f"simulator's first {n} features {list(FEATURE_NAMES[:n])}"
            )
        idx = [i for i, fe in enumerate(pack.features) if fe.n_bins > 1]
        binned = [pack.features[i] for i in idx]
        self.base = sum(fe.weights_int[0] for fe in pack.features if fe.n_bins == 1)
        # the window always derives access_to_eviction, which every trained
        # pack bins. No trained pack bins offset_distance: a training row
        # holds a page's features as of its last access, which sets its
        # file's last offset to the page's own, so the feature is 0 in every
        # row and takes one bin. The window derives it only if binned
        self._offset = FEATURE_NAMES.index("offset_distance") in idx
        rows = [FEATURE_ROW[i] for i in idx]
        # with no binned feature, one all-zero row (any block row) carries base
        lo, hi = (min(rows), max(rows) + 1) if rows else (0, 1)
        self._slice = slice(lo, hi)

        union = sorted({e for fe in binned for e in fe.bin_edges})
        self._u_edges = np.array(union, dtype=np.uint64)
        wtab = np.zeros((hi - lo, len(union) + 1), dtype=np.int64)
        for row, fe in zip(rows, binned):
            # weight for merged-list rank r: rank r means the value sits at or
            # above union[r-1], so this feature's bin is the number of its own
            # edges <= union[r-1] (rank 0 sits below every edge: bin 0)
            lut = np.concatenate(
                ([0], np.searchsorted(np.array(fe.bin_edges, dtype=np.uint64),
                                      self._u_edges, side="right"))
            )
            wtab[row - lo] = np.array(fe.weights_int, dtype=np.int64)[lut]
        wtab[0] += self.base
        self._wflat = wtab.reshape(-1)
        self._row_off = (np.arange(hi - lo) * (len(union) + 1)).reshape(-1, 1)
        self._ones = np.ones(hi - lo, dtype=np.int64)
        # window width -> _row_off broadcast to (hi - lo, width), made on first use
        self._offsets: dict[int, np.ndarray] = {}

    def score_window(self, tracker, slots: np.ndarray, t_now_ns: int) -> np.ndarray:
        """Score resident pages given their tracker column slots.

        Element k is the pack's score of column k of the FEATURE_ROW rows of
        tracker.window's block, as int_score in tests/reference_impls.py
        computes it.
        """
        block = tracker.window(slots, t_now_ns, self._offset)
        ranks = self._u_edges.searchsorted(block[self._slice], side="right")
        # an add of two arrays of one shape costs about half a broadcast add
        offsets = self._offsets.get(ranks.shape[1])
        if offsets is None:
            offsets = self._offsets[ranks.shape[1]] = self._row_off + np.zeros_like(ranks)
        ranks += offsets
        # ranks are in range by construction; clip mode skips the bounds
        # check. The int64 dot sums each column exactly, as every partial
        # sum lies within score_bound, and costs about half np.add.reduce
        return self._ones.dot(self._wflat.take(ranks, mode="clip"))
