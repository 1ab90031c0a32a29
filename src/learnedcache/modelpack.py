"""Integer quantization and the portable JSON model format.

weights_int[i] = trunc(weights_float[i] * weight_scale), truncation toward
zero, so an integer-only scorer (shifts, adds, compares; no floating point)
can rank eviction candidates. Scores are sums of per-feature integer weights
selected by [start, end) bin lookup.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discretizer import MAX_BINS, FeatureBins
from .errors import PackValidationError, QuantizationError
from .features import (
    FEATURE_NAMES,
    I_D1, I_D2, I_EMA, I_EMA_T, I_LAST_OFF, I_SIZE,
    P_D1, P_D2, P_EMA, P_EMA_T, P_INODE, P_LAST, P_OFF,
)
from .ranker import LinearRanker

_HALF_LIFE_U64 = np.uint64(1_000_000_000)
_SHIFT_CAP = np.uint64(63)

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
            q = int(w * weight_scale)  # int() truncates toward zero
            if not -_I64_MAX - 1 <= q <= _I64_MAX:
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
        except json.JSONDecodeError as exc:
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
        if b >= MAX_BINS:
            b = MAX_BINS - 1
        total += fe.weights_int[b]
    return total


def float_score(pack: ModelPack, raw_features: Sequence[int]) -> float:
    """Same lookup as int_score but over the float weights."""
    total = 0.0
    for fe in pack.features:
        v = raw_features[fe.index]
        b = 0
        for edge in fe.bin_edges:
            if v < edge:
                break
            b += 1
        total += fe.weights_float[b]
    return total


_PAGE_SOURCED = {0: P_D1, 1: P_D2, 4: P_OFF, 6: P_EMA_T, 8: P_LAST}
_INODE_SOURCED = {2: I_D1, 3: I_D2, 5: I_SIZE, 7: I_EMA_T}


class PreparedScorer:
    """Precomputed arrays for scoring an eviction window in one pass.

    score_window is the only scorer the simulator uses; tests verify it
    agrees element-for-element with the int_score() reference. Features
    whose pack entry has a single bin contribute a constant folded into a
    precomputed base score.

    Multi-bin features share one merged edge list: a single binary search
    gives each value its rank in the merged list, and a per-feature table
    maps that rank straight to the feature's integer weight (the base score
    is folded into the first table row). When the worst-case |score| fits in
    32 bits the weight tables are int32, keeping the pipeline in narrow
    arithmetic. Window scoring gathers each tracker table once with a single
    two-dimensional index (field rows x candidate slots) and derives the
    delta/decay features in place on the gathered block.
    """

    __slots__ = (
        "pack", "indices", "edge_tuples", "weight_tuples", "base", "active",
        "_u_edges", "_wflat", "_row_off", "_wide", "_order",
        "_kp", "_ki", "_sp", "_si", "_pfields", "_ifields", "_pi_row",
        "_gap_row", "_pair", "_singles", "_offd", "_mulcache", "_bufcache",
        "_offcache",
    )

    def __init__(self, pack: ModelPack):
        self.pack = pack
        self.indices = tuple(fe.index for fe in pack.features)
        self.edge_tuples = tuple(fe.bin_edges for fe in pack.features)
        self.weight_tuples = tuple(fe.weights_int for fe in pack.features)
        self.base = sum(fe.weights_int[0] for fe in pack.features if fe.n_bins == 1)
        self.active = tuple(j for j, fe in enumerate(pack.features) if fe.n_bins > 1)
        bound = abs(self.base) + sum(
            max(abs(w) for w in self.weight_tuples[j]) for j in self.active
        )
        # past int64 the window plan's weight tables cannot hold the weights;
        # score_window then falls back to exact int_score
        self._wide = bound > _I64_MAX
        if not self._wide:
            self._build_window_plan(bound)

    def _build_window_plan(self, bound: int) -> None:
        # one scratch buffer holds everything: active feature rows first
        # (page-sourced, then inode-sourced), then gathered helper rows.
        # Putting the page-ema feature last in the page section and the
        # inode-ema feature first in the inode section makes the two decay
        # targets adjacent, so both run as one two-row ufunc chain.
        idx_of = self.indices
        page_feats = [j for j in self.active if idx_of[j] in _PAGE_SOURCED]
        inode_feats = [j for j in self.active if idx_of[j] in _INODE_SOURCED]
        page_feats.sort(key=lambda j: idx_of[j] == 6)
        inode_feats.sort(key=lambda j: idx_of[j] != 7)
        self._order = tuple(page_feats + inode_feats)
        kp = self._kp = len(page_feats)
        ki = self._ki = len(inode_feats)
        nf = kp + ki

        union = sorted({e for j in self.active for e in self.edge_tuples[j]})
        self._u_edges = np.array(union, dtype=np.uint64)
        m = len(union)
        dtype = np.int32 if bound <= 2**31 - 1 else np.int64
        wtab = np.empty((nf, m + 1), dtype=dtype)
        for a, j in enumerate(self._order):
            # weight for merged-list rank g: rank g means the value sits at or
            # above union[g-1], so this feature's bin is the number of its own
            # edges <= union[g-1] (rank 0 sits below every edge: bin 0)
            lut = np.concatenate(
                ([0], np.searchsorted(np.array(self.edge_tuples[j], dtype=np.uint64),
                                      self._u_edges, side="right"))
            )
            wtab[a] = np.array(self.weight_tuples[j], dtype=dtype)[lut]
        if nf:
            wtab[0] += dtype(self.base)
        self._wflat = wtab.reshape(-1)
        self._row_off = (np.arange(nf, dtype=np.int64) * (m + 1)).reshape(-1, 1)

        pidx = [idx_of[j] for j in page_feats]
        iidx = [idx_of[j] for j in inode_feats]
        has_p_ema = 6 in pidx
        has_i_ema = 7 in iidx
        has_offd = 4 in pidx
        inode_side = bool(inode_feats) or has_offd

        pfields = [_PAGE_SOURCED[i] for i in pidx]
        ifields = [_INODE_SOURCED[i] for i in iidx]
        # scratch row order: page ema, inode slot, inode ema, last offset
        self._pi_row = -1
        if has_p_ema:
            pfields.append(P_EMA)
        if inode_side:
            self._pi_row = nf + len(pfields) - kp
            pfields.append(P_INODE)
        ie_row = -1
        if has_i_ema:
            ie_row = nf + (len(pfields) - kp) + len(ifields) - ki
            ifields.append(I_EMA)
        il_row = -1
        if has_offd:
            il_row = nf + (len(pfields) - kp) + len(ifields) - ki
            ifields.append(I_LAST_OFF)
        self._sp = len(pfields) - kp
        self._si = len(ifields) - ki

        self._gap_row = pidx.index(8) if 8 in pidx else -1
        self._pair = has_p_ema and has_i_ema
        singles = []
        if has_p_ema and not has_i_ema:
            singles.append((kp - 1, nf))
        if has_i_ema and not has_p_ema:
            singles.append((kp, ie_row))
        self._singles = tuple(singles)
        self._offd = (pidx.index(4), il_row) if has_offd else None
        self._pfields = np.array(pfields, dtype=np.int64).reshape(-1, 1)
        self._ifields = np.array(ifields, dtype=np.int64).reshape(-1, 1)
        self._mulcache = [0, None, 0, None]  # page width, page idx, inode width, inode idx
        self._bufcache: dict[int, tuple] = {}
        self._offcache: dict[int, np.ndarray] = {}

    def _rank_scores(self, buf_flat: np.ndarray, n: int) -> np.ndarray:
        """Merged-rank lookup: buf_flat holds the active feature rows."""
        g = self._u_edges.searchsorted(buf_flat, side="right")
        off = self._offcache.get(n)
        if off is None:
            off = np.repeat(self._row_off.reshape(-1), n)
            self._offcache[n] = off
        g += off
        w = self._wflat.take(g.reshape(len(self._order), n), mode="clip")
        return w.sum(axis=0, dtype=w.dtype)

    def _window_bufs(self, n: int) -> tuple:
        bufs = self._bufcache.get(n)
        if bufs is None:
            nf = self._kp + self._ki
            bufs = (
                np.empty((nf + self._sp + self._si, n), dtype=np.uint64),
                np.empty((self._kp + self._sp, n), dtype=np.int64),
                np.empty((self._ki + self._si, n), dtype=np.int64),
            )
            self._bufcache[n] = bufs
        return bufs

    def score_window(self, tracker, slots: np.ndarray, t_now_ns: int) -> np.ndarray:
        """Score resident pages given their tracker column slots.

        Equivalent to int_score(pack, tracker.extract_features(key, t_now))
        per candidate, but reads the tracker tables directly and computes
        only the features the pack discriminates on.
        """
        n = len(slots)
        if self._wide:
            keys = tracker.page_keys
            return np.array(
                [int_score(self.pack, tracker.extract_features(keys[s], t_now_ns))
                 for s in slots.tolist()],
                dtype=object,
            )
        if not self.active:
            return np.full(n, self.base, dtype=np.int64)
        kp, ki, sp, si = self._kp, self._ki, self._sp, self._si
        nf = kp + ki
        buf, pidx, iidx = self._window_bufs(n)

        ptab = tracker.page_tab
        mc = self._mulcache
        if mc[0] != ptab.shape[1]:
            mc[0] = ptab.shape[1]
            mc[1] = self._pfields * mc[0]
        np.add(mc[1], slots, out=pidx)
        # flat indices are in range by construction (field < 7, slot < width);
        # clip mode skips the bounds-check buffering of the default mode
        if kp:
            ptab.take(pidx[:kp], out=buf[:kp], mode="clip")
        if sp:
            ptab.take(pidx[kp:], out=buf[nf:nf + sp], mode="clip")
        if ki or si:
            itab = tracker.inode_tab
            if mc[2] != itab.shape[1]:
                mc[2] = itab.shape[1]
                mc[3] = self._ifields * mc[2]
            islots = buf[self._pi_row].view(np.int64)
            np.add(mc[3], islots, out=iidx)
            if ki:
                itab.take(iidx[:ki], out=buf[kp:nf], mode="clip")
            if si:
                itab.take(iidx[ki:], out=buf[nf + sp:], mode="clip")

        t = np.uint64(t_now_ns)
        if self._gap_row >= 0:
            br = buf[self._gap_row]
            np.subtract(t, br, out=br)
        if self._pair:
            # the two ema timestamps sit in adjacent rows; the stride-2
            # slice pairs their decayed-score scratch rows to match
            br = buf[kp - 1:kp + 1]
            src = buf[nf:nf + 3:2]
            np.subtract(t, br, out=br)
            np.floor_divide(br, _HALF_LIFE_U64, out=br)
            np.minimum(br, _SHIFT_CAP, out=br)
            np.right_shift(src, br, out=br)
        for fr, sr in self._singles:
            br = buf[fr]
            np.subtract(t, br, out=br)
            np.floor_divide(br, _HALF_LIFE_U64, out=br)
            np.minimum(br, _SHIFT_CAP, out=br)
            np.right_shift(buf[sr], br, out=br)
        if self._offd is not None:
            # |offset - last_offset|: of the two wrapped u64 differences
            # the smaller one is the true distance
            br = buf[self._offd[0]]
            scratch = buf[self._offd[1]]
            np.subtract(br, scratch, out=br)
            np.subtract(np.uint64(0), br, out=scratch)
            np.minimum(br, scratch, out=br)
        return self._rank_scores(buf[:nf].reshape(-1), n)
