"""Model quantization, the JSON pack format, and integer scoring."""

import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

GOLDEN = Path(__file__).parent / "data" / "golden_model.json"

from learnedcache.discretizer import FeatureBins
from learnedcache.errors import ConfigurationError, PackValidationError, QuantizationError
from learnedcache.features import FEATURE_NAMES, MISSING, AccessTracker
from learnedcache.modelpack import (
    DEFAULT_WEIGHT_SCALE,
    PreparedScorer,
    export_json,
    load_json,
    pack_from_dict,
    pack_to_dict,
    quantize,
)
from learnedcache.ranker import LinearRanker
from learnedcache.trace import PageKey

from packbuild import build_pack, make_accesses, random_pack, window_features, zero_pack
from reference_impls import int_score, ref_features, ref_pack_score

U64_MAX = 2**64 - 1


def _ranker(weights, edges_per_feature, names=None):
    bins = tuple(FeatureBins(tuple(e)) for e in edges_per_feature)
    return LinearRanker(bins, np.array(weights, dtype=np.float64)), names


def test_quantization_truncates_toward_zero():
    r, _ = _ranker([0.12349, -0.99999, 0.5, 1.00009999], [(10, 20, 30)])
    pack = quantize(r, names=["page_delta1"])
    assert pack.features[0].weights_int == (1234, -9999, 5000, 10000)
    assert pack.features[0].weights_float == (0.12349, -0.99999, 0.5, 1.00009999)
    assert pack.weight_scale == DEFAULT_WEIGHT_SCALE


def test_quantization_error_is_below_one_step_per_weight():
    rng = np.random.default_rng(0)
    r, _ = _ranker(rng.uniform(-4, 4, size=6), [(1, 2), (9, 10)])
    pack = quantize(r, names=["page_delta1", "page_delta2"])
    for fe in pack.features:
        for wf, wi in zip(fe.weights_float, fe.weights_int):
            assert abs(wf * pack.weight_scale - wi) < 1.0


def test_quantize_validates_inputs():
    r, _ = _ranker([0.1, 0.2], [(5,)])
    with pytest.raises(QuantizationError):
        quantize(r, names=["a", "b"])  # wrong arity
    huge, _ = _ranker([2.0e15], [()])
    with pytest.raises(QuantizationError):
        quantize(huge, names=["a"])  # 2e19 does not fit in 64-bit
    vast, _ = _ranker([1e305], [()])
    with pytest.raises(QuantizationError):
        quantize(vast, names=["a"])  # 1e305 * scale is inf
    # each weight 2e18 fits int64, and four of them (8e18) still do, but nine
    # of them sum past 2**63 - 1
    four, _ = _ranker([2.0e14] * 4, [()] * 4)
    assert quantize(four, names=FEATURE_NAMES[:4]).features[3].weights_int == (2 * 10**18,)
    nine, _ = _ranker([2.0e14] * 9, [()] * 9)
    with pytest.raises(QuantizationError):
        quantize(nine)


def test_pack_dict_schema_field_names():
    pack = build_pack([([10], [0.5, -0.5]), ([], [0.0])])
    obj = pack_to_dict(pack)
    assert list(obj) == ["feature_names", "n_features", "weight_scale", "features"]
    assert obj["n_features"] == 2
    for fe in obj["features"]:
        assert list(fe) == [
            "index",
            "name",
            "n_bins",
            "bin_edges",
            "weights_float",
            "weights_int",
        ]
    assert obj["features"][0]["n_bins"] == 2
    assert obj["features"][0]["bin_edges"] == [10]


def test_export_load_export_is_byte_identical(tmp_path):
    rng = random.Random(8)
    pack = random_pack(rng)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    export_json(pack, str(p1))
    loaded = load_json(str(p1))
    assert loaded == pack
    export_json(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_export_ends_with_newline_and_parses_as_json(tmp_path):
    pack = zero_pack()
    path = tmp_path / "m.json"
    export_json(pack, str(path))
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    obj = json.loads(raw)
    assert obj["feature_names"] == list(FEATURE_NAMES)


def _valid_dict():
    return pack_to_dict(build_pack([([10, 20], [0.1, -0.2, 0.3]), ([], [1.5])]))


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda d: d.pop("weight_scale"), "weight_scale"),
        (lambda d: d.update(weight_scale=0), "weight_scale"),
        (lambda d: d.update(n_features=3), "n_features"),
        (lambda d: d["feature_names"].append("extra"), "feature_names"),
        (lambda d: d["features"].__setitem__(0, [1, 2]), "features[0]"),
        (lambda d: d["features"][0].update(index=1), "features[0].index"),
        (lambda d: d["features"][0].update(name="wrong"), "features[0].name"),
        (lambda d: d["features"][0].update(n_bins=0), "features[0].n_bins"),
        (lambda d: d["features"][0].update(n_bins=11), "features[0].n_bins"),
        (lambda d: d["features"][0]["bin_edges"].append(30), "features[0].bin_edges"),
        (lambda d: d["features"][0].update(bin_edges=[20, 10]), "features[0].bin_edges[1]"),
        (lambda d: d["features"][0].update(bin_edges=[10, 10]), "features[0].bin_edges[1]"),
        (lambda d: d["features"][0].update(bin_edges=[-1, 10]), "features[0].bin_edges[0]"),
        (
            lambda d: d["features"][0].update(bin_edges=[10, U64_MAX + 1]),
            "features[0].bin_edges[1]",
        ),
        (lambda d: d["features"][0]["weights_float"].pop(), "features[0].weights_float"),
        (
            lambda d: d["features"][0]["weights_float"].__setitem__(1, float("inf")),
            "features[0].weights_float[1]",
        ),
        # a string weight: an id of its own keeps pytest from numbering both
        # rows that name this field
        pytest.param(
            lambda d: d["features"][0]["weights_float"].__setitem__(1, "0.5"),
            "features[0].weights_float[1]",
            id="string-features[0].weights_float[1]",
        ),
        # finite, but the product with weight_scale is not
        (
            lambda d: d["features"][0]["weights_float"].__setitem__(2, 1e308),
            "features[0].weights_float[2]",
        ),
        (
            lambda d: d["features"][0]["weights_float"].__setitem__(0, 10**400),
            "features[0].weights_float[0]",
        ),
        (lambda d: d["features"][0]["weights_int"].pop(), "features[0].weights_int"),
        (
            lambda d: d["features"][0]["weights_int"].__setitem__(0, 0.5),
            "features[0].weights_int[0]",
        ),
        (
            lambda d: d["features"][0]["weights_int"].__setitem__(2, 3001),
            "features[0].weights_int[2]",
        ),
        # each weight is consistent, but 1e19 alone passes int64's maximum
        (
            lambda d: d["features"][1].update(weights_float=[1e15], weights_int=[10**19]),
            "features",
        ),
    ],
)
def test_validation_names_the_offending_field(mutate, field):
    obj = _valid_dict()
    mutate(obj)
    with pytest.raises(PackValidationError) as err:
        pack_from_dict(obj)
    assert err.value.field == field


def test_tampered_integer_weight_is_caught():
    obj = _valid_dict()
    obj["features"][0]["weights_int"][1] += 1
    with pytest.raises(PackValidationError) as err:
        pack_from_dict(obj)
    assert "weights_int" in str(err.value)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(PackValidationError):
        load_json(str(path))


def test_load_rejects_non_object_document(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]\n")
    with pytest.raises(PackValidationError):
        load_json(str(path))


def test_integer_score_sums_one_weight_per_feature():
    pack = build_pack([([10], [0.1, 0.2]), ([100, 200], [-0.5, 0.0, 0.5])])
    # below both edges: bins (0, 0) -> 1000 + (-5000)
    assert int_score(pack, [0, 0]) == 1000 - 5000
    # at an edge the value belongs to the upper bin
    assert int_score(pack, [10, 200]) == 2000 + 5000
    assert int_score(pack, [9, 100]) == 1000 + 0
    assert int_score(pack, [MISSING, MISSING]) == 2000 + 5000


def test_integer_and_float_scores_stay_within_quantization_slack():
    rng = random.Random(5)
    for _ in range(20):
        pack = random_pack(rng, n_features=6)
        obj = pack_to_dict(pack)
        for _ in range(20):
            raw = [rng.randrange(2**64) for _ in range(6)]
            fs = ref_pack_score(obj, raw, "weights_float")
            isc = int_score(pack, raw)
            assert abs(fs * pack.weight_scale - isc) < pack.n_features


def _check_integer_score_matches_reference(seed):
    rng = random.Random(seed)
    pack = random_pack(rng)
    obj = pack_to_dict(pack)
    edges = [e for fe in pack.features for e in fe.bin_edges]
    probes = []
    for _ in range(40):
        probes.append([rng.randrange(2**64) for _ in range(9)])
        probes.append([rng.choice(edges + [0, 1, MISSING]) for _ in range(9)])
    for raw in probes:
        assert int_score(pack, raw) == ref_pack_score(obj, raw)


@pytest.mark.parametrize("seed", range(8))
def test_integer_score_matches_serialized_form_reference(seed):
    _check_integer_score_matches_reference(seed)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(8, 2**32))
def test_integer_score_matches_serialized_form_reference_for_any_seed(seed):
    _check_integer_score_matches_reference(seed)


def _reference_scores(pack, accs, tracker, slots, t_now):
    """int_score of each candidate's features, recomputed by ref_features from
    accs, the (key, t) accesses that built tracker, once per distinct page."""
    keys = tracker.page_keys
    want = {s: int_score(pack, ref_features(accs, keys[s], t_now)) for s in set(slots.tolist())}
    return [want[s] for s in slots.tolist()]


def _track(accs):
    tracker = AccessTracker()
    for key, t in accs:
        tracker.on_access(key, t)
    return tracker


def _page_slots(tracker):
    """The tracker's page columns, in first-access order (file columns sit between them)."""
    return np.array(list(tracker.page_slot.values()), dtype=np.int64)


def _tracker_with_traffic(seed, n=400):
    rng = random.Random(seed)
    accs = make_accesses(rng, n, n_inodes=6, pages_per_inode=8,
                         t_step_max=300_000_000)
    return _track(accs), accs, rng


def test_constant_pack_scores_every_candidate_with_the_base():
    pack = build_pack([([], [0.25]) for _ in range(9)])
    scorer = PreparedScorer(pack)
    assert scorer.base == 9 * 2500
    assert int_score(pack, [0] * 9) == 22500
    tracker, _, _ = _tracker_with_traffic(1, n=30)
    for size in (1, 10):
        window = scorer.score_window(tracker, _page_slots(tracker)[:size], tracker.last_t)
        assert window.tolist() == [22500] * size


def test_zero_pack_scores_are_all_zero():
    pack = zero_pack()
    scorer = PreparedScorer(pack)
    assert int_score(pack, [MISSING] * 9) == 0
    tracker, _, _ = _tracker_with_traffic(5, n=30)
    # far in the future access_to_eviction is huge and still scores 0
    for t_now in (tracker.last_t, tracker.last_t + 2**62):
        window = scorer.score_window(tracker, _page_slots(tracker)[:4], t_now)
        assert window.tolist() == [0] * 4


def test_pack_whose_score_bound_passes_int64_is_rejected():
    # each weight fits in 64 bits but the 9-feature sum cannot
    with pytest.raises(PackValidationError) as err:
        build_pack([([1000], [9.0e14, -9.0e14]) for _ in range(9)])
    assert err.value.field.startswith("features")


def test_scorer_refuses_a_pack_that_is_not_a_prefix_of_the_features():
    # pack feature i is scored on the block row of FEATURE_NAMES[i], so a
    # reordered pack would be scored on other features' rows
    names = list(FEATURE_NAMES[::-1])
    reversed_pack = build_pack([([1], [0.0, 1.0]) for _ in names], names=names)
    with pytest.raises(ConfigurationError) as err:
        PreparedScorer(reversed_pack)
    assert str(err.value) == (
        f"model pack features {names} are not the simulator's first 9 features "
        f"{list(FEATURE_NAMES)}"
    )
    wide = build_pack([([], [0.0]) for _ in range(10)], names=[f"f{i}" for i in range(10)])
    with pytest.raises(ConfigurationError) as err:
        PreparedScorer(wide)
    assert str(err.value) == "model pack has 10 features; the simulator computes 9"
    # a prefix of the features, in order, is served
    assert PreparedScorer(zero_pack(3)).base == 0


@pytest.mark.parametrize("small, dtype", [(1023, np.int64), (1024, object)])
def test_table_dtype_follows_the_score_bound(small, dtype):
    # scale 1 and weights 2**63 - 1024 and `small` put the score bound at
    # exactly int64's maximum (int64 tables) or one past it, where exact
    # scores would need Python-int (object) tables: that pack is rejected
    per_feature = [([1], [2**63 - 1024, 0]), ([1], [small, 0])]
    if dtype is object:
        with pytest.raises(PackValidationError) as err:
            build_pack(per_feature, scale=1)
        assert err.value.field == "features"
        return
    pack = build_pack(per_feature, scale=1)
    # equal timestamps: zero deltas, else MISSING
    accs = [(PageKey(1, 1, off), 0) for off, n in ((0, 3), (1, 2), (2, 1)) for _ in range(n)]
    tracker = _track(accs)
    slots = _page_slots(tracker)
    window = PreparedScorer(pack).score_window(tracker, slots, 0)
    assert window.dtype == dtype
    assert window.tolist() == [2**63 - 1024 + small, 2**63 - 1024, 0]
    assert window.tolist() == _reference_scores(pack, accs, tracker, slots, 0)


def test_scoring_never_writes_to_the_tracker():
    # offset distance, both emas and the access gap are derived in place on
    # the gathered block, which must be a copy of the tracker table
    tracker, accs, rng = _tracker_with_traffic(4, n=200)
    per_feature = [([], [0.5])] * 9
    for j in (4, 6, 7, 8):
        per_feature[j] = ([1, 1000, 10**9], [rng.uniform(-3.0, 3.0) for _ in range(4)])
    pack = build_pack(per_feature)
    scorer = PreparedScorer(pack)
    tab, index = tracker.tab.copy(), tracker.index.copy()
    pages = _page_slots(tracker)
    t_now = tracker.last_t + 3_000_000_000
    for slots in (pages, pages[[rng.randrange(len(pages)) for _ in range(5)]]):
        window = scorer.score_window(tracker, slots, t_now)
        assert window.tolist() == _reference_scores(pack, accs, tracker, slots, t_now)
    assert np.array_equal(tracker.tab, tab) and np.array_equal(tracker.index, index)


def test_edges_near_the_u64_limit_bin_correctly():
    # the binned feature is file_size (index 5): one past the largest
    # offset seen in the file, so each file's size is set by one page
    pack = build_pack(
        [([], [0.0])] * 5 + [([U64_MAX - 1, U64_MAX], [1.0, 2.0, 3.0])] + [([], [0.0])] * 3
    )
    accs = [(PageKey(1, inode, size - 1), inode)
            for inode, size in enumerate((U64_MAX - 2, U64_MAX - 1, U64_MAX))]
    tracker = _track(accs)
    slots = _page_slots(tracker)
    assert [f.file_size for f in window_features(tracker, tracker.page_slot, 2)] == [
        U64_MAX - 2, U64_MAX - 1, U64_MAX
    ]
    window = PreparedScorer(pack).score_window(tracker, slots, 2)
    assert window.tolist() == [10000, 20000, 30000]
    assert window.tolist() == _reference_scores(pack, accs, tracker, slots, 2)


def test_offset_distance_is_exact_across_the_u64_range():
    # the binned feature is offset_distance (index 4). The file's last
    # offset is 0, so the page at the largest offset an access may carry is
    # 2**64 - 2 away: past 2**63, where the smaller of the two wrapped u64
    # differences (2) is not the distance
    far = U64_MAX - 1
    pack = build_pack(
        [([], [0.0])] * 4 + [([2**62, 2**63 + 1, far], [1.0, 2.0, 3.0, 4.0])] + [([], [0.0])] * 4
    )
    accs = [(PageKey(1, 1, 2**63), 0), (PageKey(1, 1, far), 1), (PageKey(1, 1, 0), 2)]
    tracker = _track(accs)
    slots = _page_slots(tracker)
    assert [f.offset_distance for f in window_features(tracker, tracker.page_slot, 2)] == [
        2**63, far, 0
    ]
    window = PreparedScorer(pack).score_window(tracker, slots, 2)
    assert window.tolist() == [20000, 40000, 10000]
    assert window.tolist() == _reference_scores(pack, accs, tracker, slots, 2)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32),
    window=st.integers(1, 200),
    wide=st.booleans(),
)
@example(seed=0, window=1, wide=True)
@example(seed=1, window=1, wide=False)
@example(seed=2, window=200, wide=False)
def test_window_scores_equal_the_integer_reference(seed, window, wide):
    rng = random.Random(seed)
    pack = random_pack(rng)
    if wide:
        # same edges and weights at a scale whose score bound (at most
        # 9 * 3e17) still fits int64, so large int64 sums stay covered
        pack = build_pack(
            [(fe.bin_edges, fe.weights_float) for fe in pack.features], scale=10**17
        )
    accs = make_accesses(rng, rng.randint(1, 200), n_inodes=rng.randint(1, 6),
                         pages_per_inode=rng.randint(1, 12), t_step_max=600_000_000)
    tracker = _track(accs)
    # elapsed times from none up to 64 s and 2**62 ns
    t_now = tracker.last_t + rng.choice(
        [0, 1, rng.randrange(5_000_000_000), 64_000_000_000, 2**62]
    )
    pages = _page_slots(tracker)
    slots = pages[[rng.randrange(len(pages)) for _ in range(window)]]
    got = PreparedScorer(pack).score_window(tracker, slots, t_now)
    assert got.tolist() == _reference_scores(pack, accs, tracker, slots, t_now)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32),
    widths=st.lists(st.integers(1, 200), min_size=1, max_size=8),
)
@example(seed=2, widths=[5, 160, 1, 200])
@example(seed=3, widths=[40, 8, 40, 25])
def test_one_scorer_scores_windows_of_any_width_in_any_order(seed, widths):
    # the scorer keeps row offsets per window width, made on first use: each
    # width comes back later, in another order, at a later t_now, and every
    # window must still score as the reference does
    rng = random.Random(seed)
    pack = random_pack(rng)
    accs = make_accesses(rng, rng.randint(1, 300), n_inodes=rng.randint(1, 6),
                         pages_per_inode=rng.randint(1, 12), t_step_max=600_000_000)
    tracker = _track(accs)
    pages = _page_slots(tracker)
    scorer = PreparedScorer(pack)
    t_now = tracker.last_t
    for width in widths + rng.sample(widths, len(widths)):
        t_now += rng.choice([0, 1, rng.randrange(5_000_000_000)])
        slots = pages[[rng.randrange(len(pages)) for _ in range(width)]]
        got = scorer.score_window(tracker, slots, t_now)
        assert got.tolist() == _reference_scores(pack, accs, tracker, slots, t_now)


def test_golden_pack_scores_known_vectors():
    pack = load_json(str(GOLDEN))
    scorer = PreparedScorer(pack)
    # two fresh pages (MISSING deltas) and pages with small, repeated gaps
    accs = [(PageKey(1, 1, 0), 0), (PageKey(1, 2, 4), 0)]
    accs += [(PageKey(1, 3, t % 3), t) for t in range(5, 30, 5)]
    tracker = _track(accs)
    slots = _page_slots(tracker)
    for t_now in (tracker.last_t, tracker.last_t + 5):
        window = scorer.score_window(tracker, slots, t_now)
        assert window.tolist() == _reference_scores(pack, accs, tracker, slots, t_now)
