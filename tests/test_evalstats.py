"""Student-t machinery, paired trials, and summary outputs.

scipy appears here only as an independent oracle for the self-contained
t distribution code.
"""

import json
import math
import random

import pytest
import scipy.stats

from learnedcache import evalstats
from learnedcache.cli import main
from learnedcache.errors import ConfigurationError
from learnedcache.evalstats import (
    PairedTrialSet,
    TestResult as TTestOutcome,
    TrialResult,
    derive_seed,
    paired_t_test,
    reg_inc_beta,
    run_paired_trials,
    summarize,
    t_cdf,
    t_critical,
    t_two_sided_p,
    trial_set_to_dict,
    write_summary_csv,
)
from learnedcache.features import FEATURE_NAMES
from learnedcache.modelpack import export_json
from learnedcache.trace import default_spec

from packbuild import build_pack, random_pack, zero_pack

DFS = (1, 2, 3, 4, 7, 10, 30, 120)


# -- seed derivation -----------------------------------------------------------


def test_derive_seed_is_deterministic():
    assert derive_seed(42, 7) == derive_seed(42, 7)


def test_derive_seed_spreads_inputs():
    seen = {derive_seed(m, i) for m in range(4) for i in range(64)}
    assert len(seen) == 4 * 64
    for s in seen:
        assert 0 <= s < 2**64


def test_derive_seed_mixes_single_bit_changes():
    a = derive_seed(0, 0)
    b = derive_seed(1, 0)
    flipped = bin(a ^ b).count("1")
    assert 16 <= flipped <= 48  # roughly half of 64 bits


# -- incomplete beta -----------------------------------------------------------


def test_reg_inc_beta_bounds_and_complement():
    assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
    assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0
    rng = random.Random(1)
    for _ in range(200):
        a = rng.uniform(0.1, 20.0)
        b = rng.uniform(0.1, 20.0)
        x = rng.random()
        total = reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_reg_inc_beta_uniform_case_is_identity():
    for x in (0.1, 0.25, 0.5, 0.9):
        assert reg_inc_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)


def test_reg_inc_beta_arcsine_closed_form():
    for x in (0.05, 0.3, 0.5, 0.77, 0.99):
        want = (2.0 / math.pi) * math.asin(math.sqrt(x))
        assert reg_inc_beta(0.5, 0.5, x) == pytest.approx(want, abs=1e-12)


def test_reg_inc_beta_is_monotone_in_x():
    xs = [i / 50 for i in range(51)]
    vals = [reg_inc_beta(3.5, 1.25, x) for x in xs]
    assert vals == sorted(vals)


def test_reg_inc_beta_rejects_bad_shape():
    with pytest.raises(ConfigurationError):
        reg_inc_beta(0.0, 1.0, 0.5)
    with pytest.raises(ConfigurationError):
        reg_inc_beta(1.0, -2.0, 0.5)


# -- t distribution vs oracle --------------------------------------------------


def test_t_cdf_midpoint_and_symmetry():
    for df in DFS:
        assert t_cdf(0.0, df) == 0.5
        for x in (0.3, 1.0, 2.5, 7.0):
            assert t_cdf(-x, df) == pytest.approx(1.0 - t_cdf(x, df), abs=1e-14)


def test_t_cdf_cauchy_closed_form():
    # one degree of freedom is the Cauchy distribution
    for x in (-5.0, -0.7, 0.4, 2.0, 40.0):
        want = 0.5 + math.atan(x) / math.pi
        assert t_cdf(x, 1) == pytest.approx(want, abs=1e-12)


def test_t_cdf_large_df_normal_reference():
    assert t_cdf(1.96, 10000) == pytest.approx(0.9749882398840835, abs=1e-12)


def test_t_cdf_matches_scipy():
    for df in DFS + (2.5, 17.3):
        for i in range(-24, 25):
            x = i / 4.0
            want = scipy.stats.t.cdf(x, df)
            assert t_cdf(x, df) == pytest.approx(want, abs=1e-12)


def test_t_two_sided_p_matches_scipy():
    for df in DFS:
        for x in (0.01, 0.5, 1.0, 2.2, 4.8, 11.0):
            want = 2.0 * scipy.stats.t.sf(x, df)
            assert t_two_sided_p(x, df) == pytest.approx(want, rel=1e-11, abs=1e-300)
            assert t_two_sided_p(-x, df) == t_two_sided_p(x, df)
    assert t_two_sided_p(0.0, 5) == 1.0


def test_t_two_sided_p_agrees_with_own_cdf():
    for df in DFS:
        for x in (0.3, 1.7, 3.1):
            assert t_two_sided_p(x, df) == pytest.approx(
                2.0 * (1.0 - t_cdf(x, df)), abs=1e-12
            )


def test_t_critical_pinned_value():
    assert t_critical(0.975, 4) == pytest.approx(2.7764451051977987, abs=1e-9)


def test_t_critical_matches_scipy():
    for df in DFS:
        for q in (0.6, 0.75, 0.9, 0.95, 0.975, 0.995):
            want = scipy.stats.t.ppf(q, df)
            assert t_critical(q, df) == pytest.approx(want, abs=1e-8)


def test_t_critical_symmetry_and_midpoint():
    assert t_critical(0.5, 9) == 0.0
    assert t_critical(0.025, 4) == pytest.approx(-t_critical(0.975, 4), abs=1e-12)


def test_t_critical_round_trips_through_cdf():
    for df in (2, 6, 25):
        for q in (0.7, 0.95, 0.99):
            assert t_cdf(t_critical(q, df), df) == pytest.approx(q, abs=1e-9)


def test_t_distribution_input_validation():
    with pytest.raises(ConfigurationError):
        t_cdf(1.0, 0)
    with pytest.raises(ConfigurationError):
        t_two_sided_p(1.0, -3)
    with pytest.raises(ConfigurationError):
        t_critical(0.0, 4)
    with pytest.raises(ConfigurationError):
        t_critical(1.0, 4)


# -- paired t-test -------------------------------------------------------------


def test_paired_t_test_pinned_example():
    res = paired_t_test([1.0, 2.0, 3.0, 4.0, 5.0], baseline_mean=30.0)
    assert res.t_stat == pytest.approx(4.242640687119285, abs=1e-12)
    assert res.df == 4
    assert res.p_value == pytest.approx(0.013235599563682695, abs=1e-12)
    assert res.ci95[0] == pytest.approx(1.036756838522439, abs=1e-8)
    assert res.ci95[1] == pytest.approx(4.9632431614775605, abs=1e-8)
    assert res.effect_size_dz == pytest.approx(1.8973665961010275, abs=1e-12)
    assert res.mean_diff == 3.0
    assert res.pct_vs_baseline == pytest.approx(10.0, abs=1e-12)
    assert not res.degenerate


def test_paired_t_test_matches_scipy_one_sample():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 15)
        diffs = [rng.gauss(rng.uniform(-1, 1), rng.uniform(0.2, 3.0)) for _ in range(n)]
        res = paired_t_test(diffs)
        want = scipy.stats.ttest_1samp(diffs, 0.0)
        assert res.t_stat == pytest.approx(want.statistic, rel=1e-10, abs=1e-12)
        assert res.p_value == pytest.approx(want.pvalue, rel=1e-9, abs=1e-12)


def test_paired_t_test_significance_agrees_with_interval():
    rng = random.Random(9)
    checked = 0
    for _ in range(400):
        n = rng.randint(2, 12)
        mu = rng.uniform(-2, 2)
        sigma = rng.uniform(0.1, 4.0)
        diffs = [rng.gauss(mu, sigma) for _ in range(n)]
        res = paired_t_test(diffs)
        if res.degenerate:
            continue
        lo, hi = res.ci95
        assert (res.p_value < 0.05) == (not lo <= 0.0 <= hi)
        assert lo < res.mean_diff < hi
        checked += 1
    assert checked > 350


def test_paired_t_test_degenerate_inputs():
    one = paired_t_test([2.5])
    assert one.degenerate
    assert one.df == 0
    assert one.mean_diff == 2.5
    assert math.isnan(one.t_stat) and math.isnan(one.p_value)

    flat = paired_t_test([1.5, 1.5, 1.5], baseline_mean=3.0)
    assert flat.degenerate
    assert flat.mean_diff == 1.5
    assert flat.pct_vs_baseline == pytest.approx(50.0)
    assert math.isnan(flat.ci95[0])


def test_paired_t_test_rejects_empty_and_skips_zero_baseline():
    with pytest.raises(ConfigurationError):
        paired_t_test([])
    assert paired_t_test([1.0, 2.0], baseline_mean=0.0).pct_vs_baseline is None
    assert paired_t_test([1.0, 2.0]).pct_vs_baseline is None


# -- paired trials -------------------------------------------------------------


def small_setup():
    spec = default_spec("synthetic_sizebias", seed=0, n_ops=30, n_files=3)
    pack = zero_pack()
    return spec, pack


def test_run_paired_trials_is_deterministic():
    spec, pack = small_setup()
    a = run_paired_trials(spec, pack, 8, 4, master_seed=11)
    b = run_paired_trials(spec, pack, 8, 4, master_seed=11)
    assert a.trials == b.trials
    assert a.capacity == 8 and len(a.trials) == 4
    c = run_paired_trials(spec, pack, 8, 4, master_seed=12)
    assert c.trials != a.trials


def test_run_paired_trials_seeds_and_coins():
    spec, pack = small_setup()
    out = run_paired_trials(spec, pack, 8, 5, master_seed=77)
    for i, trial in enumerate(out.trials):
        assert trial.seed == derive_seed(77, 2 * i)
        coin = random.Random(derive_seed(77, 2 * i + 1)).random()
        assert trial.order == ("model_first" if coin < 0.5 else "normal_first")
        assert 0.0 <= trial.normal_rate <= 1.0
        assert 0.0 <= trial.model_rate <= 1.0


def test_each_trial_runs_its_policies_in_the_coins_order(monkeypatch):
    spec, _ = small_setup()
    pack = random_pack(random.Random(5))  # unlike a zero pack, not FIFO's rates
    runs = []
    simulate = evalstats.run_simulation

    def recording(trace, policy, capacity):
        report = simulate(trace, policy, capacity)
        runs.append((type(policy).__name__, report.insertion_rate))
        return report

    monkeypatch.setattr(evalstats, "run_simulation", recording)
    out = run_paired_trials(spec, pack, 8, 6, master_seed=77)
    assert {t.order for t in out.trials} == {"model_first", "normal_first"}
    assert any(t.model_rate != t.normal_rate for t in out.trials)
    for trial, first, second in zip(out.trials, runs[::2], runs[1::2]):
        names = ["LearnedPolicy", "FifoPolicy"]
        assert [first[0], second[0]] == (names if trial.order == "model_first" else names[::-1])
        rate = dict((first, second))
        assert (trial.model_rate, trial.normal_rate) == (rate["LearnedPolicy"], rate["FifoPolicy"])


def test_run_paired_trials_parallel_matches_serial():
    spec, pack = small_setup()
    serial = run_paired_trials(spec, pack, 8, 4, master_seed=3, jobs=1)
    parallel = run_paired_trials(spec, pack, 8, 4, master_seed=3, jobs=2)
    assert serial.trials == parallel.trials


def test_run_paired_trials_rejects_zero_trials():
    spec, pack = small_setup()
    with pytest.raises(ConfigurationError):
        run_paired_trials(spec, pack, 8, 0, master_seed=1)


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_paired_trials_rejects_jobs_below_one(jobs):
    spec, pack = small_setup()
    with pytest.raises(ConfigurationError):
        run_paired_trials(spec, pack, 8, 2, master_seed=1, jobs=jobs)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_paired_eval_refuses_a_reordered_pack_before_any_trace(monkeypatch, tmp_path, capsys, jobs):
    names = list(FEATURE_NAMES[::-1])
    model = tmp_path / "reversed.json"
    export_json(build_pack([([], [0.0]) for _ in names], names=names), str(model))

    def no_trace(spec):
        raise AssertionError("a trace was generated before the pack was checked")

    monkeypatch.setattr(evalstats, "generate_workload", no_trace)
    out = tmp_path / "eval.json"
    rc = main(["paired-eval", "--workload", "synthetic_sizebias", "--model", str(model),
               "--capacity", "8", "--trials", "4", "--jobs", jobs, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: model pack features ")
    assert not out.exists()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    requested: list = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs,cpus,want",
    [
        (1_000_000, 2, [2]),  # capped by the CPU count
        (1_000_000, 64, [3]),  # capped by the trial count
        (2, 64, [2]),
        (1_000_000, None, []),  # unknown CPU count counts as one: serial
        (1, 64, []),
    ],
)
def test_run_paired_trials_caps_worker_count(monkeypatch, jobs, cpus, want):
    spec, pack = small_setup()
    serial = run_paired_trials(spec, pack, 8, 3, master_seed=4)
    monkeypatch.setattr(_InlinePool, "requested", [])
    monkeypatch.setattr(evalstats, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(evalstats.os, "cpu_count", lambda: cpus)
    out = run_paired_trials(spec, pack, 8, 3, master_seed=4, jobs=jobs)
    assert _InlinePool.requested == want
    assert out.trials == serial.trials


def test_zero_model_yields_identical_rates_per_trial():
    # an all-zero model ties every score, which the simulator resolves as FIFO
    spec, pack = small_setup()
    out = run_paired_trials(spec, pack, 8, 4, master_seed=5)
    for trial in out.trials:
        assert trial.model_rate == trial.normal_rate
    assert out.differences() == [0.0, 0.0, 0.0, 0.0]


def test_trial_set_accessors():
    ts = PairedTrialSet(
        workload=default_spec("synthetic_sizebias", n_ops=10, n_files=2),
        capacity=4,
        trials=[
            TrialResult(1, "model_first", 0.5, 0.4),
            TrialResult(2, "normal_first", 0.7, 0.8),
        ],
    )
    assert ts.differences() == pytest.approx([-0.1, 0.1])
    assert ts.baseline_mean() == pytest.approx(0.6)


# -- reporting -----------------------------------------------------------------


def make_result(p, degenerate=False, pct=-3.5):
    return TTestOutcome(
        t_stat=-2.0,
        df=9,
        p_value=p,
        ci95=(-0.2, -0.1),
        effect_size_dz=-0.6,
        mean_diff=-0.15,
        pct_vs_baseline=pct,
        degenerate=degenerate,
    )


def trivial_trial_set():
    return PairedTrialSet(
        workload=default_spec("synthetic_sizebias", n_ops=10, n_files=2),
        capacity=4,
        trials=[TrialResult(3, "normal_first", 0.5, 0.35)],
    )


def test_summarize_significance_rules():
    ts = trivial_trial_set()
    assert summarize(ts, make_result(0.01)).significant
    assert not summarize(ts, make_result(0.2)).significant
    assert not summarize(ts, make_result(math.nan, degenerate=True)).significant
    row = summarize(ts, make_result(0.01))
    assert row.workload == "synthetic_sizebias"
    assert row.raw_change == -0.15
    assert row.pct_vs_baseline == -3.5
    assert math.isnan(summarize(ts, make_result(0.01, pct=None)).pct_vs_baseline)


def test_trial_set_to_dict_schema_and_null_handling():
    ts = trivial_trial_set()
    obj = trial_set_to_dict(ts, make_result(0.01))
    assert list(obj) == ["workload", "capacity", "n_trials", "trials", "test"]
    assert obj["workload"]["kind"] == "synthetic_sizebias"
    assert obj["trials"][0] == {
        "seed": 3,
        "order": "normal_first",
        "normal_rate": 0.5,
        "model_rate": 0.35,
    }
    assert list(obj["test"]) == [
        "t", "df", "p", "ci95", "dz", "mean_diff", "pct_vs_baseline", "degenerate",
    ]
    assert obj["test"]["p"] == 0.01

    degen = trial_set_to_dict(ts, paired_t_test([1.0]))
    assert degen["test"]["t"] is None
    assert degen["test"]["p"] is None
    assert degen["test"]["ci95"] == [None, None]
    assert degen["test"]["degenerate"] is True
    json.dumps(degen, allow_nan=False)  # nan never leaks into the payload


def test_write_summary_csv_format(tmp_path):
    rows = [
        summarize(trivial_trial_set(), make_result(0.01)),
        summarize(trivial_trial_set(), make_result(0.8)),
    ]
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "workload,pct_vs_baseline,raw_change,significant"
    assert lines[1] == "synthetic_sizebias,-3.5,-0.15,true"
    assert lines[2] == "synthetic_sizebias,-3.5,-0.15,false"
