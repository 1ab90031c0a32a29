"""Paired evaluation: trial harness, Student-t machinery, and summaries.

The t distribution functions are self-contained (regularized incomplete beta
via a Lentz continued fraction, quantile by bisection) so the evaluation
pipeline carries no statistics dependency; the test suite checks them against
an independent oracle.
"""

from __future__ import annotations

import csv
import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

from .errors import ConfigurationError
from .modelpack import ModelPack
from .simcache import FifoPolicy, LearnedPolicy, run_simulation
from .trace import WorkloadSpec, generate_workload

_MASK64 = 2**64 - 1


def derive_seed(master_seed: int, index: int) -> int:
    """Stable, well-mixed per-trial seed (splitmix64 finalizer)."""
    x = (master_seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


# -- Student-t distribution ---------------------------------------------------

_FPMIN = 1e-300
_CF_EPS = 3e-16
_T_TOL = 1e-10  # bracket width at which t_critical stops bisecting


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        # the even step's coefficient, then the odd step's, each by one Lentz update
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    return h  # converged enough for double precision in practice


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0 and b > 0):
        raise ConfigurationError("incomplete beta requires a, b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(x: float, df: float) -> float:
    """CDF of Student's t with df degrees of freedom."""
    tail = 0.5 * t_two_sided_p(x, df)
    return 1.0 - tail if x > 0 else tail


def t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t; exact at t = 0 (p = 1)."""
    if not df > 0:
        raise ConfigurationError("df must be > 0")
    if t == 0.0:
        return 1.0
    return reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))


def t_critical(q: float, df: float) -> float:
    """Quantile of Student's t by bisection on the CDF, to within _T_TOL."""
    if not 0.0 < q < 1.0:
        raise ConfigurationError("quantile must be in (0, 1)")
    if q == 0.5:
        return 0.0
    if q < 0.5:
        return -t_critical(1.0 - q, df)
    lo, hi = 0.0, 1.0
    while t_cdf(hi, df) < q:
        hi *= 2.0
        if hi > 1e300:
            raise ConfigurationError("quantile bracket failed")
    while hi - lo > _T_TOL:
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- paired t-test -------------------------------------------------------------


@dataclass(frozen=True)
class TestResult:
    t_stat: float
    df: int
    p_value: float
    ci95: tuple[float, float]
    effect_size_dz: float
    mean_diff: float
    pct_vs_baseline: float | None
    degenerate: bool = False


def paired_t_test(diffs: Sequence[float], baseline_mean: float | None = None) -> TestResult:
    """Two-tailed paired t-test on per-trial differences.

    A sample with n < 2 or zero variance yields a degenerate-flagged result
    (mean preserved, t/p/CI/dz undefined) rather than an exception.
    """
    n = len(diffs)
    if n == 0:
        raise ConfigurationError("paired t-test needs at least one difference")
    mean = sum(diffs) / n
    pct = None
    if baseline_mean is not None and baseline_mean != 0:
        pct = 100.0 * mean / baseline_mean
    df = n - 1
    sd = math.sqrt(sum((d - mean) ** 2 for d in diffs) / df) if n > 1 else 0.0
    if sd == 0.0:
        return TestResult(math.nan, df, math.nan, (math.nan, math.nan), math.nan, mean, pct, True)
    se = sd / math.sqrt(n)
    t = mean / se
    p = t_two_sided_p(t, df)
    half = t_critical(0.975, df) * se
    dz = mean / sd
    return TestResult(t, df, p, (mean - half, mean + half), dz, mean, pct, False)


# -- paired trials -------------------------------------------------------------


class TrialResult(NamedTuple):
    seed: int
    order: str  # "model_first" | "normal_first"
    normal_rate: float
    model_rate: float


@dataclass
class PairedTrialSet:
    workload: WorkloadSpec
    capacity: int
    trials: list[TrialResult]

    def differences(self) -> list[float]:
        return [t.model_rate - t.normal_rate for t in self.trials]

    def baseline_mean(self) -> float:
        return sum(t.normal_rate for t in self.trials) / len(self.trials)


def _run_one_trial(args: tuple[WorkloadSpec, LearnedPolicy, int, int, int]) -> TrialResult:
    base, learned, capacity, trace_seed, coin_seed = args
    spec = replace(base, seed=trace_seed)
    trace = generate_workload(spec)
    order = "model_first" if random.Random(coin_seed).random() < 0.5 else "normal_first"
    runs = [("model", learned), ("normal", FifoPolicy())]
    rate = {name: run_simulation(trace, policy, capacity).insertion_rate
            for name, policy in (runs if order == "model_first" else runs[::-1])}
    return TrialResult(trace_seed, order, rate["normal"], rate["model"])


def run_paired_trials(
    base_spec: WorkloadSpec,
    pack: ModelPack,
    capacity: int,
    n_trials: int,
    master_seed: int,
    jobs: int = 1,
) -> PairedTrialSet:
    """Run n paired (FIFO, learned) simulations on per-trial regenerated traces.

    Trial i uses a derived seed, and a derived coin decides which policy runs
    first. Results are deterministic and independent of jobs, which is capped
    at n_trials and the CPU count. A pack the simulator cannot serve is
    refused before any trace is generated.
    """
    if n_trials < 1:
        raise ConfigurationError("n_trials must be >= 1")
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    learned = LearnedPolicy(pack)
    workers = min(jobs, n_trials, os.cpu_count() or 1)
    work = [
        (base_spec, learned, capacity, derive_seed(master_seed, 2 * i), derive_seed(master_seed, 2 * i + 1))
        for i in range(n_trials)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trials = list(pool.map(_run_one_trial, work))
    else:
        trials = [_run_one_trial(w) for w in work]
    return PairedTrialSet(base_spec, capacity, trials)


# -- reporting -----------------------------------------------------------------


class SummaryRow(NamedTuple):
    workload: str
    pct_vs_baseline: float
    raw_change: float
    significant: bool


def summarize(trial_set: PairedTrialSet, test: TestResult) -> SummaryRow:
    pct = test.pct_vs_baseline if test.pct_vs_baseline is not None else math.nan
    significant = (not test.degenerate) and test.p_value < 0.05
    return SummaryRow(trial_set.workload.kind, pct, test.mean_diff, significant)


def _nullable(x: float | None) -> float | None:
    if x is None:
        return None
    return None if (isinstance(x, float) and not math.isfinite(x)) else x


def trial_set_to_dict(trial_set: PairedTrialSet, test: TestResult) -> dict:
    return {
        "workload": trial_set.workload.to_dict(),
        "capacity": trial_set.capacity,
        "n_trials": len(trial_set.trials),
        "trials": [t._asdict() for t in trial_set.trials],  # the fields are the JSON keys
        "test": {
            "t": _nullable(test.t_stat),
            "df": test.df,
            "p": _nullable(test.p_value),
            "ci95": [_nullable(test.ci95[0]), _nullable(test.ci95[1])],
            "dz": _nullable(test.effect_size_dz),
            "mean_diff": test.mean_diff,
            "pct_vs_baseline": _nullable(test.pct_vs_baseline),
            "degenerate": test.degenerate,
        },
    }


def write_summary_csv(rows: Sequence[SummaryRow], path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["workload", "pct_vs_baseline", "raw_change", "significant"])
        for row in rows:
            w.writerow([
                row.workload,
                repr(row.pct_vs_baseline),
                repr(row.raw_change),
                "true" if row.significant else "false",
            ])
