"""Learned page-cache eviction toolkit.

Pipeline: synthetic trace generation -> feature extraction at eviction time ->
quantile discretization -> pairwise (Bradley-Terry) ranker training ->
integer-quantized model pack -> tail-rerank cache simulation -> paired
statistical evaluation against FIFO.
"""

from .discretizer import MAX_BINS, FeatureBins, discretize, discretize_binary_search, fit_all, fit_quantile_bins
from .errors import (
    ConfigurationError,
    FitError,
    InternalError,
    LearnedCacheError,
    PackValidationError,
    QuantizationError,
    SamplingError,
    SingleClassError,
    TraceFormatError,
)
from .evalstats import (
    PairedTrialSet,
    TestResult,
    TrialResult,
    derive_seed,
    paired_t_test,
    run_paired_trials,
    summarize,
    t_cdf,
    t_critical,
    trial_set_to_dict,
    write_summary_csv,
)
from .features import (
    EMA_SCALE,
    FEATURE_NAMES,
    MISSING,
    N_FEATURES,
    AccessTracker,
    DatasetRow,
    FeatureVector,
    build_dataset,
)
from .modelpack import (
    DEFAULT_WEIGHT_SCALE,
    ModelPack,
    PackFeature,
    PreparedScorer,
    export_json,
    int_score,
    load_json,
    quantize,
)
from .ranker import (
    EvalMetrics,
    LinearRanker,
    PairSet,
    TrainConfig,
    TrainResult,
    bt_probability,
    default_pair_budget,
    evaluate,
    sample_pairs,
    sigmoid,
    train,
)
from .simcache import (
    BATCH_MAX,
    AccessResult,
    CacheState,
    FifoPolicy,
    LearnedPolicy,
    SimReport,
    access,
    benchmark_eviction_latency,
    report_to_dict,
    run_simulation,
)
from .trace import (
    WORKLOAD_KINDS,
    EventKind,
    PageKey,
    PopularityDist,
    SizeDist,
    TraceEvent,
    WorkloadSpec,
    default_spec,
    export_csv,
    generate_workload,
    iter_trace,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"
