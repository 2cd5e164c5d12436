"""Forecast imminent loss-of-signal on optical-network ports from daily
performance-monitoring telemetry."""

from .schema import FeatureSchema
from .ingest import PmColumns, PortSeries, build_schema, merge_to_port_level, read_pm_csv
from .windows import (
    NormStats,
    SplitAssignment,
    WindowBatch,
    WindowSample,
    chronological_split,
    filter_defective,
    filter_reasons,
    label_window,
    slide_windows,
    stack_windows,
    window_labels,
    zscore_apply,
    zscore_fit,
)
from .missing import (
    compute_mask,
    compute_time_gaps,
    flatten_for_trees,
    impute_median,
    impute_zero,
)
from .dataset import WindowDataset, build_dataset
from .metrics import PrCurve, pr_auc_truncated, pr_curve, weighted_average
from .trees import (
    BoosterConfig,
    ForestConfig,
    TreeEnsemble,
    grid_search_trees,
    predict_proba,
    train_gbdt,
    train_random_forest,
)
from .rits import (
    BritsModel,
    RitsData,
    TrainSchedule,
    brits_forward,
    brits_predict,
    init_brits,
    train_brits,
)
from .transfer import (
    build_mega_dataset,
    finetune_classifier_only,
    finetune_entirety,
)
from .synth import GenConfig, dataset_stats, generate

__version__ = "0.1.0"
