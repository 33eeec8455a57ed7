"""Desk-scale membership-inference auditing toolkit.

Implements the difficulty-calibration attack family (loss threshold,
calibration, offline LiRA) and the scoring-model attack that re-uses raw
scores to correct calibration errors, over small from-scratch MLP classifiers
on tabular or synthetic data, and reports each attack's ROC metrics.
"""

from .attacks import ScoringModel, calibrate
from .config import ConfigError, CsvSource, ExperimentConfig, SyntheticSource, load_config
from .dataset import (CsvParseError, SplitPlan, TabularDataset, generate_synthetic, load_csv,
                      make_split, random_means, sample_reference_subset, write_csv)
from .evaluation import MetricsReport, RocCurve, TprAtFpr, compute_metrics, loss_buckets, roc
from .nn import (DPConfig, MLPClassifier, TrainingConfig, backward, forward, init_classifier,
                 per_sample_loss, softmax, train_many)
from .pipeline import RunResult, run_pipeline, run_pipelines, sweep, write_artifacts
from .seeding import derive_rng, derive_seed
from .signals import ScoreTable, SignalKind

__version__ = "0.1.0"
