"""Directional pipeline checks on the desk benchmark (slower than unit tests):
the overfit victim leaks, high-loss samples are mostly non-members, and
randomly resampled reference training sets beat a fixed pool."""

import numpy as np
import pytest

from mia_audit import run_pipeline, sweep
from mia_audit.config import ExperimentConfig

SEED_SUITE = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def benchmark_run(trained_models):
    return run_pipeline(ExperimentConfig(master_seed=1), trained_models)


def test_loss_attack_beats_chance_on_overfit_run(benchmark_run):
    assert benchmark_run.metrics["loss"].auc > 0.5
    assert benchmark_run.target_accuracy["train"] > benchmark_run.target_accuracy["test"]


def test_large_loss_bucket_dominated_by_nonmembers(benchmark_run):
    buckets = {b.name: b for b in benchmark_run.bucket_report.buckets}
    large = buckets["large"]
    assert large.nonmember_count > large.member_count


def test_small_loss_bucket_majority_members(benchmark_run):
    buckets = {b.name: b for b in benchmark_run.bucket_report.buckets}
    small = buckets["small"]
    assert small.member_count > small.nonmember_count


def test_random_reference_sampling_beats_fixed_pool(trained_models):
    result = sweep(ExperimentConfig(attacks=("rapid",)), "reference_sampling_mode",
                   ["fixed", "random"], seeds=SEED_SUITE, trained=trained_models)
    by_mode = result.metric_by_value("rapid.tpr_at_fpr_0.01")
    assert by_mode["random"] >= by_mode["fixed"]
