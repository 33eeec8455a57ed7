"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with `pytest tests/test_acceptance.py -v -s` to see them).

Criteria 4-7 run the desk-scale overfitting benchmark: the default config
(2-class Gaussian mixture, 6000 samples -> 1000-sample target training half,
one hidden layer of 256 trained 60 epochs, 4 reference models, 8 queries)
across the fixed master-seed suite 1..5, comparing seed-suite means only.
"""

import json
import time

import numpy as np
import pytest

from mia_audit import (DPConfig, TrainingConfig, backward, calibrate, init_classifier, roc,
                       run_pipeline, softmax, sweep)
from mia_audit.cli import main as cli_main
from mia_audit.config import ExperimentConfig, SyntheticSource
from mia_audit.dataset import read_columns, write_columns
from mia_audit.evaluation import BUCKET_HEADER, MetricsReport, read_roc_csv, roc_table
from mia_audit.nn import per_sample_loss
from mia_audit.seeding import derive_rng
from mia_audit.signals import ScoreTable

from oracles import GaussianFit, GaussianPair, gaussian_difference, run_security_game

SEED_SUITE = (1, 2, 3, 4, 5)


def report(criterion: str, started: float, detail: str = "") -> None:
    extra = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS in {time.time() - started:.1f}s{extra}")


@pytest.fixture(scope="module")
def benchmark_runs(trained_models):
    """The 5-seed desk benchmark with every attack enabled (shared by 4 and 5)."""
    cfg = ExperimentConfig()
    # pin the benchmark shape the ordering criteria are stated for
    assert cfg.data.n_samples == 6000          # -> 1000-sample target training half
    assert len(cfg.hidden_sizes) == 1          # 2-layer classifier
    assert cfg.target_train.epochs == 60
    assert cfg.num_reference_models == 4
    assert cfg.num_queries == 8
    return {seed: run_pipeline(cfg.with_overrides(master_seed=seed), trained_models)
            for seed in SEED_SUITE}


def suite_mean(runs, attack, metric):
    if metric == "auc":
        return float(np.mean([r.metrics[attack].auc for r in runs.values()]))
    return float(np.mean([r.metrics[attack].tpr_at_fpr[0.01].tpr for r in runs.values()]))


def test_criterion_1_numerical_core():
    started = time.time()
    rng = derive_rng("acceptance", 1)

    # gradients vs central finite differences on 20 random small models
    for _ in range(20):
        sizes = [int(rng.integers(2, 5)), int(rng.integers(3, 9)), int(rng.integers(2, 4))]
        model = init_classifier(sizes, int(rng.integers(0, 2**32)))
        model = model.with_parameters([p + rng.normal(0, 0.3, p.shape)
                                       for p in model.parameters()])
        assert model.num_parameters() <= 200
        x = rng.normal(size=(3, sizes[0]))
        y = rng.integers(0, sizes[-1], size=3)
        analytic, _ = backward(model, x, y)
        step = 1e-5
        for k, p in enumerate(model.parameters()):
            numeric = np.zeros_like(p)
            for j in range(p.size):
                probe = []
                for sign in (+1, -1):
                    params = [q.copy() for q in model.parameters()]
                    params[k].reshape(-1)[j] += sign * step
                    probe.append(float(np.mean(per_sample_loss(
                        model.with_parameters(params), x, y))))
                numeric.reshape(-1)[j] = (probe[0] - probe[1]) / (2 * step)
            rel = np.abs(analytic[k] - numeric) / np.maximum(np.abs(numeric), 1e-3)
            assert np.max(rel) < 1e-4

    # softmax normalization at magnitudes up to 1e3
    for scale in (1.0, 10.0, 1e3):
        for _ in range(50):
            probs = softmax(rng.normal(0, scale, size=int(rng.integers(2, 10))))
            assert abs(float(probs.sum()) - 1.0) < 1e-12

    # trapezoidal AUC equals the brute-force Mann-Whitney statistic
    for _ in range(100):
        n = int(rng.integers(4, 30))
        scores = np.round(rng.normal(size=n), 1)
        member = rng.random(n) < 0.5
        if member.all() or not member.any():
            member[0] = not member[0]
        pos, neg = scores[member], scores[~member]
        pairs = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        mw = pairs / (len(pos) * len(neg))
        assert abs(roc(scores, member).auc - mw) < 1e-12

    assert time.time() - started < 60
    report("1 numerical-core", started)


def test_criterion_2_calibration_and_gaussian_identities():
    started = time.time()
    rng = derive_rng("acceptance", 2)

    # S' + mean(refs) recovers S to one rounding
    raw = rng.normal(0, 2, size=1000)
    refs = rng.normal(0, 2, size=(1000, 4))
    means = refs.mean(axis=1)
    calibrated = calibrate(raw, refs)
    back = calibrated + means
    bound = np.finfo(float).eps * np.maximum.reduce(
        [np.abs(raw), np.abs(means), np.abs(calibrated)])
    assert np.all(np.abs(back - raw) <= bound)

    # difference-of-Gaussians fit matches 1e5 paired Monte-Carlo draws within 3 SE
    pair = GaussianPair(GaussianFit(-0.25, 0.6), GaussianFit(-1.4, 0.9))
    fit = gaussian_difference(pair)
    n = 10**5
    draws = (rng.normal(pair.tar.mu, np.sqrt(pair.tar.sigma2), n)
             - rng.normal(pair.ref.mu, np.sqrt(pair.ref.sigma2), n))
    se_mean = np.sqrt(fit.sigma2 / n)
    se_var = fit.sigma2 * np.sqrt(2.0 / (n - 1))
    assert abs(float(draws.mean()) - fit.mu) < 3 * se_mean
    assert abs(float(draws.var(ddof=1)) - fit.sigma2) < 3 * se_var

    assert time.time() - started < 60
    report("2 calibration-identities", started)


def test_criterion_3_null_attack_sanity():
    started = time.time()
    null_train = TrainingConfig(epochs=0)
    cfg = ExperimentConfig(
        master_seed=11,
        data=SyntheticSource(n_samples=24000),
        target_train=null_train, shadow_train=null_train, reference_train=null_train,
    )
    result = run_pipeline(cfg)
    for name, metrics in result.metrics.items():
        assert 0.45 <= metrics.auc <= 0.55, f"{name} auc {metrics.auc}"
    for name in cfg.attacks:
        scores = result.target_table.scores[name]
        threshold = float(np.median(scores))
        _, acc = run_security_game(scores, result.target_table.is_member,
                                   threshold, 10_000, seed=11)
        assert 0.48 <= acc <= 0.52, f"{name} game accuracy {acc}"
    assert time.time() - started < 300
    report("3 null-attack-sanity", started)


def test_criterion_4_ordering_rapid_vs_calibration(benchmark_runs):
    started = time.time()
    rapid_auc = suite_mean(benchmark_runs, "rapid", "auc")
    cal_auc = suite_mean(benchmark_runs, "calibration", "auc")
    rapid_tpr = suite_mean(benchmark_runs, "rapid", "tpr")
    cal_tpr = suite_mean(benchmark_runs, "calibration", "tpr")
    assert rapid_auc >= cal_auc
    assert rapid_tpr >= cal_tpr
    report("4 ordering-rapid-vs-calibration", started,
           f"auc {rapid_auc:.3f} >= {cal_auc:.3f}, tpr@1% {rapid_tpr:.3f} >= {cal_tpr:.3f}")


def test_criterion_5_shortcut_lira_vs_lira(benchmark_runs):
    started = time.time()
    shortcut = suite_mean(benchmark_runs, "shortcut_lira", "auc")
    lira = suite_mean(benchmark_runs, "lira_offline", "auc")
    assert shortcut >= lira
    report("5 shortcut-lira", started, f"auc {shortcut:.3f} >= {lira:.3f}")


def test_criterion_6_dp_sgd_trend(trained_models):
    started = time.time()
    means = []
    for sigma in (0.0, 0.5, 1.0):
        aucs = []
        for seed in SEED_SUITE:
            cfg = ExperimentConfig(master_seed=seed, attacks=("rapid",),
                                   dp=DPConfig(clip_norm=10.0, noise_multiplier=sigma))
            aucs.append(run_pipeline(cfg, trained_models).metrics["rapid"].auc)
        means.append(float(np.mean(aucs)))
    assert means[0] >= means[1] >= means[2]
    assert abs(means[2] - 0.5) <= 0.05
    assert time.time() - started < 1200
    report("6 dp-sgd-trend", started,
           "auc by sigma " + ", ".join(f"{m:.3f}" for m in means))


def test_criterion_7_ablation_trends(trained_models):
    started = time.time()
    ref_sweep = sweep(ExperimentConfig(attacks=("calibration",)),
                      "num_reference_models", [1, 2, 4], seeds=SEED_SUITE,
                      trained=trained_models)
    by_refs = ref_sweep.metric_by_value("calibration.auc")
    assert by_refs[1] <= by_refs[2] <= by_refs[4]

    query_sweep = sweep(ExperimentConfig(attacks=("rapid",)),
                        "num_queries", [1, 4, 8], seeds=SEED_SUITE,
                        trained=trained_models)
    by_queries = query_sweep.metric_by_value("rapid.tpr_at_fpr_0.01")
    assert by_queries[1] <= by_queries[4] <= by_queries[8]
    gain_1_4 = by_queries[4] - by_queries[1]
    gain_4_8 = by_queries[8] - by_queries[4]
    assert gain_4_8 <= gain_1_4

    assert time.time() - started < 1800
    report("7 ablation-trends", started,
           f"cal auc by refs {by_refs[1]:.3f}/{by_refs[2]:.3f}/{by_refs[4]:.3f}; "
           f"rapid tpr by queries {by_queries[1]:.3f}/{by_queries[4]:.3f}/{by_queries[8]:.3f}")


def test_criterion_8_determinism_and_formats(tmp_path):
    started = time.time()
    ini = """
[data]
n_samples = 600
feature_dim = 4

[model]
hidden_sizes = 8

[train.target]
epochs = 4
batch_size = 32

[signal]
num_queries = 2

[reference]
count = 2

[scoring]
epochs = 10

[eval]
fpr_levels = 0.1

[experiment]
master_seed = 3
"""
    config_path = tmp_path / "exp.ini"
    config_path.write_text(ini, encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(config_path), "-o", str(out_a)]) == 0
    assert cli_main(["run", str(config_path), "-o", str(out_b)]) == 0

    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    # artifacts round-trip through their loaders value-exactly
    table = ScoreTable.from_csv(out_a / "target_scores.csv")
    round_trip = tmp_path / "rt.csv"
    table.to_csv(round_trip, config_digest=None)
    again = ScoreTable.from_csv(round_trip)
    assert list(again.scores) == list(table.scores)
    for name, values in table.scores.items():
        assert np.array_equal(values, again.scores[name]), name

    # the files the manifest lists, so a renamed artifact cannot skip its check
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["attacks"]
    for attack in manifest["attacks"]:
        assert f"metrics_{attack}.json" in manifest["artifacts"]
        payload = json.loads((out_a / f"metrics_{attack}.json").read_text())
        reloaded = MetricsReport.from_dict(payload)
        assert reloaded.to_dict() == {k: payload[k] for k in
                                      ("balanced_accuracy", "auc", "tpr_at_fpr")}

    assert "roc.csv" in manifest["artifacts"]
    curves = read_roc_csv(out_a / "roc.csv")
    assert list(curves) == manifest["attacks"]
    rt = tmp_path / "roc_rt.csv"
    write_columns(rt, roc_table(curves))
    again = read_roc_csv(rt)
    assert list(again) == list(curves)
    for attack, curve in curves.items():
        assert np.array_equal(curve.thresholds, again[attack].thresholds)
        assert np.array_equal(curve.fpr, again[attack].fpr)
        assert np.array_equal(curve.tpr, again[attack].tpr)

    # every CSV the manifest lists, read through its one reader and written back
    # through write_columns with the manifest's digest, gives the same bytes
    digest = manifest["config_digest"]
    round_trips = {
        "target_scores.csv": lambda src, dst: ScoreTable.from_csv(src).to_csv(dst, digest),
        "shadow_scores.csv": lambda src, dst: ScoreTable.from_csv(src).to_csv(dst, digest),
        "roc.csv": lambda src, dst: write_columns(dst, roc_table(read_roc_csv(src)), digest),
        "loss_buckets.csv": lambda src, dst: write_columns(dst, read_columns(src, BUCKET_HEADER),
                                                           digest),
    }
    assert sorted(n for n in manifest["artifacts"] if n.endswith(".csv")) == sorted(round_trips)
    for name, round_trip in round_trips.items():
        copy = tmp_path / f"rt_{name}"
        round_trip(out_a / name, copy)
        assert copy.read_bytes() == (out_a / name).read_bytes(), name

    assert time.time() - started < 300
    report("8 determinism-and-formats", started)
