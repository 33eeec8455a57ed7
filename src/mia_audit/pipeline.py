"""End-to-end attack pipeline: split, train victim/shadow/reference models,
build score tables, train scoring models, run the selected attacks, and
persist artifacts.

Stages run lazily: a loss-only run trains no shadow or reference models.
Every stage draws its seed from the master seed by labeled hashing, so adding
reference models or queries never perturbs earlier stages, and rerunning an
identical config reproduces every artifact byte for byte.

A trained model is a pure function of its training inputs (the training
slice, its `TrainingConfig` with derived seed and DP, and the layer sizes), so
`run_pipeline` takes a `trained` dict mapping those inputs to models. Each
target, shadow and reference model is looked up there before it is trained;
the caller decides how long the dict lives (one `evaluation.sweep` call shares
one across all its runs). Scoring nets are never memoized.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import attacks as atk
from . import evaluation, nn
from .config import ConfigError, CsvSource, ExperimentConfig, SyntheticSource
from .dataset import (DistributionSpec, SplitPlan, TabularDataset, generate_synthetic,
                      load_csv, make_split, random_means, sample_reference_subset)
from .seeding import derive_seed
from .signals import QueryConfig, ScoreTable, averaged_signal_batch, perturbed_queries

_REFERENCE_ATTACKS = {"calibration", "lira_offline", "rapid", "shortcut_lira"}
_SCORING_ATTACKS = {"rapid", "shortcut_lira"}
_LIRA_ATTACKS = {"lira_offline", "shortcut_lira"}


def resolve_dataset(source, master_seed: int, label: str) -> TabularDataset:
    if isinstance(source, CsvSource):
        return load_csv(source.path)
    assert isinstance(source, SyntheticSource)
    seed = source.seed if source.seed is not None else derive_seed(master_seed, label)
    spec = DistributionSpec(
        num_classes=source.num_classes,
        feature_dim=source.feature_dim,
        class_means=random_means(source.num_classes, source.feature_dim,
                                 source.class_separation, seed),
        cov_scale=source.cov_scale,
        seed=seed,
    )
    return generate_synthetic(spec, source.n_samples)


@dataclass
class RunResult:
    config: ExperimentConfig
    digest: str
    target_plan: SplitPlan
    attacker_plan: SplitPlan | None
    target_model: nn.MLPClassifier
    shadow_model: nn.MLPClassifier | None
    reference_models: list
    target_table: ScoreTable
    shadow_table: ScoreTable | None
    target_lira: np.ndarray | None
    shadow_lira: np.ndarray | None
    outputs: dict
    metrics: dict
    bucket_report: evaluation.LossBucketReport | None
    target_losses: np.ndarray
    target_accuracy: dict


def _train_stage(dataset: TabularDataset, indices, cfg: ExperimentConfig, role: str,
                 seed_parts: tuple, trained: dict) -> nn.MLPClassifier:
    x, y = dataset.subset(indices)
    base = {"target": cfg.target_train, "shadow": cfg.shadow_train,
            "reference": cfg.reference_train}[role]
    dp = cfg.dp if (cfg.dp is not None and role in cfg.dp_apply_to) else None
    train_cfg = dataclasses.replace(base, seed=derive_seed(cfg.master_seed, *seed_parts), dp=dp)
    layer_sizes = (dataset.feature_dim, *cfg.hidden_sizes, dataset.num_classes)
    key = (x.shape, hashlib.sha256(x.tobytes() + y.tobytes()).digest(), train_cfg, layer_sizes)
    if key not in trained:
        trained[key] = nn.train(x, y, train_cfg, layer_sizes)
    return trained[key]


def _eval_set(dataset: TabularDataset, train_idx, test_idx):
    ids = list(train_idx) + list(test_idx)
    x, y = dataset.subset(ids)
    member = np.array([True] * len(train_idx) + [False] * len(test_idx))
    return ids, x, y, member


def run_pipeline(config: ExperimentConfig, trained: dict | None = None) -> RunResult:
    """Execute the configured pipeline in memory; see write_artifacts for disk output.

    `trained` maps training inputs to trained models (see the module
    docstring); the run reads models from it and adds the ones it trains.
    Passing the same dict to several runs lets them share models without
    changing any result; None gives each run a fresh dict.
    """
    trained = {} if trained is None else trained
    digest = config.digest()
    master = config.master_seed
    selected = set(config.attacks)
    needs_refs = bool(selected & _REFERENCE_ATTACKS)
    needs_shadow = bool(selected & _SCORING_ATTACKS)
    needs_lira = bool(selected & _LIRA_ATTACKS)

    target_ds = resolve_dataset(config.data, master, "data")
    attacker_ds = None
    attacker_plan = None
    split_seed = config.split_seed if config.split_seed is not None else derive_seed(master, "split")
    target_plan = make_split(target_ds, split_seed)
    if config.attacker_data is not None:
        attacker_ds = resolve_dataset(config.attacker_data, master, "attacker-data")
        for key in ("feature_dim", "num_classes"):
            if getattr(attacker_ds, key) != getattr(target_ds, key):
                raise ConfigError(f"[attacker_data] {key}: {getattr(attacker_ds, key)} "
                                  f"differs from [data] {key} {getattr(target_ds, key)}")
        attacker_plan = make_split(attacker_ds, derive_seed(master, "attacker-split"))
    shadow_ds = attacker_ds if attacker_ds is not None else target_ds
    shadow_plan = attacker_plan if attacker_plan is not None else target_plan

    target_model = _train_stage(target_ds, target_plan.target_train, config, "target",
                                ("target",), trained)

    reference_models = []
    if needs_refs:
        def train_reference(i: int):
            if config.reference_sampling_mode == "random":
                idx = sample_reference_subset(shadow_plan, config.reference_sample_fraction,
                                              derive_seed(master, "ref-subset", i))
            else:
                idx = shadow_plan.reference_pool
            return _train_stage(shadow_ds, idx, config, "reference", ("ref", i), trained)

        reference_models = [train_reference(i) for i in range(config.num_reference_models)]

    shadow_model = None
    if needs_shadow:
        shadow_model = _train_stage(shadow_ds, shadow_plan.shadow_train, config, "shadow",
                                    ("shadow",), trained)

    query_cfg = QueryConfig(
        num_queries=config.num_queries,
        augmentation_noise_std=config.augmentation_noise_std,
        seed=derive_seed(master, "queries"),
    )

    def score_set(dataset, ids, x, y, member, model, include_refs: bool):
        queries = perturbed_queries(x, ids, query_cfg)

        def raw_for(m):
            return averaged_signal_batch(m, x, y, config.signal_kind, query_cfg,
                                         ids=ids, queries=queries,
                                         logit_scale=config.logit_scaling)

        raw = raw_for(model)
        table = ScoreTable(ids=ids, is_member=member, raw=raw)
        ref_matrix = None
        if include_refs and reference_models:
            ref_matrix = np.column_stack([raw_for(m) for m in reference_models])
            table = table.with_columns(calibrated=atk.calibrate(raw, ref_matrix))
        return table, ref_matrix

    ids_t, x_t, y_t, member_t = _eval_set(target_ds, target_plan.target_train, target_plan.target_test)
    target_table, target_refs = score_set(target_ds, ids_t, x_t, y_t, member_t,
                                          target_model, needs_refs)
    target_losses = nn.per_sample_loss(target_model, x_t, y_t)

    shadow_table = None
    shadow_refs = None
    if needs_shadow:
        ids_s, x_s, y_s, member_s = _eval_set(shadow_ds, shadow_plan.shadow_train,
                                              shadow_plan.shadow_test)
        shadow_table, shadow_refs = score_set(shadow_ds, ids_s, x_s, y_s, member_s,
                                              shadow_model, True)

    target_lira = None
    shadow_lira = None
    if needs_lira and target_refs is not None:
        target_lira = atk.lira_offline_scores(target_table.raw, target_refs)
    if "shortcut_lira" in selected and shadow_table is not None and shadow_refs is not None:
        shadow_lira = atk.lira_offline_scores(shadow_table.raw, shadow_refs)

    outputs: dict = {}
    if "loss" in selected:
        outputs["loss"] = atk.attack_loss(target_table, digest)
    if "calibration" in selected:
        outputs["calibration"] = atk.attack_calibration(target_table, digest)
    if "lira_offline" in selected:
        outputs["lira_offline"] = atk.AttackOutput("lira_offline", target_lira, digest)
    if "rapid" in selected:
        scoring_cfg = dataclasses.replace(config.scoring_train,
                                          seed=derive_seed(master, "scoring", "rapid"))
        rapid_model = atk.train_scoring_model(shadow_table, scoring_cfg,
                                              config.scoring_hidden_sizes)
        outputs["rapid"] = atk.attack_rapid(target_table, rapid_model, digest)
    if "shortcut_lira" in selected:
        scoring_cfg = dataclasses.replace(config.scoring_train,
                                          seed=derive_seed(master, "scoring", "shortcut_lira"))
        shortcut_shadow = shadow_table.with_columns(calibrated=shadow_lira)
        shortcut_model = atk.train_scoring_model(shortcut_shadow, scoring_cfg,
                                                 config.scoring_hidden_sizes)
        outputs["shortcut_lira"] = atk.attack_shortcut_lira(target_table.raw, target_lira,
                                                            shortcut_model, digest)

    metrics = {name: evaluation.compute_metrics(outputs[name].scores, target_table.is_member,
                                                config.fpr_levels)
               for name in config.attacks if name in outputs}

    bucket_report = None
    if target_table.calibrated is not None:
        bucket_report = evaluation.loss_bucket_report(target_losses, target_table.calibrated,
                                                      target_table.is_member)

    target_accuracy = {
        "train": nn.accuracy(target_model, *target_ds.subset(target_plan.target_train)),
        "test": nn.accuracy(target_model, *target_ds.subset(target_plan.target_test)),
    }

    return RunResult(
        config=config, digest=digest,
        target_plan=target_plan, attacker_plan=attacker_plan,
        target_model=target_model, shadow_model=shadow_model,
        reference_models=reference_models,
        target_table=target_table, shadow_table=shadow_table,
        target_lira=target_lira, shadow_lira=shadow_lira,
        outputs=outputs, metrics=metrics,
        bucket_report=bucket_report, target_losses=target_losses,
        target_accuracy=target_accuracy,
    )


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_artifacts(result: RunResult, outdir) -> list[str]:
    """Persist every artifact of a run; returns the artifact file names."""
    os.makedirs(outdir, exist_ok=True)
    digest = result.digest
    written: list[str] = []

    def record(name: str) -> str:
        written.append(name)
        return os.path.join(outdir, name)

    _write_json(record("config.json"),
                {"config_digest": digest, "config": result.config.canonical_dict()})

    with open(record("split.json"), "w", encoding="utf-8") as fh:
        fh.write(result.target_plan.to_json(digest))
        fh.write("\n")
    if result.attacker_plan is not None:
        with open(record("attacker_split.json"), "w", encoding="utf-8") as fh:
            fh.write(result.attacker_plan.to_json(digest))
            fh.write("\n")

    result.target_table.to_csv(record("target_scores.csv"), digest)
    if result.shadow_table is not None:
        result.shadow_table.to_csv(record("shadow_scores.csv"), digest)

    for name in result.config.attacks:
        if name not in result.outputs:
            continue
        output = result.outputs[name]
        output.to_csv(record(f"scores_{name}.csv"), ids=result.target_table.ids)
        with open(record(f"scores_{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(output.sidecar(result.config.master_seed))
            fh.write("\n")
        curve = evaluation.roc(output.scores, result.target_table.is_member)
        curve.to_csv(record(f"roc_{name}.csv"), digest)
        payload = {"attack": name, "config_digest": digest}
        payload.update(result.metrics[name].to_dict())
        _write_json(record(f"metrics_{name}.json"), payload)

    if result.bucket_report is not None:
        result.bucket_report.write_raw_csv(record("loss_buckets_raw.csv"), digest)
        result.bucket_report.write_calibrated_csv(record("loss_buckets_calibrated.csv"), digest)

    _write_json(os.path.join(outdir, "manifest.json"), {
        "config_digest": digest,
        "master_seed": result.config.master_seed,
        "attacks": list(result.config.attacks),
        "target_accuracy": result.target_accuracy,
        "artifacts": sorted(written) + ["manifest.json"],
        "status": "ok",
    })
    written.append("manifest.json")
    return written


def read_manifest(outdir) -> dict | None:
    """The manifest.json of a run directory, or None when there is none."""
    path = os.path.join(outdir, "manifest.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mark_failed(outdir, digest: str, error: str) -> None:
    """Leave a clearly-marked manifest when a stage fails after partial output,
    first deleting the artifacts the previous manifest lists (no other file)."""
    os.makedirs(outdir, exist_ok=True)
    try:
        listed = (read_manifest(outdir) or {}).get("artifacts", [])
    except ValueError:  # a truncated manifest lists nothing
        listed = []
    for name in listed:
        path = os.path.join(outdir, name)
        if name != "manifest.json" and os.path.basename(name) == name and os.path.isfile(path):
            os.remove(path)
    _write_json(os.path.join(outdir, "manifest.json"), {
        "config_digest": digest,
        "status": "failed",
        "error": error,
    })
