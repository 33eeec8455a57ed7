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

A run first builds all its training jobs (target, references, shadow), then
trains the ones missing from `trained` in stacked groups: one `nn.train_many`
call per set of jobs with the same row count, layer sizes and training config
up to the seed. By default that is target and shadow together, then the
reference models together. DP jobs train one per call.
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
    outputs: dict
    curves: dict
    metrics: dict
    bucket_report: evaluation.LossBucketReport | None
    target_accuracy: dict


def _training_job(dataset: TabularDataset, indices, cfg: ExperimentConfig, role: str,
                  seed_parts: tuple) -> tuple:
    """(key, x, y) of one target, shadow or reference model; the key holds
    every training input (see the module docstring) and indexes `trained`."""
    x, y = dataset.subset(indices)
    base = {"target": cfg.target_train, "shadow": cfg.shadow_train,
            "reference": cfg.reference_train}[role]
    dp = cfg.dp if (cfg.dp is not None and role in cfg.dp_apply_to) else None
    train_cfg = dataclasses.replace(base, seed=derive_seed(cfg.master_seed, *seed_parts), dp=dp)
    layer_sizes = (dataset.feature_dim, *cfg.hidden_sizes, dataset.num_classes)
    key = (x.shape, hashlib.sha256(x.tobytes() + y.tobytes()).digest(), train_cfg, layer_sizes)
    return key, x, y


def _train_missing(jobs, trained: dict) -> None:
    """Train every job whose key is not in `trained` and add it there.

    Jobs that share a row count, layer sizes and every TrainingConfig field
    but the seed train in one stacked nn.train_many call, which gives each
    model bit for bit what training it alone would.
    """
    groups: dict = {}
    for key, x, y in jobs:
        if key in trained:
            continue
        shape, _, train_cfg, layer_sizes = key
        # DP jobs train one per call: stacking the 4 DP reference models of a
        # default DP run made that run slower, not faster, in 3 of 4 paired runs
        group = key if train_cfg.dp is not None else (
            shape[0], layer_sizes, dataclasses.replace(train_cfg, seed=0))
        groups.setdefault(group, {})[key] = (x, y)
    for members in groups.values():
        keys = list(members)
        models = nn.train_many([members[k][0] for k in keys], [members[k][1] for k in keys],
                               [k[2] for k in keys], keys[0][3])
        trained.update(zip(keys, models))


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
    needs_refs = bool(selected - {"loss"})
    scoring = [name for name in atk.SCORING_FEATURES if name in selected]

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

    def reference_indices(i: int):
        if config.reference_sampling_mode == "random":
            return sample_reference_subset(shadow_plan, config.reference_sample_fraction,
                                           derive_seed(master, "ref-subset", i))
        return shadow_plan.reference_pool

    target_job = _training_job(target_ds, target_plan.target_train, config, "target", ("target",))
    reference_jobs = [_training_job(shadow_ds, reference_indices(i), config, "reference", ("ref", i))
                      for i in range(config.num_reference_models)] if needs_refs else []
    shadow_job = (_training_job(shadow_ds, shadow_plan.shadow_train, config, "shadow", ("shadow",))
                  if scoring else None)
    _train_missing([target_job, *reference_jobs] + ([shadow_job] if scoring else []), trained)
    target_model = trained[target_job[0]]
    reference_models = [trained[job[0]] for job in reference_jobs]
    shadow_model = trained[shadow_job[0]] if scoring else None

    query_cfg = QueryConfig(
        num_queries=config.num_queries,
        augmentation_noise_std=config.augmentation_noise_std,
        seed=derive_seed(master, "queries"),
    )

    def score_set(ids, x, y, member, model):
        """The eval set's table and every threshold score, read off its raw
        scores and reference matrix (only "loss" when the run has none)."""
        queries = perturbed_queries(x, ids, query_cfg)

        def raw_for(m):
            return averaged_signal_batch(m, queries, y, config.signal_kind, config.logit_scaling)

        raw = raw_for(model)
        refs = np.column_stack([raw_for(m) for m in reference_models]) if needs_refs else None
        scores = {name: score(raw, refs) for name, score in atk.THRESHOLD_SCORES.items()
                  if needs_refs or name == "loss"}
        return ScoreTable(ids=ids, is_member=member, raw=raw,
                          calibrated=scores.get("calibration")), scores

    ids_t, x_t, y_t, member_t = _eval_set(target_ds, target_plan.target_train, target_plan.target_test)
    target_table, target_scores = score_set(ids_t, x_t, y_t, member_t, target_model)

    shadow_table = None
    if scoring:
        ids_s, x_s, y_s, member_s = _eval_set(shadow_ds, shadow_plan.shadow_train,
                                              shadow_plan.shadow_test)
        shadow_table, shadow_scores = score_set(ids_s, x_s, y_s, member_s, shadow_model)

        def pairs(scores, name):
            return np.column_stack([scores["loss"], scores[atk.SCORING_FEATURES[name]]])

        # both scoring nets train on the same shadow rows, so they share one loop
        configs = [dataclasses.replace(config.scoring_train, seed=derive_seed(master, "scoring", name))
                   for name in scoring]
        nets = atk.train_scoring_models([pairs(shadow_scores, name) for name in scoring],
                                        shadow_table.is_member, configs, config.scoring_hidden_sizes)
        for name, net in zip(scoring, nets):
            target_scores[name] = net.score(pairs(target_scores, name))

    outputs = {name: atk.AttackOutput(name, target_scores[name]) for name in config.attacks}
    # one ROC curve per attack: its metrics and roc_<attack>.csv are both read off it
    curves = {name: evaluation.roc(output.scores, target_table.is_member)
              for name, output in outputs.items()}
    metrics = {name: evaluation.compute_metrics(curve, config.fpr_levels)
               for name, curve in curves.items()}

    bucket_report = None
    if target_table.calibrated is not None:
        bucket_report = evaluation.loss_bucket_report(nn.per_sample_loss(target_model, x_t, y_t),
                                                      target_table.calibrated,
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
        outputs=outputs, curves=curves, metrics=metrics,
        bucket_report=bucket_report, target_accuracy=target_accuracy,
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

    for name, curve in result.curves.items():
        result.outputs[name].to_csv(record(f"scores_{name}.csv"), result.target_table.ids, digest)
        _write_json(record(f"scores_{name}.json"),
                    {"attack": name, "config_digest": digest, "seed": result.config.master_seed})
        curve.to_csv(record(f"roc_{name}.csv"), digest)
        _write_json(record(f"metrics_{name}.json"),
                    {"attack": name, "config_digest": digest, **result.metrics[name].to_dict()})

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
    """The manifest.json of a run directory, or None when there is none.

    Raises ValueError when the file is not a JSON object.
    """
    path = os.path.join(outdir, "manifest.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(manifest).__name__}")
    return manifest


def mark_failed(outdir, digest: str, error: str) -> None:
    """Leave a clearly-marked manifest when a stage fails after partial output,
    first deleting the artifacts the previous manifest lists (no other file)."""
    os.makedirs(outdir, exist_ok=True)
    try:
        listed = (read_manifest(outdir) or {}).get("artifacts", [])
    except ValueError:  # a truncated or malformed manifest lists nothing
        listed = []
    for name in listed if isinstance(listed, list) else []:
        if (isinstance(name, str) and name != "manifest.json" and os.path.basename(name) == name
                and os.path.isfile(os.path.join(outdir, name))):
            os.remove(os.path.join(outdir, name))
    _write_json(os.path.join(outdir, "manifest.json"), {
        "config_digest": digest,
        "status": "failed",
        "error": error,
    })
