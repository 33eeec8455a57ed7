"""End-to-end attack pipeline: split, train victim/shadow/reference models,
score them, train scoring models, run the selected attacks, persist
artifacts and read them back through the manifest, and sweep one ablation axis.

`run_pipelines` takes a list of configs and, for each master seed among them
in order of first appearance, runs each stage across that seed's configs
before the next:
  1. every run's datasets, splits and training jobs (target, references,
     shadow), then one `_train_missing` over their union;
  2. per distinct eval set, its query matrices, built once for the most
     queries any run asks of it and dropped before the next set's; each
     distinct model is scored on them once per query index, in query order,
     and one running sum per model gives the mean over every count the runs
     ask for; the pass over the first, unperturbed matrix also keeps its
     log-probabilities;
  3. per run with a scoring attack, its shadow score table, read off those
     means, and its scoring nets, as training jobs like those of stage 1;
  4. per run, the target's score table (threshold and scoring attacks), ROC
     curves, metrics, and the loss buckets and target accuracy, read off the
     target's stage 2 log-probabilities.
`run_pipeline` is its one-config case, so a single run takes the same path,
and a `sweep` is one call on all of its configs.

Stages run lazily: a loss-only run trains no shadow or reference models.
Every stage draws its seed from the master seed by labeled hashing, so adding
reference models or queries never perturbs earlier stages, and rerunning an
identical config reproduces every artifact byte for byte. Query noise is keyed
on (sample id, query index), so a run's Q query matrices are the first Q of a
longer list.

A trained model is a pure function of its training inputs (the training
slice and targets, its derived seed, its `TrainingConfig`, its DP settings
and the layer sizes, whose output width picks the loss), so the pipeline
takes a `trained` dict mapping those inputs to models. Every model, scoring
nets included, is looked up there before it is trained; the caller decides
how long the dict lives (one `sweep` call shares one across all its runs).

The missing models train in stacked groups: one `nn.train_many` call per row
count, layer sizes, `TrainingConfig` and DP settings, across the runs of one
master seed, so within a group only the data and the seeds differ. For one
default run that is target and shadow together, then the reference models,
then the two scoring nets; a DP target trains apart from a non-DP shadow.
Every group trains in float32 (see `nn`), and every model comes back widened
to float64, the dtype that all later stages compute in. A group never spans
two master seeds: their models share no training inputs, and 20
reference-shape models in one loop trained slower than 5 loops of 4.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import attacks as atk
from . import evaluation, nn
from .config import KNOWN_ATTACKS, ConfigError, CsvSource, ExperimentConfig, SyntheticSource
from .dataset import (MIN_SPLIT_SAMPLES, CsvParseError, SplitPlan, TabularDataset,
                      generate_synthetic, load_csv, make_split, random_means,
                      sample_reference_subset, write_columns)
from .seeding import derive_seed
from .signals import ScoreTable, perturbed_queries, signal_batch


def resolve_dataset(source, master_seed: int, label: str) -> TabularDataset:
    if isinstance(source, CsvSource):
        return load_csv(source.path)
    assert isinstance(source, SyntheticSource)
    seed = source.seed if source.seed is not None else derive_seed(master_seed, label)
    means = random_means(source.num_classes, source.feature_dim, source.class_separation, seed)
    return generate_synthetic(means, source.cov_scale, source.n_samples, seed)


@dataclass
class RunResult:
    config: ExperimentConfig
    target_plan: SplitPlan
    attacker_plan: SplitPlan | None
    target_table: ScoreTable
    shadow_table: ScoreTable | None
    scores: dict  # each selected attack -> its column of target_table
    curves: dict
    metrics: dict
    bucket_report: evaluation.LossBucketReport | None
    target_accuracy: dict


def _job(x: np.ndarray, y: np.ndarray, seed: int, train_cfg, layer_sizes, dp=None) -> tuple:
    """(key, x, y) of one model to train. The key, (group, data digest, seed),
    indexes `trained`; its group, (rows, train_cfg, dp, layer sizes), is what
    one nn.train_many call shares (see the module docstring)."""
    digest = hashlib.sha256(x.tobytes() + y.tobytes()).digest()
    return ((len(x), train_cfg, dp, tuple(layer_sizes)), digest, seed), x, y


def _training_job(dataset: TabularDataset, indices, cfg: ExperimentConfig, role: str,
                  seed_parts: tuple) -> tuple:
    """The job of one target, shadow or reference model."""
    x, y = dataset.subset(indices)
    train_cfg = {"target": cfg.target_train, "shadow": cfg.shadow_train,
                 "reference": cfg.reference_train}[role]
    return _job(x, y, derive_seed(cfg.master_seed, *seed_parts), train_cfg,
                (dataset.feature_dim, *cfg.hidden_sizes, dataset.num_classes),
                cfg.dp if role in cfg.dp_apply_to else None)


def _train_missing(jobs, trained: dict) -> None:
    """Train every job whose key is not in `trained` and add it there.

    Jobs of one group (see _job) train in one stacked nn.train_many call, in
    order of first appearance, which gives each model bit for bit what
    training it alone would.
    """
    groups: dict = {}
    for key, x, y in jobs:
        if key not in trained:
            groups.setdefault(key[0], {})[key] = (x, y)
    for (_, train_cfg, dp, layer_sizes), members in groups.items():
        keys = list(members)
        pairs = nn.train_many([members[k][0] for k in keys], [members[k][1] for k in keys],
                              [k[2] for k in keys], train_cfg, layer_sizes, dp)
        trained.update((key, model) for key, (model, _) in zip(keys, pairs))


@dataclass(frozen=True)
class _EvalSet:
    """The rows one run scores: members first, then non-members."""

    ids: list
    x: np.ndarray
    y: np.ndarray
    member: np.ndarray
    key: tuple  # the content of ids, x and y


def _eval_set(dataset: TabularDataset, train_idx, test_idx) -> _EvalSet:
    ids = list(train_idx) + list(test_idx)
    x, y = dataset.subset(ids)
    member = np.array([True] * len(train_idx) + [False] * len(test_idx))
    digest = hashlib.sha256(np.asarray(ids, dtype=np.int64).tobytes() + x.tobytes()
                            + y.tobytes()).digest()
    return _EvalSet(ids, x, y, member, (x.shape, digest))


@dataclass
class _Run:
    """One config's splits, training jobs and eval sets (stage 1)."""

    config: ExperimentConfig
    target_plan: SplitPlan
    attacker_plan: SplitPlan | None
    target_job: tuple
    reference_jobs: list
    shadow_job: tuple | None
    scoring: list  # the selected scoring attacks, in SCORING_FEATURES order
    # (eval set, key of the model it audits): the target set, then the shadow
    # set when a scoring attack is selected
    eval_sets: list

    def jobs(self) -> list:
        return [self.target_job, *self.reference_jobs] + ([self.shadow_job] if self.scoring else [])

    def signal_key(self, eval_set: _EvalSet, model_key) -> tuple:
        """Everything the query-averaged signal of a model on an eval set depends on."""
        cfg = self.config
        return (eval_set.key, derive_seed(cfg.master_seed, "queries"), cfg.augmentation_noise_std,
                model_key, cfg.signal_kind, cfg.logit_scaling)


def _plan(config: ExperimentConfig, shared: dict) -> _Run:
    """Stage 1 for one run. A dataset, training job or eval set equal to one
    that an earlier run of the call put in `shared` is taken from there, so
    the runs hold one copy of each."""
    master = config.master_seed
    selected = set(config.attacks)
    scoring = [name for name in atk.SCORING_FEATURES if name in selected]

    def dataset(source, label: str, section: str) -> TabularDataset:
        key = ("dataset", source, master, label)
        if key not in shared:
            try:
                data = shared[key] = resolve_dataset(source, master, label)
            except (OSError, CsvParseError) as exc:
                raise ConfigError(f"[{section}] path: {exc}") from None
            if isinstance(source, CsvSource) and data.feature_dim == 0:
                raise ConfigError(f"[{section}] path: {source.path} has no column besides 'label'")
            if isinstance(source, CsvSource) and len(data) < MIN_SPLIT_SAMPLES:
                raise ConfigError(f"[{section}] path: {source.path} has {len(data)} data rows; "
                                  f"the split needs at least {MIN_SPLIT_SAMPLES}")
            if isinstance(source, CsvSource) and (data.labels == data.labels[0]).all():
                raise ConfigError(f"[{section}] path: every label in {source.path} is "
                                  f"{data.labels[0]}; a classifier needs at least two classes")
        return shared[key]

    def job(*args) -> tuple:
        new = _training_job(*args)
        return shared.setdefault(("job", new[0]), new)

    def eval_set(*args) -> _EvalSet:
        new = _eval_set(*args)
        return shared.setdefault(("eval set", new.key), new)

    target_ds = dataset(config.data, "data", "data")
    attacker_ds = None
    attacker_plan = None
    split_seed = config.split_seed if config.split_seed is not None else derive_seed(master, "split")
    target_plan = make_split(target_ds, split_seed)
    if config.attacker_data is not None:
        attacker_ds = dataset(config.attacker_data, "attacker-data", "attacker_data")
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

    target_job = job(target_ds, target_plan.target_train, config, "target", ("target",))
    reference_jobs = ([job(shadow_ds, reference_indices(i), config, "reference", ("ref", i))
                       for i in range(config.num_reference_models)]
                      if selected - {"loss"} else [])
    eval_sets = [(eval_set(target_ds, target_plan.target_train, target_plan.target_test),
                  target_job[0])]
    shadow_job = None
    if scoring:
        shadow_job = job(shadow_ds, shadow_plan.shadow_train, config, "shadow", ("shadow",))
        eval_sets.append((eval_set(shadow_ds, shadow_plan.shadow_train, shadow_plan.shadow_test),
                          shadow_job[0]))
    return _Run(config, target_plan, attacker_plan, target_job, reference_jobs,
                shadow_job, scoring, eval_sets)


def _signals(runs: list[_Run], trained: dict) -> tuple[dict, dict]:
    """Stage 2: {(signal key, query count): query-averaged signal} of every
    model on every eval set that the runs read (see _Run.signal_key), and
    {signal key: log-probabilities on the first, unperturbed query matrix}.

    One eval set's queries are built once, for the most queries any run asks
    of it, and dropped before the next set's. Each distinct model is scored
    once per query index, and each count's mean comes off one running sum in
    query order, so it equals the mean over that run's own queries bit for bit.
    With one query or zero noise there is one matrix, so every count reads
    the signal on it.
    """
    wanted: dict = {}  # (eval set key, query seed, noise std) -> (eval set, {signal key: counts})
    for run in runs:
        for eval_set, model_key in run.eval_sets:
            for key in [model_key] + [job[0] for job in run.reference_jobs]:
                signal_key = run.signal_key(eval_set, key)
                _, counts = wanted.setdefault(signal_key[:3], (eval_set, {}))
                counts.setdefault(signal_key, set()).add(run.config.num_queries)
    signals, logps = {}, {}
    for (_, seed, std), (eval_set, counts) in wanted.items():
        most = max(max(c) for c in counts.values())
        queries = perturbed_queries(eval_set.x, eval_set.ids, most, std, seed)
        for signal_key, wanted_counts in counts.items():
            *_, model_key, kind, logit_scale = signal_key
            for step, xq in enumerate(queries[:max(wanted_counts)], start=1):
                signal, logp = signal_batch(trained[model_key], xq, eval_set.y, kind, logit_scale)
                logps.setdefault(signal_key, logp)
                total = signal if step == 1 else total + signal
                for q in wanted_counts:
                    if min(q, len(queries)) == step:
                        signals[(signal_key, q)] = total / step
        del queries
    return signals, logps


def _threshold_scores(run: _Run, eval_set: _EvalSet, model_key, signals: dict) -> dict:
    """The threshold attacks' scores of one eval set, read off its raw scores
    and reference matrix (only "loss" when the run has none)."""
    def signal(key):
        return signals[(run.signal_key(eval_set, key), run.config.num_queries)]

    raw = signal(model_key)
    refs = (np.column_stack([signal(job[0]) for job in run.reference_jobs])
            if run.reference_jobs else None)
    return {name: score(raw, refs) for name, score in atk.THRESHOLD_SCORES.items()
            if refs is not None or name == "loss"}


def _pairs(scores: dict, name: str) -> np.ndarray:
    """The (raw, second feature) inputs of the scoring attack `name`."""
    return np.column_stack([scores["loss"], atk.SCORING_FEATURES[name](scores)])


def _shadow_stage(run: _Run, signals: dict) -> tuple:
    """Stage 3 of one run: its shadow ScoreTable, whose scores are all in,
    and (name, job, feature mean, feature std) of each of its scoring nets,
    trained on the table's scores against its membership."""
    cfg = run.config
    shadow_set, model_key = run.eval_sets[1]
    table = ScoreTable(shadow_set.ids, shadow_set.member,
                       _threshold_scores(run, shadow_set, model_key, signals))
    member = table.is_member.astype(np.float64)
    jobs = []
    for name in run.scoring:
        z, mean, std = atk.scoring_features(_pairs(table.scores, name), member)
        jobs.append((name, _job(z, member, derive_seed(cfg.master_seed, "scoring", name),
                                cfg.scoring_train, (2, *cfg.scoring_hidden_sizes, 1)),
                     mean, std))
    return table, jobs


def _result(run: _Run, signals: dict, shadow_table: ScoreTable | None, scoring_jobs: list,
            trained: dict, logp) -> RunResult:
    """Stage 4 of one run (see the module docstring); `logp` holds the
    target's log-probabilities on its eval set."""
    config = run.config
    target_set, model_key = run.eval_sets[0]
    target_scores = _threshold_scores(run, target_set, model_key, signals)
    for name, job, mean, std in scoring_jobs:
        net = atk.ScoringModel(trained[job[0]], mean, std)
        target_scores[name] = net.score(_pairs(target_scores, name))
    target_table = ScoreTable(target_set.ids, target_set.member, target_scores)

    scores = {name: target_table.scores[name] for name in config.attacks}
    # one ROC curve per attack: its metrics and roc_<attack>.csv are both read off it
    curves = {name: evaluation.roc(values, target_table.is_member)
              for name, values in scores.items()}
    metrics = {name: evaluation.compute_metrics(curve, config.fpr_levels)
               for name, curve in curves.items()}

    bucket_report = None
    if "calibration" in target_table.scores:
        bucket_report = evaluation.loss_bucket_report(
            -logp[np.arange(len(target_set.y)), target_set.y],
            target_table.scores["calibration"], target_table.is_member)
    correct = logp.argmax(axis=1) == target_set.y  # ties go to the lowest class
    target_accuracy = {"train": float(correct[target_set.member].mean()),
                       "test": float(correct[~target_set.member].mean())}

    return RunResult(
        config=config,
        target_plan=run.target_plan, attacker_plan=run.attacker_plan,
        target_table=target_table, shadow_table=shadow_table,
        scores=scores, curves=curves, metrics=metrics,
        bucket_report=bucket_report, target_accuracy=target_accuracy,
    )


def run_pipelines(configs, trained: dict | None = None) -> list[RunResult]:
    """Execute the configured runs in memory, stage by stage and one master
    seed at a time (see the module docstring); see write_artifacts for disk
    output. Results come in config order, each equal to that of its config
    run alone.

    `trained` maps training inputs to trained models; the runs read models
    from it and add the ones they train. Passing the same dict to several
    calls lets them share models without changing any result; None gives the
    call a fresh dict.
    """
    trained = {} if trained is None else trained
    configs = list(configs)
    by_seed: dict = {}
    for i, config in enumerate(configs):
        by_seed.setdefault(config.master_seed, []).append((i, config))
    results = [None] * len(configs)
    for batch in by_seed.values():
        shared: dict = {}
        runs = [_plan(config, shared) for _, config in batch]
        _train_missing([job for run in runs for job in run.jobs()], trained)
        signals, logps = _signals(runs, trained)
        shadows = [_shadow_stage(run, signals) if run.scoring else (None, []) for run in runs]
        _train_missing([job for _, jobs in shadows for _, job, _, _ in jobs], trained)
        for (i, _), run, (shadow_table, jobs) in zip(batch, runs, shadows):
            results[i] = _result(run, signals, shadow_table, jobs, trained,
                                 logps[run.signal_key(*run.eval_sets[0])])
    return results


def run_pipeline(config: ExperimentConfig, trained: dict | None = None) -> RunResult:
    """run_pipelines on one config."""
    return run_pipelines([config], trained)[0]


SWEEP_AXES = ("num_reference_models", "num_queries", "reference_sampling_mode")


@dataclass(frozen=True)
class SweepResult:
    """Per (axis value, seed) metrics for every attack, in long format."""

    axis: str
    rows: tuple[dict, ...]  # keys: axis, value, seed, metric, result

    def write_csv(self, path, config_digest: str | None = None) -> None:
        header = ("axis", "value", "seed", "metric", "result")
        write_columns(path, header, [[row[key] for row in self.rows] for key in header],
                      config_digest)

    def metric_by_value(self, metric: str) -> dict:
        """value -> mean of a metric over seeds."""
        sums: dict = {}
        counts: dict = {}
        for row in self.rows:
            if row["metric"] != metric:
                continue
            sums[row["value"]] = sums.get(row["value"], 0.0) + row["result"]
            counts[row["value"]] = counts.get(row["value"], 0) + 1
        return {v: sums[v] / counts[v] for v in sums}


def sweep_runs(config, axis: str, values, seeds=None) -> list[tuple]:
    """Every (value, seed, config) run of a sweep, value-major.

    Every config is built, and so validated, before the first run trains:
    a bad later value fails here, not after the earlier runs.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    seeds = [config.master_seed] if seeds is None else list(seeds)
    for name, entries in (("value", values), ("seed", seeds)):
        if not entries:
            raise ValueError(f"{name}s must be nonempty")
        for i, entry in enumerate(entries):
            if entry in entries[:i]:  # each (value, seed) row would repeat
                raise ValueError(f"sweep {name} {entry!r} is repeated")
    return [(value, seed, config.with_overrides(master_seed=seed, **{axis: value}))
            for value in values for seed in seeds]


def sweep(config, axis: str, values, seeds=None, trained: dict | None = None) -> SweepResult:
    """Rerun the pipeline per axis value (and per seed), all other seeds fixed.

    Because every stage seed is derived from the master seed by labeled
    hashing, changing the number of reference models or queries never
    perturbs the other stages, so differences along the axis reflect the axis
    alone.

    All runs go through one `run_pipelines` call, so each distinct model,
    scoring nets included, trains once, and each eval set's queries are built
    once and each distinct model is scored on them once. The runs share one
    `trained` dict, which lives for the call, or as long as the caller keeps
    the one it passes. Every row equals that of a direct run, and rows come
    in `sweep_runs` order.
    """
    runs = sweep_runs(config, axis, values, seeds)
    results = run_pipelines([cfg for _, _, cfg in runs], trained)
    rows = []
    for (value, seed, cfg), result in zip(runs, results):
        for attack in cfg.attacks:
            report = result.metrics[attack]
            entries = [("auc", report.auc), ("balanced_accuracy", report.balanced_accuracy)]
            entries += [(f"tpr_at_fpr_{repr(level)}", entry.tpr)
                        for level, entry in sorted(report.tpr_at_fpr.items())]
            for metric, res in entries:
                rows.append({"axis": axis, "value": value, "seed": seed,
                             "metric": f"{attack}.{metric}", "result": float(res)})
    return SweepResult(axis, tuple(rows))


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_artifacts(result: RunResult, outdir) -> list[str]:
    """Persist every artifact of a run; returns the artifact file names.

    The file list is fixed first: _replace_manifest leaves a manifest that
    lists the whole set with `status: writing`, then the files are written,
    then the same manifest with `status: ok`. So `read_metrics` accepts only
    a finished run, and a run cut anywhere leaves no file its manifest omits.
    """
    config, digest = result.config, result.config.digest()
    files = {"config.json": (_write_json, {"config_digest": digest,
                                            "config": config.canonical_dict()})}
    for name, plan in (("split.json", result.target_plan),
                       ("attacker_split.json", result.attacker_plan)):
        if plan is not None:
            files[name] = (_write_json, {**plan.to_dict(), "config_digest": digest})
    files["target_scores.csv"] = (result.target_table.to_csv, digest)
    if result.shadow_table is not None:
        files["shadow_scores.csv"] = (result.shadow_table.to_csv, digest)
    for name, curve in result.curves.items():
        files[f"roc_{name}.csv"] = (curve.to_csv, digest)
        files[f"metrics_{name}.json"] = (_write_json, {"attack": name, "config_digest": digest,
                                                       **result.metrics[name].to_dict()})
    if result.bucket_report is not None:
        files["loss_buckets_raw.csv"] = (result.bucket_report.write_raw_csv, digest)
        files["loss_buckets_calibrated.csv"] = (result.bucket_report.write_calibrated_csv, digest)

    manifest = {"config_digest": digest, "master_seed": config.master_seed,
                "attacks": list(config.attacks), "target_accuracy": result.target_accuracy,
                "artifacts": sorted(files) + ["manifest.json"]}
    _replace_manifest(outdir, {**manifest, "status": "writing"})
    for name, (write, *args) in files.items():
        write(os.path.join(outdir, name), *args)
    _write_manifest(outdir, {**manifest, "status": "ok"})
    return [*files, "manifest.json"]


def read_manifest(outdir) -> dict:
    """The manifest.json of a run directory.

    Raises ValueError naming the file when there is none or it is not a JSON
    object.
    """
    path = os.path.join(outdir, "manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"no manifest.json in {outdir}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(manifest).__name__}")
    return manifest


def read_metrics(outdir) -> dict:
    """{attack: MetricsReport} of the finished run in a run directory, read
    through its manifest: it must record `status: ok`, a nonempty config
    digest and a nonempty list of known attacks, and exactly
    metrics_<attack>.json of each is read. Raises ValueError naming the file
    that is missing, does not parse, names another attack, or carries a
    config digest other than the manifest's."""
    manifest = read_manifest(outdir)
    if manifest.get("status") != "ok":
        raise ValueError(f"last run in {outdir} did not finish: manifest status "
                         f"{manifest.get('status')!r} ({manifest.get('error', 'no error recorded')})")
    manifest_path = os.path.join(outdir, "manifest.json")
    attacks = manifest.get("attacks")
    if not (isinstance(attacks, list) and attacks and all(a in KNOWN_ATTACKS for a in attacks)):
        raise ValueError(f"{manifest_path}: attacks must be a nonempty list of names from "
                         f"{KNOWN_ATTACKS}, got {attacks!r}")
    digest = manifest.get("config_digest")
    if not (isinstance(digest, str) and digest):  # else no metrics file could be told stale
        raise ValueError(f"{manifest_path}: config_digest must be a nonempty string, "
                         f"got {digest!r}")
    reports = {}
    for attack in attacks:
        path = os.path.join(outdir, f"metrics_{attack}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            named, reports[attack] = payload["attack"], evaluation.MetricsReport.from_dict(payload)
        except FileNotFoundError:
            raise ValueError(f"{path}: missing, but manifest.json lists attack {attack!r}") from None
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a metrics artifact "
                             f"({type(exc).__name__}: {exc})") from None
        if named != attack:
            raise ValueError(f"{path}: holds the metrics of attack {named!r}, not {attack!r}")
        if payload.get("config_digest") != digest:
            raise ValueError(f"stale metrics in {path}: digest {payload.get('config_digest')} "
                             f"but manifest.json names {digest}")
    return reports


def _replace_manifest(outdir, manifest: dict) -> None:
    """Delete the artifacts that the directory's manifest lists, and no other
    file, and leave `manifest` in its place. During the deletes the manifest
    already holds the new status but lists the old files too, so a process
    killed midway leaves no unlisted file and no `ok` manifest over a deleted
    one. A listed name that is not a plain file name in outdir is skipped."""
    os.makedirs(outdir, exist_ok=True)
    try:
        listed = read_manifest(outdir).get("artifacts", [])
    except ValueError:  # a missing, truncated or malformed manifest lists nothing
        listed = []
    old = [name for name in (listed if isinstance(listed, list) else [])
           if isinstance(name, str) and name != "manifest.json" and os.path.basename(name) == name]
    _write_manifest(outdir, {**manifest,
                             "artifacts": sorted({*old, *manifest.get("artifacts", [])})})
    for name in old:
        if os.path.isfile(os.path.join(outdir, name)):
            os.remove(os.path.join(outdir, name))
    _write_manifest(outdir, manifest)


def _write_manifest(outdir, manifest: dict) -> None:
    """Write manifest.json through a rename, so a process killed midway
    leaves the old manifest whole, not a truncated one that lists nothing."""
    path = os.path.join(outdir, "manifest.json")
    _write_json(path + ".tmp", manifest)
    os.replace(path + ".tmp", path)


def mark_failed(outdir, digest: str, error: str) -> None:
    """Replace the artifacts of the directory's last run with a clearly-marked
    manifest when a run fails."""
    _replace_manifest(outdir, {"config_digest": digest, "status": "failed", "error": error})
