import collections
import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from mia_audit import ConfigError, load_config, run_pipeline, write_artifacts
from mia_audit.cli import main, render_report
from mia_audit.config import SECTIONS, CsvSource, ExperimentConfig, SyntheticSource
from mia_audit.evaluation import read_roc_csv
from mia_audit.pipeline import SWEEP_AXES, sweep
from mia_audit.nn import DPConfig, TrainingConfig
from mia_audit.seeding import derive_seed
from mia_audit.signals import ScoreTable, SignalKind

from oracles import reference_train

# one model of a recorded nn.train_many call; `loss` is the one the output width picks
StackedJob = collections.namedtuple("StackedJob", "x y seed config layer_sizes dp loss model")

FAST_TRAIN = TrainingConfig(epochs=3, batch_size=32)
FAST_SCORING = TrainingConfig(learning_rate=0.05, weight_decay=0.0, epochs=10)


def fast_config(**kw):
    defaults = dict(
        data=SyntheticSource(num_classes=2, feature_dim=4, class_separation=0.5,
                             cov_scale=1.0, n_samples=300),
        hidden_sizes=(8,),
        target_train=FAST_TRAIN, shadow_train=FAST_TRAIN, reference_train=FAST_TRAIN,
        scoring_train=FAST_SCORING,
        num_queries=2, augmentation_noise_std=0.1, num_reference_models=2,
        fpr_levels=(0.1,), master_seed=5,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def attacker_models(trained: dict, config) -> tuple:
    """(shadow model or None, reference models) of a run, picked out of the
    `trained` dict it ran with by their derived seeds."""
    by_seed = {key[2]: model for key, model in trained.items()}
    master = config.master_seed
    references = [by_seed[seed] for seed in (derive_seed(master, "ref", i)
                                             for i in range(config.num_reference_models))
                  if seed in by_seed]
    return by_seed.get(derive_seed(master, "shadow")), references


def run_python(script: str, *args) -> subprocess.CompletedProcess:
    """Run `script` with `args` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


SAMPLE_INI = """
[data]
source = synthetic
num_classes = 2
feature_dim = 4
class_separation = 0.5
cov_scale = 1.0
n_samples = 300

[model]
hidden_sizes = 8

[train.target]
learning_rate = 0.1
momentum = 0.9
weight_decay = 0.0005
batch_size = 32
epochs = 3
cosine_schedule = true

[signal]
kind = loss
num_queries = 2
augmentation_noise_std = 0.1

[reference]
count = 2
sampling = fixed

[attacks]
enabled = loss,calibration,lira_offline,rapid,shortcut_lira

[scoring]
learning_rate = 0.05
weight_decay = 0.0
epochs = 10

[eval]
fpr_levels = 0.1

[experiment]
master_seed = 5
"""
LOSS_ONLY_INI = SAMPLE_INI.replace("enabled = loss,calibration,lira_offline,rapid,shortcut_lira",
                                   "enabled = loss")


class TestConfigParsing:
    def write(self, tmp_path, text):
        path = tmp_path / "exp.ini"
        path.write_text(text, encoding="utf-8")
        return path

    def test_sample_parses_to_expected_values(self, tmp_path):
        cfg = load_config(self.write(tmp_path, SAMPLE_INI))
        assert cfg.hidden_sizes == (8,)
        assert cfg.num_reference_models == 2
        assert cfg.signal_kind is SignalKind.LOSS
        assert cfg.target_train.epochs == 3
        assert cfg.master_seed == 5

    def test_ini_matches_programmatic_config(self, tmp_path):
        cfg = load_config(self.write(tmp_path, SAMPLE_INI))
        assert cfg.digest() == fast_config().digest()

    def test_shadow_defaults_to_target_settings(self, tmp_path):
        cfg = load_config(self.write(tmp_path, SAMPLE_INI))
        assert cfg.shadow_train == cfg.target_train
        assert cfg.reference_train == cfg.target_train

    def test_unknown_key_named(self, tmp_path):
        text = SAMPLE_INI.replace("kind = loss", "kind = loss\nbogus = 1")
        with pytest.raises(ConfigError, match=r"\[signal\] bogus"):
            load_config(self.write(tmp_path, text))

    def test_unknown_section_named(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[nonsense\]"):
            load_config(self.write(tmp_path, SAMPLE_INI + "\n[nonsense]\nx = 1\n"))

    def test_bad_signal_kind(self, tmp_path):
        text = SAMPLE_INI.replace("kind = loss", "kind = entropy")
        with pytest.raises(ConfigError, match=r"\[signal\] kind"):
            load_config(self.write(tmp_path, text))

    def test_bad_attack_name(self, tmp_path):
        text = SAMPLE_INI.replace("enabled = loss,", "enabled = sidechannel,")
        with pytest.raises(ConfigError, match="unknown attack"):
            load_config(self.write(tmp_path, text))

    def test_fpr_level_out_of_range(self, tmp_path):
        text = SAMPLE_INI.replace("fpr_levels = 0.1", "fpr_levels = 1.5")
        with pytest.raises(ConfigError, match="fpr_levels"):
            load_config(self.write(tmp_path, text))

    def test_unparsable_number_named(self, tmp_path):
        text = SAMPLE_INI.replace("epochs = 3", "epochs = three")
        with pytest.raises(ConfigError, match=r"\[train.target\] epochs"):
            load_config(self.write(tmp_path, text))

    def test_dp_section(self, tmp_path):
        text = SAMPLE_INI + "\n[dp]\nclip_norm = 10\nnoise_multiplier = 0.5\n"
        cfg = load_config(self.write(tmp_path, text))
        assert cfg.dp.clip_norm == 10.0
        assert cfg.dp_apply_to == ("target",)

    @pytest.mark.parametrize("ini, where", [
        (SAMPLE_INI.replace("enabled = loss,calibration,lira_offline,rapid,shortcut_lira",
                            "enabled = loss,calibration,calibration"), r"\[attacks\] enabled"),
        (SAMPLE_INI + "\n[dp]\napply_to = target,reference,target\n", r"\[dp\] apply_to"),
        (SAMPLE_INI.replace("fpr_levels = 0.1", "fpr_levels = 0.1,0.01,0.10"), r"\[eval\] fpr_levels"),
    ], ids=["attacks", "dp_roles", "fpr_levels"])
    def test_repeated_list_value_named(self, tmp_path, ini, where):
        with pytest.raises(ConfigError, match=f"{where}: a value is repeated"):
            load_config(self.write(tmp_path, ini))

    def test_empty_dp_roles_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[dp\] apply_to: must name at least one role"):
            load_config(self.write(tmp_path, SAMPLE_INI + "\n[dp]\nclip_norm = 10\napply_to =\n"))
        assert load_config(self.write(tmp_path, SAMPLE_INI + "\n[dp]\napply_to = shadow\n"))

    def test_no_scoring_hidden_sizes_is_a_linear_scorer(self, tmp_path):
        text = SAMPLE_INI.replace("[scoring]\n", "[scoring]\nhidden_sizes =\n")
        assert load_config(self.write(tmp_path, text)).scoring_hidden_sizes == ()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_empty_file_gives_dataclass_defaults(self, tmp_path):
        cfg = load_config(self.write(tmp_path, ""))
        assert cfg.digest() == ExperimentConfig().digest()

    def test_readme_quickstart_spells_out_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
        cfg = load_config(self.write(tmp_path, block))
        assert cfg.digest() == ExperimentConfig().digest()

    def test_every_field_has_exactly_one_key(self):
        nested = {"data", "attacker_data", "target_train", "shadow_train", "reference_train",
                  "dp", "scoring_train"}  # built from whole sections, not from one key
        for owner, skip in ((ExperimentConfig, nested), (SyntheticSource, ()), (CsvSource, ()),
                            (DPConfig, ()), (TrainingConfig, ())):
            wanted = sorted(f.name for f in dataclasses.fields(owner) if f.name not in skip)
            per_section = [sorted(name for target, name in table.values() if target is owner)
                           for table in SECTIONS.values()]
            if owner is ExperimentConfig:
                assert sorted(sum(per_section, [])) == wanted
            else:
                assert wanted in per_section, owner.__name__
                assert all(fields in ([], wanted) for fields in per_section), owner.__name__

    @pytest.mark.parametrize("section, text", [
        ("data", "n_samples = 3"),
        ("attacker_data", "cov_scale = 0"),
        ("model", "hidden_sizes = 0"),
        ("train.target", "learning_rate = -1"),
        ("train.shadow", "momentum = 1.0"),
        ("train.reference", "epochs = -1"),
        ("dp", "noise_multiplier = -0.5"),
        ("signal", "augmentation_noise_std = inf"),
        ("reference", "sample_fraction = 0"),
        ("attacks", "enabled ="),
        ("scoring", "batch_size = 0"),
        ("scoring", "hidden_sizes = 0"),
        ("scoring", "hidden_sizes = 64,-3"),
        ("eval", "fpr_levels = 0.1,1"),
        ("experiment", "master_seed = seven"),
    ])
    def test_invalid_value_names_section(self, tmp_path, capsys, section, text):
        path = self.write(tmp_path, f"[{section}]\n{text}\n")
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
        assert f"[{section}] {text.split()[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("owner, name, key", [
        (ExperimentConfig, "augmentation_noise_std", "[signal] augmentation_noise_std"),
        (SyntheticSource, "class_separation", "class_separation"),
        (SyntheticSource, "cov_scale", "cov_scale"),
    ], ids=["augmentation_noise_std", "class_separation", "cov_scale"])
    def test_nonfinite_value_refused_at_construction(self, owner, name, key, value):
        # sweeps and tests build configs directly, past the INI reader
        with pytest.raises(ValueError, match=re.escape(f"{key}: ") + ".*finite"):
            owner(**{name: value})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", [
        (section, key) for section, table in SECTIONS.items()
        for key, (owner, name) in table.items()
        if owner is not None and typing.get_type_hints(owner)[name] in (float, tuple[float, ...])])
    def test_nonfinite_float_key_refused(self, tmp_path, section, key, value):
        # each float key's dataclass refuses it, naming the key
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}")):
            load_config(self.write(tmp_path, f"[{section}]\n{key} = {value}\n"))

    def test_digest_changes_with_values(self):
        assert fast_config().digest() != fast_config(master_seed=6).digest()
        assert fast_config().digest() == fast_config().digest()


class TestPipeline:
    def test_loss_only_run_trains_no_attacker_models(self):
        config, trained = fast_config(attacks=("loss",)), {}
        result = run_pipeline(config, trained)
        shadow_model, reference_models = attacker_models(trained, config)
        assert shadow_model is None
        assert reference_models == []
        assert list(result.target_table.scores) == ["loss"]
        assert set(result.metrics) == {"loss"}
        assert result.loss_buckets is None

    def test_full_run_produces_all_outputs(self):
        result = run_pipeline(fast_config())
        assert set(result.metrics) == {"loss", "calibration", "lira_offline",
                                        "rapid", "shortcut_lira"}
        assert result.loss_buckets is not None
        assert list(result.target_table.scores) == list(result.metrics)
        assert list(result.shadow_table.scores) == ["loss", "calibration", "lira_offline"]

    def test_eval_set_is_balanced_train_vs_test(self):
        result = run_pipeline(fast_config(attacks=("loss",)))
        member = result.target_table.is_member
        assert member.sum() == (~member).sum()

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_sweep_matches_direct_runs(self, axis):
        # the sweep shares trained models across its runs; every row must
        # still equal the metric of an independent run, bit for bit
        values = {"num_queries": [1, 2], "num_reference_models": [1, 2],
                  "reference_sampling_mode": ["fixed", "random"]}[axis]
        cfg = fast_config()
        swept = sweep(cfg, axis, values, seeds=[5, 6])
        expected = {}
        for value in values:
            for seed in (5, 6):
                direct = run_pipeline(cfg.with_overrides(master_seed=seed, **{axis: value}))
                for attack in cfg.attacks:
                    report = direct.metrics[attack]
                    entries = {"auc": report.auc, "balanced_accuracy": report.balanced_accuracy}
                    entries.update({f"tpr_at_fpr_{level!r}": entry.tpr
                                    for level, entry in report.tpr_at_fpr.items()})
                    for metric, res in entries.items():
                        expected[(value, seed, f"{attack}.{metric}")] = res
        got = {(row["value"], row["seed"], row["metric"]): row["result"] for row in swept.rows}
        assert got == expected

    @pytest.mark.parametrize("case, calls", [
        ("calibration_reference_sweep", 3),  # 1 target + 2 references
        ("rapid_query_sweep", 5),  # target, 1 reference, shadow, 2 scoring nets
        ("full_run", 8),  # target, 4 references, shadow, 2 scoring nets
        ("rerun_sharing_a_dict", 0),  # the same 8 models, all found in the dict
    ])
    def test_each_distinct_model_trained_once(self, monkeypatch, case, calls):
        from mia_audit import nn
        train_calls = []
        real_train_many = nn.train_many

        def counting_train_many(xs, *args, **kwargs):
            train_calls.extend(xs)  # one entry per model, stacked or not
            return real_train_many(xs, *args, **kwargs)

        monkeypatch.setattr(nn, "train_many", counting_train_many)
        if case == "calibration_reference_sweep":
            sweep(fast_config(attacks=("calibration",)), "num_reference_models", [1, 2])
        elif case == "rapid_query_sweep":
            sweep(fast_config(attacks=("rapid",), num_reference_models=1), "num_queries", [1, 2])
        elif case == "full_run":
            run_pipeline(fast_config(num_reference_models=4))
        else:
            trained = {}
            run_pipeline(fast_config(num_reference_models=4), trained)
            assert len(train_calls) == 8
            train_calls.clear()
            run_pipeline(fast_config(num_reference_models=4), trained)
        assert len(train_calls) == calls

    @staticmethod
    def record_train_many(monkeypatch):
        """Patch nn.train_many to record each call as a list of StackedJob,
        one per stacked model."""
        from mia_audit import nn
        calls = []
        real_train_many = nn.train_many

        def recording(xs, ys, seeds, config, layer_sizes, dp=None):
            pairs = real_train_many(xs, ys, seeds, config, layer_sizes, dp)
            loss = "bce" if layer_sizes[-1] == 1 else "ce"
            calls.append([StackedJob(x, y, seed, config, layer_sizes, dp, loss, m)
                          for x, y, seed, (m, _) in zip(xs, ys, seeds, pairs)])
            return pairs

        monkeypatch.setattr(nn, "train_many", recording)
        return calls

    @staticmethod
    def assert_equal_to_training_alone(monkeypatch, calls):
        from mia_audit import nn
        monkeypatch.undo()
        for x, y, seed, cfg, layer_sizes, dp, _, model in (job for call in calls for job in call):
            [(alone, _)] = nn.train_many([x], [y], [seed], cfg, layer_sizes, dp)
            for a, b in zip(alone.parameters(), model.parameters()):
                assert a.tobytes() == b.tobytes()

    def test_models_train_in_stacked_groups(self, monkeypatch):
        calls = self.record_train_many(monkeypatch)
        run_pipeline(fast_config(num_reference_models=4))
        # target + shadow, the 4 references, the 2 scoring nets
        assert sorted(len(call) for call in calls) == [2, 2, 4]
        self.assert_equal_to_training_alone(monkeypatch, calls)

    def test_different_shadow_training_splits_target_and_shadow(self, monkeypatch):
        calls = self.record_train_many(monkeypatch)
        cfg = fast_config(shadow_train=dataclasses.replace(FAST_TRAIN, epochs=4))
        run_pipeline(cfg)
        epochs_by_call = [sorted(job.config.epochs for job in call) for call in calls
                          if call[0].loss == "ce"]
        assert sorted(epochs_by_call) == [[3], [3, 3], [4]]  # target, 2 references, shadow
        self.assert_equal_to_training_alone(monkeypatch, calls)

    def test_dp_jobs_stack_like_other_jobs(self, monkeypatch):
        calls = self.record_train_many(monkeypatch)
        run_pipeline(fast_config(dp=DPConfig(clip_norm=1.0, noise_multiplier=0.5),
                                 dp_apply_to=("target", "reference")))
        dp_calls = [call for call in calls if any(job.dp is not None for job in call)]
        # the target apart from its non-DP shadow, the 2 references together
        assert [len(call) for call in dp_calls] == [1, 2]
        self.assert_equal_to_training_alone(monkeypatch, calls)

    def test_non_dp_models_train_in_float32(self, monkeypatch):
        calls = self.record_train_many(monkeypatch)
        run_pipeline(fast_config())
        models = [job.model for call in calls for job in call]
        assert len(models) == 6  # target, shadow, 2 references, 2 scoring nets
        for p in (p for m in models for p in m.parameters()):
            assert p.dtype == np.float64
            assert np.array_equal(p.astype(np.float32), p)

    def test_dp_models_equal_oracle(self, monkeypatch):
        calls = self.record_train_many(monkeypatch)
        run_pipeline(fast_config(dp=DPConfig(clip_norm=1.0, noise_multiplier=0.5),
                                 dp_apply_to=("target", "reference")))
        dp_jobs = [job for call in calls for job in call if job.dp is not None]
        assert len(dp_jobs) == 3
        for x, y, seed, cfg, layer_sizes, dp, _, model in dp_jobs:
            oracle, _ = reference_train(x, y, seed, cfg, layer_sizes, dp)
            for a, b in zip(oracle.parameters(), model.parameters()):
                assert a.tobytes() == b.tobytes()

    def test_query_sweep_stacks_its_scoring_nets(self, monkeypatch):
        calls = self.record_train_many(monkeypatch)
        sweep(fast_config(attacks=("rapid",)), "num_queries", [1, 2, 3])
        # one rapid net per query count, all in one loop
        assert [len(call) for call in calls if call[0].loss == "bce"] == [3]
        self.assert_equal_to_training_alone(monkeypatch, calls)

    def test_reference_sweep_builds_queries_once(self, monkeypatch):
        from mia_audit import signals
        draws = []
        real_normal_rows = signals.normal_rows

        def counting_normal_rows(*args, **kwargs):
            draws.append(args)
            return real_normal_rows(*args, **kwargs)

        monkeypatch.setattr(signals, "normal_rows", counting_normal_rows)
        sweep(fast_config(attacks=("calibration",), num_queries=3), "num_reference_models", [1, 2])
        assert len(draws) == 3 - 1  # one draw per jittered copy of the one eval set

    def test_stacked_groups_stay_within_a_master_seed(self, monkeypatch):
        from mia_audit.seeding import derive_seed
        calls = self.record_train_many(monkeypatch)
        sweep(fast_config(), "num_queries", [1, 2], seeds=[5, 6])
        labels = [("target",), ("shadow",), ("ref", 0), ("ref", 1),
                  ("scoring", "rapid"), ("scoring", "shortcut_lira")]
        seeds_of = {master: {derive_seed(master, *label) for label in labels} for master in (5, 6)}
        for call in calls:
            assert any({job.seed for job in call} <= seeds for seeds in seeds_of.values())
        # per seed: target + shadow, the 2 references, the 4 scoring nets
        assert sorted(len(call) for call in calls) == [2, 2, 2, 2, 4, 4]
        self.assert_equal_to_training_alone(monkeypatch, calls)

    def test_run_pipelines_keeps_each_master_seed_apart(self, monkeypatch):
        from mia_audit import run_pipelines
        from mia_audit.seeding import derive_seed
        calls = self.record_train_many(monkeypatch)
        configs = [fast_config(master_seed=6), fast_config(master_seed=5),
                   fast_config(master_seed=6, num_queries=1)]
        results = run_pipelines(configs)
        labels = [("target",), ("shadow",), ("ref", 0), ("ref", 1),
                  ("scoring", "rapid"), ("scoring", "shortcut_lira")]
        seeds_of = [{derive_seed(master, *label) for label in labels} for master in (5, 6)]
        for call in calls:
            assert any({job.seed for job in call} <= seeds for seeds in seeds_of)
        monkeypatch.undo()
        assert [r.config for r in results] == configs
        for config, result in zip(configs, results):
            assert result.metrics == run_pipeline(config).metrics

    def test_nested_query_prefix_property(self):
        # with per-(sample, query) rng streams, a 1-query run equals the
        # unperturbed signal regardless of the configured maximum
        cfg1 = fast_config(num_queries=1)
        cfg2 = fast_config(num_queries=2)
        r1 = run_pipeline(cfg1.with_overrides(attacks=("loss",)))
        r2 = run_pipeline(cfg2.with_overrides(attacks=("loss",)))
        assert not np.array_equal(r1.target_table.scores["loss"], r2.target_table.scores["loss"])

    def test_reference_models_stable_under_count_increase(self):
        cfg2 = fast_config(num_reference_models=2, attacks=("calibration",))
        cfg3 = fast_config(num_reference_models=3, attacks=("calibration",))
        trained2, trained3 = {}, {}
        run_pipeline(cfg2, trained2)
        run_pipeline(cfg3, trained3)
        _, refs2 = attacker_models(trained2, cfg2)
        _, refs3 = attacker_models(trained3, cfg3)
        assert (len(refs2), len(refs3)) == (2, 3)
        for a, b in zip(refs2, refs3[:2]):
            for wa, wb in zip(a.parameters(), b.parameters()):
                assert np.array_equal(wa, wb)

    def test_random_sampling_mode(self):
        result = run_pipeline(fast_config(reference_sampling_mode="random",
                                          attacks=("calibration",)))
        assert "calibration" in result.metrics

    def test_shortcut_lira_only_selection(self):
        config, trained = fast_config(attacks=("shortcut_lira",)), {}
        result = run_pipeline(config, trained)
        shadow_model, _ = attacker_models(trained, config)
        assert set(result.metrics) == {"shortcut_lira"}
        assert shadow_model is not None
        scores = result.target_table.scores["shortcut_lira"]
        assert np.all((scores > 0) & (scores < 1))

    def test_split_json_keeps_interface_fields(self, tmp_path):
        from mia_audit import SplitPlan
        result = run_pipeline(fast_config(attacks=("loss",)))
        write_artifacts(result, tmp_path / "s")
        plan = SplitPlan.from_json((tmp_path / "s" / "split.json").read_text())
        assert plan == result.target_plan

    def test_disjoint_attacker_source(self):
        cfg = fast_config(attacker_data=SyntheticSource(
            num_classes=2, feature_dim=4, class_separation=0.5, cov_scale=1.0,
            n_samples=300, seed=123))
        result = run_pipeline(cfg)
        assert result.attacker_plan is not None
        assert set(result.metrics) == set(cfg.attacks)

    def test_dp_applies_to_target_only_by_default(self):
        from mia_audit.nn import DPConfig
        cfg = fast_config(dp=DPConfig(10.0, 0.0), attacks=("loss", "calibration"))
        base_cfg, base_trained, dp_trained = fast_config(attacks=("loss", "calibration")), {}, {}
        run_pipeline(base_cfg, base_trained)
        run_pipeline(cfg, dp_trained)
        _, base_refs = attacker_models(base_trained, base_cfg)
        _, dp_refs = attacker_models(dp_trained, cfg)
        assert len(base_refs) == len(dp_refs) == 2
        # sigma=0 with a huge effective clip bound: reference models untouched
        for a, b in zip(base_refs, dp_refs):
            for wa, wb in zip(a.parameters(), b.parameters()):
                assert np.array_equal(wa, wb)

    def test_nonfinite_attack_scores_rejected(self, monkeypatch):
        from mia_audit import attacks
        monkeypatch.setitem(attacks.THRESHOLD_SCORES, "loss",
                            lambda raw, refs: np.full_like(raw, np.nan))
        with pytest.raises(ValueError, match="attack 'loss' produced non-finite scores"):
            run_pipeline(fast_config(attacks=("loss",)))

    def test_nonfinite_shadow_score_rejected_before_scoring_nets_train(self, monkeypatch):
        from mia_audit import attacks, nn
        monkeypatch.setitem(attacks.THRESHOLD_SCORES, "calibration",
                            lambda raw, refs: np.full_like(raw, np.nan))
        real_train_many = nn.train_many

        def no_scoring_nets(xs, ys, seeds, config, layer_sizes, dp=None):
            assert layer_sizes[-1] != 1, "trained a scoring net on non-finite scores"
            return real_train_many(xs, ys, seeds, config, layer_sizes, dp)

        monkeypatch.setattr(nn, "train_many", no_scoring_nets)
        with pytest.raises(ValueError, match="attack 'calibration' produced non-finite scores"):
            run_pipeline(fast_config(attacks=("rapid",)))

    def test_attacker_data_shape_must_match(self):
        cfg = fast_config(attacker_data=SyntheticSource(feature_dim=6, n_samples=300, seed=1))
        with pytest.raises(ConfigError, match=r"\[attacker_data\] feature_dim"):
            run_pipeline(cfg)


class TestArtifacts:
    def run_to_dir(self, tmp_path, name="out", **kw):
        outdir = tmp_path / name
        result = run_pipeline(fast_config(**kw))
        written = write_artifacts(result, outdir)
        return outdir, result, written

    def test_expected_files_present(self, tmp_path):
        outdir, result, written = self.run_to_dir(tmp_path)
        expected = {"config.json", "split.json", "target_scores.csv", "shadow_scores.csv",
                    "manifest.json", "loss_buckets.csv", "roc.csv"}
        for attack in result.config.attacks:
            expected.add(f"metrics_{attack}.json")
        assert expected == set(written)
        for name in written:
            assert (outdir / name).exists()

    def test_loss_only_artifacts(self, tmp_path):
        outdir, _, written = self.run_to_dir(tmp_path, attacks=("loss",))
        assert "shadow_scores.csv" not in written
        assert "loss_buckets.csv" not in written
        assert sorted(written) == ["config.json", "manifest.json", "metrics_loss.json",
                                   "roc.csv", "split.json", "target_scores.csv"]

    def test_every_artifact_carries_digest(self, tmp_path):
        outdir, result, written = self.run_to_dir(tmp_path)
        for name in written:
            text = (outdir / name).read_text()
            if name.endswith(".csv"):
                assert text.startswith(f"# config_digest={result.config.digest()}")
                assert b"\r" not in (outdir / name).read_bytes(), name
            else:
                assert result.config.digest() in text

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, _, written = self.run_to_dir(tmp_path, "a")
        out2, _, _ = self.run_to_dir(tmp_path, "b")
        for name in written:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_one_roc_curve_per_attack(self, tmp_path, monkeypatch):
        # each attack's metrics and its rows of roc.csv are read off one curve
        from mia_audit import evaluation
        calls = []
        real_roc = evaluation.roc

        def counting_roc(scores, is_member):
            calls.append(len(scores))
            return real_roc(scores, is_member)

        monkeypatch.setattr(evaluation, "roc", counting_roc)
        outdir, result, _ = self.run_to_dir(tmp_path)
        assert len(calls) == len(result.config.attacks)
        curves = read_roc_csv(outdir / "roc.csv")
        assert list(curves) == list(result.config.attacks)
        for attack, curve in curves.items():
            assert curve.auc == result.metrics[attack].auc

    def test_attack_scores_csv_round_trip(self, tmp_path):
        outdir, result, _ = self.run_to_dir(tmp_path)
        table = ScoreTable.from_csv(outdir / "target_scores.csv")
        assert table.ids == [str(i) for i in result.target_table.ids]
        assert list(table.scores) == list(result.target_table.scores)
        for name, values in result.target_table.scores.items():
            assert table.scores[name].tobytes() == values.tobytes(), name
        for attack in result.config.attacks:
            assert (table.scores[attack].tobytes()
                    == result.target_table.scores[attack].tobytes()), attack

    def test_manifest_reports_ok(self, tmp_path):
        outdir, result, _ = self.run_to_dir(tmp_path)
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["config_digest"] == result.config.digest()


class TestCli:
    def write_config(self, tmp_path, text=SAMPLE_INI):
        path = tmp_path / "exp.ini"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_run_and_report(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        outdir = str(tmp_path / "run")
        assert main(["run", cfg, "-o", outdir]) == 0
        assert main(["report", outdir]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("wrote")]
        assert lines[0].split() == ["attack", "TPR@10%FPR", "AUC", "BalancedAcc"]
        assert lines[1].startswith("loss")
        assert len(lines) == 6  # header + five attacks

    def test_run_and_report_import_no_scipy(self, tmp_path):
        # a fresh interpreter, as the suite's own imports may load scipy
        cfg = self.write_config(tmp_path, SAMPLE_INI.replace("n_samples = 300", "n_samples = 600"))
        script = (
            "import sys\n"
            "import mia_audit.cli as cli\n"
            "assert cli.main(['run', sys.argv[1], '-o', sys.argv[2]]) == 0\n"
            "assert cli.main(['report', sys.argv[2]]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        proc = run_python(script, cfg, tmp_path / "run")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_report_rounding_matches_json(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        outdir = str(tmp_path / "run")
        main(["run", cfg, "-o", outdir])
        payload = json.loads((tmp_path / "run" / "metrics_loss.json").read_text())
        main(["report", outdir])
        report_line = [ln for ln in capsys.readouterr().out.splitlines()
                       if ln.startswith("loss")][0]
        assert f"{payload['auc']:.4f}" in report_line

    def test_report_empty_dir_errors(self, tmp_path, capsys):
        outdir = tmp_path / "empty"
        outdir.mkdir()
        assert main(["report", str(outdir)]) == 1
        assert str(outdir) in capsys.readouterr().err

    @staticmethod
    def write_run_dir(outdir, attacks, metrics):
        """A finished run's manifest listing `attacks` (digest "d"), and one
        metrics file per (attack, config digest) entry of `metrics`."""
        outdir.mkdir()
        (outdir / "manifest.json").write_text(json.dumps(
            {"status": "ok", "config_digest": "d", "attacks": attacks}))
        for attack, digest in metrics.items():
            (outdir / f"metrics_{attack}.json").write_text(json.dumps(
                {"attack": attack, "config_digest": digest, "balanced_accuracy": 0.5,
                 "auc": 0.5, "tpr_at_fpr": {}}))

    def test_report_refuses_mixed_digests(self, tmp_path):
        outdir = tmp_path / "mixed"
        self.write_run_dir(outdir, ["loss", "rapid"], {"loss": "d", "rapid": "bbb"})
        with pytest.raises(ValueError, match="stale metrics") as info:
            render_report(str(outdir))
        assert str(outdir / "metrics_rapid.json") in str(info.value)

    def test_report_refuses_a_missing_listed_metrics_file(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert main(["run", self.write_config(tmp_path), "-o", str(outdir)]) == 0
        (outdir / "metrics_rapid.json").unlink()
        capsys.readouterr()
        assert main(["report", str(outdir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(outdir / "metrics_rapid.json") in captured.err

    @pytest.mark.parametrize("attacks", ["loss", [], ["../x"]],
                             ids=["string", "empty", "path"])
    def test_report_refuses_a_bad_attack_list(self, tmp_path, capsys, attacks):
        # a listed name builds a file path, so only known attack names pass
        outdir = tmp_path / "out"
        self.write_run_dir(outdir, attacks, {"loss": "d"})
        assert main(["report", str(outdir)]) == 1
        assert str(outdir / "manifest.json") in capsys.readouterr().err

    def test_report_refuses_metrics_of_another_attack(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        self.write_run_dir(outdir, ["loss", "rapid"], {"loss": "d"})
        (outdir / "metrics_rapid.json").write_text((outdir / "metrics_loss.json").read_text())
        assert main(["report", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert str(outdir / "metrics_rapid.json") in err and "'loss'" in err

    def test_report_refuses_stale_metrics_after_failed_rerun(self, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        assert main(["run", self.write_config(tmp_path), "-o", outdir]) == 0
        missing = SAMPLE_INI.replace("source = synthetic",
                                     f"source = csv\npath = {tmp_path / 'missing.csv'}")
        assert main(["run", self.write_config(tmp_path, missing), "-o", outdir]) == 1
        capsys.readouterr()
        assert main(["report", outdir]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'failed'" in captured.err
        with pytest.raises(ValueError, match="did not finish"):
            render_report(outdir)
        assert not list((tmp_path / "out").glob("metrics_*.json"))

    @pytest.mark.parametrize("name, text", [
        ("metrics_loss.json", json.dumps({"config_digest": "d", "balanced_accuracy": 0.5,
                                          "auc": 0.5, "tpr_at_fpr": {}})),
        ("metrics_loss.json", "[1, 2]"),
        ("manifest.json", "[1, 2]"),
        ("manifest.json", '{"status": "ok"'),
    ], ids=["metrics_without_attack", "metrics_list", "manifest_list", "manifest_truncated"])
    def test_report_on_malformed_json_names_file(self, tmp_path, capsys, name, text):
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "manifest.json").write_text(json.dumps({"status": "ok", "config_digest": "d",
                                                          "attacks": ["loss"]}))
        (outdir / "metrics_loss.json").write_text(json.dumps(
            {"attack": "loss", "config_digest": "d", "balanced_accuracy": 0.5, "auc": 0.5,
             "tpr_at_fpr": {}}))
        (outdir / name).write_text(text)
        assert main(["report", str(outdir)]) == 1
        assert str(outdir / name) in capsys.readouterr().err

    @pytest.mark.parametrize("digest", [{}, {"config_digest": ""}], ids=["missing", "empty"])
    def test_report_refuses_a_manifest_without_a_digest(self, tmp_path, capsys, digest):
        # metrics files without a digest would match it, so none could be told stale
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "manifest.json").write_text(json.dumps({"status": "ok", "attacks": ["loss"],
                                                          **digest}))
        (outdir / "metrics_loss.json").write_text(json.dumps(
            {"attack": "loss", "balanced_accuracy": 0.5, "auc": 0.5, "tpr_at_fpr": {}, **digest}))
        assert main(["report", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert str(outdir / "manifest.json") in err and "config_digest" in err

    @pytest.mark.parametrize("manifest", ["[1, 2]", '{"artifacts": [1]}', '{"artifacts": "ab"}'],
                             ids=["list", "int_name", "string_list"])
    def test_failed_run_over_malformed_manifest_marks_failed(self, tmp_path, capsys, manifest):
        missing = SAMPLE_INI.replace("source = synthetic",
                                     f"source = csv\npath = {tmp_path / 'missing.csv'}")
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "manifest.json").write_text(manifest)
        (outdir / "a").write_text("not an artifact")
        assert main(["run", self.write_config(tmp_path, missing), "-o", str(outdir)]) == 1
        assert "pipeline failed" in capsys.readouterr().err
        assert json.loads((outdir / "manifest.json").read_text())["status"] == "failed"
        assert (outdir / "a").read_text() == "not an artifact"

    def test_report_refuses_metrics_of_another_config(self, tmp_path):
        outdir = tmp_path / "out"
        assert main(["run", self.write_config(tmp_path), "-o", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        manifest["config_digest"] = "0" * 16
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="stale metrics"):
            render_report(str(outdir))

    def test_invalid_config_exit_code_and_message(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SAMPLE_INI.replace("kind = loss", "kind = x"))
        assert main(["run", cfg, "-o", str(tmp_path / "o")]) == 1
        assert "[signal] kind" in capsys.readouterr().err

    def test_failed_stage_marks_manifest(self, tmp_path, capsys):
        bad = SAMPLE_INI.replace("source = synthetic", "source = csv\npath = missing.csv")
        bad = "\n".join(ln for ln in bad.splitlines()
                        if not any(k in ln for k in ("num_classes", "feature_dim",
                                                     "class_separation", "cov_scale",
                                                     "n_samples")))
        cfg = self.write_config(tmp_path, bad)
        outdir = tmp_path / "fail"
        assert main(["run", cfg, "-o", str(outdir)]) == 1
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "error" in manifest

    def run_on_csv(self, tmp_path, capsys, monkeypatch, section, text) -> tuple:
        """(path, stderr) of a run whose [section] reads a CSV file holding
        `text` (bytes as they are; no file when None), which must fail before
        any model trains."""
        from mia_audit import nn

        def no_training(*args, **kwargs):
            raise AssertionError(f"trained a model on a bad [{section}] source")

        monkeypatch.setattr(nn, "train_many", no_training)
        path = tmp_path / "bad.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        if section == "data":
            ini = SAMPLE_INI.replace("source = synthetic", f"source = csv\npath = {path}")
        else:
            ini = SAMPLE_INI + f"\n[attacker_data]\nsource = csv\npath = {path}\n"
        outdir = tmp_path / "out"
        assert main(["run", self.write_config(tmp_path, ini), "-o", str(outdir)]) == 1
        assert json.loads((outdir / "manifest.json").read_text())["status"] == "failed"
        return path, capsys.readouterr().err

    @pytest.mark.parametrize("section", ["data", "attacker_data"])
    def test_one_label_csv_refused_before_training(self, tmp_path, capsys, monkeypatch, section):
        rows = np.random.default_rng(0).normal(size=(60, 4))
        path, err = self.run_on_csv(tmp_path, capsys, monkeypatch, section, "x0,x1,x2,x3,label\n"
                                    + "".join(",".join(map(repr, row)) + ",0\n"
                                              for row in rows.tolist()))
        assert f"[{section}] path: every label in {path} is 0" in err

    @pytest.mark.parametrize("section", ["data", "attacker_data"])
    def test_label_only_csv_refused_before_training(self, tmp_path, capsys, monkeypatch,
                                                    section):
        path, err = self.run_on_csv(tmp_path, capsys, monkeypatch, section,
                                    "label\n" + "0\n1\n" * 4)
        assert f"[{section}] path: {path} has no column besides 'label'" in err

    @pytest.mark.parametrize("section", ["data", "attacker_data"])
    def test_too_few_rows_csv_refused_before_training(self, tmp_path, capsys, monkeypatch,
                                                      section):
        path, err = self.run_on_csv(tmp_path, capsys, monkeypatch, section,
                                    "x0,x1,x2,x3,label\n" + "0.1,0.2,0.3,0.4,0\n0.5,0.6,0.7,0.8,1\n"
                                    + "0.9,1.0,1.1,1.2,0\n")
        assert f"[{section}] path: {path} has 3 data rows; the split needs at least 6" in err

    @pytest.mark.parametrize("section", ["data", "attacker_data"])
    def test_missing_csv_refused_before_training(self, tmp_path, capsys, monkeypatch, section):
        path, err = self.run_on_csv(tmp_path, capsys, monkeypatch, section, None)
        assert f"[{section}] path: [Errno 2] No such file or directory: '{path}'" in err

    @pytest.mark.parametrize("section", ["data", "attacker_data"])
    def test_non_utf8_csv_refused_before_training(self, tmp_path, capsys, monkeypatch, section):
        path, err = self.run_on_csv(tmp_path, capsys, monkeypatch, section,
                                    b"x0,label\n\xff\xfe,0\n")
        assert f"[{section}] path: {path}: not UTF-8 (" in err

    @pytest.mark.parametrize("section", ["data", "attacker_data"])
    def test_malformed_csv_cell_refused_before_training(self, tmp_path, capsys, monkeypatch,
                                                        section):
        path, err = self.run_on_csv(tmp_path, capsys, monkeypatch, section,
                                    "x0,x1,label\n0.1,0.2,0\nabc,0.4,1\n")
        assert f"[{section}] path: {path}: data row 2 column 'x0': " in err

    def test_sweep_csv_cardinality(self, tmp_path):
        cfg = self.write_config(tmp_path, LOSS_ONLY_INI)
        outdir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--axis", "num_queries", "--values", "1,2",
                     "--seeds", "1,2", "-o", str(outdir)]) == 0
        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert lines[1] == "axis,value,seed,metric,result"
        assert b"\r" not in (outdir / "sweep.csv").read_bytes()
        # 2 values x 2 seeds x 1 attack x 3 metrics (auc, bal, one fpr level)
        assert len(lines) == 2 + 2 * 2 * 3

    def test_failed_sweep_removes_stale_sweep_csv(self, tmp_path, capsys):
        outdir = tmp_path / "sweep"
        outdir.mkdir()
        (outdir / "notes.txt").write_text("kept")
        args = ["--axis", "num_queries", "--values", "1", "-o", str(outdir)]
        assert main(["sweep", self.write_config(tmp_path), *args]) == 0
        assert (outdir / "sweep.csv").exists()
        missing = SAMPLE_INI.replace("source = synthetic",
                                     f"source = csv\npath = {tmp_path / 'missing.csv'}")
        assert main(["sweep", self.write_config(tmp_path, missing), *args]) == 1
        assert "sweep failed" in capsys.readouterr().err
        assert sorted(p.name for p in outdir.iterdir()) == ["notes.txt"]

    def test_failed_sweep_write_leaves_no_sweep_csv(self, tmp_path, capsys, monkeypatch):
        # a disk that fills up inside sweep.csv: the cut table must not stay behind
        from mia_audit import pipeline

        def full_disk(path, header, *args):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(",".join(header) + "\nnum_queries,1,5,loss.auc,0.5\n")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(pipeline, "write_columns", full_disk)
        outdir = tmp_path / "sweep"
        assert main(["sweep", self.write_config(tmp_path, LOSS_ONLY_INI), "--axis",
                     "num_queries", "--values", "1", "-o", str(outdir)]) == 1
        assert ("error: sweep failed: [Errno 28] No space left on device"
                in capsys.readouterr().err)
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--seeds", "--values"])
    def test_sweep_non_integer_list_names_flag(self, tmp_path, capsys, flag):
        for bad in ("a", ","):  # a non-integer, and an empty list
            args = {"--values": "1", "--seeds": "1", flag: bad}
            outdir = tmp_path / "sweep"
            assert main(["sweep", self.write_config(tmp_path), "--axis", "num_queries",
                         *(t for kv in args.items() for t in kv), "-o", str(outdir)]) == 1
            assert flag in capsys.readouterr().err
            assert not outdir.exists()

    @pytest.mark.parametrize("flag, raw, repeated", [("--values", "2,1,2", "2"),
                                                     ("--seeds", "1,1", "1")])
    def test_sweep_repeated_value_names_flag(self, tmp_path, capsys, flag, raw, repeated):
        # each repeat would write its (value, seed) rows again
        args = {"--values": "1", "--seeds": "1", flag: raw}
        outdir = tmp_path / "sweep"
        assert main(["sweep", self.write_config(tmp_path), "--axis", "num_queries",
                     *(t for kv in args.items() for t in kv), "-o", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert flag in err and f"value {repeated} is repeated" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("axis, values, key", [
        ("reference_sampling_mode", "fixed,bogus", "[reference] sampling"),
        ("num_queries", "2,0", "[signal] num_queries"),
    ])
    def test_sweep_bad_later_value_refused_before_training(self, tmp_path, capsys, monkeypatch,
                                                           axis, values, key):
        from mia_audit import nn

        def no_training(*args, **kwargs):
            raise AssertionError("trained a model before checking every sweep value")

        monkeypatch.setattr(nn, "train_many", no_training)
        assert main(["sweep", self.write_config(tmp_path), "--axis", axis, "--values", values,
                     "-o", str(tmp_path / "sweep")]) == 1
        assert f"error: sweep failed: {key}: " in capsys.readouterr().err

    def test_sweep_bad_value_creates_no_output(self, tmp_path, capsys):
        outdir = tmp_path / "fresh"
        assert main(["sweep", self.write_config(tmp_path), "--axis", "reference_sampling_mode",
                     "--values", "fixed,bogus", "-o", str(outdir)]) == 1
        assert "[reference] sampling" in capsys.readouterr().err
        assert not outdir.exists()

    def test_failed_rerun_removes_only_listed_artifacts(self, tmp_path):
        outdir = tmp_path / "out"
        assert main(["run", self.write_config(tmp_path), "-o", str(outdir)]) == 0
        listed = json.loads((outdir / "manifest.json").read_text())["artifacts"]
        assert len(listed) > 10
        (outdir / "notes.txt").write_text("kept")
        missing = SAMPLE_INI.replace("source = synthetic",
                                     f"source = csv\npath = {tmp_path / 'missing.csv'}")
        assert main(["run", self.write_config(tmp_path, missing), "-o", str(outdir)]) == 1
        assert sorted(p.name for p in outdir.iterdir()) == ["manifest.json", "notes.txt"]
        assert json.loads((outdir / "manifest.json").read_text())["status"] == "failed"

    def test_failed_write_leaves_only_its_manifest(self, tmp_path, capsys, monkeypatch):
        # a disk that fills up on the second metrics file, the sixth JSON write
        # after two of the manifest, config.json, split.json and metrics_loss.json:
        # the run's earlier files go with it, so none outlives the run and trips
        # a later report
        dump, calls = json.dump, []

        def sixth_call_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 6:
                raise OSError(28, "No space left on device")
            return dump(*args, **kwargs)

        monkeypatch.setattr(json, "dump", sixth_call_fails)
        outdir = tmp_path / "out"
        assert main(["run", self.write_config(tmp_path), "-o", str(outdir)]) == 1
        assert [p.name for p in outdir.iterdir()] == ["manifest.json"]
        assert json.loads((outdir / "manifest.json").read_text())["status"] == "failed"
        monkeypatch.setattr(json, "dump", dump)
        loss_only = SAMPLE_INI.replace("enabled = loss,calibration,lira_offline,rapid,shortcut_lira",
                                       "enabled = loss")
        assert main(["run", self.write_config(tmp_path, loss_only), "-o", str(outdir)]) == 0
        capsys.readouterr()
        assert main(["report", str(outdir)]) == 0
        assert [row.split()[0] for row in capsys.readouterr().out.splitlines()[1:]] == ["loss"]

    def run_killed(self, tmp_path, outdir, owner: str, attribute: str, call: int) -> None:
        """Run the default config into outdir in a fresh interpreter that
        SIGKILLs itself on the call-th call of owner.attribute."""
        script = (
            "import json, os, signal, sys\n"
            "from mia_audit import cli\n"
            "owner = {'os': os, 'json': json}[sys.argv[3]]\n"
            "attribute, call = sys.argv[4], int(sys.argv[5])\n"
            "real, calls = getattr(owner, attribute), []\n"
            "def killed_on_call(*args, **kwargs):\n"
            "    calls.append(1)\n"
            "    if len(calls) == call:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return real(*args, **kwargs)\n"
            "setattr(owner, attribute, killed_on_call)\n"
            "cli.main(['run', sys.argv[1], '-o', sys.argv[2]])\n"
        )
        proc = run_python(script, self.write_config(tmp_path), outdir, owner, attribute, call)
        assert proc.returncode == -signal.SIGKILL, proc.stderr

    @pytest.mark.parametrize("owner, attribute, call, written", [
        # the sixth JSON write is the second metrics file (see
        # test_failed_write_leaves_only_its_manifest)
        ("json", "dump", 6, {"roc.csv", "metrics_loss.json"}),
        ("os", "remove", 2, {"roc.csv"}),
    ], ids=["second_metrics_file", "second_delete"])
    def test_killed_write_leaves_a_manifest_listing_every_file(self, tmp_path, capsys, owner,
                                                               attribute, call, written):
        # SIGKILL runs no handler, so what a reader and the next run know of the
        # directory is the manifest written before the deletes and the files
        outdir = tmp_path / "out"
        assert main(["run", self.write_config(tmp_path, LOSS_ONLY_INI), "-o", str(outdir)]) == 0
        self.run_killed(tmp_path, outdir, owner, attribute, call)
        manifest = json.loads((outdir / "manifest.json").read_text())
        present = {p.name for p in outdir.iterdir()}
        assert manifest["status"] == "writing"
        assert written < present <= set(manifest["artifacts"])
        capsys.readouterr()
        assert main(["report", str(outdir)]) == 1
        assert "did not finish" in capsys.readouterr().err
        assert main(["run", self.write_config(tmp_path, LOSS_ONLY_INI), "-o", str(outdir)]) == 0
        listed = json.loads((outdir / "manifest.json").read_text())["artifacts"]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(listed)

    def test_killed_manifest_write_leaves_the_old_manifest_whole(self, tmp_path, capsys):
        # killed inside the run's first JSON write, that of its new manifest: the old
        # manifest and every file it lists must survive whole, and the next run clean up
        outdir = tmp_path / "out"
        assert main(["run", self.write_config(tmp_path, LOSS_ONLY_INI), "-o", str(outdir)]) == 0
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        self.run_killed(tmp_path, outdir, "json", "dump", 1)
        assert {p.name: p.read_bytes() for p in outdir.iterdir() if p.name in before} == before
        capsys.readouterr()
        assert main(["report", str(outdir)]) == 0
        assert [row.split()[0] for row in capsys.readouterr().out.splitlines()[1:]] == ["loss"]
        assert main(["run", self.write_config(tmp_path), "-o", str(outdir)]) == 0
        listed = json.loads((outdir / "manifest.json").read_text())["artifacts"]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(listed)

    def test_rerun_over_two_bucket_files_removes_both(self, tmp_path, capsys):
        # a directory from when the loss buckets took two files, which its
        # manifest lists: the rerun deletes both and leaves its own files alone
        outdir = tmp_path / "out"
        assert main(["run", self.write_config(tmp_path), "-o", str(outdir)]) == 0
        old = ["loss_buckets_calibrated.csv", "loss_buckets_raw.csv"]
        for name in old:
            (outdir / name).write_bytes((outdir / "loss_buckets.csv").read_bytes())
        (outdir / "loss_buckets.csv").unlink()
        manifest = json.loads((outdir / "manifest.json").read_text())
        manifest["artifacts"] = sorted({*manifest["artifacts"], *old} - {"loss_buckets.csv"})
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        assert main(["run", self.write_config(tmp_path), "-o", str(outdir)]) == 0
        listed = json.loads((outdir / "manifest.json").read_text())["artifacts"]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(listed)
        assert "loss_buckets.csv" in listed and not set(old) & set(listed)
        capsys.readouterr()
        assert main(["report", str(outdir)]) == 0

    def test_rerun_over_five_roc_files_removes_them(self, tmp_path, capsys):
        # a directory from when each attack's ROC curve took its own file, which
        # its manifest lists: the rerun deletes all five and leaves its own files
        outdir = tmp_path / "out"
        assert main(["run", self.write_config(tmp_path), "-o", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        old = [f"roc_{attack}.csv" for attack in manifest["attacks"]]
        assert len(old) == 5
        for name in old:
            (outdir / name).write_text("threshold,fpr,tpr\ninf,0.0,0.0\n-inf,1.0,1.0\n")
        (outdir / "roc.csv").unlink()
        manifest["artifacts"] = sorted({*manifest["artifacts"], *old} - {"roc.csv"})
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        assert main(["run", self.write_config(tmp_path), "-o", str(outdir)]) == 0
        listed = json.loads((outdir / "manifest.json").read_text())["artifacts"]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(listed)
        assert "roc.csv" in listed and not set(old) & set(listed)
        capsys.readouterr()
        assert main(["report", str(outdir)]) == 0

    def test_rerun_removes_the_previous_runs_artifacts(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert main(["run", self.write_config(tmp_path), "-o", str(outdir)]) == 0
        (outdir / "notes.txt").write_text("kept")
        assert main(["run", self.write_config(tmp_path, LOSS_ONLY_INI), "-o", str(outdir)]) == 0
        listed = json.loads((outdir / "manifest.json").read_text())["artifacts"]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(listed + ["notes.txt"])
        assert (outdir / "notes.txt").read_text() == "kept"
        capsys.readouterr()
        assert main(["report", str(outdir)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["loss"]

    def test_gen_data_round_trips(self, tmp_path):
        from mia_audit import load_csv
        cfg = self.write_config(tmp_path)
        out = tmp_path / "nodir" / "data.csv"  # gen-data creates the parent directory
        assert main(["gen-data", cfg, "-o", str(out)]) == 0
        assert b"\r" not in out.read_bytes()
        ds = load_csv(out)
        assert len(ds) == 300
        assert ds.num_classes == 2

    def test_gen_data_unwritable_path_exits_1(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "data.csv"
        assert main(["gen-data", cfg, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot write {out}:" in err
        assert blocker.read_text() == "kept"

    def test_failed_gen_data_write_leaves_no_csv(self, tmp_path, capsys, monkeypatch):
        # a disk that fills up at a row boundary: the rows written would load
        # as a smaller dataset
        from mia_audit import cli

        def full_disk(path, dataset):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("x0,x1,x2,x3,label\n0.5,0.25,-1.0,2.0,1\n")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_csv", full_disk)
        out = tmp_path / "data.csv"
        assert main(["gen-data", self.write_config(tmp_path), "-o", str(out)]) == 1
        assert (f"error: cannot write {out}: [Errno 28] No space left on device"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command, below_file", [
        ("run", False), ("sweep", False), ("run", True), ("sweep", True),
    ], ids=["run", "sweep", "run-below-file", "sweep-below-file"])
    def test_output_that_is_a_file_refused_before_training(self, tmp_path, capsys,
                                                           monkeypatch, command, below_file):
        from mia_audit import nn

        def no_training(*args, **kwargs):
            raise AssertionError("trained a model before checking -o")

        monkeypatch.setattr(nn, "train_many", no_training)
        cfg = self.write_config(tmp_path)
        out = f"{cfg}/out" if below_file else cfg
        extra = ["--axis", "num_queries", "--values", "1"] if command == "sweep" else []
        assert main([command, cfg, *extra, "-o", out]) == 1
        err = capsys.readouterr().err
        if below_file:
            assert err.startswith(f"error: cannot create -o {out}: ") and err.count("\n") == 1
        else:
            assert err == f"error: -o {cfg} exists and is not a directory\n"
        assert Path(cfg).read_text(encoding="utf-8") == SAMPLE_INI

    def test_run_from_csv_source(self, tmp_path):
        cfg = self.write_config(tmp_path)
        data = tmp_path / "data.csv"
        assert main(["gen-data", cfg, "-o", str(data)]) == 0
        csv_ini = SAMPLE_INI.replace("source = synthetic",
                                     f"source = csv\npath = {data}")
        cfg2 = tmp_path / "csv.ini"
        cfg2.write_text(csv_ini, encoding="utf-8")
        outdir = tmp_path / "csvrun"
        assert main(["run", str(cfg2), "-o", str(outdir)]) == 0
        assert (outdir / "metrics_rapid.json").exists()

    def test_gen_data_rejects_csv_source(self, tmp_path, capsys):
        text = SAMPLE_INI.replace("source = synthetic", "source = csv\npath = x.csv")
        cfg = self.write_config(tmp_path, text)
        assert main(["gen-data", cfg, "-o", str(tmp_path / "y.csv")]) == 1
        assert "not synthetic" in capsys.readouterr().err
