import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mia_audit import ConfigError, load_config, run_pipeline, write_artifacts
from mia_audit.cli import main, render_report
from mia_audit.config import SECTIONS, CsvSource, ExperimentConfig, SyntheticSource
from mia_audit.evaluation import SWEEP_AXES, sweep
from mia_audit.nn import DPConfig, TrainingConfig
from mia_audit.signals import SignalKind

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
                            (DPConfig, ()), (TrainingConfig, ("seed", "dp"))):
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
        ("eval", "fpr_levels = 0.1,1"),
        ("experiment", "master_seed = seven"),
    ])
    def test_invalid_value_names_section(self, tmp_path, capsys, section, text):
        path = self.write(tmp_path, f"[{section}]\n{text}\n")
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
        assert f"[{section}] {text.split()[0]}" in capsys.readouterr().err

    def test_digest_changes_with_values(self):
        assert fast_config().digest() != fast_config(master_seed=6).digest()
        assert fast_config().digest() == fast_config().digest()


class TestPipeline:
    def test_loss_only_run_trains_no_attacker_models(self):
        result = run_pipeline(fast_config(attacks=("loss",)))
        assert result.shadow_model is None
        assert result.reference_models == []
        assert result.target_table.calibrated is None
        assert set(result.outputs) == {"loss"}
        assert result.bucket_report is None

    def test_full_run_produces_all_outputs(self):
        result = run_pipeline(fast_config())
        assert set(result.outputs) == {"loss", "calibration", "lira_offline",
                                       "rapid", "shortcut_lira"}
        assert result.bucket_report is not None
        assert result.target_table.calibrated is not None

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
    ])
    def test_each_distinct_model_trained_once(self, monkeypatch, case, calls):
        from mia_audit import nn
        train_calls = []
        real_train = nn.train

        def counting_train(*args, **kwargs):
            train_calls.append(args)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(nn, "train", counting_train)
        if case == "calibration_reference_sweep":
            sweep(fast_config(attacks=("calibration",)), "num_reference_models", [1, 2])
        elif case == "rapid_query_sweep":
            sweep(fast_config(attacks=("rapid",), num_reference_models=1), "num_queries", [1, 2])
        else:
            run_pipeline(fast_config(num_reference_models=4))
        assert len(train_calls) == calls

    def test_nested_query_prefix_property(self):
        # with per-(sample, query) rng streams, a 1-query run equals the
        # unperturbed signal regardless of the configured maximum
        cfg1 = fast_config(num_queries=1)
        cfg2 = fast_config(num_queries=2)
        r1 = run_pipeline(cfg1.with_overrides(attacks=("loss",)))
        r2 = run_pipeline(cfg2.with_overrides(attacks=("loss",)))
        assert not np.array_equal(r1.target_table.raw, r2.target_table.raw)

    def test_reference_models_stable_under_count_increase(self):
        cfg2 = fast_config(num_reference_models=2, attacks=("calibration",))
        cfg3 = fast_config(num_reference_models=3, attacks=("calibration",))
        r2 = run_pipeline(cfg2)
        r3 = run_pipeline(cfg3)
        for a, b in zip(r2.reference_models, r3.reference_models[:2]):
            for wa, wb in zip(a.parameters(), b.parameters()):
                assert np.array_equal(wa, wb)

    def test_random_sampling_mode(self):
        result = run_pipeline(fast_config(reference_sampling_mode="random",
                                          attacks=("calibration",)))
        assert "calibration" in result.metrics

    def test_shortcut_lira_only_selection(self):
        result = run_pipeline(fast_config(attacks=("shortcut_lira",)))
        assert set(result.outputs) == {"shortcut_lira"}
        assert result.shadow_model is not None
        assert result.target_lira is not None

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
        assert set(result.outputs) == set(cfg.attacks)

    def test_dp_applies_to_target_only_by_default(self):
        from mia_audit.nn import DPConfig
        cfg = fast_config(dp=DPConfig(10.0, 0.0), attacks=("loss", "calibration"))
        base = run_pipeline(fast_config(attacks=("loss", "calibration")))
        dp = run_pipeline(cfg)
        # sigma=0 with a huge effective clip bound: reference models untouched
        for a, b in zip(base.reference_models, dp.reference_models):
            for wa, wb in zip(a.parameters(), b.parameters()):
                assert np.array_equal(wa, wb)

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
                    "manifest.json", "loss_buckets_raw.csv", "loss_buckets_calibrated.csv"}
        for attack in result.config.attacks:
            expected |= {f"scores_{attack}.csv", f"scores_{attack}.json",
                         f"roc_{attack}.csv", f"metrics_{attack}.json"}
        assert expected == set(written)
        for name in written:
            assert (outdir / name).exists()

    def test_loss_only_artifacts(self, tmp_path):
        outdir, _, written = self.run_to_dir(tmp_path, attacks=("loss",))
        assert "shadow_scores.csv" not in written
        assert "scores_rapid.csv" not in written
        assert "loss_buckets_raw.csv" not in written

    def test_every_artifact_carries_digest(self, tmp_path):
        outdir, result, written = self.run_to_dir(tmp_path)
        for name in written:
            text = (outdir / name).read_text()
            if name.endswith(".csv"):
                assert text.startswith(f"# config_digest={result.digest}")
                assert b"\r" not in (outdir / name).read_bytes(), name
            else:
                assert result.digest in text

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, _, written = self.run_to_dir(tmp_path, "a")
        out2, _, _ = self.run_to_dir(tmp_path, "b")
        for name in written:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_manifest_reports_ok(self, tmp_path):
        outdir, result, _ = self.run_to_dir(tmp_path)
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["config_digest"] == result.digest


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

    def test_report_refuses_mixed_digests(self, tmp_path):
        outdir = tmp_path / "mixed"
        outdir.mkdir()
        for i, digest in enumerate(["aaa", "bbb"]):
            payload = {"attack": f"a{i}", "config_digest": digest,
                       "balanced_accuracy": 0.5, "auc": 0.5, "tpr_at_fpr": {}}
            (outdir / f"metrics_a{i}.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="mismatched"):
            render_report(str(outdir))

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

    def test_sweep_csv_cardinality(self, tmp_path):
        cfg = self.write_config(tmp_path, SAMPLE_INI.replace(
            "enabled = loss,calibration,lira_offline,rapid,shortcut_lira",
            "enabled = loss"))
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

    @pytest.mark.parametrize("flag", ["--seeds", "--values"])
    def test_sweep_non_integer_list_names_flag(self, tmp_path, capsys, flag):
        args = {"--values": "1", "--seeds": "1", flag: "a"}
        outdir = tmp_path / "sweep"
        assert main(["sweep", self.write_config(tmp_path), "--axis", "num_queries",
                     *(t for kv in args.items() for t in kv), "-o", str(outdir)]) == 1
        assert flag in capsys.readouterr().err
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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_output_that_is_a_file_refused_before_training(self, tmp_path, capsys,
                                                           monkeypatch, command):
        from mia_audit import nn

        def no_training(*args, **kwargs):
            raise AssertionError("trained a model before checking -o")

        monkeypatch.setattr(nn, "train", no_training)
        cfg = self.write_config(tmp_path)
        extra = ["--axis", "num_queries", "--values", "1"] if command == "sweep" else []
        assert main([command, cfg, *extra, "-o", cfg]) == 1
        err = capsys.readouterr().err
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
