"""The benchmark's workloads: the configs they audit and the operations they time.

Every workload is a closed loop with one client: one process runs one
operation after another through `mia_audit.cli.main`, the same entry point as
`mia-audit run`/`sweep`/`report`. An operation writes into a fresh empty
directory, so a stale artifact of an earlier operation can never pass a check.

Each workload is declared as the `ExperimentConfig` it means to audit. The
INI file an operation hands to the CLI is rendered from that config with every
key spelled out, and set-up checks that `load_config` reads it back to the
same digest. A default that drifts in the parser therefore fails the
benchmark instead of silently changing the workload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import time

from mia_audit import DPConfig, ExperimentConfig, MetricsReport, SyntheticSource, TrainingConfig
from mia_audit import cli
from mia_audit.config import load_config

FPR_1PCT = 0.01


class CheckFailed(Exception):
    """An operation's output is wrong; the message says which check failed."""


def op_seed(workload: str, seed: int, index: int) -> int:
    """The master seed of operation `index`, derived from the workload seed."""
    text = f"{workload}\x1f{seed}\x1f{index}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little") & 0x7FFFFFFF


# --------------------------------------------------------------------------
# INI rendering


def _num(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _join(values) -> str:
    return ",".join(_num(v) for v in values)


def _training_keys(cfg: TrainingConfig) -> dict:
    return {
        "learning_rate": _num(cfg.learning_rate),
        "momentum": _num(cfg.momentum),
        "weight_decay": _num(cfg.weight_decay),
        "batch_size": _num(cfg.batch_size),
        "epochs": _num(cfg.epochs),
        "cosine_schedule": "true" if cfg.cosine_schedule else "false",
    }


def render_ini(cfg: ExperimentConfig) -> str:
    """The config as an INI file that spells out every key the parser knows.

    Keys whose value is derived from the master seed (`[data] seed`,
    `[experiment] split_seed`) are written only when the config pins them.
    """
    if not isinstance(cfg.data, SyntheticSource) or cfg.attacker_data is not None:
        raise ValueError("benchmark workloads use one synthetic data source")
    data = {
        "source": "synthetic",
        "num_classes": _num(cfg.data.num_classes),
        "feature_dim": _num(cfg.data.feature_dim),
        "class_separation": _num(cfg.data.class_separation),
        "cov_scale": _num(cfg.data.cov_scale),
        "n_samples": _num(cfg.data.n_samples),
    }
    if cfg.data.seed is not None:
        data["seed"] = _num(cfg.data.seed)
    experiment = {"master_seed": _num(cfg.master_seed)}
    if cfg.split_seed is not None:
        experiment["split_seed"] = _num(cfg.split_seed)
    sections = {
        "data": data,
        "model": {"hidden_sizes": _join(cfg.hidden_sizes)},
        "train.target": _training_keys(cfg.target_train),
        "train.shadow": _training_keys(cfg.shadow_train),
        "train.reference": _training_keys(cfg.reference_train),
        "signal": {
            "kind": cfg.signal_kind.value,
            "num_queries": _num(cfg.num_queries),
            "augmentation_noise_std": _num(cfg.augmentation_noise_std),
            "logit_scaling": "true" if cfg.logit_scaling else "false",
        },
        "reference": {
            "count": _num(cfg.num_reference_models),
            "sampling": cfg.reference_sampling_mode,
            "sample_fraction": _num(cfg.reference_sample_fraction),
        },
        "attacks": {"enabled": ",".join(cfg.attacks)},
        "scoring": {"hidden_sizes": _join(cfg.scoring_hidden_sizes),
                    **_training_keys(cfg.scoring_train)},
        "eval": {"fpr_levels": _join(cfg.fpr_levels)},
        "experiment": experiment,
    }
    if cfg.dp is not None:
        sections["dp"] = {
            "clip_norm": _num(cfg.dp.clip_norm),
            "noise_multiplier": _num(cfg.dp.noise_multiplier),
            "apply_to": ",".join(cfg.dp_apply_to),
        }
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)


def write_checked_ini(cfg: ExperimentConfig, path: str) -> None:
    """Write the config's INI and check that the parser reads back the same digest."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_ini(cfg))
    parsed = load_config(path)
    if parsed.digest() != cfg.digest():
        diff = {k: v for k, v in parsed.canonical_dict().items()
                if cfg.canonical_dict()[k] != v}
        raise CheckFailed(f"{path}: load_config digest {parsed.digest()} != intended "
                          f"{cfg.digest()}; differing fields {sorted(diff)}")


# --------------------------------------------------------------------------
# operations


@dataclasses.dataclass
class OpResult:
    seconds: float
    error: str | None = None
    aucs: list = dataclasses.field(default_factory=list)
    tprs: list = dataclasses.field(default_factory=list)


def _cli(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _expect_ok(argv: list, code: int, err: str) -> None:
    if code != 0:
        raise CheckFailed(f"mia-audit {argv[0]} exited {code}: {err.strip()[-300:]}")


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {os.path.basename(path)}: {exc}") from None


def check_run_dir(outdir: str, cfg: ExperimentConfig, report_text: str) -> tuple[list, list]:
    """Check one `run` directory and its `report`; return per-attack AUCs and TPRs@1%FPR."""
    digest = cfg.digest()
    manifest = _read_json(os.path.join(outdir, "manifest.json"))
    if manifest.get("status") != "ok":
        raise CheckFailed(f"manifest status {manifest.get('status')!r}")
    if manifest.get("config_digest") != digest:
        raise CheckFailed(f"manifest digest {manifest.get('config_digest')} != {digest}")

    rows = [line.split() for line in report_text.strip().splitlines()]
    if not rows or "AUC" not in rows[0]:
        raise CheckFailed(f"report has no AUC column: {report_text[:200]!r}")
    auc_col = rows[0].index("AUC")
    report_auc = {row[0]: row[auc_col] for row in rows[1:]}
    if sorted(report_auc) != sorted(cfg.attacks):
        raise CheckFailed(f"report rows {sorted(report_auc)} != attacks {sorted(cfg.attacks)}")

    aucs, tprs = [], []
    for attack in cfg.attacks:
        payload = _read_json(os.path.join(outdir, f"metrics_{attack}.json"))
        if payload.get("config_digest") != digest:
            raise CheckFailed(f"metrics_{attack}.json digest {payload.get('config_digest')} != {digest}")
        try:
            metrics = MetricsReport.from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckFailed(f"metrics_{attack}.json does not load: {exc}") from None
        if abs(float(report_auc[attack]) - metrics.auc) > 0.5e-4 + 1e-12:
            raise CheckFailed(f"report AUC {report_auc[attack]} for {attack} != JSON {metrics.auc}")
        aucs.append(metrics.auc)
        tprs.append(metrics.tpr_at_fpr[FPR_1PCT].tpr)
    return aucs, tprs


def check_sweep_csv(path: str, cfg: ExperimentConfig, axis: str, values: list,
                    seed: int) -> tuple[list, list]:
    """Check one `sweep.csv`; return its AUCs and TPRs@1%FPR."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckFailed(f"cannot read sweep.csv: {exc}") from None
    if not lines or lines[0] != f"# config_digest={cfg.digest()}":
        raise CheckFailed(f"sweep.csv digest line {lines[:1]} != {cfg.digest()}")
    per_attack = 2 + len(cfg.fpr_levels)
    expected_rows = len(values) * len(cfg.attacks) * per_attack
    rows = [line.split(",") for line in lines[2:]]
    if lines[1] != "axis,value,seed,metric,result" or len(rows) != expected_rows:
        raise CheckFailed(f"sweep.csv has {len(rows)} rows, expected {expected_rows}")
    aucs, tprs = [], []
    for row_axis, value, row_seed, metric, result in rows:
        if row_axis != axis or value not in {str(v) for v in values} or int(row_seed) != seed:
            raise CheckFailed(f"unexpected sweep row {row_axis},{value},{row_seed},{metric}")
        if metric.endswith(".auc"):
            aucs.append(float(result))
        elif metric.endswith(f".tpr_at_fpr_{FPR_1PCT!r}"):
            tprs.append(float(result))
    if len(aucs) != len(values) * len(cfg.attacks) or len(tprs) != len(aucs):
        raise CheckFailed("sweep.csv lacks auc or tpr_at_fpr_0.01 rows")
    return aucs, tprs


@dataclasses.dataclass(frozen=True)
class RunWorkload:
    """One operation is `mia-audit run` then `mia-audit report` on a fresh master seed."""

    name: str
    base: ExperimentConfig
    min_ops: int  # every untraced run completes these first ops; they feed auc.mean

    def configs(self, master_seed: int) -> list[ExperimentConfig]:
        return [self.base.with_overrides(master_seed=master_seed)]

    def operation(self, op_dir: str, master_seed: int) -> OpResult:
        cfg, = self.configs(master_seed)
        ini = os.path.join(op_dir, "exp.ini")
        outdir = os.path.join(op_dir, "out")
        write_checked_ini(cfg, ini)
        run_argv, report_argv = ["run", ini, "-o", outdir], ["report", outdir]
        started = time.perf_counter()
        run_code, _, run_err = _cli(run_argv)
        report_code, report_out, report_err = _cli(report_argv)
        result = OpResult(time.perf_counter() - started)
        try:
            _expect_ok(run_argv, run_code, run_err)
            _expect_ok(report_argv, report_code, report_err)
            result.aucs, result.tprs = check_run_dir(outdir, cfg, report_out)
        except CheckFailed as exc:
            result.error = str(exc)
        return result


@dataclasses.dataclass(frozen=True)
class SweepWorkload:
    """One operation is one seed's pair of `mia-audit sweep` calls."""

    name: str
    sweeps: tuple  # (base config, axis, values) per sweep call
    min_ops: int  # every untraced run completes these first ops; they feed auc.mean

    def configs(self, master_seed: int) -> list[ExperimentConfig]:
        return [base.with_overrides(master_seed=master_seed) for base, _, _ in self.sweeps]

    def operation(self, op_dir: str, master_seed: int) -> OpResult:
        calls = []
        for i, (cfg, (_, axis, values)) in enumerate(zip(self.configs(master_seed), self.sweeps)):
            ini = os.path.join(op_dir, f"sweep{i}.ini")
            write_checked_ini(cfg, ini)
            outdir = os.path.join(op_dir, f"out{i}")
            argv = ["sweep", ini, "--axis", axis, "--values", _join(values),
                    "--seeds", str(master_seed), "-o", outdir]
            calls.append((cfg, axis, values, outdir, argv))
        codes = []
        started = time.perf_counter()
        for *_, argv in calls:
            codes.append(_cli(argv))
        result = OpResult(time.perf_counter() - started)
        try:
            for (cfg, axis, values, outdir, argv), (code, _, err) in zip(calls, codes):
                _expect_ok(argv, code, err)
                aucs, tprs = check_sweep_csv(os.path.join(outdir, "sweep.csv"), cfg, axis,
                                             values, master_seed)
                result.aucs += aucs
                result.tprs += tprs
        except CheckFailed as exc:
            result.error = str(exc)
        return result


WORKLOADS = {
    w.name: w for w in (
        RunWorkload("audit_default", ExperimentConfig(), min_ops=3),
        SweepWorkload("sweep_ablation", (
            (ExperimentConfig(attacks=("calibration",)), "num_reference_models", [1, 2, 4]),
            (ExperimentConfig(attacks=("rapid",)), "num_queries", [1, 4, 8]),
        ), min_ops=2),
        RunWorkload("dp_audit", ExperimentConfig(
            dp=DPConfig(clip_norm=10.0, noise_multiplier=1.0),
            dp_apply_to=("target", "reference"),
            attacks=("loss", "calibration", "lira_offline"),
        ), min_ops=2),
    )
}
