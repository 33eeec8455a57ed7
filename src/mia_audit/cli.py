"""Command-line entry points: run, sweep, report, gen-data.

`run` executes the full pipeline for one config and persists artifacts;
`sweep` reruns it along one ablation axis; `report` renders the metrics
JSON artifacts of a run directory as a fixed-format table; `gen-data`
emits the synthetic dataset of a config as CSV.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from . import evaluation, pipeline
from .config import KNOWN_ATTACKS, ConfigError, SyntheticSource, load_config
from .dataset import write_csv


def _output_is_file(path: str) -> bool:
    """Report an `-o` that exists but is no directory, before any work is done."""
    if os.path.exists(path) and not os.path.isdir(path):
        print(f"error: -o {path} exists and is not a directory", file=sys.stderr)
        return True
    return False


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if _output_is_file(args.output):
        return 1
    try:
        result = pipeline.run_pipeline(cfg)
        written = pipeline.write_artifacts(result, args.output)
    except Exception as exc:
        pipeline.mark_failed(args.output, cfg.digest(), f"{type(exc).__name__}: {exc}")
        print(f"error: pipeline failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(written)} artifacts to {args.output} (config {cfg.digest()})")
    return 0


def _parse_ints(flag: str, raw: str) -> list[int]:
    try:
        return [int(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated integers, got {raw!r}") from None


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.axis == "reference_sampling_mode":
        values = [v.strip() for v in args.values.split(",") if v.strip()]
    else:
        values = _parse_ints(f"--values: axis {args.axis}", args.values)
    seeds = _parse_ints("--seeds:", args.seeds) if args.seeds else None
    if _output_is_file(args.output):
        return 1
    path = os.path.join(args.output, "sweep.csv")
    try:
        result = evaluation.sweep(cfg, args.axis, values, seeds=seeds)
    except Exception as exc:
        if os.path.isfile(path):  # an earlier config's table must not outlive this failure
            os.remove(path)
        print(f"error: sweep failed: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.output, exist_ok=True)
    result.write_csv(path, cfg.digest())
    print(f"wrote {path} ({len(result.rows)} rows, config {cfg.digest()})")
    return 0


def _format_level(level: float) -> str:
    return f"TPR@{level * 100:g}%FPR"


def render_report(outdir: str) -> str:
    """Fixed-format metrics table for a run directory.

    One row per attack (canonical order), columns TPR@<level>%FPR ascending,
    then AUC and BalancedAcc; every value is the JSON value rounded half-even
    to 4 decimals. Raises ValueError when artifacts are missing or mix
    config digests, or when manifest.json does not record a finished run of
    the same config, so a failed rerun cannot pass off stale metrics.
    """
    manifest = pipeline.read_manifest(outdir)
    if manifest is not None and manifest.get("status") != "ok":
        raise ValueError(f"last run in {outdir} did not finish: manifest status "
                         f"{manifest.get('status')!r} ({manifest.get('error', 'no error recorded')})")
    paths = sorted(glob.glob(os.path.join(outdir, "metrics_*.json")))
    if not paths:
        raise ValueError(f"no metrics artifacts (metrics_*.json) in {outdir}")
    entries = {}
    digests = set()
    levels: set[float] = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        digests.add(payload.get("config_digest", ""))
        entries[payload["attack"]] = payload
        levels.update(float(level) for level in payload["tpr_at_fpr"])
    if len(digests) > 1:
        raise ValueError(f"refusing to merge artifacts with mismatched config digests: {sorted(digests)}")
    (digest,) = digests
    if manifest is None:
        raise ValueError(f"no manifest.json in {outdir}")
    if manifest.get("config_digest") != digest:
        raise ValueError(f"stale metrics in {outdir}: digest {digest} "
                         f"but manifest.json names {manifest.get('config_digest')}")

    level_list = sorted(levels)
    header = ["attack"] + [_format_level(lv) for lv in level_list] + ["AUC", "BalancedAcc"]
    order = [a for a in KNOWN_ATTACKS if a in entries]
    order += sorted(a for a in entries if a not in KNOWN_ATTACKS)
    rows = []
    for name in order:
        payload = entries[name]
        cells = [name]
        for lv in level_list:
            entry = payload["tpr_at_fpr"].get(repr(lv))
            cells.append("-" if entry is None else f"{entry['tpr']:.4f}")
        cells.append(f"{payload['auc']:.4f}")
        cells.append(f"{payload['balanced_accuracy']:.4f}")
        rows.append(cells)

    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for cells in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    return "\n".join(lines)


def cmd_report(args) -> int:
    try:
        print(render_report(args.output))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    if not isinstance(cfg.data, SyntheticSource):
        print("error: [data] source is not synthetic; nothing to generate", file=sys.stderr)
        return 1
    dataset = pipeline.resolve_dataset(cfg.data, cfg.master_seed, "data")
    try:
        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        write_csv(args.output, dataset)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(dataset)} samples to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mia-audit",
        description="Membership-inference auditing toolkit (desk scale).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the attack pipeline for one config")
    run.add_argument("config", help="experiment config file (key = value INI format)")
    run.add_argument("-o", "--output", required=True, help="artifact output directory")
    run.set_defaults(func=cmd_run)

    swp = sub.add_parser("sweep", help="rerun the pipeline along one ablation axis")
    swp.add_argument("config")
    swp.add_argument("--axis", required=True, choices=evaluation.SWEEP_AXES)
    swp.add_argument("--values", required=True, help="comma-separated axis values")
    swp.add_argument("--seeds", default="", help="comma-separated master seeds (default: config seed)")
    swp.add_argument("-o", "--output", required=True)
    swp.set_defaults(func=cmd_sweep)

    rep = sub.add_parser("report", help="print the metrics table for a run directory")
    rep.add_argument("output", help="directory holding metrics_*.json artifacts")
    rep.set_defaults(func=cmd_report)

    gen = sub.add_parser("gen-data", help="emit the config's synthetic dataset as CSV")
    gen.add_argument("config")
    gen.add_argument("-o", "--output", required=True, help="CSV file to write")
    gen.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
