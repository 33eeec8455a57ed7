"""Command-line entry points: run, sweep, report, gen-data.

`run` executes the full pipeline for one config and persists artifacts;
`sweep` reruns it along one ablation axis; `report` renders the metrics of
the attacks that a run directory's manifest lists as a fixed-format table;
`gen-data` emits the synthetic dataset of a config as CSV.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline
from .config import KNOWN_ATTACKS, ConfigError, SyntheticSource, load_config, parse_field_list
from .dataset import write_csv


def _make_output_dir(path: str) -> bool:
    """Create the `-o` directory before any work is done; report why it cannot be."""
    if os.path.exists(path) and not os.path.isdir(path):
        print(f"error: -o {path} exists and is not a directory", file=sys.stderr)
        return False
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create -o {path}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if not _make_output_dir(args.output):
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


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = parse_field_list(f"--values ({args.axis})", args.axis, args.values)
    seeds = parse_field_list("--seeds", "master_seed", args.seeds) if args.seeds else None
    try:
        pipeline.sweep_runs(cfg, args.axis, values, seeds)  # a bad config leaves no -o
    except ValueError as exc:
        print(f"error: sweep failed: {exc}", file=sys.stderr)
        return 1
    if not _make_output_dir(args.output):
        return 1
    path = os.path.join(args.output, "sweep.csv")
    try:
        result = pipeline.sweep(cfg, args.axis, values, seeds=seeds)
    except Exception as exc:
        if os.path.isfile(path):  # an earlier config's table must not outlive this failure
            os.remove(path)
        print(f"error: sweep failed: {exc}", file=sys.stderr)
        return 1
    result.write_csv(path, cfg.digest())
    print(f"wrote {path} ({len(result.rows)} rows, config {cfg.digest()})")
    return 0


def render_report(outdir: str) -> str:
    """Fixed-format metrics table for a run directory.

    One row per attack that the directory's manifest lists (canonical order),
    columns TPR@<level>%FPR ascending, then AUC and BalancedAcc; every value
    is the JSON value rounded half-even to 4 decimals. Raises ValueError when
    pipeline.read_metrics refuses the directory.
    """
    entries = pipeline.read_metrics(outdir)
    level_list = sorted({level for report in entries.values() for level in report.tpr_at_fpr})
    header = ["attack"] + [f"TPR@{lv * 100:g}%FPR" for lv in level_list] + ["AUC", "BalancedAcc"]
    rows = []
    for name in [a for a in KNOWN_ATTACKS if a in entries]:
        report = entries[name]
        cells = [name]
        for lv in level_list:
            entry = report.tpr_at_fpr.get(lv)
            cells.append("-" if entry is None else f"{entry.tpr:.4f}")
        cells.append(f"{report.auc:.4f}")
        cells.append(f"{report.balanced_accuracy:.4f}")
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
    swp.add_argument("--axis", required=True, choices=pipeline.SWEEP_AXES)
    swp.add_argument("--values", required=True, help="comma-separated axis values")
    swp.add_argument("--seeds", default="", help="comma-separated master seeds (default: config seed)")
    swp.add_argument("-o", "--output", required=True)
    swp.set_defaults(func=cmd_sweep)

    rep = sub.add_parser("report", help="print the metrics table for a run directory")
    rep.add_argument("output", help="run directory written by `run`")
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
