"""Spans and counts at the layer boundaries of mia_audit, recorded from outside.

`Tracer.install` replaces public functions of the package's modules with
wrappers that record a span (operation id, name, start, end, parent span) and
update counters; `Tracer.uninstall` puts the originals back, so untraced
operations run the unmodified code. Spans stay in memory until `write_spans`.

A wrapper is installed on the module attribute its callers look up, e.g.
`pipeline.perturbed_queries` (imported by name there) rather than
`signals.perturbed_queries`. A target that a later version of the package no
longer has is skipped and listed in `Tracer.missing`; its metrics then read 0.

The stage-level spans (`nn.train`, `perturbed_queries`, `write_artifacts`, ...)
are the stable ones. The step-level spans (`backward`, `sgd_step`, the DP pair,
model builds) follow today's `nn.train` loop structure.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import os
import statistics
import time

import numpy as np

from mia_audit import cli, evaluation, nn, pipeline, signals
from mia_audit import attacks as atk
from mia_audit import dataset as ds
from mia_audit.seeding import derive_seed

_MAX_REFERENCE_MODELS = 64

# Per-layer metrics that count work. They repeat exactly for every operation of
# a workload, so the traced run checks that they do.
EXACT_COUNTS = (
    "nn.train.calls", "nn.train.distinct_ratio", "nn.steps", "nn.model_builds",
    "nn.per_example_bytes", "signals.rng_streams", "evaluation.roc.calls",
    "evaluation.roc.distinct_ratio", "pipeline.artifact_files",
)
STEP_ARCHS = ("16-256-2", "2-64-64-64-1")
TRAIN_ROLES = ("target", "shadow", "reference", "scoring")


def _arch(model) -> str:
    return "-".join(str(s) for s in model.layer_sizes)


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
        h.update(b"\x1f")
    return h.digest()


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list = []       # (op, name, start, end, parent index or -1)
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._counts: dict = collections.defaultdict(collections.Counter)
        self._keys: dict = collections.defaultdict(lambda: collections.defaultdict(set))
        self._roles: dict[int, str] = {}
        self._installed: list = []
        self._op_first_span = 0

    # -- operations ---------------------------------------------------------

    def begin_op(self, op: int, master_seeds) -> None:
        """Start attributing spans to `op`.

        A model's role is read from its training seed, which the pipeline
        derives from the master seed and a label path (see mia_audit.seeding).
        """
        self.op = op
        self._op_first_span = len(self.spans)
        self._roles = {}
        for master in master_seeds:
            self._roles[derive_seed(master, "target")] = "target"
            self._roles[derive_seed(master, "shadow")] = "shadow"
            for i in range(_MAX_REFERENCE_MODELS):
                self._roles[derive_seed(master, "ref", i)] = "reference"
            for name in ("rapid", "shortcut_lira"):
                self._roles[derive_seed(master, "scoring", name)] = "scoring"

    def _role(self, train_config) -> str:
        return self._roles.get(train_config.seed, "other")

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, before=None, after=None):
        """Wrap fn in a span; `name` is a string or a function of (args, kwargs)."""
        tracer, perf = self, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            label = name(args, kwargs) if callable(name) else name
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                tracer._stack.pop()
                tracer.spans[index] = (tracer.op, label, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, name):
        counts = self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[self.op][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count(self, name: str, amount=1) -> None:
        self._counts[self.op][name] += amount

    def _on_train(self, args, kwargs) -> None:
        x, y = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y")
        config, sizes = _arg(args, kwargs, 2, "config"), _arg(args, kwargs, 3, "layer_sizes")
        loss = args[4] if len(args) > 4 else kwargs.get("loss", "ce")
        key = _digest(np.asarray(x), np.asarray(y), config, tuple(sizes), loss)
        self._keys[self.op]["nn.train"].add(key)

    def _on_roc(self, args, kwargs) -> None:
        key = _digest(np.asarray(_arg(args, kwargs, 0, "scores"), dtype=np.float64),
                      np.asarray(_arg(args, kwargs, 1, "is_member"), dtype=bool))
        self._keys[self.op]["evaluation.roc"].add(key)

    def _on_per_example(self, args, kwargs) -> None:
        model, x = _arg(args, kwargs, 0, "model"), np.atleast_2d(_arg(args, kwargs, 1, "x"))
        sizes = model.layer_sizes
        per_example = sum(o * i + o for i, o in zip(sizes, sizes[1:]))
        nbytes = x.shape[0] * per_example * 8
        counts = self._counts[self.op]
        counts["nn.per_example_bytes"] = max(counts["nn.per_example_bytes"], nbytes)

    def _after_write(self, args, kwargs, written) -> None:
        outdir = _arg(args, kwargs, 1, "outdir")
        self._count("pipeline.artifact_files", len(written))
        self._count("pipeline.artifact_bytes",
                    sum(os.path.getsize(os.path.join(outdir, f)) for f in written))

    def _targets(self):
        """(owner, attribute, kind, name, before, after) for every wrapped boundary."""
        train_name = lambda a, k: f"nn.train.{self._role(_arg(a, k, 2, 'config'))}"
        model_arch = lambda prefix: (lambda a, k: f"{prefix}.{_arch(_arg(a, k, 0, 'model'))}")
        span = "span"
        return [
            (cli, "main", span, lambda a, k: f"cli.{((a or [k.get('argv')])[0] or ['?'])[0]}", None, None),
            (cli, "load_config", span, "config.load_config", None, None),
            (cli, "render_report", span, "cli.render_report", None, None),
            (evaluation, "sweep", span, "evaluation.sweep", None, None),
            (pipeline, "run_pipeline", span, "pipeline.run_pipeline", None, None),
            (pipeline, "write_artifacts", span, "pipeline.write_artifacts", None, self._after_write),
            (pipeline, "resolve_dataset", span, "dataset.resolve_dataset", None, None),
            (pipeline, "make_split", span, "dataset.make_split", None, None),
            (pipeline, "sample_reference_subset", span, "dataset.sample_reference_subset", None, None),
            (ds.TabularDataset, "subset", span, "dataset.subset", None, None),
            (pipeline, "perturbed_queries", span, "signals.perturbed_queries", None, None),
            (pipeline, "averaged_signal_batch", span, "signals.averaged_signal_batch", None, None),
            (signals, "derive_rng", "count", "signals.rng_streams", None, None),
            (atk, "calibrate", span, "attacks.calibrate", None, None),
            (atk, "attack_loss", span, "attacks.attack_loss", None, None),
            (atk, "attack_calibration", span, "attacks.attack_calibration", None, None),
            (atk, "lira_offline_scores", span, "attacks.lira_offline_scores", None, None),
            (atk, "train_scoring_model", span, "attacks.train_scoring_model", None, None),
            (atk, "attack_rapid", span, "attacks.attack_rapid", None, None),
            (atk, "attack_shortcut_lira", span, "attacks.attack_shortcut_lira", None, None),
            (evaluation, "compute_metrics", span, "evaluation.compute_metrics", None, None),
            (evaluation, "roc", span, "evaluation.roc", self._on_roc, None),
            (nn, "train", span, train_name, self._on_train, None),
            (nn, "backward", span, model_arch("nn.backward"), None, None),
            (nn, "sgd_step", span, model_arch("nn.sgd_step"), None, None),
            (nn, "per_example_gradients", span, "nn.per_example_gradients", self._on_per_example, None),
            (nn, "dp_sgd_step", span, "nn.dp_sgd_step", None, None),
            (nn.MLPClassifier, "__post_init__", "count", "nn.model_builds", None, None),
        ]

    def install(self) -> None:
        for owner, attr, kind, name, before, after in self._targets():
            original = owner.__dict__.get(attr)
            if original is None:
                label = f"{getattr(owner, '__name__', owner)}.{attr}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            wrapped = (self._span(original, name, before, after) if kind == "span"
                       else self._counter(original, name))
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- per-operation metrics ----------------------------------------------

    def op_metrics(self) -> dict:
        """Per-layer values of the operation begun last."""
        first = self._op_first_span
        spans = [(first + i, s) for i, s in enumerate(self.spans[first:])]
        child = collections.Counter()
        for _, (_, _, start, end, parent) in spans:
            if parent >= 0:
                child[parent] += end - start
        total = collections.Counter()   # inclusive seconds per span name
        own = collections.Counter()     # self seconds per span name
        calls = collections.Counter()
        plain_sgd = collections.Counter()
        for i, (_, name, start, end, parent) in spans:
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
            if name.startswith("nn.sgd_step.") and (
                    parent < 0 or self.spans[parent][1] != "nn.dp_sgd_step"):
                plain_sgd[name] += end - start

        def prefixed(prefix, table):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        counts = self._counts[self.op]
        keys = self._keys[self.op]
        train_calls = prefixed("nn.train.", calls)
        dp_steps = calls["nn.per_example_gradients"]
        roc_calls = calls["evaluation.roc"]
        out = {f"nn.train.s.{role}": total[f"nn.train.{role}"] for role in TRAIN_ROLES}
        out.update({
            "nn.train.calls": train_calls,
            "nn.train.distinct_ratio": len(keys["nn.train"]) / train_calls if train_calls else 0.0,
            "nn.steps": prefixed("nn.backward.", calls) + dp_steps,
            "nn.model_builds": counts["nn.model_builds"],
        })
        for arch in STEP_ARCHS:
            steps = calls[f"nn.backward.{arch}"]
            busy = total[f"nn.backward.{arch}"] + plain_sgd[f"nn.sgd_step.{arch}"]
            out[f"nn.step_us.{arch}"] = busy / steps * 1e6 if steps else 0.0
        out["nn.dp_step_us"] = ((total["nn.per_example_gradients"] + total["nn.dp_sgd_step"])
                                / dp_steps * 1e6 if dp_steps else 0.0)
        out["nn.per_example_bytes"] = counts["nn.per_example_bytes"]
        out.update({
            "signals.perturbed_queries.s": total["signals.perturbed_queries"],
            "signals.rng_streams": counts["signals.rng_streams"],
            "signals.averaged_signal_batch.s": total["signals.averaged_signal_batch"],
            "attacks.self_s": prefixed("attacks.", own),
            "evaluation.compute_metrics.s": total["evaluation.compute_metrics"],
            "evaluation.roc.calls": roc_calls,
            "evaluation.roc.distinct_ratio": (len(keys["evaluation.roc"]) / roc_calls
                                              if roc_calls else 0.0),
            "pipeline.self_s": own["pipeline.run_pipeline"],
            "pipeline.write_artifacts.s": total["pipeline.write_artifacts"],
            "pipeline.artifact_files": counts["pipeline.artifact_files"],
            "pipeline.artifact_bytes": counts["pipeline.artifact_bytes"],
            "dataset.s": prefixed("dataset.", own),
            "config.load_config.s": total["config.load_config"],
            "cli.render_report.s": total["cli.render_report"],
        })
        return out

    def write_spans(self, path: str) -> None:
        """All spans as CSV: index, op, name, start, end, parent (seconds, perf_counter)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,op,name,start,end,parent\n")
            for i, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{op},{name},{start!r},{end!r},{parent}\n")


def summarize(per_op: list[dict]) -> tuple[dict, list[str]]:
    """Median over traced operations; the exact counts must agree across them."""
    problems = []
    summary = {}
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        if name in EXACT_COUNTS and len(set(values)) > 1:
            problems.append(f"{name} differs between traced operations: {values}")
        summary[name] = statistics.median(values)
    return summary, problems
