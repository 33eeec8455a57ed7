"""Tabular datasets, synthetic generation, and the target/shadow/reference split.

The attack protocol partitions one parent dataset into three equal thirds:
the victim's data (half train, half held out), the attacker's shadow data
(same halving), and a pool used to train reference models. All five index
lists are pairwise disjoint.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .seeding import derive_rng


class CsvParseError(ValueError):
    """CSV input violated the expected format; message names the offending cell."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TabularDataset:
    """Labeled feature records.

    features: (n, d) float64 matrix, all entries finite.
    labels: (n,) integer class indices in [0, num_classes).
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = _frozen(np.asarray(self.features, dtype=np.float64))
        labels = _frozen(np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if labels.ndim != 1 or len(labels) != feats.shape[0]:
            raise ValueError(
                f"labels length {labels.shape} does not match {feats.shape[0]} feature rows"
            )
        if not np.isfinite(feats).all():
            raise ValueError("features contain non-finite entries")
        if self.num_classes <= 0:
            raise ValueError("num_classes must be positive")
        if len(labels) and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """(features, labels) restricted to the given row indices."""
        idx = np.asarray(indices, dtype=np.int64)
        return self.features[idx], self.labels[idx]


@dataclass(frozen=True)
class DistributionSpec:
    """Isotropic Gaussian mixture: one component per class.

    class_means: (num_classes, feature_dim) matrix of component centers.
    cov_scale: per-coordinate standard deviation of every component (> 0).
    """

    num_classes: int
    feature_dim: int
    class_means: np.ndarray
    cov_scale: float
    seed: int

    def __post_init__(self):
        means = _frozen(np.asarray(self.class_means, dtype=np.float64))
        object.__setattr__(self, "class_means", means)
        if means.shape != (self.num_classes, self.feature_dim):
            raise ValueError(
                f"class_means shape {means.shape} != "
                f"({self.num_classes}, {self.feature_dim})"
            )
        if self.cov_scale <= 0:
            raise ValueError("cov_scale must be positive")
        for i in range(self.num_classes):
            for j in range(i + 1, self.num_classes):
                if np.array_equal(means[i], means[j]):
                    raise ValueError(f"class means {i} and {j} are identical")


def random_means(num_classes: int, feature_dim: int, spread: float, seed: int) -> np.ndarray:
    """Deterministic per-class mean vectors drawn from N(0, spread^2 I).

    Larger spread relative to ``cov_scale`` makes the classes easier to
    separate; pairwise-distinct with probability one.
    """
    rng = derive_rng(seed, "class-means")
    return rng.normal(0.0, spread, size=(num_classes, feature_dim))


def generate_synthetic(spec: DistributionSpec, n: int) -> TabularDataset:
    """Draw n samples class-balanced (counts differ by at most 1) from the mixture.

    Deterministic given spec.seed; two calls with the same arguments return
    bit-identical datasets.
    """
    if n < spec.num_classes:
        raise ValueError(f"need n >= num_classes, got n={n} < {spec.num_classes}")
    rng = derive_rng(spec.seed, "synthetic", n)
    base, extra = divmod(n, spec.num_classes)
    counts = [base + (1 if c < extra else 0) for c in range(spec.num_classes)]
    feats = np.empty((n, spec.feature_dim))
    labels = np.empty(n, dtype=np.int64)
    row = 0
    for c, count in enumerate(counts):
        feats[row : row + count] = spec.class_means[c] + rng.normal(
            0.0, spec.cov_scale, size=(count, spec.feature_dim)
        )
        labels[row : row + count] = c
        row += count
    order = rng.permutation(n)
    return TabularDataset(feats[order], labels[order], spec.num_classes)


def load_csv(path) -> TabularDataset:
    """Load a dataset from a UTF-8 CSV with a header and an integer `label` column.

    All other columns must parse as finite 64-bit floats; column order is
    preserved in the feature matrix. num_classes is inferred as max label + 1.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "label" not in header:
            raise CsvParseError(f"{path}: no column named 'label' in header {header}")
        label_col = header.index("label")
        feature_cols = [i for i in range(len(header)) if i != label_col]

        rows = []
        labels = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise CsvParseError(
                    f"{path}: row {lineno} has {len(record)} cells, expected {len(header)}"
                )
            raw_label = record[label_col].strip()
            try:
                label = int(raw_label)
            except ValueError:
                raise CsvParseError(
                    f"{path}: row {lineno}, column 'label': not an integer: {raw_label!r}"
                ) from None
            if label < 0:
                raise CsvParseError(f"{path}: row {lineno}, column 'label': negative label {label}")
            feats = []
            for i in feature_cols:
                cell = record[i].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"{path}: row {lineno}, column {header[i]!r}: not numeric: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise CsvParseError(
                        f"{path}: row {lineno}, column {header[i]!r}: non-finite value {cell!r}"
                    )
                feats.append(value)
            rows.append(feats)
            labels.append(label)

    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    return TabularDataset(np.array(rows), np.array(labels), max(labels) + 1)


def write_csv(path, dataset: TabularDataset) -> None:
    """Emit a dataset in the load_csv format with round-trip float formatting."""
    header = [f"x{i}" for i in range(dataset.feature_dim)] + ["label"]
    write_columns(path, header, [*dataset.features.T, dataset.labels])


def write_columns(path, header, columns, config_digest: str | None = None) -> None:
    """Write the one CSV format of every file this package emits.

    An optional comment line naming the config digest, the header, then one
    row per index of the equal-length columns, LF line endings. A float column
    is rendered in round-trip repr, once per column; any other cell as str,
    which must not hold a comma, a quote or a line break.
    """
    if len(columns) != len(header):
        raise ValueError(f"{path}: {len(columns)} columns for header {list(header)}")
    cells = []
    for name, column in zip(header, columns):
        column = np.asarray(column)
        is_float = column.dtype.kind == "f"
        rendered = list(map(repr if is_float else str, column.tolist()))
        joined = "" if is_float else "".join(rendered)
        if any(c in joined for c in ',"\r\n'):
            raise ValueError(f"{path}: column {name!r} holds a comma, quote or line break")
        cells.append(rendered)
    if len({len(c) for c in cells}) > 1:
        raise ValueError(f"{path}: columns differ in length: {[len(c) for c in cells]}")
    lines = [] if config_digest is None else [f"# config_digest={config_digest}"]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*cells)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_rows(path, header) -> list[list[str]]:
    """Data rows of a CSV in the write_columns format, skipping `#` lines.

    Raises ValueError naming the path when the header is missing or differs
    from `header`, or when a row's cell count differs from the header's.
    """
    header = list(header)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
    if not rows or rows[0] != header:
        found = rows[0] if rows else "none"
        raise ValueError(f"{path}: unexpected header {found}, expected {header}")
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: data row {i} has {len(row)} cells, expected {len(header)}")
    return rows[1:]


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint index lists into a parent dataset for the attack protocol.

    target_train/target_test and shadow_train/shadow_test are equal-sized
    pairs; reference_pool holds the remaining indices (at least one). When the
    dataset size is not a multiple of six, the leftover rows join the
    reference pool so no data is dropped.
    """

    target_train: tuple[int, ...]
    target_test: tuple[int, ...]
    shadow_train: tuple[int, ...]
    shadow_test: tuple[int, ...]
    reference_pool: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        for name in ("target_train", "target_test", "shadow_train", "shadow_test", "reference_pool"):
            object.__setattr__(self, name, tuple(int(i) for i in getattr(self, name)))
        groups = self._groups()
        total = sum(len(g) for g in groups.values())
        union = set().union(*(set(g) for g in groups.values()))
        if len(union) != total:
            raise ValueError("split index lists are not pairwise disjoint")
        if len(self.target_train) != len(self.target_test):
            raise ValueError("target train/test halves differ in size")
        if len(self.shadow_train) != len(self.shadow_test):
            raise ValueError("shadow train/test halves differ in size")
        if not self.reference_pool:
            raise ValueError("reference pool is empty")

    def _groups(self) -> dict[str, tuple[int, ...]]:
        return {
            "target_train": self.target_train,
            "target_test": self.target_test,
            "shadow_train": self.shadow_train,
            "shadow_test": self.shadow_test,
            "reference_pool": self.reference_pool,
        }

    def to_json(self, config_digest: str | None = None) -> str:
        payload = {name: list(idx) for name, idx in self._groups().items()}
        payload["seed"] = self.seed
        if config_digest is not None:
            payload["config_digest"] = config_digest
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SplitPlan":
        payload = json.loads(text)
        return cls(
            target_train=payload["target_train"],
            target_test=payload["target_test"],
            shadow_train=payload["shadow_train"],
            shadow_test=payload["shadow_test"],
            reference_pool=payload["reference_pool"],
            seed=payload.get("seed", 0),
        )


def make_split(dataset: TabularDataset, seed: int) -> SplitPlan:
    """Shuffle by seed and assign thirds to target, shadow, and reference roles.

    Target and shadow thirds are halved into train/test; the reference third
    (plus any remainder from integer division) becomes the training pool for
    reference models, which need no held-out half.
    """
    n = len(dataset)
    if n < 6:
        raise ValueError(f"need at least 6 samples to split, got {n}")
    perm = derive_rng(seed, "split", n).permutation(n)
    third = n // 3
    half = third // 2
    target = perm[: 2 * half]
    shadow = perm[2 * half : 4 * half]
    reference = perm[4 * half :]
    return SplitPlan(
        target_train=target[:half],
        target_test=target[half:],
        shadow_train=shadow[:half],
        shadow_test=shadow[half:],
        reference_pool=reference,
        seed=seed,
    )


def sample_reference_subset(plan: SplitPlan, fraction: float, seed: int):
    """Draw ceil(fraction * |pool|) indices from the reference pool without replacement."""
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    pool = np.asarray(plan.reference_pool, dtype=np.int64)
    k = math.ceil(fraction * len(pool))
    rng = derive_rng(seed, "refsubset", len(pool))
    return tuple(int(i) for i in rng.choice(pool, size=k, replace=False))
