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
from dataclasses import asdict, dataclass

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


def random_means(num_classes: int, feature_dim: int, spread: float, seed: int) -> np.ndarray:
    """Deterministic per-class mean vectors drawn from N(0, spread^2 I).

    Larger spread relative to ``cov_scale`` makes the classes easier to
    separate; pairwise-distinct with probability one.
    """
    rng = derive_rng(seed, "class-means")
    return rng.normal(0.0, spread, size=(num_classes, feature_dim))


def generate_synthetic(class_means, cov_scale: float, n: int, seed: int) -> TabularDataset:
    """Draw n samples class-balanced (counts differ by at most 1) from an
    isotropic Gaussian mixture with one component per class.

    class_means: (num_classes, feature_dim) matrix of pairwise-distinct
    component centers; its shape gives the class count and the dimension.
    cov_scale: per-coordinate standard deviation of every component (> 0).
    Deterministic given seed; two calls with the same arguments return
    bit-identical datasets.
    """
    means = np.asarray(class_means, dtype=np.float64)
    if means.ndim != 2:
        raise ValueError(f"class_means must be 2-D, got shape {means.shape}")
    if not cov_scale > 0:
        raise ValueError("cov_scale must be positive")
    num_classes, feature_dim = means.shape
    for i in range(num_classes):
        for j in range(i + 1, num_classes):
            if np.array_equal(means[i], means[j]):
                raise ValueError(f"class means {i} and {j} are identical")
    if n < num_classes:
        raise ValueError(f"need n >= num_classes, got n={n} < {num_classes}")
    rng = derive_rng(seed, "synthetic", n)
    labels = np.sort(np.arange(n) % num_classes)  # the first n % num_classes classes get one more
    feats = rng.normal(0.0, cov_scale, size=(n, feature_dim))
    feats += means[labels]
    order = rng.permutation(n)
    return TabularDataset(feats[order], labels[order], num_classes)


def load_csv(path) -> TabularDataset:
    """Load a dataset from a UTF-8 CSV with a header and an integer `label` column.

    Blank and `#` lines are skipped. Labels must be nonnegative integers and all
    other columns finite floats, kept in column order as the feature matrix.
    num_classes is inferred as max label + 1.
    """
    rows = [row for row in _tokens(path) if row]
    if not rows:
        raise CsvParseError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if "label" not in header:
        raise CsvParseError(f"{path}: no column named 'label' in header {header}")
    label_col = header.index("label")
    types = [nonnegative_int if i == label_col else finite_float for i in range(len(header))]
    table = _typed_rows(path, header, types, rows[1:])
    if not table:
        raise CsvParseError(f"{path}: no data rows")
    labels = [row.pop(label_col) for row in table]
    return TabularDataset(np.array(table), np.array(labels), max(labels) + 1)


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


# The cell rules of read_rows and load_csv: each converts one cell or raises ValueError.
def finite_float(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {cell!r}")
    return value


def not_nan_float(cell: str) -> float:
    """A float that may be +/-inf (the ROC threshold sentinels) but not NaN."""
    value = float(cell)
    if math.isnan(value):
        raise ValueError(f"not a number: {cell!r}")
    return value


def nonnegative_int(cell: str) -> int:
    value = int(cell)
    if value < 0:
        raise ValueError(f"negative: {cell!r}")
    return value


def _tokens(path) -> list[list[str]]:
    """Every row of a UTF-8 CSV file, `#` lines skipped."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(ln for ln in fh if not ln.startswith("#")))
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path}: not UTF-8 ({exc})") from None


def _typed_rows(path, header, types, rows) -> list[list]:
    """`rows` (data row 1 follows the header), each cell converted by its column's
    rule in `types`; a wrong cell count or a cell the rule rejects raises
    CsvParseError naming the path, the data row and the column."""
    out = []
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise CsvParseError(f"{path}: data row {i} has {len(row)} cells, "
                                f"expected {len(header)}")
        cells = []
        for name, convert, cell in zip(header, types, row, strict=True):
            try:
                cells.append(convert(cell))
            except ValueError as exc:
                raise CsvParseError(f"{path}: data row {i} column {name!r}: {exc}") from None
        out.append(cells)
    return out


def read_rows(path, header, types) -> list[list]:
    """Data rows of a CSV in the write_columns format, `#` lines skipped, each
    cell converted by its column's rule in `types` (see _typed_rows); a header
    other than `header` raises CsvParseError naming the path."""
    header = list(header)
    rows = _tokens(path)
    if not rows or rows[0] != header:
        found = rows[0] if rows else "none"
        raise CsvParseError(f"{path}: unexpected header {found}, expected {header}")
    return _typed_rows(path, header, types, rows[1:])


_INDEX_FIELDS = ("target_train", "target_test", "shadow_train", "shadow_test", "reference_pool")


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
        for name in _INDEX_FIELDS:
            object.__setattr__(self, name, tuple(int(i) for i in getattr(self, name)))
        groups = [getattr(self, name) for name in _INDEX_FIELDS]
        if len(set().union(*groups)) != sum(map(len, groups)):
            raise ValueError("split index lists are not pairwise disjoint")
        if len(self.target_train) != len(self.target_test):
            raise ValueError("target train/test halves differ in size")
        if len(self.shadow_train) != len(self.shadow_test):
            raise ValueError("shadow train/test halves differ in size")
        if not self.reference_pool:
            raise ValueError("reference pool is empty")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, text: str) -> "SplitPlan":
        payload = json.loads(text)
        return cls(**{name: payload[name] for name in _INDEX_FIELDS}, seed=payload.get("seed", 0))


MIN_SPLIT_SAMPLES = 6  # so the target and shadow thirds get a train and a test row each


def make_split(dataset: TabularDataset, seed: int) -> SplitPlan:
    """Shuffle by seed and assign thirds to target, shadow, and reference roles.

    Target and shadow thirds are halved into train/test; the reference third
    (plus any remainder from integer division) becomes the training pool for
    reference models, which need no held-out half.
    """
    n = len(dataset)
    if n < MIN_SPLIT_SAMPLES:
        raise ValueError(f"need at least {MIN_SPLIT_SAMPLES} samples to split, got {n}")
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
