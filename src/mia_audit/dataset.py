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
    """Load a dataset from a CSV in the write_columns format (see read_columns)
    with an integer `label` column.

    Labels must be nonnegative integers and all other columns finite floats,
    kept in column order as the feature matrix. num_classes is inferred as
    max label + 1.
    """
    table = read_columns(path, _dataset_rules)
    labels = table.pop("label")
    if not labels:
        raise CsvParseError(f"{path}: no data rows")
    features = np.array(list(table.values()), np.float64).reshape(len(table), len(labels))
    return TabularDataset(features.T, np.array(labels), max(labels) + 1)


def _dataset_rules(header) -> dict:
    if "label" not in header:
        raise ValueError("names no column 'label'")
    return {name: nonnegative_int if name == "label" else finite_float for name in header}


def write_csv(path, dataset: TabularDataset) -> None:
    """Emit a dataset in the load_csv format with round-trip float formatting."""
    table = {f"x{i}": column for i, column in enumerate(dataset.features.T)}
    write_columns(path, {**table, "label": dataset.labels})


def write_columns(path, table: dict, config_digest: str | None = None) -> None:
    """Write the one CSV format of every file this package emits; `table` maps
    each column's name, in order, to its values.

    An optional comment line naming the config digest, the header, then one
    row per index of the equal-length columns, LF line endings. A float cell
    is rendered in round-trip repr, any other cell as str, which must not hold
    a comma, a quote or a line break. Every column is checked before the file
    is opened; the rows are then rendered and written one at a time.
    """
    columns = [np.asarray(values) for values in table.values()]
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"{path}: columns differ in length: {[len(c) for c in columns]}")
    render = []
    for name, column in zip(table, columns):
        is_float = column.dtype.kind == "f"
        text = "" if is_float else "".join(map(str, column.tolist()))
        if any(c in text for c in ',"\r\n'):
            raise ValueError(f"{path}: column {name!r} holds a comma, quote or line break")
        render.append(_float_cell if is_float else str)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if config_digest is not None:
            fh.write(f"# config_digest={config_digest}\n")
        fh.write(",".join(table) + "\n")
        for row in zip(*columns):
            fh.write(",".join([cell(value) for cell, value in zip(render, row)]) + "\n")


def _float_cell(value) -> str:
    return repr(float(value))


def read_columns(path, rules) -> dict:
    """The inverse of write_columns: {column name: list of cells} of a UTF-8
    CSV, `#` and blank lines skipped and the header's names stripped.

    `rules` maps each column name, in header order, to the rule that converts
    its cells (raising ValueError on a bad one); for a header that depends on
    the file, it is a function of the header that returns that dict, or raises
    ValueError saying what is wrong with the header. A missing header, a
    repeated name, a header other than the rules', a row with the wrong cell
    count or a cell its rule rejects raises CsvParseError naming the path, and
    for a cell the data row and the column.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(ln for ln in fh if not ln.startswith("#")) if row]
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path}: not UTF-8 ({exc})") from None
    if not rows:
        raise CsvParseError(f"{path}: no header (empty file)")
    header = [name.strip() for name in rows[0]]
    try:
        if len(set(header)) != len(header):
            raise ValueError("repeats a name")
        rules = rules(header) if callable(rules) else rules
        if list(rules) != header:
            raise ValueError(f"is not {list(rules)}")
    except ValueError as exc:
        raise CsvParseError(f"{path}: header {header} {exc}") from None
    columns = {name: [] for name in header}
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise CsvParseError(f"{path}: data row {i} has {len(row)} cells, "
                                f"expected {len(header)}")
        for (name, convert), cell in zip(rules.items(), row):
            try:
                columns[name].append(convert(cell))
            except ValueError as exc:
                raise CsvParseError(f"{path}: data row {i} column {name!r}: {exc}") from None
    return columns


# The cell rules of read_columns: each converts one cell or raises ValueError.
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
