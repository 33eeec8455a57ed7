"""Membership signals, multi-query averaging, and score tables.

Every signal is oriented so that a higher value means "more member-like":
loss is negated, confidence is the true-label probability, and the gradient
norm is negated. Multi-query averaging evaluates the signal on the sample
plus seeded Gaussian-jittered copies (the tabular analogue of image
augmentations) and averages, which damps the dependence of the score on the
particular model parameters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import nn
from .dataset import read_rows, write_columns
from .seeding import derive_rng

SCORE_TABLE_HEADER = ("id", "is_member", "raw", "calibrated")


class SignalKind(str, enum.Enum):
    LOSS = "loss"
    CONFIDENCE = "confidence"
    GRADNORM = "gradnorm"


@dataclass(frozen=True)
class QueryConfig:
    """Multi-query settings: query 1 is always the unperturbed sample."""

    num_queries: int = 1
    augmentation_noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_queries < 1:
            raise ValueError("num_queries must be at least 1")
        if self.augmentation_noise_std < 0:
            raise ValueError("augmentation_noise_std must be nonnegative")


def signal_batch(model: nn.MLPClassifier, x: np.ndarray, y: np.ndarray,
                 kind: SignalKind, logit_scale: bool = False) -> np.ndarray:
    """Raw membership scores for a (n, d) batch, higher = more member-like.

    logit_scale applies log(p / (1 - p)) to confidence scores; it is ignored
    for the other kinds.
    """
    kind = SignalKind(kind)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if len(y) and (y.min() < 0 or y.max() >= model.output_dim):
        raise ValueError(f"labels out of range for {model.output_dim} classes")
    if kind is SignalKind.LOSS:
        return -nn.per_sample_loss(model, x, y)
    if kind is SignalKind.CONFIDENCE:
        probs = nn.softmax(nn.forward(model, x))
        p = probs[np.arange(len(y)), y]
        if logit_scale:
            p = np.clip(p, 1e-300, 1.0 - 1e-16)
            return np.log(p) - np.log1p(-p)
        return p
    return -np.sqrt(nn.grad_sq_norms(model, x, y))


def signal(model: nn.MLPClassifier, x: np.ndarray, y: int,
           kind: SignalKind, logit_scale: bool = False) -> float:
    """Single-sample membership score."""
    return float(signal_batch(model, np.atleast_2d(x), [int(y)], kind, logit_scale)[0])


def perturbed_queries(x: np.ndarray, ids, q: QueryConfig) -> list[np.ndarray]:
    """The query matrices for a batch: the original plus num_queries - 1 jittered copies.

    Per-sample noise is drawn from an rng stream keyed on (q.seed, sample id,
    query index), never on evaluation order, so the same ids always see the
    same augmentations regardless of batching or which model is queried.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = [x]
    if q.num_queries == 1 or q.augmentation_noise_std == 0.0:
        return out + [x] * (q.num_queries - 1)
    d = x.shape[1]
    for j in range(1, q.num_queries):
        noise = np.empty_like(x)
        for row, sample_id in enumerate(ids):
            rng = derive_rng(q.seed, "augment", sample_id, j)
            noise[row] = rng.normal(0.0, q.augmentation_noise_std, size=d)
        out.append(x + noise)
    return out


def averaged_signal_batch(model: nn.MLPClassifier, x: np.ndarray, y: np.ndarray,
                          kind: SignalKind, q: QueryConfig, ids=None,
                          queries: list[np.ndarray] | None = None,
                          logit_scale: bool = False) -> np.ndarray:
    """Mean of the per-query signal over the original sample and its jitters."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if ids is None:
        ids = list(range(x.shape[0]))
    if queries is None:
        queries = perturbed_queries(x, ids, q)
    if q.num_queries == 1 or q.augmentation_noise_std == 0.0:
        return signal_batch(model, x, y, kind, logit_scale)
    total = np.zeros(x.shape[0])
    for xq in queries:
        total += signal_batch(model, xq, y, kind, logit_scale)
    return total / q.num_queries


def averaged_signal(model: nn.MLPClassifier, x: np.ndarray, y: int,
                    kind: SignalKind, q: QueryConfig, sample_id=0,
                    logit_scale: bool = False) -> float:
    """Single-sample multi-query score; with one query this equals signal()."""
    return float(
        averaged_signal_batch(model, np.atleast_2d(x), [int(y)], kind, q,
                              ids=[sample_id], logit_scale=logit_scale)[0]
    )


@dataclass
class ScoreTable:
    """Per-sample scores with membership ground truth.

    raw holds the (possibly query-averaged) signal from one model; calibrated
    stays None until the reference models fill it.
    """

    ids: list
    is_member: np.ndarray
    raw: np.ndarray
    calibrated: np.ndarray | None = None

    def __post_init__(self):
        self.ids = list(self.ids)
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("sample ids must be unique")
        self.is_member = np.asarray(self.is_member, dtype=bool)
        self.raw = np.asarray(self.raw, dtype=np.float64)
        if self.calibrated is not None:
            self.calibrated = np.asarray(self.calibrated, dtype=np.float64)
        n = len(self.ids)
        for name in ("is_member", "raw", "calibrated"):
            col = getattr(self, name)
            if col is None:
                continue
            if col.shape != (n,):
                raise ValueError(f"{name} has shape {col.shape}, expected ({n},)")
            if col.dtype.kind == "f" and not np.isfinite(col).all():
                raise ValueError(f"{name} contains non-finite scores")

    def __len__(self) -> int:
        return len(self.ids)

    def with_columns(self, calibrated=None) -> "ScoreTable":
        return ScoreTable(
            ids=self.ids,
            is_member=self.is_member,
            raw=self.raw,
            calibrated=self.calibrated if calibrated is None else calibrated,
        )

    def to_csv(self, path, config_digest: str | None = None) -> None:
        """Columns id,is_member,raw,calibrated; empty cells when calibrated is absent."""
        calibrated = [""] * len(self) if self.calibrated is None else self.calibrated
        columns = [self.ids, self.is_member.astype(np.int64), self.raw, calibrated]
        write_columns(path, SCORE_TABLE_HEADER, columns, config_digest)

    @classmethod
    def from_csv(cls, path) -> "ScoreTable":
        rows = read_rows(path, SCORE_TABLE_HEADER)
        calibrated = [r[3] for r in rows]
        return cls(ids=[r[0] for r in rows], is_member=[int(r[1]) for r in rows],
                   raw=[float(r[2]) for r in rows],
                   calibrated=None if "" in calibrated else [float(v) for v in calibrated])


def build_score_table(model: nn.MLPClassifier, x: np.ndarray, y: np.ndarray,
                      is_member, kind: SignalKind, q: QueryConfig,
                      ids=None, logit_scale: bool = False) -> ScoreTable:
    """Score every sample against one model and record membership ground truth."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("empty sample list")
    if ids is None:
        ids = list(range(x.shape[0]))
    raw = averaged_signal_batch(model, x, y, kind, q, ids=ids, logit_scale=logit_scale)
    return ScoreTable(ids=ids, is_member=np.asarray(is_member, dtype=bool), raw=raw)
