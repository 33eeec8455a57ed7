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
from .dataset import finite_float, read_rows, write_columns
from .seeding import derive_seed, normal_rows

SCORE_TABLE_HEADER = ("id", "is_member", "raw", "calibrated")


class SignalKind(str, enum.Enum):
    LOSS = "loss"
    CONFIDENCE = "confidence"
    GRADNORM = "gradnorm"


def signal_batch(model: nn.MLPClassifier, x: np.ndarray, y: np.ndarray,
                 kind: SignalKind, logit_scale: bool = False) -> np.ndarray:
    """Raw membership scores for a (n, d) batch, higher = more member-like.

    logit_scale applies log(p / (1 - p)) to confidence scores; it is ignored
    for the other kinds.
    """
    kind = SignalKind(kind)
    x, y = nn._labelled_batch(model, x, y)
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


def perturbed_queries(x: np.ndarray, ids, num_queries: int, noise_std: float,
                      seed: int) -> list[np.ndarray]:
    """The distinct query matrices for a batch: the original plus num_queries - 1
    jittered copies, or the original alone with one query or zero noise.

    Per-sample noise is drawn from an rng stream keyed on (seed, sample id,
    query index), never on evaluation order, so the same ids always see the
    same augmentations regardless of batching or which model is queried. Row
    `row` of copy j is x[row] plus default_rng(derive_seed(seed, "augment",
    ids[row], j)).normal(0, noise_std, d); normal_rows draws all of one copy's
    streams at once.
    """
    if num_queries < 1:
        raise ValueError("num_queries must be at least 1")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or len(ids) != x.shape[0]:
        raise ValueError(f"need one id per row of a (n, d) batch, got {len(ids)} ids "
                         f"for shape {x.shape}")
    out = [x]
    if noise_std == 0.0:
        return out
    for j in range(1, num_queries):
        seeds = [derive_seed(seed, "augment", sample_id, j) for sample_id in ids]
        out.append(x + normal_rows(seeds, noise_std, x.shape[1]))
    return out


def averaged_signal_batch(model: nn.MLPClassifier, queries: list[np.ndarray], y: np.ndarray,
                          kind: SignalKind, logit_scale: bool, counts) -> dict:
    """{q: mean of the per-query signal over queries[:q]} for each q in counts
    (see perturbed_queries for the matrices).

    One running sum in query order serves every q, so each mean equals the
    one over queries[:q] alone bit for bit, and only the matrices up to the
    largest q are scored. q = 1 gives signal_batch on queries[0] unchanged.
    """
    counts = set(counts)
    if not counts or min(counts) < 1 or max(counts) > len(queries):
        raise ValueError(f"query counts must lie in [1, {len(queries)}], got {sorted(counts)}")
    means = {}
    for q, xq in enumerate(queries[:max(counts)], start=1):
        signal = signal_batch(model, xq, y, kind, logit_scale)
        total = signal if q == 1 else total + signal
        if q in counts:
            means[q] = total / q
    return means


@dataclass
class ScoreTable:
    """Per-sample scores with membership ground truth.

    raw holds the (possibly query-averaged) signal from one model; calibrated
    is None when the run has no reference models.
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

    def to_csv(self, path, config_digest: str | None = None) -> None:
        """Columns id,is_member,raw,calibrated; empty cells when calibrated is absent."""
        calibrated = [""] * len(self) if self.calibrated is None else self.calibrated
        columns = [self.ids, self.is_member.astype(np.int64), self.raw, calibrated]
        write_columns(path, SCORE_TABLE_HEADER, columns, config_digest)

    @classmethod
    def from_csv(cls, path) -> "ScoreTable":
        rows = read_rows(path, SCORE_TABLE_HEADER, (str, _member_flag, finite_float,
                                                        _optional_float))
        calibrated = [r[3] for r in rows]
        if None in calibrated and any(v is not None for v in calibrated):
            raise ValueError(f"{path}: calibrated is blank in some rows but not all")
        return cls(ids=[r[0] for r in rows], is_member=[r[1] for r in rows],
                   raw=[r[2] for r in rows],
                   calibrated=None if None in calibrated else calibrated)


def _member_flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {cell!r}")
    return cell == "1"


def _optional_float(cell: str) -> float | None:
    return None if cell == "" else finite_float(cell)
