"""Membership signals, the query matrices they are averaged over, and score
tables.

Every signal is oriented so that a higher value means "more member-like":
loss is negated, confidence is the true-label probability, and the gradient
norm is negated. A run's raw score is the mean of the signal over the sample
and seeded Gaussian-jittered copies of it (the tabular analogue of image
augmentations), which damps the dependence of the score on the particular
model parameters; `perturbed_queries` builds those matrices and stage 2 of
`pipeline` keeps the running means over them, and each model's
log-probabilities on the first, unperturbed one.
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
                 kind: SignalKind, logit_scale: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(scores, log-probabilities) of a (n, d) batch: the raw membership
    scores, shape (n,) and higher = more member-like, and the model's (n, C)
    log-softmax, whose negated label column is each sample's loss.

    logit_scale applies log(p / (1 - p)) to confidence scores; it is ignored
    for the other kinds. The batch is checked once, and the scores of every
    kind and the log-probabilities read one forward pass over it.
    """
    kind = SignalKind(kind)
    x, y = nn._labelled_batch(model, x, y)
    acts = nn._forward_cached(model.weights, model.biases, x)
    logp = nn._log_softmax(acts[-1])
    rows = np.arange(len(y))
    if kind is SignalKind.LOSS:
        return logp[rows, y], logp
    if kind is SignalKind.CONFIDENCE:
        p = nn.softmax(acts[-1])[rows, y]
        if logit_scale:
            p = np.clip(p, 1e-300, 1.0 - 1e-16)
            return np.log(p) - np.log1p(-p), logp
        return p, logp
    delta, _ = nn._output_delta(acts[-1], y, "ce")
    return -np.sqrt(nn._sq_norms(acts, nn._layer_errors(model.weights, acts, delta))), logp


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
