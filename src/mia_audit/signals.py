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
from .dataset import CsvParseError, finite_float, read_columns, write_columns
from .seeding import derive_seed, normal_rows


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
    kind and the log-probabilities read one forward pass over it; a model
    with one output unit has no classes to read, so it is refused.
    """
    kind = SignalKind(kind)
    acts, logp, y = nn._class_log_probs(model, x, y)
    rows = np.arange(len(y))
    if kind is SignalKind.LOSS:
        return logp[rows, y], logp
    if kind is SignalKind.CONFIDENCE:
        p = nn.softmax(acts[-1])[rows, y]
        if logit_scale:
            p = np.clip(p, 1e-300, 1.0 - 1e-16)
            return np.log(p) - np.log1p(-p), logp
        return p, logp
    delta, _ = nn._output_delta(acts[-1], y)
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
    """One eval set's per-sample scores with membership ground truth.

    `scores` maps each score the run computed on the set to its float64
    column, named after its attack and in attack order (see pipeline); every
    score is finite.
    """

    ids: list
    is_member: np.ndarray
    scores: dict

    def __post_init__(self):
        self.ids = list(self.ids)
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("sample ids must be unique")
        self.is_member = np.asarray(self.is_member, dtype=bool)
        self.scores = {name: np.asarray(col, dtype=np.float64) for name, col in self.scores.items()}
        n = len(self.ids)
        for name, col in {"is_member": self.is_member, **self.scores}.items():
            if col.shape != (n,):
                raise ValueError(f"{name} has shape {col.shape}, expected ({n},)")
            if col.dtype.kind == "f" and not np.isfinite(col).all():
                raise ValueError(f"attack {name!r} produced non-finite scores")

    def __len__(self) -> int:
        return len(self.ids)

    def to_csv(self, path, config_digest: str | None = None) -> None:
        """Columns id,is_member, then one per score, in the table's order."""
        write_columns(path, {"id": self.ids, "is_member": self.is_member.astype(np.int64),
                             **self.scores}, config_digest)

    @classmethod
    def from_csv(cls, path) -> "ScoreTable":
        """The table to_csv wrote, its score names taken off the header; a
        header that does not start with id,is_member, names no score or
        repeats a name, or a repeated id, raises CsvParseError naming the path."""
        table = read_columns(path, _score_rules)
        try:
            return cls(table.pop("id"), table.pop("is_member"), table)
        except ValueError as exc:
            raise CsvParseError(f"{path}: {exc}") from None


def _score_rules(header) -> dict:
    if header[:2] != ["id", "is_member"]:
        raise ValueError("does not start with id,is_member")
    if len(header) == 2:
        raise ValueError("names no score")
    return {"id": str, "is_member": _member_flag, **dict.fromkeys(header[2:], finite_float)}


def _member_flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {cell!r}")
    return cell == "1"
