"""The attack family: loss threshold, difficulty calibration, offline LiRA,
and the scoring-model attack (with its LiRA-shortcut variant).

Difficulty calibration subtracts the mean reference-model score from the raw
score, removing a sample's intrinsic easiness. The scoring-model attack feeds
both the raw and the calibrated score into a small sigmoid-output MLP trained
on shadow data, so extreme raw scores can veto calibration errors on
high-loss non-members.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import nn
from .dataset import read_rows, write_columns
from .signals import ScoreTable

VARIANCE_FLOOR = 1e-8
SCORES_HEADER = ("id", "score")

SCORING_HIDDEN_SIZES = (64, 64, 64)


@dataclass(frozen=True)
class GaussianFit:
    """Mean and variance of a score population (variance floored at 1e-8)."""

    mu: float
    sigma2: float

    def __post_init__(self):
        if self.sigma2 < VARIANCE_FLOOR:
            raise ValueError(f"sigma2 below the variance floor: {self.sigma2}")


@dataclass(frozen=True)
class GaussianPair:
    tar: GaussianFit
    ref: GaussianFit


@dataclass(frozen=True)
class AttackOutput:
    """Final per-sample membership scores of one attack."""

    name: str
    scores: np.ndarray
    config_digest: str = ""

    def __post_init__(self):
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        if self.scores.size and not np.isfinite(self.scores).all():
            raise ValueError(f"attack {self.name!r} produced non-finite scores")

    def to_csv(self, path, ids=None, config_digest: str | None = None) -> None:
        if ids is None:
            ids = list(range(len(self.scores)))
        digest = self.config_digest if config_digest is None else config_digest
        write_columns(path, SCORES_HEADER, [ids, self.scores], digest or None)

    def sidecar(self, seed: int) -> str:
        return json.dumps(
            {"attack": self.name, "config_digest": self.config_digest, "seed": seed},
            indent=2, sort_keys=True,
        )


def read_attack_scores_csv(path) -> tuple[list[str], np.ndarray]:
    """(ids, scores) from an attack-output CSV, skipping digest comments."""
    rows = read_rows(path, SCORES_HEADER)
    return [r[0] for r in rows], np.array([float(r[1]) for r in rows])


def fit_gaussian(samples) -> GaussianFit:
    """Sample mean and unbiased variance, floored so a degenerate population
    (all scores identical, as for a memorized point) stays usable."""
    xs = np.asarray(samples, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("cannot fit a Gaussian to an empty sample")
    mu = float(xs.mean())
    sigma2 = float(xs.var(ddof=1)) if xs.size > 1 else 0.0
    return GaussianFit(mu, max(sigma2, VARIANCE_FLOOR))


def gaussian_difference(pair: GaussianPair) -> GaussianFit:
    """Distribution of tar - ref for independent Gaussians: N(mu_tar - mu_ref,
    sigma2_tar + sigma2_ref)."""
    return GaussianFit(pair.tar.mu - pair.ref.mu, pair.tar.sigma2 + pair.ref.sigma2)


def calibrate(raw: np.ndarray, ref_scores: np.ndarray) -> np.ndarray:
    """Calibrated score: raw minus the per-sample mean over reference models.

    ref_scores has one column per reference model.
    """
    raw = np.asarray(raw, dtype=np.float64)
    ref = np.atleast_2d(np.asarray(ref_scores, dtype=np.float64))
    if ref.shape[1] == 0:
        raise ValueError("need at least one reference model column")
    if ref.shape[0] != raw.shape[0]:
        raise ValueError(f"{ref.shape[0]} reference rows for {raw.shape[0]} samples")
    return raw - ref.mean(axis=1)


def attack_loss(table: ScoreTable, config_digest: str = "") -> AttackOutput:
    """Raw-score threshold attack: the final score is the raw signal itself."""
    if table.raw is None:
        raise ValueError("score table has no raw scores")
    return AttackOutput("loss", table.raw.copy(), config_digest)


def attack_calibration(table: ScoreTable, config_digest: str = "") -> AttackOutput:
    """Difficulty-calibration attack: the final score is the calibrated score."""
    if table.calibrated is None:
        raise ValueError("score table has no calibrated scores")
    return AttackOutput("calibration", table.calibrated.copy(), config_digest)


def lira_offline_scores(raw: np.ndarray, out_scores: np.ndarray) -> np.ndarray:
    """Per-sample one-sided test against the OUT-score Gaussian.

    Fits (mu, sigma) to each sample's scores across the OUT models and returns
    Phi((raw - mu) / sigma): the probability that the observation exceeds a
    draw from the OUT distribution. Monotone in raw for fixed OUT scores.
    """
    raw = np.asarray(raw, dtype=np.float64)
    out = np.atleast_2d(np.asarray(out_scores, dtype=np.float64))
    if out.shape[1] == 0:
        raise ValueError("need at least one OUT-model score per sample")
    if out.shape[0] != raw.shape[0]:
        raise ValueError(f"{out.shape[0]} OUT rows for {raw.shape[0]} samples")
    mu = out.mean(axis=1)
    sigma2 = out.var(axis=1, ddof=1) if out.shape[1] > 1 else np.zeros(len(raw))
    sigma = np.sqrt(np.maximum(sigma2, VARIANCE_FLOOR))
    return ndtr((raw - mu) / sigma)


def attack_lira_offline(raw: np.ndarray, out_scores: np.ndarray,
                        config_digest: str = "") -> AttackOutput:
    return AttackOutput("lira_offline", lira_offline_scores(raw, out_scores), config_digest)


@dataclass(frozen=True)
class ScoringModel:
    """Sigmoid-output MLP over the standardized (raw, calibrated) score pair.

    Standardization statistics come from the shadow table the model was
    trained on and are reapplied verbatim at inference.
    """

    mlp: nn.MLPClassifier
    feature_mean: np.ndarray
    feature_std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "feature_mean", np.asarray(self.feature_mean, dtype=np.float64))
        object.__setattr__(self, "feature_std", np.asarray(self.feature_std, dtype=np.float64))
        if self.mlp.output_dim != 1:
            raise ValueError("scoring model must have a single output unit")
        if self.feature_mean.shape != (self.mlp.input_dim,) or self.feature_std.shape != (self.mlp.input_dim,):
            raise ValueError("standardization statistics do not match the input dimension")

    def score(self, features: np.ndarray) -> np.ndarray:
        """sigmoid(MLP(standardized features)), each value strictly inside (0, 1).

        Saturated sigmoids are clipped to the nearest representable interior
        doubles so the open-interval contract holds for any finite input.
        """
        f = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if f.shape[1] != self.mlp.input_dim:
            raise ValueError(f"expected {self.mlp.input_dim} features, got {f.shape[1]}")
        z = (f - self.feature_mean) / self.feature_std
        raw = nn.sigmoid(nn.forward(self.mlp, z)[:, 0])
        return np.clip(raw, np.finfo(float).tiny, np.nextafter(1.0, 0.0))

    def to_json(self) -> str:
        payload = self.mlp.to_dict()
        payload["feature_mean"] = self.feature_mean.tolist()
        payload["feature_std"] = self.feature_std.tolist()
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ScoringModel":
        payload = json.loads(text)
        return cls(
            mlp=nn.MLPClassifier.from_dict(payload),
            feature_mean=np.array(payload["feature_mean"]),
            feature_std=np.array(payload["feature_std"]),
        )


def _score_features(raw, second) -> np.ndarray:
    return np.column_stack([np.asarray(raw, dtype=np.float64),
                            np.asarray(second, dtype=np.float64)])


def train_scoring_model(table: ScoreTable, config: nn.TrainingConfig,
                        hidden_sizes=SCORING_HIDDEN_SIZES) -> ScoringModel:
    """Fit the scoring MLP on shadow (raw, calibrated) pairs with BCE loss.

    Features are z-scored with statistics computed here and stored in the
    model; a constant column keeps std 1 so it standardizes to exact zeros.
    """
    if table.calibrated is None:
        raise ValueError("shadow table needs calibrated scores to train the scoring model")
    members = int(table.is_member.sum())
    if members == 0 or members == len(table):
        raise ValueError("shadow table must contain both members and non-members")
    feats = _score_features(table.raw, table.calibrated)
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    z = (feats - mean) / std
    targets = table.is_member.astype(np.float64)
    layer_sizes = (feats.shape[1], *hidden_sizes, 1)
    mlp = nn.train(z, targets, config, layer_sizes, loss="bce")
    return ScoringModel(mlp, mean, std)


def attack_rapid(table: ScoreTable, scoring_model: ScoringModel,
                 config_digest: str = "") -> AttackOutput:
    """Scoring-model attack over (raw, calibrated) target scores."""
    if table.calibrated is None:
        raise ValueError("target table has no calibrated scores")
    scores = scoring_model.score(_score_features(table.raw, table.calibrated))
    return AttackOutput("rapid", scores, config_digest)


def attack_shortcut_lira(raw: np.ndarray, lira_scores: np.ndarray,
                         scoring_model: ScoringModel,
                         config_digest: str = "") -> AttackOutput:
    """Scoring-model attack with the calibrated column replaced by the
    offline-LiRA score; the model must have been trained on shadow
    (raw, lira) pairs."""
    scores = scoring_model.score(_score_features(raw, lira_scores))
    return AttackOutput("shortcut_lira", scores, config_digest)
