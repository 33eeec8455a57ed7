"""The attack family: loss threshold, difficulty calibration, offline LiRA,
and the scoring-model attack (rapid, and its LiRA-shortcut variant).

Every attack is a function of one eval set's raw scores and its reference
matrix. Difficulty calibration subtracts the mean reference-model score from
the raw score, removing a sample's intrinsic easiness. The scoring-model
attack feeds the raw score and a second feature (the calibrated score for
rapid, Phi of the offline-LiRA z for shortcut_lira) into a small sigmoid-output
MLP trained on shadow data, so extreme raw scores can veto calibration errors
on high-loss non-members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn

VARIANCE_FLOOR = 1e-8

_erfc = np.vectorize(math.erfc, otypes=[np.float64])

# Each threshold attack's score of one eval set, from its raw scores and its
# (n, R) reference-score matrix. The lambdas look the functions up at call
# time, so a wrapper installed on this module sees every call.
THRESHOLD_SCORES = {
    "loss": lambda raw, refs: raw,
    "calibration": lambda raw, refs: calibrate(raw, refs),
    "lira_offline": lambda raw, refs: lira_offline_scores(raw, refs),
}
# The scoring attacks: one scoring net over (raw, second feature), each with
# its second feature read off one eval set's threshold scores. shortcut_lira
# takes Phi(z), not z: the heavy-tailed z does not survive standardization.
SCORING_FEATURES = {
    "rapid": lambda scores: scores["calibration"],
    "shortcut_lira": lambda scores: normal_cdf(scores["lira_offline"]),
}


def _raw_and_matrix(raw, matrix, name: str) -> tuple[np.ndarray, np.ndarray]:
    """raw scores as an (n,) and `name` scores as an (n, R) float64 array,
    R >= 1; a ValueError names any shape that does not fit."""
    raw = np.asarray(raw, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    if raw.ndim != 1 or matrix.ndim != 2:
        raise ValueError(f"need 1-D raw scores and a 2-D {name} score matrix, got shapes "
                         f"{raw.shape} and {matrix.shape}")
    if matrix.shape[1] == 0:
        raise ValueError(f"need at least one {name} score per sample")
    if matrix.shape[0] != raw.shape[0]:
        raise ValueError(f"{matrix.shape[0]} {name} score rows for {raw.shape[0]} samples")
    return raw, matrix


def calibrate(raw: np.ndarray, ref_scores: np.ndarray) -> np.ndarray:
    """Calibrated score: raw minus the per-sample mean over reference models.

    ref_scores has one column per reference model.
    """
    raw, ref = _raw_and_matrix(raw, ref_scores, "reference")
    return raw - ref.mean(axis=1)


def normal_cdf(z) -> np.ndarray:
    """Standard normal CDF, Phi(z) = erfc(-z / sqrt(2)) / 2, elementwise.

    Multiplying by sqrt(1/2), not dividing by sqrt(2), rounds the argument as
    the Cephes ndtr does. Both are within about 2e-13 relative of the exact
    Phi down to z = -37.
    """
    return 0.5 * _erfc(np.asarray(z, dtype=np.float64) * -math.sqrt(0.5))


def lira_offline_scores(raw: np.ndarray, out_scores: np.ndarray) -> np.ndarray:
    """Per-sample one-sided test against the OUT-score Gaussian.

    Fits (mu, sigma) to each sample's scores across the OUT models and returns
    z = (raw - mu) / sigma; Phi(z) is the probability that the observation
    exceeds a draw from the OUT distribution. The test thresholds z itself:
    Phi rounds to exactly 0 or 1 for large |z|, where those scores would tie.
    Monotone in raw for fixed OUT scores. The fit is the sample mean and the
    unbiased (ddof=1) variance, floored at VARIANCE_FLOOR so a degenerate
    population (all scores identical, or a single OUT model) stays usable.
    """
    raw, out = _raw_and_matrix(raw, out_scores, "OUT")
    mu = out.mean(axis=1)
    sigma2 = out.var(axis=1, ddof=1) if out.shape[1] > 1 else np.zeros(len(raw))
    sigma = np.sqrt(np.maximum(sigma2, VARIANCE_FLOOR))
    return (raw - mu) / sigma


@dataclass(frozen=True)
class ScoringModel:
    """Sigmoid-output MLP over a standardized (raw, second feature) score pair.

    Standardization statistics come from the shadow features the model was
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
        """sigmoid(MLP(standardized features)), each value strictly inside (0, 1),
        for an (n, input_dim) feature matrix; it is checked before
        standardizing, whose broadcasting would hide a wrong shape.

        Saturated sigmoids are clipped to the nearest representable interior
        doubles so the open-interval contract holds for any finite input.
        """
        f = np.asarray(features, dtype=np.float64)
        if f.ndim != 2 or f.shape[1] != self.mlp.input_dim:
            raise ValueError(f"expected (n, {self.mlp.input_dim}) features, got shape {f.shape}")
        z = (f - self.feature_mean) / self.feature_std
        raw = nn.sigmoid(nn.forward(self.mlp, z)[:, 0])
        return np.clip(raw, np.finfo(float).tiny, np.nextafter(1.0, 0.0))


def scoring_features(features, is_member) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check one (n, 2) shadow feature matrix against the shadow membership and
    z-score it per column: returns (standardized features, mean, std).

    A scoring net trains on the standardized features against the membership
    with BCE loss, and ScoringModel(net, mean, std) reapplies the statistics
    at inference. A constant column keeps std 1 so it standardizes to exact
    zeros.
    """
    member = np.asarray(is_member, dtype=bool)
    if member.ndim != 1 or member.all() or not member.any():
        raise ValueError("shadow membership must contain both members and non-members")
    feats = np.asarray(features, dtype=np.float64)
    if feats.shape != (len(member), 2):
        raise ValueError(f"scoring features have shape {feats.shape}, expected ({len(member)}, 2)")
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (feats - mean) / std, mean, std
