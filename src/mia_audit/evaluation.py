"""ROC analysis, headline attack metrics and loss-bucket histograms.

All curves are empirical with a strict `score > threshold` decision rule and
no interpolation; the TPR-at-FPR rule is conservative (largest threshold set
would overstate, so we pick the smallest threshold whose empirical FPR does
not exceed the target and report the achieved FPR next to it).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import CsvParseError, finite_float, nonnegative_int, not_nan_float, read_columns

LOSS_BUCKETS = (("small", 0.0, 0.002), ("medium", 0.002, 1.0), ("large", 1.0, float("inf")))
NUM_BINS = 20  # histogram bins per score and loss bucket in loss_buckets.csv
# the columns of roc.csv and of loss_buckets.csv, each with the rule that reads its cells
ROC_HEADER = {"attack": str, "threshold": not_nan_float, "fpr": finite_float, "tpr": finite_float}
BUCKET_HEADER = {"score": str, "bucket": str, "bin_lo": finite_float, "bin_hi": finite_float,
                 "member_count": nonnegative_int, "nonmember_count": nonnegative_int}


@dataclass(frozen=True)
class TprAtFpr:
    tpr: float
    threshold: float
    achieved_fpr: float


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep: points ordered by descending threshold.

    The +inf sentinel contributes (fpr 0, tpr 0) and the -inf sentinel
    (1, 1); fpr and tpr are nondecreasing along the list. Every headline
    metric of an attack is read off this one curve.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float = field(init=False)

    def __post_init__(self):
        for name in ("thresholds", "fpr", "tpr"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        fpr, tpr = self.fpr, self.tpr
        if np.any(np.diff(fpr) < 0) or np.any(np.diff(tpr) < 0):
            raise ValueError("fpr/tpr must be nondecreasing along descending thresholds")
        if not (len(fpr) >= 2 and fpr[0] == tpr[0] == 0.0 and fpr[-1] == tpr[-1] == 1.0):
            raise ValueError("curve must run from (fpr 0, tpr 0) to (fpr 1, tpr 1)")
        # the trapezoidal integral equals the Mann-Whitney pair-ordering
        # statistic with ties counted half
        auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) * 0.5))
        if not (0.0 <= auc <= 1.0):
            raise ValueError(f"auc out of range: {auc}")
        object.__setattr__(self, "auc", auc)

    def tpr_at_fpr(self, target_fpr: float) -> TprAtFpr:
        """TPR at the smallest threshold whose empirical FPR stays within target.

        achieved_fpr <= target_fpr always holds (the +inf sentinel guarantees a
        feasible point); no interpolation is performed.
        """
        if not (0.0 < target_fpr < 1.0):
            raise ValueError(f"target_fpr must lie in (0, 1), got {target_fpr}")
        i = int(np.nonzero(self.fpr <= target_fpr)[0][-1])
        return TprAtFpr(float(self.tpr[i]), float(self.thresholds[i]), float(self.fpr[i]))

    def best_balanced_accuracy(self) -> float:
        """Balanced accuracy maximized over the threshold set (always >= 0.5)."""
        return float(np.max((self.tpr + 1.0 - self.fpr) / 2.0))


def _share_above(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Share of values strictly greater than each threshold."""
    values = np.sort(values)
    return (len(values) - np.searchsorted(values, thresholds, side="right")) / len(values)


def roc(scores, is_member) -> RocCurve:
    """Empirical ROC over the distinct score values plus +/-inf sentinels."""
    scores = np.asarray(scores, dtype=np.float64)
    member = np.asarray(is_member, dtype=bool)
    if scores.shape != member.shape or scores.ndim != 1:
        raise ValueError("scores and is_member must be matching 1-D arrays")
    if member.all() or not member.any():
        raise ValueError("need at least one member and one non-member")
    thresholds = np.concatenate([[np.inf], np.unique(scores)[::-1], [-np.inf]])
    return RocCurve(thresholds, _share_above(scores[~member], thresholds),
                    _share_above(scores[member], thresholds))


def roc_table(curves: dict) -> dict:
    """The columns of roc.csv, {header name: array}: each curve's points, in `curves` order."""
    parts = [([name] * len(c.fpr), c.thresholds, c.fpr, c.tpr) for name, c in curves.items()]
    return {key: np.concatenate(column) for key, column in zip(ROC_HEADER, zip(*parts))}


def read_roc_csv(path) -> dict:
    """{attack: RocCurve} of roc.csv, in file order. No rows, or an attack whose rows
    are split or not a valid curve, raise CsvParseError naming the path (and attack)."""
    table = read_columns(path, ROC_HEADER)
    if not table["attack"]:
        raise CsvParseError(f"{path}: no curve")
    curves = {}
    for attack, block in itertools.groupby(zip(*table.values()), key=lambda row: row[0]):
        try:
            if attack in curves:
                raise ValueError("its rows are not one block")
            curves[attack] = RocCurve(*np.array([row[1:] for row in block], np.float64).T)
        except ValueError as exc:
            raise CsvParseError(f"{path}: attack {attack!r}: {exc}") from None
    return curves


def loss_buckets(losses, calibrated, is_member) -> dict:
    """The columns of loss_buckets.csv, {header name: array}.

    Samples fall into the small/medium/large LOSS_BUCKETS by raw cross-entropy.
    Each score, `loss` (that raw loss) then `calibration` (`calibrated`), gets
    NUM_BINS rows per bucket, in bucket order: its histogram over the bucket's
    members and over its non-members. Bin edges are computed once per score
    over all samples, so the buckets' histograms share a common axis.
    """
    losses = np.asarray(losses, dtype=np.float64)
    member = np.asarray(is_member, dtype=bool)
    if np.any(losses < 0):
        raise ValueError("losses must be nonnegative cross-entropy values")
    parts = []
    for score, values in (("loss", losses), ("calibration", np.asarray(calibrated, np.float64))):
        edges = np.histogram_bin_edges(values, bins=NUM_BINS)
        for name, lo, hi in LOSS_BUCKETS:
            mask = (losses >= lo) & (losses < hi)
            parts.append(([score] * NUM_BINS, [name] * NUM_BINS, edges[:-1], edges[1:],
                          np.histogram(values[mask & member], bins=edges)[0],
                          np.histogram(values[mask & ~member], bins=edges)[0]))
    return {key: np.concatenate(column) for key, column in zip(BUCKET_HEADER, zip(*parts))}


@dataclass(frozen=True)
class MetricsReport:
    """Headline attack metrics: balanced accuracy is the maximum over the ROC
    threshold set (the same rule for every attack)."""

    balanced_accuracy: float
    auc: float
    tpr_at_fpr: dict[float, TprAtFpr] = field(default_factory=dict)

    def __post_init__(self):
        for value in (self.balanced_accuracy, self.auc):
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"metric out of [0, 1]: {value}")
        for level, entry in self.tpr_at_fpr.items():
            if not (0.0 <= entry.tpr <= 1.0 and 0.0 <= entry.achieved_fpr <= 1.0):
                raise ValueError(f"tpr_at_fpr[{level}] out of range")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["tpr_at_fpr"] = {repr(level): entry for level, entry in out["tpr_at_fpr"].items()}
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsReport":
        return cls(payload["balanced_accuracy"], payload["auc"],
                   {float(level): TprAtFpr(entry["tpr"], entry["threshold"], entry["achieved_fpr"])
                    for level, entry in payload["tpr_at_fpr"].items()})


def compute_metrics(curve: RocCurve, fpr_levels) -> MetricsReport:
    """An attack's headline metrics, all read off its ROC curve."""
    return MetricsReport(
        balanced_accuracy=curve.best_balanced_accuracy(),
        auc=curve.auc,
        tpr_at_fpr={float(level): curve.tpr_at_fpr(level) for level in fpr_levels},
    )
