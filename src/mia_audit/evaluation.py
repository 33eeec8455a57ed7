"""ROC analysis, headline attack metrics and loss-bucket histograms.

All curves are empirical with a strict `score > threshold` decision rule and
no interpolation; the TPR-at-FPR rule is conservative (largest threshold set
would overstate, so we pick the smallest threshold whose empirical FPR does
not exceed the target and report the achieved FPR next to it).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import (finite_float, nonnegative_int, not_nan_float, read_rows,
                      write_columns)

LOSS_BUCKETS = (("small", 0.0, 0.002), ("medium", 0.002, 1.0), ("large", 1.0, float("inf")))
NUM_BINS = 20  # histogram bins per score type in a loss-bucket report
ROC_HEADER = ("threshold", "fpr", "tpr")
BUCKET_HEADER = ("bucket", "bin_lo", "bin_hi", "member_count", "nonmember_count")


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

    def to_csv(self, path, config_digest: str | None = None) -> None:
        write_columns(path, ROC_HEADER, [self.thresholds, self.fpr, self.tpr], config_digest)

    @classmethod
    def from_csv(cls, path) -> "RocCurve":
        rows = read_rows(path, ROC_HEADER, (not_nan_float, finite_float, finite_float))
        return cls(*np.array(rows, dtype=np.float64).reshape(-1, 3).T)


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


@dataclass(frozen=True)
class BucketHistogram:
    edges: np.ndarray
    member_counts: np.ndarray
    nonmember_counts: np.ndarray


@dataclass(frozen=True)
class LossBucket:
    name: str
    member_count: int
    nonmember_count: int
    raw_hist: BucketHistogram
    calibrated_hist: BucketHistogram


@dataclass(frozen=True)
class LossBucketReport:
    buckets: tuple[LossBucket, ...]

    def _write(self, path, which: str, config_digest: str | None) -> None:
        hists = [getattr(bucket, which) for bucket in self.buckets]
        write_columns(path, BUCKET_HEADER, [
            [b.name for b, h in zip(self.buckets, hists) for _ in h.member_counts],
            np.concatenate([h.edges[:-1] for h in hists]),
            np.concatenate([h.edges[1:] for h in hists]),
            np.concatenate([h.member_counts for h in hists]),
            np.concatenate([h.nonmember_counts for h in hists]),
        ], config_digest)

    def write_raw_csv(self, path, config_digest=None) -> None:
        self._write(path, "raw_hist", config_digest)

    def write_calibrated_csv(self, path, config_digest=None) -> None:
        self._write(path, "calibrated_hist", config_digest)


def read_bucket_csv(path) -> list[dict]:
    """Rows of a loss-bucket histogram CSV as dicts."""
    rows = read_rows(path, BUCKET_HEADER,
                     (str, finite_float, finite_float, nonnegative_int, nonnegative_int))
    return [dict(zip(BUCKET_HEADER, r)) for r in rows]


def loss_bucket_report(losses, calibrated, is_member) -> LossBucketReport:
    """Partition samples by raw cross-entropy into small/medium/large loss
    buckets and histogram raw losses and calibrated scores per bucket.

    Bin edges, NUM_BINS per score type, are computed once over all samples so
    bucket histograms share a common axis.
    """
    losses = np.asarray(losses, dtype=np.float64)
    calibrated = np.asarray(calibrated, dtype=np.float64)
    member = np.asarray(is_member, dtype=bool)
    if np.any(losses < 0):
        raise ValueError("losses must be nonnegative cross-entropy values")
    raw_edges = np.histogram_bin_edges(losses, bins=NUM_BINS)
    cal_edges = np.histogram_bin_edges(calibrated, bins=NUM_BINS)
    buckets = []
    for name, lo, hi in LOSS_BUCKETS:
        mask = (losses >= lo) & (losses < hi)
        hists = []
        for values, edges in ((losses, raw_edges), (calibrated, cal_edges)):
            m_counts, _ = np.histogram(values[mask & member], bins=edges)
            n_counts, _ = np.histogram(values[mask & ~member], bins=edges)
            hists.append(BucketHistogram(edges, m_counts, n_counts))
        buckets.append(LossBucket(name, int((mask & member).sum()),
                                  int((mask & ~member).sum()), *hists))
    return LossBucketReport(tuple(buckets))


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
        return cls(
            balanced_accuracy=payload["balanced_accuracy"],
            auc=payload["auc"],
            tpr_at_fpr={
                float(level): TprAtFpr(entry["tpr"], entry["threshold"], entry["achieved_fpr"])
                for level, entry in payload["tpr_at_fpr"].items()
            },
        )


def compute_metrics(curve: RocCurve, fpr_levels) -> MetricsReport:
    """An attack's headline metrics, all read off its ROC curve."""
    return MetricsReport(
        balanced_accuracy=curve.best_balanced_accuracy(),
        auc=curve.auc,
        tpr_at_fpr={float(level): curve.tpr_at_fpr(level) for level in fpr_levels},
    )
