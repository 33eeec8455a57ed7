"""Security-game harness, ROC analysis, threshold calibration, and ablation sweeps.

All curves are empirical with a strict `score > threshold` decision rule and
no interpolation; the TPR-at-FPR rule is conservative (largest threshold set
would overstate, so we pick the smallest threshold whose empirical FPR does
not exceed the target and report the achieved FPR next to it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import read_rows, write_columns
from .seeding import derive_rng

LOSS_BUCKETS = (("small", 0.0, 0.002), ("medium", 0.002, 1.0), ("large", 1.0, float("inf")))
ROC_HEADER = ("threshold", "fpr", "tpr")
BUCKET_HEADER = ("bucket", "bin_lo", "bin_hi", "member_count", "nonmember_count")


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep: points ordered by descending threshold.

    The +inf sentinel contributes (fpr 0, tpr 0) and the -inf sentinel
    (1, 1); fpr and tpr are nondecreasing along the list.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    def __post_init__(self):
        for name in ("thresholds", "fpr", "tpr"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if np.any(np.diff(self.fpr) < 0) or np.any(np.diff(self.tpr) < 0):
            raise ValueError("fpr/tpr must be nondecreasing along descending thresholds")
        if not (0.0 <= self.auc <= 1.0):
            raise ValueError(f"auc out of range: {self.auc}")

    def to_csv(self, path, config_digest: str | None = None) -> None:
        write_columns(path, ROC_HEADER, [self.thresholds, self.fpr, self.tpr], config_digest)

    @classmethod
    def from_csv(cls, path) -> "RocCurve":
        rows = read_rows(path, ROC_HEADER)
        thresholds, fpr, tpr = np.array(rows, dtype=np.float64).reshape(-1, 3).T
        auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) * 0.5))
        return cls(thresholds, fpr, tpr, auc)


def _check_classes(scores, is_member):
    scores = np.asarray(scores, dtype=np.float64)
    member = np.asarray(is_member, dtype=bool)
    if scores.shape != member.shape or scores.ndim != 1:
        raise ValueError("scores and is_member must be matching 1-D arrays")
    if member.all() or not member.any():
        raise ValueError("need at least one member and one non-member")
    return scores, member


def _counts_above(sorted_vals: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Number of values strictly greater than each threshold."""
    return len(sorted_vals) - np.searchsorted(sorted_vals, thresholds, side="right")


def roc(scores, is_member) -> RocCurve:
    """Empirical ROC over the distinct score values plus +/-inf sentinels.

    AUC is the trapezoidal integral over (fpr, tpr), which equals the
    Mann-Whitney pair-ordering statistic with ties counted half.
    """
    scores, member = _check_classes(scores, is_member)
    pos = np.sort(scores[member])
    neg = np.sort(scores[~member])
    uniq = np.unique(scores)
    thresholds = np.concatenate([[np.inf], uniq[::-1], [-np.inf]])
    tpr = _counts_above(pos, thresholds) / len(pos)
    fpr = _counts_above(neg, thresholds) / len(neg)
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) * 0.5))
    return RocCurve(thresholds, fpr, tpr, auc)


@dataclass(frozen=True)
class TprAtFpr:
    tpr: float
    threshold: float
    achieved_fpr: float


def tpr_at_fpr(scores, is_member, target_fpr: float) -> TprAtFpr:
    """TPR at the smallest threshold whose empirical FPR stays within target.

    achieved_fpr <= target_fpr always holds (the +inf sentinel guarantees a
    feasible point); no interpolation is performed.
    """
    if not (0.0 < target_fpr < 1.0):
        raise ValueError(f"target_fpr must lie in (0, 1), got {target_fpr}")
    curve = roc(scores, is_member)
    admissible = np.nonzero(curve.fpr <= target_fpr)[0]
    i = admissible[-1]
    return TprAtFpr(float(curve.tpr[i]), float(curve.thresholds[i]), float(curve.fpr[i]))


def balanced_accuracy(scores, is_member, threshold: float) -> float:
    """(TPR + TNR) / 2 at the given threshold with the strict > rule."""
    scores, member = _check_classes(scores, is_member)
    tpr = float(np.mean(scores[member] > threshold))
    tnr = float(np.mean(scores[~member] <= threshold))
    return (tpr + tnr) / 2.0


def best_balanced_accuracy(scores, is_member) -> float:
    """Balanced accuracy maximized over the ROC threshold set (always >= 0.5)."""
    curve = roc(scores, is_member)
    return float(np.max((curve.tpr + 1.0 - curve.fpr) / 2.0))


def calibrate_threshold(shadow_scores, shadow_is_member, target_fpr: float) -> float:
    """Smallest threshold whose FPR on the shadow non-members is within target.

    The returned threshold is meant to be applied to target-model scores; a
    target_fpr >= 1 degenerates to the accept-all threshold -inf.
    """
    scores = np.asarray(shadow_scores, dtype=np.float64)
    member = np.asarray(shadow_is_member, dtype=bool)
    neg = np.sort(scores[~member])
    if len(neg) == 0:
        raise ValueError("no shadow non-members to calibrate against")
    thresholds = np.concatenate([[np.inf], np.unique(scores)[::-1], [-np.inf]])
    fpr = _counts_above(neg, thresholds) / len(neg)
    admissible = np.nonzero(fpr <= target_fpr)[0]
    return float(thresholds[admissible[-1]])


@dataclass(frozen=True)
class GameRound:
    challenge_member: bool
    sample_id: object
    guess_member: bool
    correct: bool

    def __post_init__(self):
        if self.correct != (self.challenge_member == self.guess_member):
            raise ValueError("correct flag inconsistent with challenge and guess")


def run_security_game(scores, is_member, threshold: float, num_rounds: int, seed: int,
                      ids=None):
    """Play the coin-flip membership game.

    Each round flips an unbiased coin, draws a sample uniformly from the
    matching class, and guesses member iff score > threshold. Returns
    (rounds, mean correctness); the summary is None when num_rounds is 0.
    """
    scores, member = _check_classes(scores, is_member)
    if ids is None:
        ids = list(range(len(scores)))
    pos_idx = np.nonzero(member)[0]
    neg_idx = np.nonzero(~member)[0]
    rng = derive_rng(seed, "security-game")
    rounds: list[GameRound] = []
    correct_count = 0
    for _ in range(num_rounds):
        b = bool(rng.integers(0, 2))
        idx = int(rng.choice(pos_idx if b else neg_idx))
        guess = bool(scores[idx] > threshold)
        correct = guess == b
        correct_count += correct
        rounds.append(GameRound(b, ids[idx], guess, correct))
    summary = correct_count / num_rounds if num_rounds > 0 else None
    return rounds, summary


@dataclass(frozen=True)
class BucketHistogram:
    edges: np.ndarray
    member_counts: np.ndarray
    nonmember_counts: np.ndarray


@dataclass(frozen=True)
class LossBucket:
    name: str
    lo: float
    hi: float
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
    rows = read_rows(path, BUCKET_HEADER)
    return [{"bucket": r[0], "bin_lo": float(r[1]), "bin_hi": float(r[2]),
             "member_count": int(r[3]), "nonmember_count": int(r[4])} for r in rows]


def bucket_of_loss(loss: float) -> str:
    """Bucket name for a cross-entropy value; intervals are closed on the left."""
    if loss < 0:
        raise ValueError(f"negative loss {loss}")
    for name, lo, hi in LOSS_BUCKETS:
        if lo <= loss < hi:
            return name
    raise AssertionError("unreachable")


def loss_bucket_report(losses, calibrated, is_member, num_bins: int = 20) -> LossBucketReport:
    """Partition samples by raw cross-entropy into small/medium/large loss
    buckets and histogram raw losses and calibrated scores per bucket.

    Bin edges are computed once over all samples (per score type) so bucket
    histograms share a common axis.
    """
    losses = np.asarray(losses, dtype=np.float64)
    calibrated = np.asarray(calibrated, dtype=np.float64)
    member = np.asarray(is_member, dtype=bool)
    if np.any(losses < 0):
        raise ValueError("losses must be nonnegative cross-entropy values")
    raw_edges = np.histogram_bin_edges(losses, bins=num_bins)
    cal_edges = np.histogram_bin_edges(calibrated, bins=num_bins)
    buckets = []
    for name, lo, hi in LOSS_BUCKETS:
        mask = (losses >= lo) & (losses < hi)
        hists = []
        for values, edges in ((losses, raw_edges), (calibrated, cal_edges)):
            m_counts, _ = np.histogram(values[mask & member], bins=edges)
            n_counts, _ = np.histogram(values[mask & ~member], bins=edges)
            hists.append(BucketHistogram(edges, m_counts, n_counts))
        buckets.append(
            LossBucket(name, lo, hi, int((mask & member).sum()), int((mask & ~member).sum()),
                       hists[0], hists[1])
        )
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
        return {
            "balanced_accuracy": self.balanced_accuracy,
            "auc": self.auc,
            "tpr_at_fpr": {
                repr(level): {
                    "tpr": entry.tpr,
                    "threshold": entry.threshold,
                    "achieved_fpr": entry.achieved_fpr,
                }
                for level, entry in self.tpr_at_fpr.items()
            },
        }

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


def compute_metrics(scores, is_member, fpr_levels) -> MetricsReport:
    curve = roc(scores, is_member)
    return MetricsReport(
        balanced_accuracy=best_balanced_accuracy(scores, is_member),
        auc=curve.auc,
        tpr_at_fpr={float(level): tpr_at_fpr(scores, is_member, level) for level in fpr_levels},
    )


SWEEP_AXES = ("num_reference_models", "num_queries", "reference_sampling_mode")


@dataclass(frozen=True)
class SweepResult:
    """Per (axis value, seed) metrics for every attack, in long format."""

    axis: str
    rows: tuple[dict, ...]  # keys: axis, value, seed, metric, result

    def write_csv(self, path, config_digest: str | None = None) -> None:
        header = ("axis", "value", "seed", "metric", "result")
        write_columns(path, header, [[row[key] for row in self.rows] for key in header],
                      config_digest)

    def metric_by_value(self, metric: str) -> dict:
        """value -> mean of a metric over seeds."""
        sums: dict = {}
        counts: dict = {}
        for row in self.rows:
            if row["metric"] != metric:
                continue
            sums[row["value"]] = sums.get(row["value"], 0.0) + row["result"]
            counts[row["value"]] = counts.get(row["value"], 0) + 1
        return {v: sums[v] / counts[v] for v in sums}


def sweep(config, axis: str, values, seeds=None) -> SweepResult:
    """Rerun the pipeline per axis value (and per seed), all other seeds fixed.

    Because every stage seed is derived from the master seed by labeled
    hashing, changing the number of reference models or queries never
    perturbs the other stages, so differences along the axis reflect the axis
    alone.

    All runs of one call share one `trained` dict (see
    `pipeline.run_pipeline`), which lives for the call: each distinct
    (training slice, training config, layer sizes) is trained once and reused
    by every run that needs it, and every row equals that of a direct run.
    """
    from . import pipeline  # runtime import; pipeline depends on this module

    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("values must be nonempty")
    if seeds is None:
        seeds = [config.master_seed]
    rows = []
    trained: dict = {}
    for value in values:
        for seed in seeds:
            cfg = config.with_overrides(master_seed=seed, **{axis: value})
            result = pipeline.run_pipeline(cfg, trained)
            for attack in cfg.attacks:
                report = result.metrics[attack]
                entries = [("auc", report.auc), ("balanced_accuracy", report.balanced_accuracy)]
                entries += [(f"tpr_at_fpr_{repr(level)}", entry.tpr)
                            for level, entry in sorted(report.tpr_at_fpr.items())]
                for metric, res in entries:
                    rows.append({"axis": axis, "value": value, "seed": seed,
                                 "metric": f"{attack}.{metric}", "result": float(res)})
    return SweepResult(axis, tuple(rows))
