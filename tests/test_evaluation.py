import re

import numpy as np
import pytest

from mia_audit import compute_metrics, loss_bucket_report, roc
from mia_audit.evaluation import RocCurve, read_bucket_csv
from mia_audit.pipeline import SWEEP_AXES, sweep
from mia_audit.seeding import derive_rng
from mia_audit.signals import ScoreTable

from oracles import run_security_game


def mann_whitney_auc(scores, is_member):
    """Brute-force pair-ordering statistic: ties count half."""
    scores = np.asarray(scores, dtype=float)
    member = np.asarray(is_member, dtype=bool)
    pos = scores[member]
    neg = scores[~member]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestRoc:
    def test_perfect_separation(self):
        curve = roc([3.0, 2.0, 1.0, 0.0], [True, True, False, False])
        assert curve.auc == 1.0

    def test_full_tie_half_credit(self):
        curve = roc([1.0, 1.0], [True, False])
        assert curve.auc == 0.5

    def test_sentinel_endpoints(self):
        curve = roc([0.2, 0.8], [False, True])
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert curve.thresholds[0] == np.inf and curve.thresholds[-1] == -np.inf

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_mann_whitney_oracle(self, trial):
        rng = derive_rng("roc-oracle", trial)
        n = int(rng.integers(5, 40))
        # quantized scores force plenty of ties
        scores = np.round(rng.normal(size=n), 1)
        member = rng.random(n) < 0.5
        if member.all() or not member.any():
            member[0] = not member[0]
        assert roc(scores, member).auc == pytest.approx(
            mann_whitney_auc(scores, member), abs=1e-12)

    def test_monotone_rates(self):
        rng = derive_rng("roc-mono")
        scores = rng.normal(size=500)
        member = rng.random(500) < 0.4
        curve = roc(scores, member)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_negation_identity(self):
        rng = derive_rng("roc-neg")
        scores = np.round(rng.normal(size=100), 1)
        member = rng.random(100) < 0.5
        assert roc(scores, member).auc == pytest.approx(
            1.0 - roc(-scores, member).auc, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc([1.0, 2.0], [True, True])

    def test_csv_export(self, tmp_path):
        curve = roc([0.2, 0.8], [False, True])
        path = tmp_path / "roc.csv"
        curve.to_csv(path, config_digest="cafe")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_digest=cafe"
        assert lines[1] == "threshold,fpr,tpr"
        assert len(lines) == 2 + len(curve.thresholds)
        assert RocCurve.from_csv(path).auc == curve.auc

    @pytest.mark.parametrize("rows", ["", "1.0,0.5,0.5\n0.0,1.0,1.0\n",
                                      "1.0,0.0,0.0\n0.0,0.5,1.0\n"],
                             ids=["no_points", "no_origin", "no_end"])
    def test_csv_curve_without_sentinel_endpoints_rejected(self, tmp_path, rows):
        # tpr_at_fpr relies on the (0, 0) point being admissible for every level
        path = tmp_path / "roc.csv"
        path.write_text("threshold,fpr,tpr\n" + rows, encoding="utf-8")
        with pytest.raises(ValueError, match="curve must run from"):
            RocCurve.from_csv(path)


# per loader, (file text, data row, column) of files with one unreadable cell
BAD_CELLS = {
    RocCurve.from_csv: [("threshold,fpr,tpr\ninf,0.0,0.0\n1.0,x,0.5\n", 2, "fpr"),
                        ("threshold,fpr,tpr\ninf,0.0,0.0\n1.0,nan,0.5\n-inf,1.0,1.0\n", 2, "fpr"),
                        ("threshold,fpr,tpr\ninf,0.0,0.0\nnan,0.5,0.5\n-inf,1.0,1.0\n", 2,
                         "threshold")],
    ScoreTable.from_csv: [("id,is_member,loss,rapid\na,1,-0.5,0.5\nb,0,-1.0,abc\n", 2, "rapid"),
                          ("id,is_member,loss,calibration\na,1,nan,1.0\n", 1, "loss"),
                          ("id,is_member,loss\na,1,-0.5\nb,2,-1.0\n", 2, "is_member")],
    read_bucket_csv: [("bucket,bin_lo,bin_hi,member_count,nonmember_count\n"
                       "small,0.0,0.002,two,1\n", 1, "member_count"),
                      ("bucket,bin_lo,bin_hi,member_count,nonmember_count\n"
                       "small,0.0,0.002,-3,1\n", 1, "member_count")],
}


@pytest.mark.parametrize("loader", [RocCurve.from_csv, ScoreTable.from_csv, read_bucket_csv],
                         ids=["roc", "score_table", "buckets"])
@pytest.mark.parametrize("text", ["", "# config_digest=abc\n", "wrong,header\n1,2\n",
                                  b"id,\xff\xfe\n", None],
                         ids=["empty", "digest_only", "wrong_header", "not_utf8", "bad_cell"])
def test_csv_loaders_reject_truncated_or_foreign_files(tmp_path, loader, text):
    path = tmp_path / "artifact.csv"
    cases = [(text, ": not UTF-8" if isinstance(text, bytes) else "")] if text is not None else [
        (bad, f": data row {row} column '{column}': ") for bad, row, column in BAD_CELLS[loader]]
    for content, where in cases:
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        with pytest.raises(ValueError, match=re.escape(str(path) + where)):
            loader(path)


@pytest.mark.parametrize("header, problem", [
    ("is_member,id,loss", "does not start with id,is_member"),
    ("id,is_member", "names no score"),
    ("id,is_member,loss,loss", "repeats a name"),
    ("id,is_member,id", "repeats a name"),
], ids=["no_prefix", "no_score", "repeated_score", "repeated_id"])
def test_score_table_header_rules(tmp_path, header, problem):
    path = tmp_path / "target_scores.csv"
    path.write_text(f"# config_digest=abc\n{header}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: header ") + f".* {problem}$"):
        ScoreTable.from_csv(path)


class TestTprAtFpr:
    def test_enumeration_example(self):
        scores = [0.9, 0.5, 0.1, 0.95, 0.8, 0.6]
        member = [False, False, False, True, True, True]
        got = roc(scores, member).tpr_at_fpr(1 / 3)
        assert got.tpr == 1.0
        assert got.achieved_fpr == pytest.approx(1 / 3)
        assert 0.5 <= got.threshold < 0.6

    def test_target_below_quantile_floor(self):
        scores = [0.9, 0.5, 0.1, 0.95, 0.8, 0.6]
        member = [False, False, False, True, True, True]
        got = roc(scores, member).tpr_at_fpr(0.01)
        assert got.achieved_fpr == 0.0
        assert got.threshold >= 0.9

    def test_exchangeable_scores_tpr_tracks_fpr(self):
        rng = derive_rng("tpr-null")
        scores = rng.random(20000)
        member = np.array([True] * 10000 + [False] * 10000)
        got = roc(scores, member).tpr_at_fpr(0.01)
        assert abs(got.tpr - 0.01) <= 0.01

    def test_achieved_never_exceeds_target(self):
        rng = derive_rng("tpr-bound")
        for trial in range(20):
            scores = np.round(rng.normal(size=50), 1)
            member = rng.random(50) < 0.5
            if member.all() or not member.any():
                member[0] = not member[0]
            target = float(rng.uniform(0.005, 0.5))
            assert roc(scores, member).tpr_at_fpr(target).achieved_fpr <= target

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            roc([1.0, 0.0], [True, False]).tpr_at_fpr(0.0)


class TestBalancedAccuracy:
    def test_arithmetic(self):
        # (TPR + TNR) / 2 per threshold with the strict > rule: 0.3 gives
        # (4/5 + 3/5) / 2 = 0.7, and the best, 0.9, gives (4/5 + 5/5) / 2 = 0.9
        members = [1.0, 1.0, 1.0, 1.0, 0.1]
        non = [0.9, 0.9, 0.3, 0.3, 0.3]
        curve = roc(members + non, [True] * 5 + [False] * 5)
        at = {t: (tpr + 1.0 - fpr) / 2 for t, fpr, tpr in zip(curve.thresholds, curve.fpr, curve.tpr)}
        assert at[0.3] == pytest.approx(0.7)
        assert curve.best_balanced_accuracy() == pytest.approx(0.9)

    def test_infinite_threshold_scores_half(self):
        # the +inf sentinel accepts nothing: TPR 0, TNR 1
        curve = roc([1.0, 0.0], [True, False])
        assert curve.thresholds[0] == np.inf
        assert (curve.tpr[0] + 1.0 - curve.fpr[0]) / 2 == 0.5

    def test_best_over_thresholds_at_least_half(self):
        rng = derive_rng("bal")
        for _ in range(10):
            scores = rng.normal(size=30)
            member = rng.random(30) < 0.5
            if member.all() or not member.any():
                member[0] = not member[0]
            assert roc(scores, member).best_balanced_accuracy() >= 0.5


class TestCalibrateThreshold:
    """The threshold an attacker reads off a shadow ROC curve at a target FPR
    (RocCurve.tpr_at_fpr): the smallest one whose non-member FPR is within
    the target."""

    def test_nine_value_example(self):
        scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        member = [False] * 9 + [True]
        got = roc(scores, member).tpr_at_fpr(1 / 9).threshold
        assert got == pytest.approx(0.8)

    @pytest.mark.parametrize("target_fpr", [-0.1, float("nan")], ids=["negative", "nan"])
    def test_negative_or_nan_target_rejected(self, target_fpr):
        with pytest.raises(ValueError, match="target_fpr"):
            roc([0.5, 0.1], [True, False]).tpr_at_fpr(target_fpr)

    def test_transfers_to_iid_target_within_binomial_bound(self):
        rng = derive_rng("cal-thresh")
        n = 2000
        target_fpr = 0.05
        shadow = rng.random(n)
        target = rng.random(n)
        member = np.zeros(n, dtype=bool)
        member[:1] = True  # the threshold only depends on non-members
        t = roc(shadow, member).tpr_at_fpr(target_fpr).threshold
        achieved = float(np.mean(target[~member[: len(target)]] > t))
        assert abs(achieved - target_fpr) <= 3 * np.sqrt(target_fpr / n)


class TestSecurityGame:
    def test_oracle_attacker_is_always_right(self):
        member = np.array([True] * 5 + [False] * 5)
        scores = member.astype(float)
        rounds, acc = run_security_game(scores, member, 0.5, 500, seed=1)
        assert acc == 1.0
        assert all(r.correct for r in rounds)

    def test_constant_scores_are_a_coin_flip(self):
        member = np.array([True] * 50 + [False] * 50)
        scores = np.zeros(100)
        _, acc = run_security_game(scores, member, 0.5, 10000, seed=3)
        assert abs(acc - 0.5) <= 0.02

    def test_zero_rounds(self):
        member = np.array([True, False])
        rounds, acc = run_security_game([1.0, 0.0], member, 0.5, 0, seed=0)
        assert rounds == [] and acc is None

    def test_coin_is_unbiased(self):
        member = np.array([True] * 3 + [False] * 3)
        rounds, _ = run_security_game(np.arange(6.0), member, 2.5, 10000, seed=5)
        frac_member = np.mean([r.challenge_member for r in rounds])
        assert abs(frac_member - 0.5) <= 4 / np.sqrt(10000)

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            run_security_game([1.0, 2.0], [True, True], 0.5, 10, seed=0)

    def test_round_records_sample_ids(self):
        member = np.array([True, False])
        rounds, _ = run_security_game([1.0, 0.0], member, 0.5, 20, seed=2,
                                      ids=["m", "n"])
        for r in rounds:
            assert r.sample_id == ("m" if r.challenge_member else "n")


def bucket_of_loss(loss: float) -> str:
    """The bucket loss_bucket_report counts a single member of this loss in."""
    report = loss_bucket_report([loss, 0.5], [0.0, 0.0], [True, False])
    return next(b.name for b in report.buckets if b.member_count)


class TestLossBuckets:
    def test_caption_ranges(self):
        assert bucket_of_loss(0.001) == "small"
        assert bucket_of_loss(0.5) == "medium"
        assert bucket_of_loss(3.2) == "large"

    def test_boundaries_half_open(self):
        assert bucket_of_loss(0.002) == "medium"
        assert bucket_of_loss(1.0) == "large"
        assert bucket_of_loss(0.0) == "small"

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            loss_bucket_report([-0.1], [0.0], [True])

    def test_counts_and_histograms(self):
        losses = [0.001, 0.5, 3.2, 0.0015]
        calibrated = [0.1, 0.2, 2.0, 0.0]
        member = [True, False, False, False]
        report = loss_bucket_report(losses, calibrated, member)
        by_name = {b.name: b for b in report.buckets}
        assert by_name["small"].member_count == 1
        assert by_name["small"].nonmember_count == 1
        assert by_name["medium"].nonmember_count == 1
        assert by_name["large"].nonmember_count == 1
        assert by_name["large"].member_count == 0
        for bucket in report.buckets:
            assert bucket.raw_hist.member_counts.sum() == bucket.member_count
            assert bucket.raw_hist.nonmember_counts.sum() == bucket.nonmember_count

    def test_csv_format(self, tmp_path):
        report = loss_bucket_report([0.001, 0.5], [0.1, 0.2], [True, False])
        path = tmp_path / "buckets.csv"
        report.write_raw_csv(path, config_digest="beef")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_digest=beef"
        assert lines[1] == "bucket,bin_lo,bin_hi,member_count,nonmember_count"
        assert len(lines) == 2 + 3 * 20  # three buckets x NUM_BINS = 20 bins


class TestMetricsReport:
    def test_round_trip(self):
        rng = derive_rng("metrics")
        scores = rng.normal(size=100)
        member = np.array([True] * 50 + [False] * 50)
        report = compute_metrics(roc(scores, member), [0.01, 0.1])
        from mia_audit import MetricsReport
        back = MetricsReport.from_dict(report.to_dict())
        assert back == report

    def test_metrics_in_range(self):
        rng = derive_rng("metrics2")
        scores = rng.normal(size=60)
        member = np.array([True] * 30 + [False] * 30)
        report = compute_metrics(roc(scores, member), [0.1])
        assert 0.0 <= report.auc <= 1.0
        assert report.balanced_accuracy >= 0.5


class TestSweepValidation:
    def test_unknown_axis_rejected(self):
        from mia_audit.config import ExperimentConfig
        with pytest.raises(ValueError, match="axis"):
            sweep(ExperimentConfig(), "nope", [1])

    def test_empty_values_rejected(self):
        from mia_audit.config import ExperimentConfig
        with pytest.raises(ValueError, match="nonempty"):
            sweep(ExperimentConfig(), SWEEP_AXES[0], [])

    def test_empty_seeds_rejected(self):
        # an empty seed list would sweep no run at all
        from mia_audit.config import ExperimentConfig
        with pytest.raises(ValueError, match="seeds must be nonempty"):
            sweep(ExperimentConfig(attacks=("loss",)), "num_queries", [1], seeds=[])

    @pytest.mark.parametrize("values, seeds, message", [
        ([2, 1, 2], None, "sweep value 2 is repeated"),
        ([2], [1, 1], "sweep seed 1 is repeated"),
    ])
    def test_repeated_value_or_seed_rejected(self, values, seeds, message):
        # a repeated value or seed would write each of its rows more than once
        from mia_audit.config import ExperimentConfig
        with pytest.raises(ValueError, match=message):
            sweep(ExperimentConfig(), "num_reference_models", values, seeds)
