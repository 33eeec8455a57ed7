import numpy as np
import pytest

from mia_audit import (AttackOutput, GaussianFit, GaussianPair, ScoreTable,
                       ScoringModel, TrainingConfig, attack_calibration, attack_loss,
                       attack_rapid, attack_shortcut_lira, calibrate, fit_gaussian,
                       gaussian_difference, roc, train_scoring_model)
from mia_audit.attacks import (VARIANCE_FLOOR, attack_lira_offline, lira_offline_scores,
                               read_attack_scores_csv)

PHI_1 = 0.8413447460685429  # standard normal CDF at 1, frozen from mpmath


def table(raw, member, calibrated=None):
    return ScoreTable(ids=list(range(len(raw))), is_member=member, raw=raw,
                      calibrated=calibrated)


class TestAttackLoss:
    def test_identity_passthrough(self):
        out = attack_loss(table([-0.1, -2.0], [True, False]))
        assert np.array_equal(out.scores, [-0.1, -2.0])
        assert out.name == "loss"

    def test_empty_table(self):
        out = attack_loss(ScoreTable(ids=[], is_member=[], raw=[]))
        assert len(out.scores) == 0


class TestCalibrate:
    def test_single_reference(self):
        got = calibrate(np.array([-0.1, -2.0]), np.array([[-0.5], [-0.5]]))
        assert np.allclose(got, [0.4, -1.5])

    def test_self_calibration_is_zero(self):
        raw = np.array([-0.3, -1.2, -4.0])
        refs = np.column_stack([raw, raw])
        assert np.array_equal(calibrate(raw, refs), np.zeros(3))

    def test_four_reference_mean(self):
        got = calibrate(np.array([-0.2]), np.array([[-0.1, -0.3, -0.2, -0.4]]))
        assert got[0] == pytest.approx(0.05, abs=1e-15)

    def test_zero_references_rejected(self):
        with pytest.raises(ValueError):
            calibrate(np.array([1.0]), np.zeros((1, 0)))

    def test_exactness_invariant(self):
        # S' + mean(refs) recovers S up to one rounding of the mean
        rng = np.random.default_rng(0)
        raw = rng.normal(size=200)
        refs = rng.normal(size=(200, 4))
        means = refs.mean(axis=1)
        back = calibrate(raw, refs) + means
        assert np.max(np.abs(back - raw)) <= np.finfo(float).eps * np.max(np.abs(raw)) * 4

    def test_attack_calibration_passthrough(self):
        t = table([-0.1, -2.0], [True, False], calibrated=[0.4, -1.5])
        out = attack_calibration(t)
        assert np.array_equal(out.scores, [0.4, -1.5])

    def test_attack_calibration_requires_column(self):
        with pytest.raises(ValueError):
            attack_calibration(table([-0.1], [True]))

    def test_high_loss_nonmember_pushed_memberward(self):
        # the calibration failure mode: raw -3 with reference mean -5 lands at +2
        got = calibrate(np.array([-3.0]), np.array([[-5.0]]))
        assert got[0] == pytest.approx(2.0)

    def test_easy_nonmember_drops_in_rank_after_calibration(self):
        # easy non-member (raw -0.05, ref mean -0.04) vs a member (raw -0.10,
        # ref mean -1.0): the loss attack ranks the non-member higher, the
        # calibrated attack flips the order
        raw = np.array([-0.05, -0.10])
        refs = np.array([[-0.04], [-1.0]])
        loss_scores = attack_loss(table(raw, [False, True])).scores
        cal_scores = calibrate(raw, refs)
        assert loss_scores[0] > loss_scores[1]
        assert cal_scores[0] == pytest.approx(-0.01)
        assert cal_scores[0] < cal_scores[1]


class TestFitGaussian:
    def test_degenerate_variance_floored(self):
        fit = fit_gaussian([1.0, 1.0, 1.0])
        assert fit.mu == 1.0
        assert fit.sigma2 == VARIANCE_FLOOR

    def test_two_point_unbiased_variance(self):
        fit = fit_gaussian([0.0, 2.0])
        assert fit.mu == 1.0
        assert fit.sigma2 == 2.0

    def test_single_point_floored(self):
        assert fit_gaussian([5.0]).sigma2 == VARIANCE_FLOOR

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_gaussian([])

    def test_monte_carlo_recovery(self):
        draws = np.random.default_rng(42).normal(3.0, 2.0, size=10000)
        fit = fit_gaussian(draws)
        assert abs(fit.mu - 3.0) < 0.1
        assert abs(fit.sigma2 - 4.0) < 0.3


class TestGaussianDifference:
    def test_symmetric_nonmember_case(self):
        out = gaussian_difference(GaussianPair(GaussianFit(-0.4, 0.04), GaussianFit(-0.4, 0.09)))
        assert out.mu == 0.0
        assert out.sigma2 == pytest.approx(0.13, abs=1e-15)

    def test_member_like_case(self):
        out = gaussian_difference(GaussianPair(GaussianFit(-0.05, 0.01), GaussianFit(-1.0, 0.04)))
        assert out.mu == pytest.approx(0.95, abs=1e-15)
        assert out.sigma2 == pytest.approx(0.05, abs=1e-15)

    def test_mean_antisymmetric_variance_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = GaussianFit(rng.normal(), float(rng.uniform(0.1, 2)))
            b = GaussianFit(rng.normal(), float(rng.uniform(0.1, 2)))
            fwd = gaussian_difference(GaussianPair(a, b))
            rev = gaussian_difference(GaussianPair(b, a))
            assert fwd.mu == -rev.mu
            assert fwd.sigma2 == rev.sigma2

    def test_monte_carlo_paired_draws(self):
        pair = GaussianPair(GaussianFit(-0.3, 0.5), GaussianFit(-1.1, 0.8))
        out = gaussian_difference(pair)
        n = 10**5
        rng = np.random.default_rng(7)
        diff = (rng.normal(pair.tar.mu, np.sqrt(pair.tar.sigma2), n)
                - rng.normal(pair.ref.mu, np.sqrt(pair.ref.sigma2), n))
        se_mean = np.sqrt(out.sigma2 / n)
        se_var = out.sigma2 * np.sqrt(2.0 / (n - 1))
        assert abs(diff.mean() - out.mu) < 3 * se_mean
        assert abs(diff.var(ddof=1) - out.sigma2) < 3 * se_var


class TestLiraOffline:
    def test_at_out_mean_scores_half(self):
        out = np.array([[-1.0, -3.0, -2.0, -2.0]])
        mu = out.mean()
        assert lira_offline_scores(np.array([mu]), out)[0] == pytest.approx(0.5, abs=1e-12)

    def test_one_sigma_above_matches_phi(self):
        out = np.array([[-1.0, -3.0, -2.0, -2.0]])
        mu, sigma = out.mean(), out.std(ddof=1)
        got = lira_offline_scores(np.array([mu + sigma]), out)[0]
        assert got == pytest.approx(PHI_1, abs=1e-12)

    def test_deep_tail_is_tiny_but_valid(self):
        out = np.array([[-1.0, -3.0, -2.0, -2.0]])
        mu, sigma = out.mean(), out.std(ddof=1)
        got = lira_offline_scores(np.array([mu - 10 * sigma]), out)[0]
        assert 0.0 <= got < 1e-15
        assert np.isfinite(got)

    def test_monotone_in_raw(self):
        rng = np.random.default_rng(2)
        out = rng.normal(size=(1, 6))
        raws = np.sort(rng.normal(size=40))
        scores = lira_offline_scores(raws, np.repeat(out, 40, axis=0))
        assert np.all(np.diff(scores) >= 0)

    def test_identical_out_scores_floored_not_crashing(self):
        got = lira_offline_scores(np.array([0.5, -0.5]), np.zeros((2, 4)))
        assert got[0] == 1.0  # far above a zero-variance-floored population
        assert got[1] == 0.0

    def test_empty_out_scores_rejected(self):
        with pytest.raises(ValueError):
            attack_lira_offline(np.array([1.0]), np.zeros((1, 0)))


def toy_shadow(n=200, member_at=(0.0, 3.0), non_at=(-3.0, 0.0), jitter=0.1, seed=0):
    rng = np.random.default_rng(seed)
    raw = np.concatenate([rng.normal(member_at[0], jitter, n), rng.normal(non_at[0], jitter, n)])
    cal = np.concatenate([rng.normal(member_at[1], jitter, n), rng.normal(non_at[1], jitter, n)])
    member = np.array([True] * n + [False] * n)
    return ScoreTable(ids=list(range(2 * n)), is_member=member, raw=raw, calibrated=cal)


def scoring_config(**kw):
    defaults = dict(learning_rate=0.05, momentum=0.9, weight_decay=0.0, batch_size=64,
                    epochs=60, cosine_schedule=True, seed=0)
    defaults.update(kw)
    return TrainingConfig(**defaults)


class TestScoringModel:
    def test_separable_shadow_reaches_full_accuracy(self):
        from mia_audit import balanced_accuracy
        shadow = toy_shadow()
        model = train_scoring_model(shadow, scoring_config())
        scores = model.score(np.column_stack([shadow.raw, shadow.calibrated]))
        assert np.mean((scores > 0.5) == shadow.is_member) == 1.0
        assert balanced_accuracy(scores, shadow.is_member, 0.5) == 1.0

    def test_zero_epochs_uninformative(self):
        # exchangeable shadow scores: membership carries no signal, so an
        # untrained model scores at chance regardless of its random weights
        aucs = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            n = 400
            shadow = ScoreTable(ids=list(range(n)), is_member=[True] * (n // 2) + [False] * (n // 2),
                                raw=rng.normal(-1.0, 0.7, n), calibrated=rng.normal(0.5, 0.7, n))
            model = train_scoring_model(shadow, scoring_config(epochs=0, seed=seed))
            scores = model.score(np.column_stack([shadow.raw, shadow.calibrated]))
            assert np.all((scores > 0) & (scores < 1))
            aucs.append(roc(scores, shadow.is_member).auc)
        assert abs(float(np.mean(aucs)) - 0.5) <= 0.1

    def test_deterministic(self):
        shadow = toy_shadow()
        a = train_scoring_model(shadow, scoring_config())
        b = train_scoring_model(shadow, scoring_config())
        for wa, wb in zip(a.mlp.parameters(), b.mlp.parameters()):
            assert np.array_equal(wa, wb)

    def test_single_class_rejected(self):
        shadow = toy_shadow()
        bad = ScoreTable(ids=shadow.ids, is_member=[True] * len(shadow),
                         raw=shadow.raw, calibrated=shadow.calibrated)
        with pytest.raises(ValueError):
            train_scoring_model(bad, scoring_config())

    def test_missing_calibrated_rejected(self):
        shadow = toy_shadow()
        bad = ScoreTable(ids=shadow.ids, is_member=shadow.is_member, raw=shadow.raw)
        with pytest.raises(ValueError):
            train_scoring_model(bad, scoring_config())

    def test_json_round_trip(self):
        model = train_scoring_model(toy_shadow(), scoring_config(epochs=2))
        back = ScoringModel.from_json(model.to_json())
        probe = np.array([[0.2, 1.5], [-2.0, 0.3]])
        assert np.array_equal(back.score(probe), model.score(probe))


class TestAttackRapid:
    def test_outputs_in_unit_interval(self):
        shadow = toy_shadow()
        model = train_scoring_model(shadow, scoring_config(epochs=5))
        out = attack_rapid(shadow, model)
        assert np.all((out.scores > 0) & (out.scores < 1))

    def test_shortcut_vetoes_high_loss_nonmember(self):
        # shadow data embodies the calibration failure mode: non-members with
        # high calibrated score but very low raw score
        rng = np.random.default_rng(3)
        n = 300
        raw = np.concatenate([rng.normal(-0.05, 0.05, n),    # members: tiny loss
                              rng.normal(-3.0, 0.5, n)])     # non-members: large loss
        cal = np.concatenate([rng.normal(2.0, 0.5, n),
                              rng.normal(2.0, 0.5, n)])      # calibration fooled for both
        shadow = ScoreTable(ids=list(range(2 * n)), is_member=[True] * n + [False] * n,
                            raw=raw, calibrated=cal)
        model = train_scoring_model(shadow, scoring_config())
        fooled_nonmember = model.score(np.array([[-3.0, 2.0]]))[0]
        true_member = model.score(np.array([[-0.01, 2.0]]))[0]
        assert fooled_nonmember < true_member

    def test_rescaling_absorbed_by_standardization(self):
        # power-of-two rescaling of both shadow and target inputs is exact
        shadow = toy_shadow()
        target = toy_shadow(seed=9)
        model = train_scoring_model(shadow, scoring_config(epochs=10))
        base = attack_rapid(target, model).scores

        scaled_shadow = ScoreTable(ids=shadow.ids, is_member=shadow.is_member,
                                   raw=4.0 * shadow.raw, calibrated=4.0 * shadow.calibrated)
        scaled_target = ScoreTable(ids=target.ids, is_member=target.is_member,
                                   raw=4.0 * target.raw, calibrated=4.0 * target.calibrated)
        scaled_model = train_scoring_model(scaled_shadow, scoring_config(epochs=10))
        scaled = attack_rapid(scaled_target, scaled_model).scores
        assert np.array_equal(base, scaled)

    def test_missing_columns_rejected(self):
        shadow = toy_shadow()
        model = train_scoring_model(shadow, scoring_config(epochs=2))
        with pytest.raises(ValueError):
            attack_rapid(ScoreTable(ids=[0], is_member=[True], raw=[0.0]), model)

    def test_open_interval_holds_even_for_saturating_inputs(self):
        model = train_scoring_model(toy_shadow(), scoring_config(epochs=5))
        extreme = np.array([[1e12, 1e12], [-1e12, -1e12], [1e12, -1e12]])
        scores = model.score(extreme)
        assert np.all((scores > 0.0) & (scores < 1.0))


class TestAttackShortcutLira:
    def test_outputs_in_unit_interval(self):
        shadow = toy_shadow()
        model = train_scoring_model(shadow, scoring_config(epochs=5))
        out = attack_shortcut_lira(shadow.raw, shadow.calibrated, model)
        assert np.all((out.scores > 0) & (out.scores < 1))
        assert out.name == "shortcut_lira"

    def test_constant_lira_column_degenerates_to_loss_ordering(self):
        rng = np.random.default_rng(5)
        n = 300
        raw = np.concatenate([rng.normal(-0.2, 0.2, n), rng.normal(-2.0, 0.5, n)])
        member = np.array([True] * n + [False] * n)
        shadow = ScoreTable(ids=list(range(2 * n)), is_member=member, raw=raw,
                            calibrated=np.full(2 * n, 0.7))
        model = train_scoring_model(shadow, scoring_config())
        target_raw = rng.normal(-1.0, 1.0, 100)
        out = attack_shortcut_lira(target_raw, np.full(100, 0.7), model)
        member_t = target_raw > np.median(target_raw)
        assert roc(out.scores, member_t).auc == pytest.approx(
            roc(target_raw, member_t).auc, abs=1e-9)


class TestAttackOutput:
    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError):
            AttackOutput("x", [np.nan])

    def test_csv_and_sidecar(self, tmp_path):
        out = AttackOutput("loss", [-0.5, -1.25], config_digest="abc123")
        path = tmp_path / "scores_loss.csv"
        out.to_csv(path, ids=["s1", "s2"])
        text = path.read_text()
        assert "# config_digest=abc123" in text
        assert "s1,-0.5" in text
        ids, scores = read_attack_scores_csv(path)
        assert ids == ["s1", "s2"]
        assert np.array_equal(scores, out.scores)
        sidecar = out.sidecar(seed=7)
        assert '"attack": "loss"' in sidecar
        assert '"seed": 7' in sidecar
