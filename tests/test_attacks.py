import re

import numpy as np
import pytest

from mia_audit import ScoringModel, TrainingConfig, calibrate, init_classifier, roc
from mia_audit.attacks import THRESHOLD_SCORES, VARIANCE_FLOOR, lira_offline_scores, normal_cdf
from mia_audit.config import ExperimentConfig

from oracles import GaussianFit, GaussianPair, gaussian_difference, train_scoring_models

PHI_1 = 0.8413447460685429  # standard normal CDF at 1, frozen from mpmath
SCORING_SIZES = ExperimentConfig().scoring_hidden_sizes


class TestAttackLoss:
    def test_identity_passthrough(self):
        raw = np.array([-0.1, -2.0])
        assert np.array_equal(THRESHOLD_SCORES["loss"](raw, None), [-0.1, -2.0])

    def test_empty_table(self):
        assert len(THRESHOLD_SCORES["loss"](np.zeros(0), None)) == 0


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
        raw = np.array([-0.1, -2.0])
        refs = np.array([[-0.5], [-0.5]])
        assert np.array_equal(THRESHOLD_SCORES["calibration"](raw, refs), calibrate(raw, refs))

    def test_attack_calibration_requires_column(self):
        # one reference row per sample
        with pytest.raises(ValueError):
            THRESHOLD_SCORES["calibration"](np.array([-0.1]), np.zeros((2, 1)))

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
        loss_scores = THRESHOLD_SCORES["loss"](raw, refs)
        cal_scores = calibrate(raw, refs)
        assert loss_scores[0] > loss_scores[1]
        assert cal_scores[0] == pytest.approx(-0.01)
        assert cal_scores[0] < cal_scores[1]


class TestFitGaussian:
    """The OUT-score fit inside lira_offline_scores: mean, ddof=1 variance,
    floored at VARIANCE_FLOOR. A raw score one fitted sigma above the mean
    scores z = 1."""

    def test_degenerate_variance_floored(self):
        sigma = np.sqrt(VARIANCE_FLOOR)
        got = lira_offline_scores(np.array([1.0 + sigma]), np.array([[1.0, 1.0, 1.0]]))
        assert got[0] == pytest.approx(1.0, abs=1e-6)

    def test_two_point_unbiased_variance(self):
        # mean 1, ddof=1 variance 2 (ddof=0 would give 1)
        got = lira_offline_scores(np.array([1.0 + np.sqrt(2.0)]), np.array([[0.0, 2.0]]))
        assert got[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_point_floored(self):
        sigma = np.sqrt(VARIANCE_FLOOR)
        got = lira_offline_scores(np.array([5.0 + sigma, 5.0]), np.array([[5.0], [5.0]]))
        assert got[0] == pytest.approx(1.0, abs=1e-6)
        assert got[1] == 0.0

    def test_monte_carlo_recovery(self):
        # 10^4 OUT draws of N(3, 4): raw 5 sits one fitted sigma above the mean
        draws = np.random.default_rng(42).normal(3.0, 2.0, size=(1, 10000))
        got = lira_offline_scores(np.array([5.0]), draws)
        assert abs(got[0] - 1.0) < 0.04  # about 0.01 in Phi(z)


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
        got = lira_offline_scores(np.array([mu]), out)
        assert got[0] == pytest.approx(0.0, abs=1e-12)
        assert normal_cdf(got)[0] == pytest.approx(0.5, abs=1e-12)

    def test_one_sigma_above_matches_phi(self):
        out = np.array([[-1.0, -3.0, -2.0, -2.0]])
        mu, sigma = out.mean(), out.std(ddof=1)
        got = lira_offline_scores(np.array([mu + sigma]), out)
        assert got[0] == pytest.approx(1.0, abs=1e-12)
        assert normal_cdf(got)[0] == pytest.approx(PHI_1, abs=1e-12)

    def test_deep_tail_is_tiny_but_valid(self):
        out = np.array([[-1.0, -3.0, -2.0, -2.0]])
        mu, sigma = out.mean(), out.std(ddof=1)
        got = lira_offline_scores(np.array([mu - 10 * sigma]), out)
        assert got[0] == pytest.approx(-10.0, abs=1e-12)
        assert 0.0 <= normal_cdf(got)[0] < 1e-15

    def test_monotone_in_raw(self):
        rng = np.random.default_rng(2)
        out = rng.normal(size=(1, 6))
        raws = np.sort(rng.normal(size=40))
        scores = lira_offline_scores(raws, np.repeat(out, 40, axis=0))
        assert np.all(np.diff(scores) >= 0)

    def test_identical_out_scores_floored_not_crashing(self):
        got = lira_offline_scores(np.array([0.5, -0.5]), np.zeros((2, 4)))
        # far above and below a zero-variance-floored population (sigma 1e-4)
        assert np.allclose(got, [5000.0, -5000.0], rtol=1e-12, atol=0)

    def test_far_tail_scores_do_not_tie(self):
        # Phi(9) and Phi(10) both round to 1.0; their z keep the order
        out = np.array([[-1.0, -3.0, -2.0, -2.0]] * 2)
        mu, sigma = out[0].mean(), out[0].std(ddof=1)
        got = lira_offline_scores(mu + np.array([9.0, 10.0]) * sigma, out)
        assert np.all(normal_cdf(got) == 1.0)
        assert got[0] < got[1]

    def test_empty_out_scores_rejected(self):
        with pytest.raises(ValueError):
            lira_offline_scores(np.array([1.0]), np.zeros((1, 0)))


class TestInputShapes:
    # raw is one score per sample and the reference scores one row per
    # sample: a column of raw scores or a flat reference list is refused, not
    # broadcast or read as one sample
    @pytest.mark.parametrize("attack", [calibrate, lira_offline_scores])
    @pytest.mark.parametrize("raw, refs, shapes", [
        (np.zeros((3, 1)), np.ones((3, 2)), "(3, 1) and (3, 2)"),
        (np.zeros(1), np.ones(4), "(1,) and (4,)"),
    ])
    def test_raw_must_be_1d_and_references_2d(self, attack, raw, refs, shapes):
        with pytest.raises(ValueError, match=re.escape(f"got shapes {shapes}")):
            attack(raw, refs)

    def test_scoring_features_must_be_2d(self):
        model = ScoringModel(init_classifier([2, 4, 1], 0), [0.0, 0.0], [1.0, 1.0])
        assert model.score(np.zeros((1, 2))).shape == (1,)
        with pytest.raises(ValueError, match=re.escape("got shape (2,)")):
            model.score(np.zeros(2))


def test_normal_cdf_pinned_to_ndtr():
    from scipy.special import ndtr  # the oracle; the package itself does not import scipy

    assert normal_cdf(0.0) == 0.5
    z = np.linspace(-38.0, 38.0, 20001)
    phi = normal_cdf(z)
    assert np.all(np.diff(phi) >= 0)
    assert np.max(np.abs(phi + normal_cdf(-z) - 1.0)) <= 2.0 ** -52
    lower, upper = (z >= -37.0) & (z <= 0.0), z >= 0.0
    assert np.max(np.abs(phi[lower] - ndtr(z[lower])) / ndtr(z[lower])) <= 2e-13
    assert np.max(np.abs(phi[upper] - ndtr(z[upper]))) <= 4.5e-16


def toy_shadow(n=200, member_at=(0.0, 3.0), non_at=(-3.0, 0.0), jitter=0.1, seed=0):
    """(features, is_member): (raw, calibrated) pairs of n members, then n non-members."""
    rng = np.random.default_rng(seed)
    raw = np.concatenate([rng.normal(member_at[0], jitter, n), rng.normal(non_at[0], jitter, n)])
    cal = np.concatenate([rng.normal(member_at[1], jitter, n), rng.normal(non_at[1], jitter, n)])
    return np.column_stack([raw, cal]), np.array([True] * n + [False] * n)


def scoring_config(**kw):
    defaults = dict(learning_rate=0.05, momentum=0.9, weight_decay=0.0, batch_size=64,
                    epochs=60, cosine_schedule=True)
    defaults.update(kw)
    return TrainingConfig(**defaults)


class TestScoringModel:
    def test_separable_shadow_reaches_full_accuracy(self):
        feats, member = toy_shadow()
        model = train_scoring_models([feats], member, [0], scoring_config(), SCORING_SIZES)[0]
        scores = model.score(feats)
        assert np.mean((scores > 0.5) == member) == 1.0
        assert roc(scores, member).best_balanced_accuracy() == 1.0

    def test_zero_epochs_uninformative(self):
        # exchangeable shadow scores: membership carries no signal, so an
        # untrained model scores at chance regardless of its random weights
        aucs = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            n = 400
            member = np.array([True] * (n // 2) + [False] * (n // 2))
            feats = np.column_stack([rng.normal(-1.0, 0.7, n), rng.normal(0.5, 0.7, n)])
            model = train_scoring_models([feats], member, [seed], scoring_config(epochs=0),
                                         SCORING_SIZES)[0]
            scores = model.score(feats)
            assert np.all((scores > 0) & (scores < 1))
            aucs.append(roc(scores, member).auc)
        assert abs(float(np.mean(aucs)) - 0.5) <= 0.1

    def test_deterministic(self):
        feats, member = toy_shadow()
        a = train_scoring_models([feats], member, [0], scoring_config(), SCORING_SIZES)[0]
        b = train_scoring_models([feats], member, [0], scoring_config(), SCORING_SIZES)[0]
        for wa, wb in zip(a.mlp.parameters(), b.mlp.parameters()):
            assert np.array_equal(wa, wb)

    def test_stacked_nets_equal_nets_trained_alone(self):
        (first, member), (second, _) = toy_shadow(), toy_shadow(seed=9)
        config = scoring_config(epochs=3)
        stacked = train_scoring_models([first, second], member, [1, 2], config, SCORING_SIZES)
        for feats, seed, model in zip([first, second], [1, 2], stacked):
            alone = train_scoring_models([feats], member, [seed], config, SCORING_SIZES)[0]
            assert np.array_equal(model.feature_mean, alone.feature_mean)
            assert np.array_equal(model.feature_std, alone.feature_std)
            for a, b in zip(model.mlp.parameters(), alone.mlp.parameters()):
                assert np.array_equal(a, b)

    def test_single_class_rejected(self):
        feats, member = toy_shadow()
        for one_class in (np.ones_like(member), np.zeros_like(member)):
            with pytest.raises(ValueError, match="both members and non-members"):
                train_scoring_models([feats], one_class, [0], scoring_config(), SCORING_SIZES)

    def test_missing_calibrated_rejected(self):
        # the feature matrix must be (n, 2): the raw score and a second feature
        feats, member = toy_shadow()
        for bad in (feats[:, :1], feats[:, 0], np.column_stack([feats, feats[:, :1]]), feats[1:]):
            with pytest.raises(ValueError, match="scoring features have shape"):
                train_scoring_models([bad], member, [0], scoring_config(), SCORING_SIZES)


class TestAttackRapid:
    def test_outputs_in_unit_interval(self):
        feats, member = toy_shadow()
        model = train_scoring_models([feats], member, [0], scoring_config(epochs=5), SCORING_SIZES)[0]
        scores = model.score(feats)
        assert np.all((scores > 0) & (scores < 1))

    def test_shortcut_vetoes_high_loss_nonmember(self):
        # shadow data embodies the calibration failure mode: non-members with
        # high calibrated score but very low raw score
        rng = np.random.default_rng(3)
        n = 300
        raw = np.concatenate([rng.normal(-0.05, 0.05, n),    # members: tiny loss
                              rng.normal(-3.0, 0.5, n)])     # non-members: large loss
        cal = np.concatenate([rng.normal(2.0, 0.5, n),
                              rng.normal(2.0, 0.5, n)])      # calibration fooled for both
        member = np.array([True] * n + [False] * n)
        model = train_scoring_models([np.column_stack([raw, cal])], member, [0], scoring_config(),
                                     SCORING_SIZES)[0]
        fooled_nonmember = model.score(np.array([[-3.0, 2.0]]))[0]
        true_member = model.score(np.array([[-0.01, 2.0]]))[0]
        assert fooled_nonmember < true_member

    def test_rescaling_absorbed_by_standardization(self):
        # power-of-two rescaling of both shadow and target inputs is exact
        shadow, member = toy_shadow()
        target, _ = toy_shadow(seed=9)
        model = train_scoring_models([shadow], member, [0], scoring_config(epochs=10), SCORING_SIZES)[0]
        base = model.score(target)

        scaled_model = train_scoring_models([4.0 * shadow], member, [0], scoring_config(epochs=10),
                                            SCORING_SIZES)[0]
        scaled = scaled_model.score(4.0 * target)
        assert np.array_equal(base, scaled)

    def test_missing_columns_rejected(self):
        feats, member = toy_shadow()
        model = train_scoring_models([feats], member, [0], scoring_config(epochs=2), SCORING_SIZES)[0]
        with pytest.raises(ValueError):
            model.score(np.array([[0.0]]))

    def test_open_interval_holds_even_for_saturating_inputs(self):
        feats, member = toy_shadow()
        model = train_scoring_models([feats], member, [0], scoring_config(epochs=5), SCORING_SIZES)[0]
        extreme = np.array([[1e12, 1e12], [-1e12, -1e12], [1e12, -1e12]])
        scores = model.score(extreme)
        assert np.all((scores > 0.0) & (scores < 1.0))


class TestAttackShortcutLira:
    def test_outputs_in_unit_interval(self):
        feats, member = toy_shadow()
        model = train_scoring_models([feats], member, [0], scoring_config(epochs=5), SCORING_SIZES)[0]
        scores = model.score(feats)
        assert np.all((scores > 0) & (scores < 1))

    def test_constant_lira_column_degenerates_to_loss_ordering(self):
        rng = np.random.default_rng(5)
        n = 300
        raw = np.concatenate([rng.normal(-0.2, 0.2, n), rng.normal(-2.0, 0.5, n)])
        member = np.array([True] * n + [False] * n)
        shadow = np.column_stack([raw, np.full(2 * n, 0.7)])
        model = train_scoring_models([shadow], member, [0], scoring_config(), SCORING_SIZES)[0]
        target_raw = rng.normal(-1.0, 1.0, 100)
        scores = model.score(np.column_stack([target_raw, np.full(100, 0.7)]))
        member_t = target_raw > np.median(target_raw)
        assert roc(scores, member_t).auc == pytest.approx(
            roc(target_raw, member_t).auc, abs=1e-9)

