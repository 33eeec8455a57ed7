import numpy as np
import pytest

from mia_audit import (DistributionSpec, QueryConfig, ScoreTable, SignalKind,
                       TrainingConfig, generate_synthetic, init_classifier, train)
from mia_audit.signals import averaged_signal, build_score_table, signal, signal_batch
from test_nn import per_example_gradients, per_example_norms

LN2 = 0.6931471805599453


def zero_model(num_classes=2, dim=2):
    base = init_classifier([dim, num_classes], 0)
    return base.with_parameters([np.zeros((num_classes, dim)), np.zeros(num_classes)])


class TestSignal:
    def test_loss_on_uniform_logits(self):
        assert signal(zero_model(), np.zeros(2), 0, SignalKind.LOSS) == pytest.approx(
            -LN2, abs=1e-15)

    def test_confidence_on_uniform_logits(self):
        assert signal(zero_model(), np.zeros(2), 0, SignalKind.CONFIDENCE) == pytest.approx(
            0.5, abs=1e-15)

    def test_loss_nonpositive_and_confidence_in_unit_interval(self):
        rng = np.random.default_rng(0)
        model = init_classifier([3, 8, 4], 2)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 4, size=40)
        loss_scores = signal_batch(model, x, y, SignalKind.LOSS)
        conf_scores = signal_batch(model, x, y, SignalKind.CONFIDENCE)
        assert np.all(loss_scores <= 0)
        assert np.all((conf_scores >= 0) & (conf_scores <= 1))

    def test_gradnorm_vanishes_at_convergence(self):
        ds = generate_synthetic(DistributionSpec(2, 2, [[-3, -3], [3, 3]], 0.3, 5), 64)
        trained = train(ds.features, ds.labels,
                        TrainingConfig(epochs=200, weight_decay=0.0, seed=1), (2, 8, 2))
        fresh = init_classifier((2, 8, 2), 99)
        x, y = ds.features[0], int(ds.labels[0])
        converged = signal(trained, x, y, SignalKind.GRADNORM)
        untrained = signal(fresh, x, y, SignalKind.GRADNORM)
        assert converged == pytest.approx(0.0, abs=1e-3)
        assert converged > untrained  # scores are negated norms: higher = member-like

    def test_gradnorm_matches_explicit_per_example_gradient(self):
        rng = np.random.default_rng(3)
        model = init_classifier([3, 5, 2], 4)
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4)
        scores = signal_batch(model, x, y, SignalKind.GRADNORM)
        norms = per_example_norms(per_example_gradients(model, x, y)[0])
        for i in range(4):
            assert -scores[i] == pytest.approx(norms[i], rel=1e-9)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            signal(zero_model(), np.zeros(2), 5, SignalKind.LOSS)

    def test_logit_scaling_monotone_in_confidence(self):
        rng = np.random.default_rng(1)
        model = init_classifier([3, 6, 2], 7)
        x = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        conf = signal_batch(model, x, y, SignalKind.CONFIDENCE)
        scaled = signal_batch(model, x, y, SignalKind.CONFIDENCE, logit_scale=True)
        assert np.array_equal(np.argsort(conf), np.argsort(scaled))


class TestAveragedSignal:
    def setup_method(self):
        self.model = init_classifier([2, 6, 2], 3)
        self.x = np.array([0.4, -0.8])

    def test_single_query_equals_signal(self):
        q = QueryConfig(num_queries=1, augmentation_noise_std=0.5, seed=1)
        assert averaged_signal(self.model, self.x, 1, SignalKind.LOSS, q) == signal(
            self.model, self.x, 1, SignalKind.LOSS)

    def test_zero_noise_equals_signal_for_any_query_count(self):
        q = QueryConfig(num_queries=8, augmentation_noise_std=0.0, seed=1)
        assert averaged_signal(self.model, self.x, 0, SignalKind.LOSS, q) == signal(
            self.model, self.x, 0, SignalKind.LOSS)

    def test_noise_changes_score(self):
        q = QueryConfig(num_queries=8, augmentation_noise_std=0.3, seed=1)
        assert averaged_signal(self.model, self.x, 0, SignalKind.LOSS, q) != signal(
            self.model, self.x, 0, SignalKind.LOSS)

    def test_deterministic_per_sample_id(self):
        q = QueryConfig(num_queries=4, augmentation_noise_std=0.3, seed=9)
        a = averaged_signal(self.model, self.x, 0, SignalKind.LOSS, q, sample_id=17)
        b = averaged_signal(self.model, self.x, 0, SignalKind.LOSS, q, sample_id=17)
        c = averaged_signal(self.model, self.x, 0, SignalKind.LOSS, q, sample_id=18)
        assert a == b
        assert a != c

    def test_averaging_does_not_increase_variance(self):
        # variance of the 8-query mean is at most that of one perturbed query
        single, averaged = [], []
        for rep in range(200):
            q1 = QueryConfig(num_queries=2, augmentation_noise_std=0.05, seed=rep)
            q8 = QueryConfig(num_queries=8, augmentation_noise_std=0.05, seed=rep)
            # a 2-query mean isolates one perturbed evaluation: 2*mean - exact
            exact = signal(self.model, self.x, 0, SignalKind.LOSS)
            two = averaged_signal(self.model, self.x, 0, SignalKind.LOSS, q1)
            single.append(2 * two - exact)
            averaged.append(averaged_signal(self.model, self.x, 0, SignalKind.LOSS, q8))
        assert np.var(averaged) <= np.var(single)


class TestScoreTable:
    def overfit_setup(self):
        ds = generate_synthetic(DistributionSpec(2, 8, np.random.default_rng(0).normal(0, 0.4, (2, 8)), 1.0, 3), 200)
        model = train(ds.features[:100], ds.labels[:100],
                      TrainingConfig(epochs=80, seed=2), (8, 64, 2))
        return ds, model

    def test_build_fills_raw_only(self):
        ds = generate_synthetic(DistributionSpec(2, 2, [[-1, -1], [1, 1]], 1.0, 4), 4)
        table = build_score_table(zero_model(), ds.features, ds.labels,
                                  [True, True, False, False], SignalKind.LOSS,
                                  QueryConfig())
        assert len(table) == 4
        assert np.all(np.isfinite(table.raw))
        assert table.calibrated is None

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_score_table(zero_model(), np.zeros((0, 2)), np.zeros(0, dtype=int),
                              [], SignalKind.LOSS, QueryConfig())

    def test_deterministic(self):
        ds = generate_synthetic(DistributionSpec(2, 2, [[-1, -1], [1, 1]], 1.0, 4), 10)
        q = QueryConfig(num_queries=4, augmentation_noise_std=0.2, seed=5)
        t1 = build_score_table(zero_model(), ds.features, ds.labels,
                               ds.labels == 0, SignalKind.LOSS, q)
        t2 = build_score_table(zero_model(), ds.features, ds.labels,
                               ds.labels == 0, SignalKind.LOSS, q)
        assert np.array_equal(t1.raw, t2.raw)

    def test_overfit_model_separates_members(self):
        ds, model = self.overfit_setup()
        members = build_score_table(model, ds.features[:100], ds.labels[:100],
                                    [True] * 100, SignalKind.LOSS, QueryConfig())
        non = build_score_table(model, ds.features[100:], ds.labels[100:],
                                [False] * 100, SignalKind.LOSS, QueryConfig())
        assert members.raw.mean() > non.raw.mean()

    def test_order_independence(self):
        ds = generate_synthetic(DistributionSpec(2, 3, [[-1, -1, 0], [1, 1, 0]], 1.0, 8), 30)
        q = QueryConfig(num_queries=3, augmentation_noise_std=0.1, seed=2)
        model = init_classifier([3, 8, 2], 1)
        ids = list(range(30))
        base = build_score_table(model, ds.features, ds.labels, ds.labels == 0,
                                 SignalKind.LOSS, q, ids=ids)
        perm = np.random.default_rng(0).permutation(30)
        permuted = build_score_table(model, ds.features[perm], ds.labels[perm],
                                     ds.labels[perm] == 0, SignalKind.LOSS, q,
                                     ids=[ids[i] for i in perm])
        assert np.allclose(permuted.raw, base.raw[perm], rtol=1e-12, atol=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ScoreTable(ids=[1, 1], is_member=[True, False], raw=[0.0, 1.0])

    def test_csv_round_trip_with_empty_cells(self, tmp_path):
        table = ScoreTable(ids=["a", "b"], is_member=[True, False], raw=[-0.25, -3.5])
        path = tmp_path / "scores.csv"
        table.to_csv(path, config_digest="deadbeef")
        back = ScoreTable.from_csv(path)
        assert back.ids == ["a", "b"]
        assert np.array_equal(back.raw, table.raw)
        assert back.calibrated is None

    def test_csv_round_trip_full_columns(self, tmp_path):
        table = ScoreTable(ids=[0, 1], is_member=[True, False], raw=[-0.1, -2.0],
                           calibrated=[0.4, -1.5])
        path = tmp_path / "scores.csv"
        table.to_csv(path)
        back = ScoreTable.from_csv(path)
        assert np.array_equal(back.calibrated, table.calibrated)

    def test_list_calibrated_becomes_float64_array(self):
        table = ScoreTable(ids=[0, 1], is_member=[True, False], raw=[-0.1, -2.0],
                           calibrated=[0.4, -1.5])
        assert isinstance(table.calibrated, np.ndarray)
        assert table.calibrated.dtype == np.float64
        assert np.array_equal(table.with_columns(calibrated=[1, 2]).calibrated, [1.0, 2.0])
