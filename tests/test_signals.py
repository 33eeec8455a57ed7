import functools
import operator
import re

import numpy as np
import pytest

from mia_audit import (ScoreTable, SignalKind, TrainingConfig, calibrate, forward,
                       generate_synthetic, init_classifier, loss_bucket_report, per_sample_loss,
                       run_pipeline, run_pipelines)
from mia_audit.pipeline import resolve_dataset
from mia_audit.seeding import derive_rng, derive_seed, normal_rows
from mia_audit.signals import perturbed_queries, signal_batch
from oracles import train
from test_config_cli import attacker_models, fast_config
from test_nn import per_example_gradients, per_example_norms

LN2 = 0.6931471805599453


def zero_model(num_classes=2, dim=2):
    base = init_classifier([dim, num_classes], 0)
    return base.with_parameters([np.zeros((num_classes, dim)), np.zeros(num_classes)])


# (num_queries, noise std, seed) of one unperturbed query
ONE_QUERY = (1, 0.0, 0)


def averaged(model, x, y, kind, q, ids=None):
    """Query-averaged scores of a batch: the mean of signal_batch over the
    perturbed queries, summed in query order; q is (num_queries, noise std,
    seed). The oracle of the pipeline's query-averaged signal."""
    ids = list(range(len(x))) if ids is None else ids
    queries = perturbed_queries(x, ids, *q)
    signals = [signal_batch(model, xq, y, kind)[0] for xq in queries]
    return functools.reduce(operator.add, signals) / len(queries)


class TestSignal:
    def test_loss_on_uniform_logits(self):
        assert signal_batch(zero_model(), np.zeros((1, 2)), [0],
                            SignalKind.LOSS)[0][0] == pytest.approx(-LN2, abs=1e-15)

    def test_confidence_on_uniform_logits(self):
        assert signal_batch(zero_model(), np.zeros((1, 2)), [0],
                            SignalKind.CONFIDENCE)[0][0] == pytest.approx(0.5, abs=1e-15)

    def test_loss_nonpositive_and_confidence_in_unit_interval(self):
        rng = np.random.default_rng(0)
        model = init_classifier([3, 8, 4], 2)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 4, size=40)
        loss_scores, _ = signal_batch(model, x, y, SignalKind.LOSS)
        conf_scores, _ = signal_batch(model, x, y, SignalKind.CONFIDENCE)
        assert np.all(loss_scores <= 0)
        assert np.all((conf_scores >= 0) & (conf_scores <= 1))

    def test_gradnorm_vanishes_at_convergence(self):
        ds = generate_synthetic([[-3, -3], [3, 3]], 0.3, 64, 5)
        trained = train(ds.features, ds.labels, 1,
                        TrainingConfig(epochs=200, weight_decay=0.0), (2, 8, 2))
        fresh = init_classifier((2, 8, 2), 99)
        x, y = ds.features[:1], ds.labels[:1]
        converged = signal_batch(trained, x, y, SignalKind.GRADNORM)[0][0]
        untrained = signal_batch(fresh, x, y, SignalKind.GRADNORM)[0][0]
        assert converged == pytest.approx(0.0, abs=1e-3)
        assert converged > untrained  # scores are negated norms: higher = member-like

    def test_gradnorm_matches_explicit_per_example_gradient(self):
        rng = np.random.default_rng(3)
        model = init_classifier([3, 5, 2], 4)
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4)
        scores, _ = signal_batch(model, x, y, SignalKind.GRADNORM)
        norms = per_example_norms(per_example_gradients(model, x, y)[0])
        for i in range(4):
            assert -scores[i] == pytest.approx(norms[i], rel=1e-9)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            signal_batch(zero_model(), np.zeros((1, 2)), [5], SignalKind.LOSS)
        # a fractional label is no class, whatever it would truncate to
        for kind in SignalKind:
            for label in (0.7, 2.9):
                with pytest.raises(ValueError, match="integer classes"):
                    signal_batch(zero_model(3), np.zeros((1, 2)), [label], kind)
        with pytest.raises(ValueError, match="2 labels for 1 samples"):
            signal_batch(zero_model(), np.zeros((1, 2)), [0, 1], SignalKind.CONFIDENCE)

    def test_logit_scaling_monotone_in_confidence(self):
        rng = np.random.default_rng(1)
        model = init_classifier([3, 6, 2], 7)
        x = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        conf, _ = signal_batch(model, x, y, SignalKind.CONFIDENCE)
        scaled, _ = signal_batch(model, x, y, SignalKind.CONFIDENCE, logit_scale=True)
        assert np.array_equal(np.argsort(conf), np.argsort(scaled))


class TestAveragedSignal:
    def setup_method(self):
        self.model = init_classifier([2, 6, 2], 3)
        self.x = np.array([[0.4, -0.8]])

    def score(self, y, q, sample_id=0):
        return averaged(self.model, self.x, [y], SignalKind.LOSS, q, ids=[sample_id])[0]

    def exact(self, y):
        return signal_batch(self.model, self.x, [y], SignalKind.LOSS)[0][0]

    def test_single_query_equals_signal(self):
        q = (1, 0.5, 1)
        assert len(perturbed_queries(self.x, [0], *q)) == 1
        assert self.score(1, q) == self.exact(1)
        with pytest.raises(ValueError, match="num_queries"):
            perturbed_queries(self.x, [0], 0, 0.5, 1)

    def test_zero_noise_equals_signal_for_any_query_count(self):
        q = (8, 0.0, 1)
        assert len(perturbed_queries(self.x, [0], *q)) == 1
        assert self.score(0, q) == self.exact(0)

    def test_noise_changes_score(self):
        q = (8, 0.3, 1)
        assert len(perturbed_queries(self.x, [0], *q)) == 8
        assert self.score(0, q) != self.exact(0)

    def test_deterministic_per_sample_id(self):
        q = (4, 0.3, 9)
        a = self.score(0, q, sample_id=17)
        b = self.score(0, q, sample_id=17)
        c = self.score(0, q, sample_id=18)
        assert a == b
        assert a != c

    def test_pipeline_means_equal_means_over_each_runs_own_queries(self):
        # one running sum per model serves the runs of 1, 3 and 8 queries,
        # each bit for bit the mean over its own first q queries
        configs = [fast_config(attacks=("calibration",), num_queries=q) for q in (1, 3, 8)]
        trained = {}
        results = run_pipelines(configs, trained)
        target_seed = derive_seed(configs[0].master_seed, "target")
        target = next(model for key, model in trained.items() if key[2] == target_seed)
        for cfg, result in zip(configs, results):
            table = result.target_table
            x, y = resolve_dataset(cfg.data, cfg.master_seed, "data").subset(table.ids)
            q = (cfg.num_queries, cfg.augmentation_noise_std,
                 derive_seed(cfg.master_seed, "queries"))
            raw = averaged(target, x, y, cfg.signal_kind, q, ids=table.ids)
            refs = np.column_stack([averaged(ref, x, y, cfg.signal_kind, q, ids=table.ids)
                                    for ref in attacker_models(trained, cfg)[1]])
            assert table.scores["loss"].tobytes() == raw.tobytes()
            assert table.scores["calibration"].tobytes() == calibrate(raw, refs).tobytes()

    def test_zero_noise_gives_every_query_count_the_one_matrix(self):
        # with zero noise there is one query matrix, so 8 queries score as 1
        one, eight = (fast_config(augmentation_noise_std=0.0, num_queries=q) for q in (1, 8))
        base = run_pipeline(one).scores
        for result in [*run_pipelines([eight, one]), run_pipeline(eight)]:
            assert result.scores.keys() == base.keys()
            for name, scores in result.scores.items():
                assert scores.tobytes() == base[name].tobytes(), name

    def test_averaging_does_not_increase_variance(self):
        # variance of the 8-query mean is at most that of one perturbed query
        single, averaged = [], []
        for rep in range(200):
            q1 = (2, 0.05, rep)
            q8 = (8, 0.05, rep)
            # a 2-query mean isolates one perturbed evaluation: 2*mean - exact
            single.append(2 * self.score(0, q1) - self.exact(0))
            averaged.append(self.score(0, q8))
        assert np.var(averaged) <= np.var(single)


def histograms(report):
    """Every bucket's counts and histogram arrays, as bytes."""
    return [(b.name, b.member_count, b.nonmember_count,
             *(a.tobytes() for h in (b.raw_hist, b.calibrated_hist)
               for a in (h.edges, h.member_counts, h.nonmember_counts)))
            for b in report.buckets]


class TestTargetOnItsEvalSet:
    @pytest.mark.parametrize("kind, logit_scaling", [
        (SignalKind.LOSS, False), (SignalKind.CONFIDENCE, True), (SignalKind.GRADNORM, False),
    ], ids=["loss", "logit_confidence", "gradnorm"])
    def test_buckets_and_accuracy_equal_the_target_on_its_eval_set(self, kind, logit_scaling):
        # stage 4 reads both off stage 2's pass over the unperturbed eval set;
        # each must equal a fresh pass of the target itself, whatever the
        # signal and query count
        configs = [fast_config(attacks=("loss", "calibration"), signal_kind=kind,
                               logit_scaling=logit_scaling, num_queries=q, augmentation_noise_std=std)
                   for q, std in ((1, 0.1), (8, 0.1), (8, 0.0))]
        trained = {}
        results = run_pipelines(configs, trained)
        target_seed = derive_seed(configs[0].master_seed, "target")
        target = next(model for key, model in trained.items() if key[2] == target_seed)
        for cfg, result in zip(configs, results):
            table = result.target_table
            ds = resolve_dataset(cfg.data, cfg.master_seed, "data")
            losses = per_sample_loss(target, *ds.subset(table.ids))
            expected = loss_bucket_report(losses, table.scores["calibration"], table.is_member)
            assert histograms(result.bucket_report) == histograms(expected)
            for half, rows in (("train", result.target_plan.target_train),
                               ("test", result.target_plan.target_test)):
                x, y = ds.subset(rows)
                correct = np.argmax(forward(target, x), axis=1) == y
                assert result.target_accuracy[half] == float(np.mean(correct)), half


def per_stream_queries(x, ids, num_queries, noise_std, seed):
    """perturbed_queries as one default_rng stream per (sample id, query index):
    the reference the bulk seeding must match bit for bit."""
    out = [x]
    if num_queries == 1 or noise_std == 0.0:
        return out
    for j in range(1, num_queries):
        noise = np.empty_like(x)
        for row, sample_id in enumerate(ids):
            rng = derive_rng(seed, "augment", sample_id, j)
            noise[row] = rng.normal(0.0, noise_std, size=x.shape[1])
        out.append(x + noise)
    return out


class TestQueryNoise:
    def test_normal_rows_equal_default_rng(self):
        # one- and two-word seeds at the edges, then 14,000 derived query seeds
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        seeds += [derive_seed(7, "augment", i, j) for i in range(2000) for j in range(1, 8)]
        expected = np.stack([np.random.default_rng(s).normal(0.0, 0.3, 16) for s in seeds])
        assert normal_rows(seeds, 0.3, 16).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("num_queries, std", [(8, 0.25), (8, 0.0), (1, 0.25)],
                             ids=["noisy", "zero-noise", "one-query"])
    def test_perturbed_queries_equal_per_stream_draws(self, num_queries, std):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2000, 5))
        ids = [int(i) for i in rng.permutation(10_000)[:2000]]
        got = perturbed_queries(x, ids, num_queries, std, 12)
        expected = per_stream_queries(x, ids, num_queries, std, 12)
        assert len(got) == len(expected) == (num_queries if std else 1)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("std", [0.5, 0.0])
    def test_one_id_per_row_of_a_batch(self, std):
        # one id for 5 rows would give every row the same noise
        with pytest.raises(ValueError, match="one id per row"):
            perturbed_queries(np.zeros((5, 3)), [7], 3, std, 1)
        with pytest.raises(ValueError, match="one id per row"):
            perturbed_queries(np.zeros(3), [7], 3, std, 1)


class TestScoreTable:
    def overfit_setup(self):
        ds = generate_synthetic(np.random.default_rng(0).normal(0, 0.4, (2, 8)), 1.0, 200, 3)
        model = train(ds.features[:100], ds.labels[:100], 2,
                      TrainingConfig(epochs=80), (8, 64, 2))
        return ds, model

    def test_build_fills_raw_only(self):
        ds = generate_synthetic([[-1, -1], [1, 1]], 1.0, 4, 4)
        raw = averaged(zero_model(), ds.features, ds.labels, SignalKind.LOSS, ONE_QUERY)
        table = ScoreTable(ids=range(4), is_member=[True, True, False, False],
                           scores={"loss": raw})
        assert len(table) == 4
        assert np.all(np.isfinite(table.scores["loss"]))
        assert list(table.scores) == ["loss"]

    def test_deterministic(self):
        ds = generate_synthetic([[-1, -1], [1, 1]], 1.0, 10, 4)
        q = (4, 0.2, 5)
        r1 = averaged(zero_model(), ds.features, ds.labels, SignalKind.LOSS, q)
        r2 = averaged(zero_model(), ds.features, ds.labels, SignalKind.LOSS, q)
        assert np.array_equal(r1, r2)

    def test_overfit_model_separates_members(self):
        ds, model = self.overfit_setup()
        members = averaged(model, ds.features[:100], ds.labels[:100], SignalKind.LOSS,
                           ONE_QUERY)
        non = averaged(model, ds.features[100:], ds.labels[100:], SignalKind.LOSS, ONE_QUERY)
        assert members.mean() > non.mean()

    def test_order_independence(self):
        ds = generate_synthetic([[-1, -1, 0], [1, 1, 0]], 1.0, 30, 8)
        q = (3, 0.1, 2)
        model = init_classifier([3, 8, 2], 1)
        ids = list(range(30))
        base = averaged(model, ds.features, ds.labels, SignalKind.LOSS, q, ids=ids)
        perm = np.random.default_rng(0).permutation(30)
        permuted = averaged(model, ds.features[perm], ds.labels[perm], SignalKind.LOSS, q,
                            ids=[ids[i] for i in perm])
        assert np.allclose(permuted, base[perm], rtol=1e-12, atol=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ScoreTable(ids=[1, 1], is_member=[True, False], scores={"loss": [0.0, 1.0]})

    def test_csv_round_trip_loss_only(self, tmp_path):
        table = ScoreTable(ids=["a", "b"], is_member=[True, False], scores={"loss": [-0.25, -3.5]})
        path = tmp_path / "scores.csv"
        table.to_csv(path, config_digest="deadbeef")
        assert path.read_text().splitlines()[1:] == ["id,is_member,loss", "a,1,-0.25", "b,0,-3.5"]
        back = ScoreTable.from_csv(path)
        assert back.ids == ["a", "b"]
        assert list(back.scores) == ["loss"]
        assert np.array_equal(back.scores["loss"], table.scores["loss"])

    def test_csv_round_trip_full_columns(self, tmp_path):
        # the columns keep their order, whatever it is
        scores = {"loss": [-0.1, -2.0], "rapid": [0.75, 0.25], "calibration": [0.4, -1.5]}
        table = ScoreTable(ids=[0, 1], is_member=[True, False], scores=scores)
        path = tmp_path / "scores.csv"
        table.to_csv(path)
        back = ScoreTable.from_csv(path)
        assert list(back.scores) == list(scores)
        for name, values in scores.items():
            assert np.array_equal(back.scores[name], values)

    def test_csv_partly_blank_calibrated_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,is_member,loss,calibration\na,1,-0.1,0.4\nb,0,-2.0,\n",
                        encoding="utf-8")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: data row 2 column 'calibration'")):
            ScoreTable.from_csv(path)

    def test_list_calibrated_becomes_float64_array(self):
        table = ScoreTable(ids=[0, 1], is_member=[True, False],
                           scores={"loss": [-0.1, -2.0], "calibration": [0.4, -1.5]})
        assert isinstance(table.scores["calibration"], np.ndarray)
        assert table.scores["calibration"].dtype == np.float64
