import dataclasses
import math
import re

import numpy as np
import pytest

from mia_audit import nn
from mia_audit import (DPConfig, TrainingConfig, backward, derive_rng,
                       derive_seed, forward, generate_synthetic, init_classifier, softmax)
from mia_audit.nn import (_forward_cached, _gradients, _output_delta, _sq_norms, _targets,
                          per_sample_loss, schedule_lr, train_many)
from mia_audit.signals import SignalKind, signal_batch

from oracles import reference_train, sgd_step, train

# -log(e^3 / (e^1 + e^2 + e^3)), frozen from a 50-digit mpmath evaluation
CE_123_LABEL2 = 0.4076059644443803
LN2 = 0.6931471805599453


def accuracy(model, x, y):
    """Share of samples whose argmax logit is the label."""
    return float(np.mean(np.argmax(forward(model, x), axis=1) == y))


def finite_difference_grads(model, x, y, step=1e-5):
    """Central finite differences of the mean cross-entropy, parameter by parameter."""
    grads = []
    for k, p in enumerate(model.parameters()):
        g = np.zeros_like(p)
        flat = g.reshape(-1)
        for j in range(p.size):
            for sign in (+1, -1):
                params = [q.copy() for q in model.parameters()]
                params[k].reshape(-1)[j] += sign * step
                shifted = model.with_parameters(params)
                flat[j] += sign * float(np.mean(per_sample_loss(shifted, x, y)))
            flat[j] /= 2 * step
        grads.append(g)
    return grads


def per_example_gradients(model, x, y):
    """Reference: every example's gradient materialized by einsum, (n, out, in) per weight."""
    acts = _forward_cached(model.weights, model.biases, np.atleast_2d(np.asarray(x, dtype=np.float64)))
    delta, mean_loss = _output_delta(acts[-1], _targets(y, model.output_dim))
    grads = []
    for l in range(len(model.weights) - 1, -1, -1):
        grads.append(delta.copy())                               # bias, (n, out)
        grads.append(np.einsum("no,ni->noi", delta, acts[l]))    # weight, (n, out, in)
        if l > 0:
            delta = (delta @ model.weights[l]) * (1.0 - acts[l] ** 2)
    grads.reverse()
    return grads, mean_loss


def per_example_norms(per_grads):
    n = per_grads[0].shape[0]
    return np.sqrt(sum((g.reshape(n, -1) ** 2).sum(axis=1) for g in per_grads))


def clipped_mean_reference(per_grads, clip_norm):
    """Mean of per-example gradients, each rescaled to norm at most clip_norm."""
    norms = per_example_norms(per_grads)
    scale = np.where(norms > clip_norm, clip_norm / np.maximum(norms, 1e-300), 1.0)
    return [(g * scale.reshape((-1,) + (1,) * (g.ndim - 1))).mean(axis=0) for g in per_grads]


def random_model(rng, sizes):
    base = init_classifier(sizes, int(rng.integers(0, 2**32)))
    params = [p + rng.normal(0, 0.3, p.shape) for p in base.parameters()]
    return base.with_parameters(params)


class TestInit:
    def test_shapes_and_zero_biases(self):
        model = init_classifier([2, 2], 0)
        assert model.weights[0].shape == (2, 2)
        assert np.array_equal(model.biases[0], np.zeros(2))

    def test_three_layer_shapes(self):
        model = init_classifier([4, 16, 3], 1)
        assert model.weights[0].shape == (16, 4)
        assert model.weights[1].shape == (3, 16)

    def test_deterministic(self):
        a, b = init_classifier([3, 5, 2], 9), init_classifier([3, 5, 2], 9)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_too_few_sizes_rejected(self):
        with pytest.raises(ValueError):
            init_classifier([4], 0)

    def test_fan_in_scaling(self):
        model = init_classifier([400, 100], 3)
        assert np.std(model.weights[0]) == pytest.approx(1 / math.sqrt(400), rel=0.05)

    def test_random_models_near_chance_on_balanced_data(self):
        ds = generate_synthetic([[1, 1, 1, 1], [-1, -1, -1, -1]], 1.0, 2000, 3)
        accs = [accuracy(init_classifier([4, 8, 2], seed), ds.features, ds.labels)
                for seed in range(10)]
        assert abs(float(np.mean(accs)) - 0.5) <= 0.05


class TestForward:
    def test_zero_model_uniform_softmax(self):
        model = init_classifier([2, 3], 0).with_parameters([np.zeros((3, 2)), np.zeros(3)])
        logits = forward(model, np.array([[5.0, -2.0]]))
        assert np.array_equal(logits, np.zeros((1, 3)))
        assert np.allclose(softmax(logits), np.full((1, 3), 1 / 3))

    def test_identity_single_layer(self):
        model = init_classifier([2, 2], 0).with_parameters([np.eye(2), np.zeros(2)])
        x = np.array([[0.3, -1.7]])
        assert np.array_equal(forward(model, x), x)

    def test_dimension_mismatch(self):
        model = init_classifier([3, 2], 0)
        for x in (np.zeros((1, 4)), np.zeros(3)):  # a 1-D vector is no batch
            with pytest.raises(ValueError):
                forward(model, x)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_softmax_normalized(self, scale):
        rng = np.random.default_rng(5)
        for _ in range(20):
            logits = rng.normal(0, scale, size=6)
            assert abs(softmax(logits).sum() - 1.0) < 1e-12

    def test_batch_matches_single(self):
        # batched and one-at-a-time evaluation may differ in the last ulp
        model = random_model(np.random.default_rng(2), [4, 5, 3])
        x = np.random.default_rng(3).normal(size=(6, 4))
        batch = forward(model, x)
        for i in range(6):
            assert np.allclose(batch[i], forward(model, x[i : i + 1])[0], rtol=1e-12, atol=0)


def cross_entropy(logits, label):
    """per_sample_loss of one sample under an identity model, whose logits are its input."""
    k = len(logits)
    model = init_classifier([k, k], 0).with_parameters([np.eye(k), np.zeros(k)])
    return float(per_sample_loss(model, np.asarray(logits, dtype=np.float64)[None], label)[0])


class TestCrossEntropy:
    def test_uniform_two_class(self):
        assert cross_entropy(np.zeros(2), 0) == pytest.approx(LN2, abs=1e-15)

    def test_extreme_logits_stable(self):
        assert cross_entropy(np.array([1000.0, 0.0]), 0) == pytest.approx(0.0, abs=1e-12)
        assert math.isfinite(cross_entropy(np.array([1000.0, 0.0]), 1))

    def test_matches_high_precision_oracle(self):
        assert cross_entropy(np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(
            CE_123_LABEL2, abs=1e-15)

    def test_label_out_of_range(self):
        # past the last class, negative, and fractional labels all raise
        for label in (2, -1, 0.7):
            with pytest.raises(ValueError, match="integer classes"):
                cross_entropy(np.zeros(2), label)

    def test_one_label_per_sample(self):
        model = init_classifier([2, 2], 0)
        for rows, labels in ((3, [0, 1]), (2, [0, 1, 1])):
            with pytest.raises(ValueError, match="labels for"):
                per_sample_loss(model, np.zeros((rows, 2)), np.array(labels))

    @pytest.mark.parametrize("read", [
        per_sample_loss,
        lambda model, x, y: signal_batch(model, x, y, SignalKind.LOSS),
    ], ids=["per_sample_loss", "signal_batch"])
    def test_one_unit_model_refused(self, read):
        # one output unit is a bce net: it has no class log-probabilities to index
        with pytest.raises(ValueError, match="^output size 1: "):
            read(init_classifier([2, 1], 0), np.zeros((2, 2)), [0, 0])

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            assert cross_entropy(rng.normal(size=4), 1) >= 0.0


class TestBackward:
    @pytest.mark.parametrize("sizes", [[2, 2], [3, 4, 2], [2, 5, 3, 2]])
    def test_matches_finite_differences(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        model = random_model(rng, sizes)
        x = rng.normal(size=(3, sizes[0]))
        y = rng.integers(0, sizes[-1], size=3)
        analytic, _ = backward(model, x, y)
        numeric = finite_difference_grads(model, x, y)
        for a, n in zip(analytic, numeric):
            denom = np.maximum(np.abs(n), 1e-3)
            assert np.max(np.abs(a - n) / denom) < 1e-4

    def test_duplicated_sample_equals_single(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, [3, 4, 2])
        x = rng.normal(size=(1, 3))
        y = np.array([1])
        single, _ = backward(model, x, y)
        double, _ = backward(model, np.vstack([x, x]), np.array([1, 1]))
        for a, b in zip(single, double):
            assert np.allclose(a, b, atol=1e-14)

    def test_empty_batch_rejected(self):
        model = init_classifier([2, 2], 0)
        with pytest.raises(ValueError):
            backward(model, np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("call", [
        lambda model, x: backward(model, x, [0]),
        lambda model, x: signal_batch(model, x, [0], SignalKind.GRADNORM),
    ], ids=["backward", "signal_batch"])
    def test_one_dimensional_input_refused(self, call):
        # a 1-D vector is no batch, as in forward
        with pytest.raises(ValueError, match=re.escape("input of shape (2,) does not match input dim 2")):
            call(init_classifier([2, 2], 0), np.zeros(2))

    def test_converged_model_has_tiny_gradient(self):
        ds = generate_synthetic([[-3, -3], [3, 3]], 0.3, 64, 1)
        model = train(ds.features, ds.labels, 0,
                      TrainingConfig(epochs=200, weight_decay=0.0), (2, 8, 2))
        grads, _ = backward(model, ds.features, ds.labels)
        norm = math.sqrt(sum(float((g**2).sum()) for g in grads))
        assert norm < 1e-3

    def test_per_example_mean_matches_backward(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, [3, 4, 2])
        x = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, size=5)
        mean_grads, loss_a = backward(model, x, y)
        per_grads, loss_b = per_example_gradients(model, x, y)
        assert loss_a == pytest.approx(loss_b, abs=1e-15)
        for m, p in zip(mean_grads, per_grads):
            assert np.allclose(m, p.mean(axis=0), atol=1e-14)


class TestSgdStep:
    def one_param_model(self, w):
        return init_classifier([1, 1], 0).with_parameters([np.array([[w]]), np.zeros(1)])

    def cfg(self, **kw):
        defaults = dict(learning_rate=0.1, momentum=0.0, weight_decay=0.0,
                        cosine_schedule=False, epochs=1)
        defaults.update(kw)
        return TrainingConfig(**defaults)

    def test_plain_update(self):
        model = self.one_param_model(1.0)
        updated, _ = sgd_step(model, [np.array([[0.5]]), np.zeros(1)], self.cfg())
        assert updated.weights[0][0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_weight_decay_as_l2(self):
        model = self.one_param_model(1.0)
        updated, _ = sgd_step(model, [np.array([[0.5]]), np.zeros(1)],
                              self.cfg(weight_decay=5e-4))
        assert updated.weights[0][0, 0] == pytest.approx(0.94995, abs=1e-15)

    def test_momentum_accumulates(self):
        model = self.one_param_model(0.0)
        cfg = self.cfg(momentum=0.5)
        g = [np.array([[1.0]]), np.zeros(1)]
        model, vel = sgd_step(model, g, cfg)
        model, vel = sgd_step(model, g, cfg, velocity=vel)
        # steps: -0.1*1, then -0.1*(0.5*1 + 1)
        assert model.weights[0][0, 0] == pytest.approx(-0.1 - 0.15, abs=1e-15)

    def test_cosine_endpoints(self):
        cfg = TrainingConfig(learning_rate=0.1, cosine_schedule=True)
        assert schedule_lr(cfg, 0, 100) == pytest.approx(0.1, abs=1e-15)
        assert schedule_lr(cfg, 50, 100) == pytest.approx(0.05, abs=1e-12)
        assert schedule_lr(cfg, 100, 100) == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        model = init_classifier([2, 2], 0)
        with pytest.raises(ValueError):
            sgd_step(model, [np.zeros((3, 3)), np.zeros(2)], self.cfg())


class TestConfigValues:
    # a NaN noise_multiplier fails `noise_multiplier > 0`, so it would train as sigma 0
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["clip_norm", "noise_multiplier"])
    def test_dp_config_refuses_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            DPConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["learning_rate", "momentum", "weight_decay", "batch_size", "epochs"])
    def test_training_config_refuses_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            TrainingConfig(**{field: value})


class TestBoxMuller:
    """The DP-SGD noise sampler, read directly and as train_many applies it."""

    BOUND = math.sqrt(2 * 53 * math.log(2))  # the radius at 1 - u = 2^-53, about 8.57

    def test_standard_normal_on_200k_values(self):
        from scipy import stats  # the oracle; the package itself does not import scipy
        z = nn._box_muller(np.random.default_rng(0).random((2, 100_000)), 1.0)
        assert z.dtype == np.float32 and z.shape == (2, 100_000)
        z = z.astype(np.float64).reshape(-1)
        assert stats.kstest(z, stats.norm.cdf).pvalue > 0.01
        # within 3 standard errors: sqrt(1/N) for the mean, sqrt(2/N) for the variance
        assert abs(z.mean()) < 3 * math.sqrt(1 / z.size)
        assert abs(z.var() - 1.0) < 3 * math.sqrt(2 / z.size)
        assert np.abs(z).max() <= self.BOUND

    def test_largest_uniform_gives_the_cutoff(self):
        largest = np.nextafter(1.0, 0.0)  # 1 - 2^-53
        z = nn._box_muller(np.array([[largest, 0.0], [0.0, 0.0]]), 2.0)
        assert z[0, 0] == pytest.approx(2.0 * self.BOUND, rel=1e-6)
        assert np.array_equal(z[:, 1], [0.0, 0.0]) and z[1, 0] == 0.0

    def test_odd_parameter_count_drops_the_last_value(self, monkeypatch):
        # the (2, 8, 8, 1) bce net has 105 parameters: 106 uniforms, 53 pairs, and the
        # noise on one step from zero gradients is the block but its last value
        def zero_gradients(weights, biases, x, y, clip_norm, out):
            for g in out:
                g[...] = 0.0
            return np.zeros(x.shape[0], x.dtype)

        monkeypatch.setattr(nn, "_gradients", zero_gradients)
        x, y = np.random.default_rng(1).normal(size=(10, 2)), np.arange(10) % 2
        cfg = TrainingConfig(learning_rate=1.0, momentum=0.0, weight_decay=0.0, epochs=1,
                             cosine_schedule=False)
        seed = 4
        model = train(x, y, seed, cfg, (2, 8, 8, 1), DPConfig(2.0, 0.5))
        init = init_classifier((2, 8, 8, 1), derive_seed(seed, "model-init"))
        assert init.num_parameters() == 105
        uniform = derive_rng(seed, "dp-noise").random((1, 106))
        noise = nn._box_muller(uniform, 0.5 * 2.0 / 10)[0, :105]
        start = 0
        for p, q in zip(model.parameters(), init.parameters()):
            step = noise[start : start + q.size].reshape(q.shape)
            assert np.array_equal(p, (q.astype(np.float32) - step).astype(np.float64))
            start += q.size


class TestDpSgdStep:
    def cfg(self, **kw):
        defaults = dict(learning_rate=0.1, momentum=0.0, weight_decay=0.0,
                        cosine_schedule=False, epochs=1)
        defaults.update(kw)
        return TrainingConfig(**defaults)

    def test_clipping_rescales_to_norm(self):
        # zero bce model: output error 0.5, gradient 0.5 * (x, 1) with |(x, 1)| = 5
        model = init_classifier([3, 1], 0).with_parameters([np.zeros((1, 3)), np.zeros(1)])
        x, y = np.array([[2.0, 2.0, 4.0]]), np.array([0])
        grads, _ = backward(model, x, y, clip_norm=1.0)
        norm = math.sqrt(sum(float((g**2).sum()) for g in grads))
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(grads[0], [[0.4, 0.4, 0.8]], atol=1e-12)
        assert np.allclose(grads[1], [0.2], atol=1e-12)

    @pytest.mark.parametrize("sizes,loss", [([3, 4, 2], "ce"), ([4, 6, 5, 3], "ce"),
                                            ([16, 32, 2], "ce"), ([2, 64, 64, 64, 1], "bce")])
    def test_clipped_mean_matches_per_example_reference(self, sizes, loss):
        rng = np.random.default_rng(sum(sizes))
        model = random_model(rng, sizes)
        x = rng.normal(size=(16, sizes[0]))
        y = rng.integers(0, 2 if loss == "bce" else sizes[-1], size=16)
        per_grads, _ = per_example_gradients(model, x, y)
        norms = per_example_norms(per_grads)
        for clip in (norms.min() / 2, float(np.median(norms)), norms.max() * 2):
            expected = clipped_mean_reference(per_grads, clip)
            grads, _ = backward(model, x, y, clip_norm=clip)
            for g, e in zip(grads, expected):
                assert g.shape == e.shape
                assert np.max(np.abs(g - e)) < 1e-12

    @pytest.mark.parametrize("loss", ["ce", "bce"])
    def test_clip_above_every_norm_is_plain_backward_bitwise(self, loss):
        # 40 rows, the last batch of a 1000-row training set: 1/40 is not a power of two
        for rows in (8, 40):
            rng = np.random.default_rng(3)
            sizes = [3, 4, 2] if loss == "ce" else [3, 4, 1]
            model = random_model(rng, sizes)
            x = rng.normal(size=(rows, 3))
            y = rng.integers(0, 2, size=rows)
            per_grads, _ = per_example_gradients(model, x, y)
            plain, plain_loss = backward(model, x, y)
            for clip in (float(per_example_norms(per_grads).max()) * (1 + 1e-9), 1e6):
                clipped, clipped_loss = backward(model, x, y, clip_norm=clip)
                assert clipped_loss == plain_loss
                for a, b in zip(clipped, plain):
                    assert np.array_equal(a, b)

    def test_nonpositive_clip_norm_rejected(self):
        model = init_classifier([2, 2], 0)
        with pytest.raises(ValueError):
            backward(model, np.zeros((1, 2)), np.array([0]), clip_norm=0.0)

    def test_noise_std_matches_monte_carlo(self):
        # one step on 40 rows with batch_size 64: the noise is scaled by the 40
        # rows in the batch, not by batch_size; the 4866 parameter coordinates
        # estimate its std
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(40, 16)), rng.integers(0, 2, size=40)
        cfg = self.cfg(learning_rate=0.5, batch_size=64)
        noisy = train(x, y, 0, cfg, (16, 256, 2), DPConfig(2.0, 0.8))
        plain = train(x, y, 0, cfg, (16, 256, 2), DPConfig(2.0, 0.0))
        diff = np.concatenate([(a - b).reshape(-1)
                               for a, b in zip(noisy.parameters(), plain.parameters())])
        assert diff.size == 4866
        assert float(np.std(diff)) == pytest.approx(0.5 * 0.8 * 2.0 / 40, rel=0.05)

    def test_sigma_zero_draws_no_noise(self):
        # a DP run with sigma 0 is the clipped run without noise, byte for byte
        ds = generate_synthetic([[-3, -3], [3, 3]], 0.5, 100, 11)
        cfg, dp = TrainingConfig(epochs=3, batch_size=32), DPConfig(0.5, 0.0)
        [(model, history)] = train_many([ds.features], [ds.labels], [3], cfg, (2, 8, 2), dp)
        ref_model, ref_history = reference_train(ds.features, ds.labels, 3, cfg, (2, 8, 2), dp)
        assert history == ref_history
        for a, b in zip(model.parameters(), ref_model.parameters()):
            assert a.tobytes() == b.tobytes()


class TestTrain:
    def separable(self, n=400):
        return generate_synthetic([[-3, -3], [3, 3]], 0.5, n, 11)

    def test_reaches_high_accuracy_on_separable_data(self):
        ds = self.separable()
        model = train(ds.features, ds.labels, 1, TrainingConfig(epochs=20), (2, 16, 2))
        assert accuracy(model, ds.features, ds.labels) >= 0.99

    @pytest.mark.parametrize("label", [2.0, 0.5, -1.0, 2])
    def test_bce_labels_must_be_zero_or_one(self, label):
        x = np.random.default_rng(0).normal(size=(20, 2))
        cfg = TrainingConfig(epochs=3)
        with pytest.raises(ValueError, match="bce labels must be 0 or 1"):
            train(x, [label] * 20, 1, cfg, (2, 4, 1))
        model = init_classifier((2, 4, 1), 0)
        with pytest.raises(ValueError, match="bce labels must be 0 or 1"):
            backward(model, x, [label] * 20)
        for valid in ([0, 1] * 10, [0.0, 1.0] * 10, [False, True] * 10):
            train(x, valid, 1, cfg, (2, 4, 1))
            backward(model, x, valid)

    def test_zero_epochs_returns_initial_model(self):
        ds = self.separable(50)
        model = train(ds.features, ds.labels, 4, TrainingConfig(epochs=0), (2, 8, 2))
        init = init_classifier((2, 8, 2), derive_seed(4, "model-init"))
        for a, b in zip(model.parameters(), init.parameters()):
            # a non-DP model trains in float32 from the init rounded to it
            assert a.dtype == np.float64
            assert np.array_equal(a, b.astype(np.float32).astype(np.float64))

    def test_deterministic(self):
        ds = self.separable(100)
        cfg = TrainingConfig(epochs=3)
        a = train(ds.features, ds.labels, 7, cfg, (2, 8, 2))
        b = train(ds.features, ds.labels, 7, cfg, (2, 8, 2))
        for wa, wb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(wa, wb)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_loss_decreases_over_epochs(self, seed):
        ds = self.separable(256)
        [(_, history)] = train_many([ds.features], [ds.labels], [seed], TrainingConfig(epochs=10),
                                    (2, 8, 2))
        assert history[-1] < history[0]

    # 100 rows in batches of 32: every epoch ends on a short batch of 4
    @pytest.mark.parametrize("case", ["ce", "bce", "dp_noise", "constant_lr"])
    def test_matches_reference_loop_bitwise(self, case):
        ds = self.separable(100)
        cfg = TrainingConfig(epochs=3, batch_size=32)
        sizes, dp = (2, 8, 2), None
        if case == "bce":
            sizes = (2, 8, 8, 1)
        elif case == "dp_noise":
            dp = DPConfig(clip_norm=0.5, noise_multiplier=0.7)
        elif case == "constant_lr":
            cfg = dataclasses.replace(cfg, cosine_schedule=False)
        [(model, history)] = train_many([ds.features], [ds.labels], [3], cfg, sizes, dp)
        ref_model, ref_history = reference_train(ds.features, ds.labels, 3, cfg, sizes, dp)
        assert history == ref_history
        for a, b in zip(model.parameters(), ref_model.parameters()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dp", [None, DPConfig(clip_norm=0.5, noise_multiplier=0.7)])
    def test_train_many_equals_separate_trains(self, dp):
        ds = self.separable(200)
        xs, ys = [ds.features[:100], ds.features[100:]], [ds.labels[:100], ds.labels[100:]]
        cfg = TrainingConfig(epochs=3, batch_size=32)
        stacked = train_many(xs, ys, [1, 2], cfg, (2, 8, 2), dp)
        for x, y, seed, (model, history) in zip(xs, ys, [1, 2], stacked):
            [(alone, alone_history)] = train_many([x], [y], [seed], cfg, (2, 8, 2), dp)
            assert history == alone_history
            for a, b in zip(model.parameters(), alone.parameters()):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("mismatch", ["rows", "layer_sizes"])
    def test_train_many_rejects_mismatched_jobs(self, mismatch):
        ds = self.separable(200)
        xs, ys = [ds.features[:100], ds.features[100:]], [ds.labels[:100], ds.labels[100:]]
        if mismatch == "rows":
            xs[1], ys[1] = xs[1][:90], ys[1][:90]
        else:
            xs[1] = np.hstack([xs[1], xs[1]])
        with pytest.raises(ValueError):
            train_many(xs, ys, [1, 2], TrainingConfig(epochs=1), (2, 8, 2))

    def test_divergence_stops_after_first_epoch(self):
        ds = self.separable(100)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite parameters after epoch 1$"):
            train(ds.features, ds.labels, 0, TrainingConfig(learning_rate=1e308), (2, 8, 2))

    def test_dp_training_runs(self):
        ds = self.separable(100)
        model = train(ds.features, ds.labels, 5, TrainingConfig(epochs=2), (2, 8, 2),
                      DPConfig(10.0, 0.1))
        assert all(np.isfinite(p).all() for p in model.parameters())


class TestTrainingDtype:
    """Float32 training: every kernel keeps its inputs' dtype, so nothing in
    the loop is promoted back to float64."""

    @staticmethod
    def stacked(sizes, dtype, k=2, n=8):
        rng = np.random.default_rng(7)
        models = [random_model(rng, sizes) for _ in range(k)]
        weights = [np.stack([m.weights[i] for m in models]).astype(dtype) for i in range(len(sizes) - 1)]
        biases = [np.stack([m.biases[i] for m in models])[:, None].astype(dtype)
                  for i in range(len(sizes) - 1)]
        x = rng.normal(size=(k, n, sizes[0])).astype(dtype)
        y = np.stack([_targets(rng.integers(0, 2, n), sizes[-1], dtype) for _ in range(k)])
        return weights, biases, x, y

    @pytest.mark.parametrize("sizes,loss", [((3, 4, 2), "ce"), ((3, 4, 4, 1), "bce")])
    def test_gradients_stay_float32(self, sizes, loss):
        weights, biases, x, y = self.stacked(sizes, np.float32)
        if loss == "bce":
            assert y.dtype == np.float32
        acts = _forward_cached(weights, biases, x)
        delta, _ = _output_delta(acts[-1], y)
        assert acts[-1].dtype == delta.dtype == np.float32
        out = []
        for w in weights:
            out.extend((np.full(w.shape, np.nan, np.float32), np.full(w.shape[:2], np.nan, np.float32)))
        mean_loss = _gradients(weights, biases, x, y, None, out)
        assert mean_loss.dtype == np.float32 and mean_loss.shape == (2,)
        # the same stacked gradients in float64, to float32's precision
        ref = [np.empty(g.shape) for g in out]
        ref_loss = _gradients(*self.stacked(sizes, np.float64), None, ref)
        assert np.allclose(mean_loss, ref_loss, rtol=1e-5)
        for g, r in zip(out, ref):
            assert np.allclose(g, r, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    def test_no_subnormal_errors_in_float32(self, monkeypatch, clip_norm):
        # output biases of +-47.5: logit gaps of about 95, so every correctly
        # labelled row has a softmax probability of about e^-95, a float32 subnormal
        weights, biases, x, y = self.stacked((3, 4, 2), np.float32, n=64)
        biases[-1][..., :] = [47.5, -47.5]
        assert (y == 0).any() and (y == 1).any()
        errors = []
        real_layer_errors = nn._layer_errors

        def recording(weights, acts, delta):
            for l, d in real_layer_errors(weights, acts, delta):
                errors.append(d.copy())
                yield l, d

        monkeypatch.setattr(nn, "_layer_errors", recording)
        out = [np.empty(p.shape, np.float32) for pair in zip(weights, biases) for p in pair]
        out[1::2] = [g[:, 0] for g in out[1::2]]
        _gradients(weights, biases, x, y, clip_norm, out)
        assert len(errors) == 2  # one backprop recurrence, clipped or not
        assert all((d != 0).any() for d in errors)  # the misclassified rows
        tiny = np.finfo(np.float32).tiny
        for d in errors:
            assert d.dtype == np.float32
            assert not ((d != 0) & (np.abs(d) < tiny)).any()
        assert all(np.isfinite(g).all() for g in out)

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    @pytest.mark.parametrize("gap", [None, 95.0])
    def test_cut_leaves_float64_backward_unchanged(self, monkeypatch, clip_norm, gap):
        # the cut only zeroes output errors in place, so backward is byte-identical
        # with and without it when it leaves the errors as _output_delta made them;
        # errors of about e^-95 are normal in float64 and must be left too
        rng = np.random.default_rng(11)
        model = random_model(rng, (16, 32, 2))
        if gap is not None:
            model = model.with_parameters([*model.parameters()[:-1], np.array([gap, -gap]) / 2])
        x, y = rng.normal(size=(64, 16)), rng.integers(0, 2, size=64)
        made = []
        real_output_delta = nn._output_delta

        def recording(logits, y):
            delta, mean_loss = real_output_delta(logits, y)
            made.append((delta, delta.tobytes()))
            return delta, mean_loss

        monkeypatch.setattr(nn, "_output_delta", recording)
        backward(model, x, y, clip_norm=clip_norm)
        (delta, before), = made
        assert delta.dtype == np.float64
        if gap is not None:
            assert ((delta != 0) & (np.abs(delta) < 1e-38)).any()
        assert delta.tobytes() == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sq_norms_keep_dtype(self, dtype):
        weights, biases, x, y = self.stacked((3, 4, 2), dtype)
        acts = _forward_cached(weights, biases, x)
        delta, _ = _output_delta(acts[-1], y)
        assert delta.dtype == dtype
        assert _sq_norms(acts, nn._layer_errors(weights, acts, delta)).dtype == dtype

