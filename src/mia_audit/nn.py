"""Minimal feed-forward classifier with from-scratch backpropagation.

Hidden layers use tanh (keeps finite-difference gradient checks
well-conditioned); the output layer is identity, with softmax applied inside
the loss. Training is plain SGD with momentum, L2 weight decay added to the
gradient, an optional per-step cosine learning-rate schedule annealing to
zero, and an optional differentially-private step (per-example clipping by
ghost clipping, so no per-example gradient is built, plus Gaussian noise).

A DP-SGD step runs the backprop recurrence once: the clipping norms are read
off the same layer errors that then give the gradients, with each row
rescaled in place. Its noise is one float32 Box–Muller block per step, drawn
from each model's own float64 uniforms (see `_box_muller`); no value lies
beyond 8.57 standard deviations, so the noise is Gaussian up to that
cut-off and float32 rounding, which a privacy accounting would ignore.
Against numpy's ziggurat `normal` per model and a second recurrence, this
cut a DP audit's median time from 2.52 to 1.92 s (10 alternating benchmark
pairs, 2 vCPUs, 1 BLAS thread).

`train_many` is the one training loop: it trains K models of one shape on raw
parameter arrays stacked along a leading model axis, updated in place; `train`
is its one-model case. `backward` is the validated wrapper over the same
kernels for a single model; `signals.signal_batch` reads each sample's
gradient norm off `_sq_norms` on a batch it checked once.

Training runs in float32: a step is bound by its `tanh` and small matmul
kernels, which float32 makes about twice as fast. DP-SGD drives its models to
logit gaps of about 220, where softmax probabilities, and the errors built
from them, fall below float32's normal range and slow the kernels several
times over, so `_gradients` zeroes those output errors first. Each returned
model widens exactly to float64; all else (`forward`, `backward`, signals,
attacks) computes in float64, and the kernels keep their inputs' dtype.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .seeding import derive_rng, derive_seed


@dataclass(frozen=True)
class DPConfig:
    """Per-example clipping norm and Gaussian noise multiplier."""

    clip_norm: float = 10.0
    noise_multiplier: float = 0.0

    def __post_init__(self):
        for name in ("clip_norm", "noise_multiplier"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.noise_multiplier < 0:
            raise ValueError("noise_multiplier must be nonnegative")


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 64
    epochs: int = 60
    cosine_schedule: bool = True
    seed: int = 0
    dp: DPConfig | None = None

    def __post_init__(self):
        for name in ("learning_rate", "momentum", "weight_decay", "batch_size", "epochs"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")


@dataclass(frozen=True)
class MLPClassifier:
    """Parameter set: weights[i] has shape (layer_sizes[i+1], layer_sizes[i])."""

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        object.__setattr__(self, "weights", tuple(np.asarray(w, dtype=np.float64) for w in self.weights))
        object.__setattr__(self, "biases", tuple(np.asarray(b, dtype=np.float64) for b in self.biases))
        sizes = self.layer_sizes
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("parameter count does not match layer_sizes")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i + 1], sizes[i]):
                raise ValueError(f"weight {i} has shape {w.shape}, expected {(sizes[i + 1], sizes[i])}")
            if b.shape != (sizes[i + 1],):
                raise ValueError(f"bias {i} has shape {b.shape}, expected {(sizes[i + 1],)}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} has non-finite parameters")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list in the fixed order W0, b0, W1, b1, ..."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def with_parameters(self, params: list[np.ndarray]) -> "MLPClassifier":
        weights = tuple(params[2 * i] for i in range(len(self.weights)))
        biases = tuple(params[2 * i + 1] for i in range(len(self.biases)))
        return MLPClassifier(self.layer_sizes, weights, biases)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


def init_classifier(layer_sizes, seed: int) -> MLPClassifier:
    """Weights ~ N(0, 1/fan_in), biases zero; deterministic per seed."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError(f"need at least 2 layer sizes, got {sizes}")
    if any(s <= 0 for s in sizes):
        raise ValueError(f"layer sizes must be positive, got {sizes}")
    rng = derive_rng(seed, "init", *sizes)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MLPClassifier(sizes, tuple(weights), tuple(biases))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Stable logistic function; keeps a float32 input's dtype."""
    z = np.asarray(z)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _forward_cached(weights, biases, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer, a[0] = input, a[-1] = logits.

    Works on one model's parameters or on stacked ones: every array may carry
    a leading model axis K (weights (K, out, in), biases (K, 1, out), x (K, n, in)).
    """
    acts = [x]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w.mT
        z += b
        acts.append(z if i == last else np.tanh(z, out=z))
    return acts


def _as_batch(model: MLPClassifier, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"input of shape {x.shape} does not match input dim {model.input_dim}")
    return x


def forward(model: MLPClassifier, x: np.ndarray) -> np.ndarray:
    """Logits for a (n, d) batch."""
    return _forward_cached(model.weights, model.biases, _as_batch(model, x))[-1]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _labelled_batch(model: MLPClassifier, x: np.ndarray, y, loss: str = "ce"):
    """x as a (n, d) batch and y as the loss reads it, one label per row."""
    batch = _as_batch(model, x)
    y = _targets(y, loss, model.output_dim)
    if len(y) != batch.shape[0]:
        raise ValueError(f"{len(y)} labels for {batch.shape[0]} samples")
    return batch, y


def per_sample_loss(model: MLPClassifier, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross-entropy of each sample under the model, shape (n,); labels must be
    integer classes in [0, output_dim), one per sample."""
    batch, y = _labelled_batch(model, x, y)
    logp = _log_softmax(_forward_cached(model.weights, model.biases, batch)[-1])
    return -logp[np.arange(len(y)), y]


def _targets(y, loss: str, output_dim: int, dtype=np.float64) -> np.ndarray:
    """Labels as the loss reads them: class indices for ce, 0/1 floats of
    `dtype` (the training dtype) for bce, from labels 0 or 1 (or bools)."""
    y = np.atleast_1d(np.asarray(y))
    if loss == "ce":
        if not np.issubdtype(y.dtype, np.integer) or (y.size and not 0 <= y.min() <= y.max() < output_dim):
            raise ValueError(f"ce labels must be integer classes in [0, {output_dim})")
        return y
    if loss == "bce":
        if output_dim != 1:
            raise ValueError("bce loss requires a single output unit")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("bce labels must be 0 or 1")
        return y.astype(dtype)
    raise ValueError(f"unknown loss {loss!r}")


def _output_delta(logits: np.ndarray, y: np.ndarray, loss: str):
    """Gradient of the mean loss w.r.t. the logits, and the mean loss itself
    (one per model when stacked); y comes from _targets."""
    if loss == "ce":
        logp = _log_softmax(logits)
        delta = np.exp(logp)
        pick = np.arange(y.size) * logits.shape[-1] + y.reshape(-1)  # flat index of each label
        delta.reshape(-1)[pick] -= 1.0
        return delta, -logp.reshape(-1)[pick].reshape(y.shape).mean(axis=-1)
    z = logits[..., 0]
    # softplus(z) - t*z, stable for large |z|
    mean_loss = (np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))).mean(axis=-1)
    return (sigmoid(z) - y)[..., None], mean_loss


def _layer_errors(weights, acts: list[np.ndarray], delta: np.ndarray):
    """Yield (l, error at layer l's output), last layer first: the one backprop recurrence."""
    for l in range(len(weights) - 1, -1, -1):
        yield l, delta
        if l > 0:
            slope = acts[l] ** 2
            np.subtract(1.0, slope, out=slope)
            delta = delta @ weights[l]
            delta *= slope


def _sq_norms(acts: list[np.ndarray], errors) -> np.ndarray:
    """Squared L2 norm of each row's full gradient, from the (l, error) pairs
    of _layer_errors.

    Uses ||outer(d, a)||_F^2 = |d|^2 |a|^2 per layer (plus |d|^2 for the
    bias), so nothing is materialized per example.
    """
    norms = np.zeros(acts[-1].shape[:-1], dtype=acts[-1].dtype)
    for l, d in errors:
        d2 = (d**2).sum(axis=-1)
        norms += d2 * (acts[l] ** 2).sum(axis=-1) + d2
    return norms


def _gradients(weights, biases, x: np.ndarray, y: np.ndarray, loss: str, clip_norm: float | None,
               out: list[np.ndarray]):
    """Write the mean gradients into `out` (parameters() order) and return the
    mean loss, both in the dtype of the parameters and x; see backward. Each
    bias gradient is shaped as its error summed over the batch axis, (out,) or
    (K, out), and each weight gradient as its weight; train_many passes views
    into its flat gradient vector."""
    acts = _forward_cached(weights, biases, x)
    delta, mean_loss = _output_delta(acts[-1], y, loss)
    # zero each error whose square would be subnormal (below about 1.1e-19 in float32)
    delta[np.abs(delta) < math.sqrt(np.finfo(delta.dtype).tiny)] = 0.0
    errors = _layer_errors(weights, acts, delta / x.shape[-2])
    if clip_norm is not None:
        # the errors carry the 1/n of the mean, so each row's norm is compared
        # with clip_norm / n; a row within the bound is multiplied by exactly 1
        errors = list(errors)
        bound = clip_norm / x.shape[-2]
        scale = bound / np.maximum(np.sqrt(_sq_norms(acts, errors)), bound)
        for _, d in errors:
            d *= scale[..., None]
    for l, d in errors:
        np.sum(d, axis=-2, out=out[2 * l + 1])
        np.matmul(d.mT, acts[l], out=out[2 * l])
    return mean_loss


def backward(model: MLPClassifier, x: np.ndarray, y: np.ndarray, loss: str = "ce",
             clip_norm: float | None = None):
    """Mean-over-batch gradients of the loss w.r.t. every parameter.

    With clip_norm set, each example's gradient is first rescaled to L2 norm
    at most clip_norm (the DP-SGD clipped mean) by ghost clipping, off one
    backprop recurrence on the output errors over n: _sq_norms reads each
    row's norm from those layer errors, and each row of them is multiplied by
    bound / max(norm, bound) with bound = clip_norm / n. An example within the
    bound is multiplied by exactly 1 and keeps its gradient bit for bit.

    Returns (gradients, mean_loss) with gradients in parameters() order.
    """
    batch, y = _labelled_batch(model, x, y, loss)
    if batch.shape[0] == 0:
        raise ValueError("empty batch")
    if clip_norm is not None and not clip_norm > 0:
        raise ValueError("clip_norm must be positive")
    grads = [np.empty_like(p) for p in model.parameters()]
    mean_loss = _gradients(model.weights, model.biases, batch, y, loss, clip_norm, grads)
    return grads, float(mean_loss)


def schedule_lr(config: TrainingConfig, step: int, total_steps: int) -> float:
    """Per-step learning rate: cosine from learning_rate down to 0, or constant."""
    if not config.cosine_schedule:
        return config.learning_rate
    if total_steps <= 0:
        return config.learning_rate
    return config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def _box_muller(uniform: np.ndarray, scale: float) -> np.ndarray:
    """Gaussian noise of standard deviation `scale` in float32, shaped as
    `uniform`, from float64 uniforms in [0, 1) whose last axis is even.

    Box–Muller in float32: u from the first half of a row and v from the
    second give the radius sqrt(-2 ln(1 - u)) times scale and the angle
    2 pi v; the cosines fill the first half of the row, the sines the second.
    1 - u is taken in float64 and is at least 2^-53, so no value exceeds
    sqrt(106 ln 2) ~ 8.57 standard deviations.
    """
    half = uniform.shape[-1] // 2
    radius = np.empty((*uniform.shape[:-1], half), np.float32)
    np.subtract(1.0, uniform[..., :half], out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    radius *= scale
    angle = uniform[..., half:].astype(np.float32)
    angle *= 2.0 * math.pi
    out = np.empty(uniform.shape, np.float32)
    np.multiply(np.cos(angle), radius, out=out[..., :half])
    np.multiply(np.sin(angle), radius, out=out[..., half:])
    return out


def train_many(xs, ys, configs, layer_sizes, loss: str = "ce",
               return_loss_history: bool = False) -> list:
    """Train K models of one shape in one loop over stacked parameter arrays.

    Model k equals train(xs[k], ys[k], configs[k], layer_sizes, loss) bit for
    bit: it keeps its own initialization, batch-order and DP-noise streams,
    derived from its config's seed. The jobs must share their row count and
    every TrainingConfig field except seed, so they share one step count and
    learning-rate schedule. `pipeline.run_pipelines` trains its runs' target,
    shadow, reference and scoring models in such groups. Weights are stacked
    to (K, out, in) and biases to (K, 1, out), as views of one flat vector
    updated in place; the gradients are written in place into views of
    another. Inputs are checked once here, and each MLPClassifier is built
    once, at the end. Parameters are checked for finiteness after every
    epoch, so a diverged run stops early.

    The loop runs in float32 (see the module docstring): data, targets,
    parameters, gradients, velocity and losses, from the float64 initialization
    rounded to float32; the models returned widen it to float64.

    With DP noise, each step fills row k of one (K, 2 ceil(P / 2)) float64
    buffer from model k's "dp-noise" generator, where P is a model's
    parameter count; _box_muller turns the buffer into one block of normals
    of std noise_multiplier * clip_norm / (rows in the batch), and each
    parameter gets its slice of every row in one add, parameters() order, the
    last value unused when P is odd.

    Returns the K models, or K (model, per-epoch mean loss list) pairs with
    return_loss_history.
    """
    configs = list(configs)
    if not configs or not len(xs) == len(ys) == len(configs):
        raise ValueError(f"need one x, y and config per job, got {len(xs)}, {len(ys)}, {len(configs)}")
    config = configs[0]
    if any(dataclasses.replace(c, seed=config.seed) != config for c in configs):
        raise ValueError("stacked jobs must share every TrainingConfig field except seed")
    inits = [init_classifier(layer_sizes, derive_seed(c.seed, "model-init")) for c in configs]
    sizes = inits[0].layer_sizes
    xs = [np.asarray(v, dtype=np.float32) for v in xs]
    ys = [_targets(t, loss, sizes[-1], np.float32) for t in ys]
    if any(v.ndim != 2 or v.shape[0] == 0 for v in xs):
        raise ValueError("training slice must be a nonempty (n, d) matrix")
    n = xs[0].shape[0]
    for v, t in zip(xs, ys):
        if v.shape[1] != sizes[0]:
            raise ValueError(f"training slice of shape {v.shape} does not match layer sizes {sizes}")
        if v.shape[0] != n:
            raise ValueError(f"stacked jobs must share a row count, got {n} and {v.shape[0]}")
        if len(t) != n:
            raise ValueError(f"{len(t)} labels for {n} samples")
    x, y = np.stack(xs), np.stack(ys)
    # every stacked parameter and gradient is a view into one flat vector, so
    # gradients are written in place and the momentum update is a handful of
    # whole-vector operations
    jobs = len(configs)

    def views(vector: np.ndarray) -> list[np.ndarray]:
        out, offset = [], 0
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            for shape in ((jobs, fan_out, fan_in), (jobs, 1, fan_out)):
                out.append(vector[offset : offset + math.prod(shape)].reshape(shape))
                offset += math.prod(shape)
        return out

    flat = np.concatenate([p.reshape(-1) for group in zip(*(m.parameters() for m in inits))
                           for p in group], dtype=np.float32)
    params = views(flat)
    weights, biases = params[0::2], params[1::2]
    flat_grad, velocity = np.empty_like(flat), np.zeros_like(flat)
    # bias gradients as (K, out), the shape of an error summed over the batch
    grads = [g[:, 0] if i % 2 else g for i, g in enumerate(views(flat_grad))]
    shuffle_rngs = [derive_rng(c.seed, "batch-order") for c in configs]
    clip_norm = config.dp.clip_norm if config.dp is not None else None
    # DP-SGD noise on the clipped mean gradient: per-coordinate std
    # noise_multiplier * clip_norm / (rows in the batch); none with sigma 0
    noise_scale = config.dp.noise_multiplier * clip_norm if clip_norm is not None else 0.0
    noise_rngs = [derive_rng(c.seed, "dp-noise") for c in configs] if noise_scale > 0 else []
    ends = np.cumsum([math.prod(g.shape[1:]) for g in grads])  # each parameter's end in a model
    # one row of uniforms per model, two per Box–Muller pair, refilled each step
    uniform = np.empty((jobs, 2 * math.ceil(ends[-1] / 2)))
    total_steps = config.epochs * math.ceil(n / config.batch_size)
    rows = np.arange(jobs)[:, None]
    history = []
    step = 0
    for epoch in range(config.epochs):
        perm = np.stack([rng.permutation(n) for rng in shuffle_rngs])
        epoch_loss = np.zeros(jobs)
        for start in range(0, n, config.batch_size):
            batch = perm[:, start : start + config.batch_size]
            bx, by = x[rows, batch], y[rows, batch]
            batch_loss = _gradients(weights, biases, bx, by, loss, clip_norm, grads)
            if noise_rngs:  # one noise block, in parameters() order along each model's row
                for rng, row in zip(noise_rngs, uniform):
                    rng.random(out=row)
                noise = _box_muller(uniform, noise_scale / bx.shape[1])
                for g, begin, end in zip(grads, [0, *ends], ends):
                    g += noise[:, begin:end].reshape(g.shape)
            # v <- momentum * v + (g + weight_decay * p), then p <- p - lr * v
            flat_grad += config.weight_decay * flat
            velocity *= config.momentum
            velocity += flat_grad
            flat -= schedule_lr(config, step, total_steps) * velocity
            epoch_loss += batch_loss * bx.shape[1]
            step += 1
        history.append(epoch_loss / n)
        if not np.isfinite(flat).all():
            layer = next(i // 2 for i, p in enumerate(params) if not np.isfinite(p).all())
            raise ValueError(f"training diverged: layer {layer} has non-finite parameters "
                             f"after epoch {epoch + 1}")
    models = [MLPClassifier(sizes, tuple(w[k].astype(np.float64) for w in weights),
                            tuple(b[k, 0].astype(np.float64) for b in biases))
              for k in range(jobs)]
    if return_loss_history:
        return [(m, [float(h[k]) for h in history]) for k, m in enumerate(models)]
    return models


def train(x: np.ndarray, y: np.ndarray, config: TrainingConfig, layer_sizes,
          loss: str = "ce", return_loss_history: bool = False):
    """Train an MLP over seeded shuffled batches; pure function of (data, config).

    Runs epochs * ceil(n / batch_size) update steps (the last batch of an
    epoch may be short). Initialization, batch order, and DP noise each use
    rng streams derived from config.seed, so results are bit-reproducible.
    This is train_many on one job; returns the model, or (model, per-epoch
    mean loss list) with return_loss_history.
    """
    return train_many([x], [y], [config], layer_sizes, loss, return_loss_history)[0]

