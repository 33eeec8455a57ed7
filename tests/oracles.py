"""Reference implementations that tests compare the package against.

None of these is part of an audit run, so they live beside the tests:
  - `GaussianFit`, `GaussianPair` and `gaussian_difference`: the
    difference-of-Gaussians model of a calibrated score (acceptance
    criterion 2);
  - `run_security_game` and `GameRound`: the coin-flip membership game that a
    null attack must not win (acceptance criterion 3);
  - `sgd_step`: one momentum-SGD update of a single model, the update that
    the spelled-out float32 training loop `reference_train` applies in place;
    `nn.train_many` must match that loop bit for bit;
  - `train`: one model, as the one-job call of `nn.train_many`;
  - `train_scoring_models`: scoring nets fitted straight from shadow feature
    matrices, the composition the pipeline spreads over its stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mia_audit.attacks import VARIANCE_FLOOR, ScoringModel, scoring_features
from mia_audit.nn import (TrainingConfig, _gradients, _targets, init_classifier, schedule_lr,
                          train_many)
from mia_audit.seeding import derive_rng, derive_seed


@dataclass(frozen=True)
class GaussianFit:
    """Mean and variance of a score population (variance floored at 1e-8)."""

    mu: float
    sigma2: float

    def __post_init__(self):
        if self.sigma2 < VARIANCE_FLOOR:
            raise ValueError(f"sigma2 below the variance floor: {self.sigma2}")


@dataclass(frozen=True)
class GaussianPair:
    tar: GaussianFit
    ref: GaussianFit


def gaussian_difference(pair: GaussianPair) -> GaussianFit:
    """Distribution of tar - ref for independent Gaussians: N(mu_tar - mu_ref,
    sigma2_tar + sigma2_ref)."""
    return GaussianFit(pair.tar.mu - pair.ref.mu, pair.tar.sigma2 + pair.ref.sigma2)


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
    scores = np.asarray(scores, dtype=np.float64)
    member = np.asarray(is_member, dtype=bool)
    if member.all() or not member.any():
        raise ValueError("need at least one member and one non-member")
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


def sgd_step(model, gradients, config: TrainingConfig, velocity=None, step: int = 0, total_steps: int = 1):
    """One momentum-SGD update; returns (updated model, updated velocity).

    Effective gradient is g + weight_decay * theta; velocity accumulates it
    with the momentum factor and the scheduled learning rate scales the step.
    The model and velocity passed in are left unchanged.
    """
    params = [p.copy() for p in model.parameters()]
    if len(gradients) != len(params):
        raise ValueError(f"{len(gradients)} gradients for {len(params)} parameters")
    for g, p in zip(gradients, params):
        if np.shape(g) != p.shape:
            raise ValueError(f"gradient shape {np.shape(g)} does not match parameter shape {p.shape}")
    if velocity is None:
        velocity = [np.zeros_like(p) for p in params]
    else:
        velocity = [np.array(v, dtype=np.float64) for v in velocity]
    lr = schedule_lr(config, step, total_steps)
    for p, g, v in zip(params, gradients, velocity):
        v *= config.momentum
        v += g + config.weight_decay * p
        p -= lr * v
    return model.with_parameters(params), velocity


def train(x, y, seed, config, layer_sizes, dp=None):
    """The model of the one-job nn.train_many call, without its loss history."""
    return train_many([x], [y], [seed], config, layer_sizes, dp)[0][0]


def reference_train(x, y, seed, config, layer_sizes, dp=None):
    """The training loop spelled out step by step, one model, in float32.

    It keeps float32 parameters, gradients and velocity: gradients come from
    backward's kernel `_gradients`, clipped when `dp` is set, then
    the step's DP-SGD noise, drawn by its own Box-Muller steps from the
    model's uniforms, is added to them in place, and sgd_step's update is
    applied to the float32 arrays in place. The model returned is widened to
    float64.
    """
    model = init_classifier(layer_sizes, derive_seed(seed, "model-init"))
    params = [p.astype(np.float32) for p in model.parameters()]
    velocity = [np.zeros_like(p) for p in params]
    x32 = np.asarray(x, dtype=np.float32)
    n = len(x)
    total_steps = config.epochs * math.ceil(n / config.batch_size)
    shuffle_rng = derive_rng(seed, "batch-order")
    noise_rng = derive_rng(seed, "dp-noise")
    clip_norm = dp.clip_norm if dp is not None else None
    num_params = sum(p.size for p in params)
    history, step = [], 0
    for _ in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            grads = [np.empty_like(p) for p in params]
            targets = _targets(y[idx], layer_sizes[-1], np.float32)
            batch_loss = _gradients(params[0::2], params[1::2], x32[idx], targets, clip_norm, grads)
            if dp is not None and dp.noise_multiplier > 0:
                # Box-Muller in float32 on 2 * ceil(P / 2) uniforms: radii from the
                # first half, angles from the second; the cosines, then the sines,
                # go to the parameters in order, the last value unused for an odd P
                std = np.float32(dp.noise_multiplier * dp.clip_norm / len(idx))
                u = noise_rng.random(2 * math.ceil(num_params / 2))
                half = len(u) // 2
                log = np.log((1.0 - u[:half]).astype(np.float32))
                radius = np.sqrt(log * np.float32(-2.0)) * std
                angle = u[half:].astype(np.float32) * np.float32(2.0 * math.pi)
                noise = np.concatenate([np.cos(angle) * radius, np.sin(angle) * radius])
                offset = 0
                for g in grads:
                    g += noise[offset : offset + g.size].reshape(g.shape)
                    offset += g.size
            lr = schedule_lr(config, step, total_steps)
            for p, g, v in zip(params, grads, velocity):
                v *= config.momentum
                v += g + config.weight_decay * p
                p -= lr * v
            # the product rounds in float32, the sum runs in float64
            epoch_loss += float(batch_loss * len(idx))
            step += 1
        history.append(epoch_loss / n)
    return model.with_parameters([p.astype(np.float64) for p in params]), history


def train_scoring_models(features, is_member, seeds, config, hidden_sizes) -> list[ScoringModel]:
    """One scoring net per (n, 2) shadow feature matrix against the shared
    shadow membership, with BCE loss (one output unit), all in one train_many
    loop under `config`; seeds[k] goes with features[k]."""
    inputs = [scoring_features(feats, is_member) for feats in features]
    targets = [np.asarray(is_member, dtype=np.float64)] * len(inputs)
    pairs = train_many([z for z, _, _ in inputs], targets, seeds, config, (2, *hidden_sizes, 1))
    return [ScoringModel(mlp, mean, std) for (mlp, _), (_, mean, std) in zip(pairs, inputs)]
