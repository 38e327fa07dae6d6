"""AdamW with decoupled weight decay, warmup/decay schedule, clipping, label smoothing."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import ctc
from .corpus import Vocabulary

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class StageConfig:
    """Full hyperparameter record for one training stage."""

    learning_rate: float
    epochs: int
    batch_size: int
    warmup_ratio: float = 0.1
    weight_decay: float = 0.01
    label_smoothing: float = 0.0
    grad_clip_norm: float | None = 1.0
    patience: int | None = 3
    dropout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("learning_rate, epochs and batch_size must be positive")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ValueError("warmup_ratio must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must lie in [0, 1)")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ValueError("grad_clip_norm must be positive or None")
        if self.patience is not None and self.patience < 0:
            raise ValueError("patience must be >= 0 or None")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


# Stage presets. Stage 3 epochs follow the small-data end of the stated
# 10-15 range; patience None means early stopping is disabled.
PRESETS: dict[str, StageConfig] = {
    "stage1": StageConfig(learning_rate=1e-4, epochs=15, batch_size=8, warmup_ratio=0.1,
                          weight_decay=0.01, label_smoothing=0.0, grad_clip_norm=1.0,
                          patience=3, dropout_rate=0.0),
    "stage2-cpt": StageConfig(learning_rate=5e-5, epochs=3, batch_size=8, warmup_ratio=0.1,
                              weight_decay=0.01, label_smoothing=0.0, grad_clip_norm=1.0,
                              patience=None, dropout_rate=0.0),
    "stage3-finetune": StageConfig(learning_rate=1e-4, epochs=15, batch_size=8, warmup_ratio=0.1,
                                   weight_decay=0.01, label_smoothing=0.1, grad_clip_norm=1.0,
                                   patience=3, dropout_rate=0.1),
    "baseline": StageConfig(learning_rate=1e-4, epochs=15, batch_size=8, warmup_ratio=0.1,
                            weight_decay=0.01, label_smoothing=0.0, grad_clip_norm=1.0,
                            patience=3, dropout_rate=0.0),
}


def preset(name: str, **overrides) -> StageConfig:
    """A named preset, optionally with individual fields overridden."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    cfg = PRESETS[name]
    return replace(cfg, **overrides) if overrides else cfg


def lr_at(step: int, total_steps: int, cfg: StageConfig) -> float:
    """Piecewise-linear schedule: ramp 0 -> lr over the warmup steps, then decay to 0."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup_steps = math.ceil(cfg.warmup_ratio * total_steps)
    if step <= warmup_steps:
        if warmup_steps == 0:
            return cfg.learning_rate
        return cfg.learning_rate * step / warmup_steps
    return cfg.learning_rate * (total_steps - step) / (total_steps - warmup_steps)


def global_grad_norm(grads: np.ndarray) -> float:
    return math.sqrt(np.sum(grads * grads))


def clip_gradients(grads: np.ndarray, max_norm: float) -> tuple[np.ndarray, float]:
    """Scale the gradient vector so its L2 norm is at most ``max_norm``.

    Returns the (possibly rescaled) vector and the applied scale.
    Non-finite gradients raise, since they signal divergence.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    if not np.all(np.isfinite(grads)):
        raise FloatingPointError("non-finite gradient")
    norm = global_grad_norm(grads)
    if norm <= max_norm:
        return grads, 1.0
    scale = max_norm / norm
    return grads * scale, scale


@dataclass
class OptState:
    """First/second moment vectors, shaped like the flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, theta: np.ndarray) -> "OptState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta))


def adamw_step(
    theta: np.ndarray,
    grads: np.ndarray,
    state: OptState,
    lr: float,
    cfg: StageConfig,
) -> tuple[np.ndarray, OptState]:
    """One bias-corrected Adam step with decoupled weight decay on the parameter vector.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * weight_decay * theta.
    Inputs are not mutated; a fresh vector and state are returned.
    """
    if grads.shape != theta.shape:
        raise ValueError(f"gradient shape {grads.shape} != parameter shape {theta.shape}")
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_theta = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS) - lr * cfg.weight_decay * theta
    return new_theta, OptState(m=m, v=v, step=t)


def smoothed_ctc_objective_batch(
    logits: np.ndarray,
    lengths: Sequence[int],
    targets: Sequence[str],
    vocab: Vocabulary,
    smoothing: float,
) -> tuple[np.ndarray, np.ndarray]:
    """CTC loss blended with a per-frame uniform-KL regularizer, per member of a padded batch.

    ``logits`` is B x T x C and member b owns its first ``lengths[b]``
    frames. loss_b = (1-s) * ctc_b + s * mean_u KL(uniform || softmax(logits_b,u)),
    with the mean over member b's frames; ctc and its gradient come from
    :func:`ctc.ctc_loss_and_grad_batch`, which shares this function's one
    log-softmax. The KL term's logit gradient is softmax minus uniform, so
    the combined gradient stays exact; rows of padded frames are zero.
    With smoothing 0 this is plain CTC, returned as is.
    """
    if not 0.0 <= smoothing < 1.0:
        raise ValueError("smoothing must lie in [0, 1)")
    log_probs = ctc.log_softmax(logits, axis=2)
    losses, grad = ctc.ctc_loss_and_grad_batch(log_probs, lengths, targets, vocab)
    if smoothing == 0.0:
        return losses, grad
    lengths = np.asarray(lengths)
    n_classes = log_probs.shape[2]
    frame_ok = (np.arange(log_probs.shape[1]) < lengths[:, None])[:, :, None]
    # KL(u || p) per frame = -log C - mean_k log p_k
    kl = -math.log(n_classes) - np.sum(log_probs, axis=(1, 2), where=frame_ok) / (lengths * n_classes)
    kl_grad = (smoothing / lengths[:, None, None]) * (np.exp(log_probs) - 1.0 / n_classes)
    losses = (1.0 - smoothing) * losses + smoothing * kl
    grad = (1.0 - smoothing) * grad + np.where(frame_ok, kl_grad, 0.0)
    return losses, grad


def smoothed_ctc_objective(
    logits: np.ndarray,
    target: str,
    vocab: Vocabulary,
    smoothing: float,
) -> tuple[float, np.ndarray]:
    """Smoothed CTC loss and logit gradient of one T x C utterance.

    A batch of one through :func:`smoothed_ctc_objective_batch`.
    """
    logits = np.asarray(logits, dtype=np.float64)
    losses, grad = smoothed_ctc_objective_batch(logits[None], [logits.shape[0]], [target], vocab, smoothing)
    return float(losses[0]), grad[0]
