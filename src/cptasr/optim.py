"""AdamW with decoupled weight decay, warmup/decay schedule, gradient clipping, stage configs."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .fieldcheck import check_field

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Every stage shares these: warmup share of the steps, decoupled weight
# decay, and the global-norm clip bound.
WARMUP_RATIO = 0.1
WEIGHT_DECAY = 0.01
GRAD_CLIP_NORM = 1.0


@dataclass(frozen=True)
class StageConfig:
    """The hyperparameters one training stage varies; the optimizer constants above are shared."""

    learning_rate: float
    epochs: int
    batch_size: int
    label_smoothing: float = 0.0
    patience: int | None = 3
    dropout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            check_field(f.name, getattr(self, f.name), f.type)
        if self.learning_rate <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("learning_rate, epochs and batch_size must be positive")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must lie in [0, 1)")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1, or None to disable early stopping")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


# Stage presets: each lists only the fields that differ from the StageConfig
# defaults. Stage 3 epochs follow the small-data end of the stated 10-15
# range; patience None means early stopping is disabled. The baseline is
# stage 1 itself, so the no-CPT arm reproduces the labeling model.
PRESETS: dict[str, StageConfig] = {
    "stage1": StageConfig(learning_rate=1e-4, epochs=15, batch_size=8),
    "stage2-cpt": StageConfig(learning_rate=5e-5, epochs=3, batch_size=8, patience=None),
    "stage3-finetune": StageConfig(learning_rate=1e-4, epochs=15, batch_size=8, label_smoothing=0.1,
                                   dropout_rate=0.1),
}
PRESETS["baseline"] = PRESETS["stage1"]


def preset(name: str, **overrides) -> StageConfig:
    """A named preset, optionally with individual fields overridden."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    cfg = PRESETS[name]
    return replace(cfg, **overrides) if overrides else cfg


def lr_at(step: int, total_steps: int, cfg: StageConfig) -> float:
    """Piecewise-linear schedule: ramp 0 -> lr over the first ``WARMUP_RATIO`` of the steps, then decay to 0."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup_steps = math.ceil(WARMUP_RATIO * total_steps)
    if step <= warmup_steps:
        return cfg.learning_rate * step / warmup_steps
    return cfg.learning_rate * (total_steps - step) / (total_steps - warmup_steps)


def global_grad_norm(grads: np.ndarray) -> float:
    return math.sqrt(np.sum(grads * grads))


def clip_gradients(grads: np.ndarray, max_norm: float) -> tuple[np.ndarray, float]:
    """Scale the gradient vector in place so its L2 norm is at most ``max_norm``.

    Returns the vector and the applied scale.
    A non-finite norm raises, since it signals divergence.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_grad_norm(grads)
    if not math.isfinite(norm):
        raise FloatingPointError("non-finite gradient norm")
    if norm <= max_norm:
        return grads, 1.0
    scale = max_norm / norm
    grads *= scale
    return grads, scale


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
) -> None:
    """One bias-corrected Adam step with decoupled weight decay on the parameter vector, in place.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * WEIGHT_DECAY * theta.
    ``theta``, ``state.m`` and ``state.v`` are overwritten and ``state.step``
    advances; ``grads`` is only read. Each element goes through the same
    operations in the same order as the textbook expression, so the result
    is bit-identical to it. Two vectors of scratch live for the call only.
    """
    if grads.shape != theta.shape:
        raise ValueError(f"gradient shape {grads.shape} != parameter shape {theta.shape}")
    t = state.step + 1
    m, v = state.m, state.v
    scratch = np.multiply(grads, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += scratch
    np.multiply(grads, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= grads
    v *= ADAM_BETA2
    v += scratch
    np.divide(m, 1.0 - ADAM_BETA1**t, out=scratch)  # m_hat
    scratch *= lr
    denom = np.divide(v, 1.0 - ADAM_BETA2**t)  # v_hat
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    scratch /= denom  # the Adam update
    np.multiply(theta, lr * WEIGHT_DECAY, out=denom)  # the decay, from the old theta
    theta -= scratch
    theta -= denom
    state.step = t
