"""Schedule, clipping, AdamW against a scalar oracle, stage presets."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from cptasr.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    PRESETS,
    WARMUP_RATIO,
    WEIGHT_DECAY,
    OptState,
    StageConfig,
    adamw_step,
    clip_gradients,
    global_grad_norm,
    lr_at,
    preset,
)


def _cfg(**kw):
    base = dict(learning_rate=1e-4, epochs=1, batch_size=1)
    base.update(kw)
    return StageConfig(**base)


def test_lr_schedule_endpoints():
    assert WARMUP_RATIO == 0.1
    cfg = _cfg()
    assert lr_at(0, 100, cfg) == 0.0
    assert lr_at(10, 100, cfg) == pytest.approx(cfg.learning_rate)
    assert lr_at(100, 100, cfg) == 0.0


def test_lr_schedule_stated_value():
    cfg = _cfg(learning_rate=1e-4)
    assert lr_at(55, 100, cfg) == pytest.approx(1e-4 * (100 - 55) / (100 - 10))


def test_lr_schedule_piecewise_linear_and_peaked():
    cfg = _cfg(learning_rate=3e-3)
    total = 40
    values = [lr_at(s, total, cfg) for s in range(total + 1)]
    assert max(values) == pytest.approx(cfg.learning_rate)
    warmup = math.ceil(WARMUP_RATIO * total)
    assert values[warmup] == pytest.approx(cfg.learning_rate)
    for s in range(1, warmup):
        assert values[s] - values[s - 1] == pytest.approx(values[1] - values[0])
    for s in range(warmup + 2, total + 1):
        assert values[s] - values[s - 1] == pytest.approx(values[warmup + 1] - values[warmup])


def test_clip_below_threshold_unchanged():
    grads = np.array([0.3, 0.4])  # norm 0.5
    out, scale = clip_gradients(grads, 1.0)
    assert scale == 1.0
    np.testing.assert_array_equal(out, grads)


def test_clip_halves_norm_two():
    grads = np.array([1.2, 1.6])  # norm 2
    out, scale = clip_gradients(grads, 1.0)
    assert scale == pytest.approx(0.5)
    np.testing.assert_allclose(out, [0.6, 0.8])


def test_clip_post_norm_and_idempotence():
    rng = np.random.default_rng(0)
    grads = np.concatenate([rng.normal(size=(3, 4)).ravel(), rng.normal(size=5)])
    out, _ = clip_gradients(grads.copy(), 1.0)  # clipping scales its argument in place
    assert global_grad_norm(out) == pytest.approx(min(global_grad_norm(grads), 1.0), abs=1e-9)
    again, scale2 = clip_gradients(out.copy(), 1.0)
    assert scale2 == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(again, out, rtol=1e-12)


def test_clip_rejects_nonfinite():
    for grads in ([np.nan], [np.inf], [1.0, np.nan]):
        with pytest.raises(FloatingPointError):
            clip_gradients(np.array(grads), 1.0)


def test_adamw_pure_decay_with_zero_gradient():
    assert WEIGHT_DECAY == 0.01
    theta = np.array([1.0])
    state = OptState.zeros_like(theta)
    adamw_step(theta, np.array([0.0]), state, lr=0.1)
    assert theta[0] == pytest.approx(0.999, abs=1e-15)
    assert state.step == 1


def test_adamw_first_step_is_signed_unit_as_eps_vanishes():
    theta = np.array([0.3])
    state = OptState.zeros_like(theta)
    adamw_step(theta, np.array([7.0]), state, lr=0.01)
    # first bias-corrected step: m_hat/sqrt(v_hat) = g/|g| up to eps, plus the decay of the old theta
    assert theta[0] == pytest.approx(0.3 - 0.01 - 0.01 * WEIGHT_DECAY * 0.3, abs=1e-8)


def test_adamw_matches_scalar_oracle_three_steps():
    theta = np.array([0.7])
    state = OptState.zeros_like(theta)
    w, m, v = 0.7, 0.0, 0.0
    for t, g in enumerate([0.3, -0.2, 0.5], start=1):
        adamw_step(theta, np.array([g]), state, lr=0.05)
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        w = w - 0.05 * m_hat / (math.sqrt(v_hat) + ADAM_EPS) - 0.05 * WEIGHT_DECAY * w
    assert theta[0] == pytest.approx(w, abs=1e-12)


def test_adamw_tensors_update_independently():
    rng = np.random.default_rng(1)
    theta = rng.normal(size=6)  # two 3-element tensors: a = [:3], b = [3:]
    grads = rng.normal(size=6)
    joint = theta.copy()  # the step writes in place, and a slice would be a view of theta
    adamw_step(joint, grads, OptState.zeros_like(theta), lr=0.01)
    solo_a = theta[:3].copy()
    adamw_step(solo_a, grads[:3].copy(), OptState.zeros_like(solo_a), lr=0.01)
    np.testing.assert_allclose(joint[:3], solo_a, rtol=1e-15)


def test_adamw_does_not_mutate_inputs():
    """In place: theta, m and v are written and the step advances; the gradient is only read."""
    theta = np.array([1.0])
    grads = np.array([2.0])
    state = OptState.zeros_like(theta)
    m, v = state.m, state.v
    assert adamw_step(theta, grads, state, lr=0.1) is None
    assert grads[0] == 2.0
    assert theta[0] != 1.0
    assert state.step == 1
    assert state.m is m and state.v is v
    assert state.m[0] != 0.0 and state.v[0] != 0.0


def test_adamw_in_place_matches_out_of_place_formulas_bit_for_bit():
    rng = np.random.default_rng(20)
    theta = rng.normal(size=500)
    state = OptState.zeros_like(theta)
    want_theta, want_m, want_v = theta.copy(), np.zeros(500), np.zeros(500)
    for t in range(1, 21):
        grads = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=500)
        grads.flags.writeable = False  # any write to the gradient raises
        lr = 1e-3 * rng.uniform(0.1, 1.0)
        adamw_step(theta, grads, state, lr)
        want_m = ADAM_BETA1 * want_m + (1.0 - ADAM_BETA1) * grads
        want_v = ADAM_BETA2 * want_v + (1.0 - ADAM_BETA2) * grads * grads
        m_hat = want_m / (1.0 - ADAM_BETA1**t)
        v_hat = want_v / (1.0 - ADAM_BETA2**t)
        want_theta = want_theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS) - lr * WEIGHT_DECAY * want_theta
        assert np.array_equal(state.m, want_m) and np.array_equal(state.v, want_v)
        assert np.array_equal(theta, want_theta)
        assert state.step == t


def test_adamw_shape_mismatch_rejected():
    theta = np.zeros(3)
    state = OptState.zeros_like(theta)
    with pytest.raises(ValueError):
        adamw_step(theta, np.zeros(4), state, lr=0.1)


def test_presets_carry_stage_hyperparameters():
    s1 = preset("stage1")
    assert (s1.learning_rate, s1.epochs, s1.batch_size, s1.patience) == (1e-4, 15, 8, 3)
    s2 = preset("stage2-cpt")
    assert (s2.learning_rate, s2.epochs, s2.batch_size) == (5e-5, 3, 8)
    assert s2.patience is None
    s3 = preset("stage3-finetune")
    assert (s3.label_smoothing, s3.patience) == (0.1, 3)
    assert preset("baseline").learning_rate == 1e-4
    with pytest.raises(ValueError):
        preset("stage9")


def test_presets_pin_every_field():
    stage1 = dict(learning_rate=1e-4, epochs=15, batch_size=8, label_smoothing=0.0, patience=3, dropout_rate=0.0,
                  seed=0)
    assert {name: asdict(cfg) for name, cfg in PRESETS.items()} == {
        "stage1": stage1,
        "stage2-cpt": dict(learning_rate=5e-5, epochs=3, batch_size=8, label_smoothing=0.0, patience=None,
                           dropout_rate=0.0, seed=0),
        "stage3-finetune": dict(learning_rate=1e-4, epochs=15, batch_size=8, label_smoothing=0.1, patience=3,
                                dropout_rate=0.1, seed=0),
        "baseline": stage1,
    }
    assert list(PRESETS) == ["stage1", "stage2-cpt", "stage3-finetune", "baseline"]


def test_preset_overrides():
    s1 = preset("stage1", learning_rate=1e-3, seed=5)
    assert s1.learning_rate == 1e-3 and s1.seed == 5
    assert preset("stage1").learning_rate == 1e-4  # original untouched


def test_stage_config_validation():
    for bad in (dict(learning_rate=float("nan")), dict(label_smoothing=float("inf")), dict(dropout_rate=float("nan")),
                dict(seed=-3), dict(patience=0)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            _cfg(**bad)
    with pytest.raises(ValueError):
        _cfg(learning_rate=0.0)
    with pytest.raises(ValueError):
        _cfg(label_smoothing=1.0)
    for removed in ("warmup_ratio", "weight_decay", "grad_clip_norm"):
        with pytest.raises(TypeError, match=removed):
            _cfg(**{removed: 0.1})
