"""Schedule, clipping, AdamW against a scalar oracle, smoothed CTC objective."""

import math

import numpy as np
import pytest

from cptasr.corpus import Vocabulary
from cptasr.ctc import ctc_loss_and_grad
from cptasr.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    OptState,
    StageConfig,
    adamw_step,
    clip_gradients,
    global_grad_norm,
    lr_at,
    preset,
    smoothed_ctc_objective,
    smoothed_ctc_objective_batch,
)

from oracles import assert_grad_close, central_difference_grad, random_feasible_instance


def _cfg(**kw):
    base = dict(learning_rate=1e-4, epochs=1, batch_size=1)
    base.update(kw)
    return StageConfig(**base)


def test_lr_schedule_endpoints():
    cfg = _cfg(warmup_ratio=0.1)
    assert lr_at(0, 100, cfg) == 0.0
    assert lr_at(10, 100, cfg) == pytest.approx(cfg.learning_rate)
    assert lr_at(100, 100, cfg) == 0.0


def test_lr_schedule_stated_value():
    cfg = _cfg(learning_rate=1e-4, warmup_ratio=0.1)
    assert lr_at(55, 100, cfg) == pytest.approx(1e-4 * (100 - 55) / (100 - 10))


def test_lr_schedule_piecewise_linear_and_peaked():
    cfg = _cfg(learning_rate=3e-3, warmup_ratio=0.25)
    total = 40
    values = [lr_at(s, total, cfg) for s in range(total + 1)]
    assert max(values) == pytest.approx(cfg.learning_rate)
    warmup = math.ceil(cfg.warmup_ratio * total)
    for s in range(1, warmup):
        assert values[s] - values[s - 1] == pytest.approx(values[1] - values[0])
    for s in range(warmup + 2, total + 1):
        assert values[s] - values[s - 1] == pytest.approx(values[warmup + 1] - values[warmup])


def test_lr_schedule_zero_warmup():
    cfg = _cfg(warmup_ratio=0.0)
    assert lr_at(0, 10, cfg) == pytest.approx(cfg.learning_rate)
    assert lr_at(10, 10, cfg) == 0.0


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
    out, _ = clip_gradients(grads, 1.0)
    assert global_grad_norm(out) == pytest.approx(min(global_grad_norm(grads), 1.0), abs=1e-9)
    again, scale2 = clip_gradients(out, 1.0)
    assert scale2 == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(again, out, rtol=1e-12)


def test_clip_rejects_nonfinite():
    with pytest.raises(FloatingPointError):
        clip_gradients(np.array([np.nan]), 1.0)


def test_adamw_pure_decay_with_zero_gradient():
    cfg = _cfg(weight_decay=0.01)
    theta = np.array([1.0])
    state = OptState.zeros_like(theta)
    out, state = adamw_step(theta, np.array([0.0]), state, lr=0.1, cfg=cfg)
    assert out[0] == pytest.approx(0.999, abs=1e-15)
    assert state.step == 1


def test_adamw_first_step_is_signed_unit_as_eps_vanishes():
    cfg = _cfg(weight_decay=0.0)
    theta = np.array([0.3])
    state = OptState.zeros_like(theta)
    out, _ = adamw_step(theta, np.array([7.0]), state, lr=0.01, cfg=cfg)
    # first bias-corrected step: m_hat/sqrt(v_hat) = g/|g| up to eps
    assert out[0] == pytest.approx(0.3 - 0.01, abs=1e-8)


def test_adamw_matches_scalar_oracle_three_steps():
    cfg = _cfg(weight_decay=0.0)
    theta = np.array([0.7])
    state = OptState.zeros_like(theta)
    w, m, v = 0.7, 0.0, 0.0
    for t, g in enumerate([0.3, -0.2, 0.5], start=1):
        theta, state = adamw_step(theta, np.array([g]), state, lr=0.05, cfg=cfg)
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        w = w - 0.05 * m_hat / (math.sqrt(v_hat) + ADAM_EPS)
    assert theta[0] == pytest.approx(w, abs=1e-12)


def test_adamw_tensors_update_independently():
    cfg = _cfg(weight_decay=0.0)
    rng = np.random.default_rng(1)
    theta = rng.normal(size=6)  # two 3-element tensors: a = [:3], b = [3:]
    grads = rng.normal(size=6)
    state = OptState.zeros_like(theta)
    joint, _ = adamw_step(theta, grads, state, lr=0.01, cfg=cfg)
    solo_a, _ = adamw_step(theta[:3], grads[:3], OptState.zeros_like(theta[:3]), lr=0.01, cfg=cfg)
    np.testing.assert_allclose(joint[:3], solo_a, rtol=1e-15)


def test_adamw_does_not_mutate_inputs():
    cfg = _cfg()
    theta = np.array([1.0])
    grads = np.array([2.0])
    state = OptState.zeros_like(theta)
    adamw_step(theta, grads, state, lr=0.1, cfg=cfg)
    assert theta[0] == 1.0
    assert state.step == 0
    assert state.m[0] == 0.0


def test_adamw_shape_mismatch_rejected():
    cfg = _cfg()
    theta = np.zeros(3)
    state = OptState.zeros_like(theta)
    with pytest.raises(ValueError):
        adamw_step(theta, np.zeros(4), state, lr=0.1, cfg=cfg)


VOCAB = Vocabulary(("a", "b"))


def test_smoothing_zero_equals_plain_ctc():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(4, 3))
    loss, grad = smoothed_ctc_objective(logits, "ab", VOCAB, smoothing=0.0)
    assert loss == pytest.approx(ctc_loss_and_grad(logits, "ab", VOCAB)[0], abs=1e-12)
    np.testing.assert_allclose(grad, ctc_loss_and_grad(logits, "ab", VOCAB)[1], atol=1e-12)


def test_uniform_logits_have_zero_kl_term():
    logits = np.zeros((3, 3))
    loss, _ = smoothed_ctc_objective(logits, "a", VOCAB, smoothing=0.3)
    assert loss == pytest.approx(0.7 * ctc_loss_and_grad(logits, "a", VOCAB)[0], abs=1e-12)


def test_smoothed_loss_lower_bounded_by_scaled_ctc():
    rng = np.random.default_rng(6)
    for _ in range(20):
        logits, target, symbols = random_feasible_instance(rng)
        vocab = Vocabulary(symbols)
        loss, _ = smoothed_ctc_objective(logits, target, vocab, smoothing=0.1)
        assert loss >= 0.9 * ctc_loss_and_grad(logits, target, vocab)[0] - 1e-12


def test_smoothed_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    for _ in range(100):
        logits, target, symbols = random_feasible_instance(rng)
        vocab = Vocabulary(symbols)
        _, grad = smoothed_ctc_objective(logits, target, vocab, smoothing=0.1)
        numeric = central_difference_grad(
            lambda x: smoothed_ctc_objective(x, target, vocab, smoothing=0.1)[0], logits.copy()
        )
        assert_grad_close(grad, numeric)


def test_smoothed_batch_matches_single_utterance_calls():
    rng = np.random.default_rng(31)
    vocab = Vocabulary(("a", "b", "c"))
    targets = ["", "a", "abca", "cc", "b"]
    lengths = [1, 4, 9, 3, 2]
    logits = rng.normal(scale=3.0, size=(len(targets), max(lengths), 4))  # junk past each length
    for smoothing in (0.0, 0.1):
        losses, grad = smoothed_ctc_objective_batch(logits, lengths, targets, vocab, smoothing)
        for b, (n, target) in enumerate(zip(lengths, targets)):
            loss, member_grad = smoothed_ctc_objective(logits[b, :n], target, vocab, smoothing)
            assert abs(losses[b] - loss) <= 1e-12
            np.testing.assert_allclose(grad[b, :n], member_grad, rtol=0, atol=1e-12)
            assert np.all(grad[b, n:] == 0.0)


def test_presets_carry_stage_hyperparameters():
    s1 = preset("stage1")
    assert (s1.learning_rate, s1.epochs, s1.batch_size, s1.patience) == (1e-4, 15, 8, 3)
    s2 = preset("stage2-cpt")
    assert (s2.learning_rate, s2.epochs, s2.batch_size) == (5e-5, 3, 8)
    assert (s2.warmup_ratio, s2.weight_decay, s2.patience) == (0.1, 0.01, None)
    s3 = preset("stage3-finetune")
    assert (s3.label_smoothing, s3.patience) == (0.1, 3)
    assert preset("baseline").learning_rate == 1e-4
    with pytest.raises(ValueError):
        preset("stage9")


def test_preset_overrides():
    s1 = preset("stage1", learning_rate=1e-3, seed=5)
    assert s1.learning_rate == 1e-3 and s1.seed == 5
    assert preset("stage1").learning_rate == 1e-4  # original untouched


def test_stage_config_validation():
    with pytest.raises(ValueError):
        _cfg(learning_rate=0.0)
    with pytest.raises(ValueError):
        _cfg(warmup_ratio=1.0)
    with pytest.raises(ValueError):
        _cfg(grad_clip_norm=0.0)
    with pytest.raises(ValueError):
        _cfg(label_smoothing=1.0)
