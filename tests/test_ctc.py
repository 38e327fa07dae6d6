"""CTC loss against exhaustive enumeration, gradient audits, collapse, decoding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cptasr.ctc as ctc_mod
from cptasr.corpus import Vocabulary
from cptasr.ctc import (
    InfeasibleTargetError,
    collapse,
    ctc_loss_and_grad,
    ctc_loss_and_grad_batch,
    greedy_decode,
    log_softmax,
    min_frames,
)

from oracles import (
    assert_grad_close,
    central_difference_grad,
    ctc_loss_by_enumeration,
    random_feasible_instance,
)

VAB = Vocabulary(("a", "b"))
VA = Vocabulary(("a",))


def test_log_softmax_symmetric_pair():
    out = log_softmax(np.array([0.0, 0.0]))
    np.testing.assert_allclose(out, [-math.log(2)] * 2)


def test_log_softmax_large_values_stable():
    out = log_softmax(np.array([1000.0, 0.0]))
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == pytest.approx(-1000.0)
    assert np.all(np.isfinite(out))


def test_log_softmax_exponentials_sum_to_one():
    out = log_softmax(np.array([1.0, 2.0, 3.0]))
    assert np.exp(out).sum() == pytest.approx(1.0, abs=1e-12)


def test_uniform_single_frame_loss_is_ln2():
    # one frame over {blank, a}: the only valid path is "a", probability 1/2
    assert ctc_loss_and_grad(np.zeros((1, 2)), "a", VA)[0] == pytest.approx(math.log(2), abs=1e-12)


def test_target_longer_than_frames_is_infeasible():
    with pytest.raises(InfeasibleTargetError):
        ctc_loss_and_grad(np.zeros((1, 3)), "ab", VAB)


def test_repeat_needs_separating_blank():
    assert min_frames("aa") == 3
    with pytest.raises(InfeasibleTargetError):
        ctc_loss_and_grad(np.zeros((2, 2)), "aa", VA)
    assert math.isfinite(ctc_loss_and_grad(np.zeros((3, 2)), "aa", VA)[0])


def test_character_outside_vocabulary_rejected():
    with pytest.raises(ValueError):
        ctc_loss_and_grad(np.zeros((2, 2)), "z", VA)


def test_two_frame_loss_matches_path_sum():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(2, 2))
    want = ctc_loss_by_enumeration(logits, "a", ("a",))
    assert ctc_loss_and_grad(logits, "a", VA)[0] == pytest.approx(want, abs=1e-12)


def test_loss_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        logits, target, symbols = random_feasible_instance(rng)
        got = ctc_loss_and_grad(logits, target, Vocabulary(symbols))[0]
        want = ctc_loss_by_enumeration(logits, target, symbols)
        assert got == pytest.approx(want, abs=1e-6)


def test_empty_target_is_all_blank_path():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(3, 3))
    lp = log_softmax(logits, axis=1)
    assert ctc_loss_and_grad(logits, "", VAB)[0] == pytest.approx(-lp[:, 0].sum(), abs=1e-12)


def test_loss_nonnegative_and_shift_invariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        logits, target, symbols = random_feasible_instance(rng)
        vocab = Vocabulary(symbols)
        loss = ctc_loss_and_grad(logits, target, vocab)[0]
        assert loss >= 0
        shifted = logits + rng.normal() * np.ones_like(logits)
        assert ctc_loss_and_grad(shifted, target, vocab)[0] == pytest.approx(loss, abs=1e-9)


def test_appending_frames_preserves_feasibility():
    rng = np.random.default_rng(12)
    for _ in range(30):
        logits, target, symbols = random_feasible_instance(rng)
        vocab = Vocabulary(symbols)
        ctc_loss_and_grad(logits, target, vocab)
        extended = np.vstack([logits, rng.normal(size=(1, logits.shape[1]))])
        ctc_loss_and_grad(extended, target, vocab)  # must not raise


def test_gradient_single_frame_closed_form():
    grad = ctc_loss_and_grad(np.zeros((1, 2)), "a", VA)[1]
    np.testing.assert_allclose(grad, [[0.5, -0.5]], atol=1e-12)


def test_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(5)
    for _ in range(20):
        logits, target, symbols = random_feasible_instance(rng)
        grad = ctc_loss_and_grad(logits, target, Vocabulary(symbols))[1]
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-10)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        logits, target, symbols = random_feasible_instance(rng)
        vocab = Vocabulary(symbols)
        _, grad = ctc_loss_and_grad(logits, target, vocab)
        numeric = central_difference_grad(lambda x: ctc_loss_and_grad(x, target, vocab)[0], logits.copy())
        assert_grad_close(grad, numeric)


@st.composite
def _training_shaped_instance(draw):
    """Logits, target and vocabulary at training shapes, past the enumeration oracle's reach."""
    symbols = tuple("abcdefghij"[: draw(st.integers(1, 10))])
    target = "".join(draw(st.lists(st.sampled_from(symbols), max_size=30)))
    n_frames = draw(st.integers(max(1, min_frames(target)), 60))
    scale = draw(st.floats(0.5, 20.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(scale=scale, size=(n_frames, len(symbols) + 1)), target, Vocabulary(symbols)


@settings(max_examples=150, deadline=None)
@given(_training_shaped_instance())
def test_lattice_posteriors_are_consistent_at_training_shapes(instance):
    logits, target, vocab = instance
    loss, grad = ctc_loss_and_grad(logits, target, vocab)
    log_z = -loss
    log_probs = log_softmax(logits, axis=1)
    ext = ctc_mod._extended_target(target, vocab)
    emit = log_probs[:, ext]
    alpha = ctc_mod._lattice(emit[None], ext[None])[0] + emit
    beta = ctc_mod._lattice(emit[None, ::-1, ::-1], ext[None, ::-1])[0, ::-1, ::-1]
    # every path passes through exactly one state per frame
    per_frame = np.logaddexp.reduce(alpha + beta, axis=1)
    np.testing.assert_allclose(per_frame, log_z, rtol=0, atol=1e-9)
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-10)
    occupancy = np.exp(log_probs) - grad
    assert np.all(occupancy >= -1e-12) and np.all(occupancy <= 1 + 1e-12)


@st.composite
def _ragged_batch(draw):
    """1-6 members of mixed frame counts and target lengths (some empty), padded with junk logits."""
    symbols = tuple("abcd"[: draw(st.integers(1, 4))])
    targets = [
        "".join(draw(st.lists(st.sampled_from(symbols), max_size=draw(st.sampled_from([0, 3, 8])))))
        for _ in range(draw(st.integers(1, 6)))
    ]
    lengths = [draw(st.integers(max(1, min_frames(t)), max(1, min_frames(t)) + 12)) for t in targets]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(scale=draw(st.floats(0.5, 10.0)), size=(len(targets), max(lengths), len(symbols) + 1))
    return logits, lengths, targets, symbols


@settings(max_examples=200, deadline=None)
@given(_ragged_batch())
def test_batched_ctc_matches_single_utterance_calls(batch):
    logits, lengths, targets, symbols = batch
    vocab = Vocabulary(symbols)
    losses, grad = ctc_loss_and_grad_batch(log_softmax(logits, axis=2), lengths, targets, vocab)
    assert losses.shape == (len(targets),) and grad.shape == logits.shape
    for b, (n, target) in enumerate(zip(lengths, targets)):
        loss, member_grad = ctc_loss_and_grad(logits[b, :n], target, vocab)
        assert abs(losses[b] - loss) <= 1e-12
        np.testing.assert_allclose(grad[b, :n], member_grad, rtol=0, atol=1e-12)
        assert np.all(grad[b, n:] == 0.0)  # padded frames
        if n <= 5 and len(symbols) <= 3:
            assert losses[b] == pytest.approx(ctc_loss_by_enumeration(logits[b, :n], target, symbols), abs=1e-9)


def test_batched_ctc_rejects_bad_lengths_and_infeasible_members():
    log_probs = log_softmax(np.zeros((2, 4, 3)), axis=2)
    with pytest.raises(ValueError):
        ctc_loss_and_grad_batch(log_probs, [4, 5], ["a", "b"], VAB)
    with pytest.raises(ValueError):
        ctc_loss_and_grad_batch(log_probs, [4, 0], ["a", ""], VAB)
    with pytest.raises(ValueError):
        ctc_loss_and_grad_batch(log_probs, [4], ["a", "b"], VAB)
    with pytest.raises(InfeasibleTargetError):
        ctc_loss_and_grad_batch(log_probs, [4, 2], ["a", "aab"], VAB)


def test_collapse_examples():
    va_b = Vocabulary(("a", "b"))
    a, b, blank = 1, 2, 0
    assert collapse([a, a, blank, a, b, b], va_b) == "aab"
    assert collapse([blank, blank], va_b) == ""
    assert collapse([a, blank, a], va_b) == "aa"
    assert collapse([], va_b) == ""


def test_greedy_decode_dominant_logits():
    big = 50.0
    logits = np.array([[0, big, 0], [big, 0, 0], [0, 0, big]], dtype=float)
    result = greedy_decode(logits, VAB)
    assert result.hypothesis == "ab"
    assert result.confidence == pytest.approx(1.0, abs=1e-10)
    assert list(result.frame_argmax) == [1, 0, 2]


def test_greedy_decode_uniform_confidence_is_one_third():
    result = greedy_decode(np.zeros((4, 3)), VAB)
    assert result.confidence == pytest.approx(1 / 3, abs=1e-15)
    assert result.hypothesis == ""  # blank wins ties at the lowest index


def test_greedy_decode_confidence_matches_scalar_recompute():
    rng = np.random.default_rng(88)
    logits = rng.normal(scale=3.0, size=(7, 4))
    result = greedy_decode(logits, Vocabulary(("a", "b", "c")))
    per_frame = []
    for row in logits:
        shifted = row - row.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        per_frame.append(math.log(probs.max()))
    want = math.exp(sum(per_frame) / len(per_frame))
    assert result.confidence == pytest.approx(want, abs=1e-12)


def test_greedy_decode_confidence_strictly_below_one_for_finite_logits():
    rng = np.random.default_rng(3)
    for _ in range(20):
        logits = rng.normal(scale=5.0, size=(rng.integers(1, 6), 3))
        result = greedy_decode(logits, VAB)
        assert 0.0 < result.confidence < 1.0


def test_greedy_decode_shift_invariance():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(5, 3))
    base = greedy_decode(logits, VAB)
    shifted = greedy_decode(logits + 13.5, VAB)
    assert shifted.hypothesis == base.hypothesis
    assert shifted.confidence == pytest.approx(base.confidence, abs=1e-9)


def test_greedy_decode_rejects_nonfinite():
    with pytest.raises(ValueError):
        greedy_decode(np.array([[np.inf, 0.0]]), VA)
