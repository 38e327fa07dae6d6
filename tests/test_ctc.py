"""CTC loss against exhaustive enumeration, gradient audits, label smoothing, collapse, decoding."""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cptasr.ctc as ctc_mod
from cptasr.corpus import Vocabulary
from cptasr.ctc import (
    InfeasibleTargetError,
    LabelPlan,
    collapse,
    ctc_loss_and_grad_batch,
    greedy_decode_batch,
    log_softmax,
)

from oracles import (
    assert_grad_close,
    central_difference_grad,
    ctc_loss_by_enumeration,
    random_feasible_instance,
)

VAB = Vocabulary(("a", "b"))
VA = Vocabulary(("a",))


def _needed(targets, symbols):
    """Each target's fewest frames, as its label plan gives them."""
    vocab = Vocabulary(symbols)
    return LabelPlan.build([vocab.encode(t) for t in targets], vocab.size + 1).needed.tolist()


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
    losses, _ = ctc_loss_and_grad_batch(np.zeros((1, 1, 2)), [1], [VA.encode("a")])
    assert losses[0] == pytest.approx(math.log(2), abs=1e-12)


def test_target_longer_than_frames_is_infeasible():
    with pytest.raises(InfeasibleTargetError):
        ctc_loss_and_grad_batch(np.zeros((1, 1, 3)), [1], [VAB.encode("ab")])


def test_repeat_needs_separating_blank():
    assert LabelPlan.build([VA.encode("aa")], VA.size + 1).needed.tolist() == [3]
    with pytest.raises(InfeasibleTargetError):
        ctc_loss_and_grad_batch(np.zeros((1, 2, 2)), [2], [VA.encode("aa")])
    assert math.isfinite(ctc_loss_and_grad_batch(np.zeros((1, 3, 2)), [3], [VA.encode("aa")])[0][0])


def test_needed_is_where_the_enumerated_loss_turns_finite():
    """Every target over {a, b} up to 3 labels, empty and repeats included: finite loss exactly when T >= needed."""
    targets = ["".join(p) for k in range(4) for p in itertools.product("ab", repeat=k)]
    rng = np.random.default_rng(0)
    for target, needed in zip(targets, _needed(targets, VAB.symbols)):
        for n_frames in range(1, 7):  # "aaa" needs 5, so every target has frames on both sides
            logits = rng.normal(size=(n_frames, VAB.size + 1))
            enumerated = ctc_loss_by_enumeration(logits, target, VAB.symbols)
            assert math.isfinite(enumerated) == (n_frames >= needed), (target, n_frames)
            if n_frames >= needed:
                loss = ctc_loss_and_grad_batch(logits[None], [n_frames], [VAB.encode(target)])[0][0]
                assert loss == pytest.approx(enumerated, rel=1e-10)
            else:
                with pytest.raises(InfeasibleTargetError):
                    ctc_loss_and_grad_batch(logits[None], [n_frames], [VAB.encode(target)])


def test_character_outside_vocabulary_rejected():
    with pytest.raises(ValueError):
        VA.encode("z")
    for label in (0, 2):  # the blank, and one past the last class
        with pytest.raises(ValueError):
            ctc_loss_and_grad_batch(np.zeros((1, 2, 2)), [2], [[label]])


def test_two_frame_loss_matches_path_sum():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(2, 2))
    want = ctc_loss_by_enumeration(logits, "a", ("a",))
    losses, _ = ctc_loss_and_grad_batch(logits[None], [2], [VA.encode("a")])
    assert losses[0] == pytest.approx(want, abs=1e-12)


def test_loss_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        logits, target, symbols = random_feasible_instance(rng)
        vocab = Vocabulary(symbols)
        got = ctc_loss_and_grad_batch(logits[None], [len(logits)], [vocab.encode(target)])[0][0]
        want = ctc_loss_by_enumeration(logits, target, symbols)
        assert got == pytest.approx(want, abs=1e-6)


def test_empty_target_is_all_blank_path():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(3, 3))
    lp = log_softmax(logits, axis=1)
    assert ctc_loss_and_grad_batch(logits[None], [3], [VAB.encode("")])[0][0] == pytest.approx(-lp[:, 0].sum(), abs=1e-12)


def test_loss_nonnegative_and_shift_invariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        logits, target, symbols = random_feasible_instance(rng)
        vocab = Vocabulary(symbols)
        loss = ctc_loss_and_grad_batch(logits[None], [len(logits)], [vocab.encode(target)])[0][0]
        assert loss >= 0
        shifted = logits + rng.normal() * np.ones_like(logits)
        shifted_loss = ctc_loss_and_grad_batch(shifted[None], [len(shifted)], [vocab.encode(target)])[0][0]
        assert shifted_loss == pytest.approx(loss, abs=1e-9)


def test_appending_frames_preserves_feasibility():
    rng = np.random.default_rng(12)
    for _ in range(30):
        logits, target, symbols = random_feasible_instance(rng)
        vocab = Vocabulary(symbols)
        ctc_loss_and_grad_batch(logits[None], [len(logits)], [vocab.encode(target)])
        extended = np.vstack([logits, rng.normal(size=(1, logits.shape[1]))])
        ctc_loss_and_grad_batch(extended[None], [len(extended)], [vocab.encode(target)])  # must not raise


def test_gradient_single_frame_closed_form():
    grad = ctc_loss_and_grad_batch(np.zeros((1, 1, 2)), [1], [VA.encode("a")])[1][0]
    np.testing.assert_allclose(grad, [[0.5, -0.5]], atol=1e-12)


def test_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(5)
    for _ in range(20):
        logits, target, symbols = random_feasible_instance(rng)
        vocab = Vocabulary(symbols)
        grad = ctc_loss_and_grad_batch(logits[None], [len(logits)], [vocab.encode(target)])[1][0]
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-10)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        logits, target, symbols = random_feasible_instance(rng)
        vocab = Vocabulary(symbols)
        grad = ctc_loss_and_grad_batch(logits[None], [len(logits)], [vocab.encode(target)])[1][0]
        numeric = central_difference_grad(
            lambda x: ctc_loss_and_grad_batch(x[None], [len(x)], [vocab.encode(target)])[0][0],
            logits.copy(),
        )
        assert_grad_close(grad, numeric)


@st.composite
def _training_shaped_instance(draw):
    """Logits, target and vocabulary at training shapes, past the enumeration oracle's reach."""
    symbols = tuple("abcdefghij"[: draw(st.integers(1, 10))])
    target = "".join(draw(st.lists(st.sampled_from(symbols), max_size=30)))
    n_frames = draw(st.integers(_needed([target], symbols)[0], 60))
    scale = draw(st.floats(0.5, 20.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(scale=scale, size=(n_frames, len(symbols) + 1)), target, Vocabulary(symbols)


@settings(max_examples=150, deadline=None)
@given(_training_shaped_instance())
# log Z = -1722, where posteriors normalised by log Z alone reach an occupancy of 1 + 1.8e-12
@example((np.random.default_rng(18716).normal(scale=20.0, size=(60, 11)), "e", Vocabulary(tuple("abcdefghij"))))
def test_lattice_posteriors_are_consistent_at_training_shapes(instance):
    logits, target, vocab = instance
    log_probs = log_softmax(logits, axis=1)
    losses, grads = ctc_loss_and_grad_batch(logits[None], [len(logits)], [vocab.encode(target)])
    log_z, grad = -losses[0], grads[0]
    ext = np.zeros(2 * len(target) + 1, dtype=np.intp)
    ext[1::2] = vocab.encode(target)
    emit = log_probs[:, ext]
    alpha = ctc_mod._lattice(emit[None], ext[None], True)[0][0] + emit
    beta = ctc_mod._lattice(emit[None, ::-1, ::-1], ext[None, ::-1], True)[0][0, ::-1, ::-1]
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
    lengths = [draw(st.integers(n, n + 12)) for n in _needed(targets, symbols)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(scale=draw(st.floats(0.5, 10.0)), size=(len(targets), max(lengths), len(symbols) + 1))
    return logits, lengths, targets, symbols


@settings(max_examples=200, deadline=None)
@given(_ragged_batch())
def test_batched_ctc_matches_single_utterance_calls(batch):
    logits, lengths, targets, symbols = batch
    vocab = Vocabulary(symbols)
    losses, grad = ctc_loss_and_grad_batch(logits, lengths, [vocab.encode(t) for t in targets])
    assert losses.shape == (len(targets),) and grad.shape == logits.shape
    for b, (n, target) in enumerate(zip(lengths, targets)):
        member_loss, member_grad = ctc_loss_and_grad_batch(logits[b, :n][None], [n], [vocab.encode(target)])
        assert abs(losses[b] - member_loss[0]) <= 1e-12
        np.testing.assert_allclose(grad[b, :n], member_grad[0], rtol=0, atol=1e-12)
        assert np.all(grad[b, n:] == 0.0)  # padded frames
        if n <= 5 and len(symbols) <= 3:
            assert losses[b] == pytest.approx(ctc_loss_by_enumeration(logits[b, :n], target, symbols), abs=1e-9)


def _full_width_lattice(emit, ext):
    """The lattice recursion over every state at every frame, trying the skip at every state from 2 on."""
    skip_cost = np.where((ext[:, 2:] != 0) & (ext[:, 2:] != ext[:, :-2]), 0.0, -np.inf)
    pre = np.full(emit.shape, -np.inf)
    pre[:, 0, :2] = 0.0
    for t in range(1, emit.shape[1]):
        prev = pre[:, t - 1] + emit[:, t - 1]
        pre[:, t, 0] = prev[:, 0]
        pre[:, t, 1:] = np.logaddexp(prev[:, 1:], prev[:, :-1])
        pre[:, t, 2:] = np.logaddexp(pre[:, t, 2:], prev[:, :-2] + skip_cost)
    return pre


def _log_space_only():
    """An infinite guard, which every frame total falls below: the kernel always runs the log-space fallback."""
    return mock.patch.object(ctc_mod, "_MIN_FRAME_MASS", math.inf)


def _spaces(spy):
    """The ``log_space`` argument of each call a spy on ``_lattice`` saw, in call order."""
    return [c.args[2] for c in spy.call_args_list]


@settings(max_examples=200, deadline=None)
@given(_ragged_batch())
def test_lattice_matches_full_width_recursion_bit_for_bit(batch):
    """The banded, label-state-only recursion leaves every cell, padding included, as the full one does."""
    logits, lengths, targets, symbols = batch
    vocab = Vocabulary(symbols)
    with _log_space_only(), mock.patch.object(ctc_mod, "_lattice", wraps=ctc_mod._lattice) as spy:
        ctc_loss_and_grad_batch(logits, lengths, [vocab.encode(t) for t in targets])
    (emit, ext, log_space), _ = spy.call_args  # the members' lattices, then the same lattices flipped
    assert log_space
    assert np.array_equal(ctc_mod._lattice(emit, ext, True)[0], _full_width_lattice(emit, ext))


@settings(max_examples=200, deadline=None)
@given(_ragged_batch())
def test_flat_gathers_give_the_former_emissions_and_betas_bit_for_bit(batch):
    """The emissions and betas equal those of the former per-axis gathers, padding included."""
    logits, lengths, targets, symbols = batch
    vocab = Vocabulary(symbols)
    labels = [vocab.encode(t) for t in targets]
    real_lattice, real_take = ctc_mod._lattice, np.take
    pres, taken = [], []

    def lattice_spy(emit, ext, log_space):
        out = real_lattice(emit, ext, log_space)
        if log_space:
            pres.append(out[0])
        return out

    def take_spy(*args, **kwargs):
        out = real_take(*args, **kwargs)
        taken.append(out.copy())  # the kernel goes on to accumulate into the gathered betas
        return out

    with _log_space_only(), mock.patch.object(ctc_mod, "_lattice", side_effect=lattice_spy) as spy, \
            mock.patch.object(np, "take", side_effect=take_spy):
        ctc_loss_and_grad_batch(logits, lengths, labels)
    (emit, ext, _), _ = spy.call_args
    emissions, betas = taken[-2:]  # the fallback's gathers come after the probability-space attempt's

    # the former construction: per-axis gathers, a -inf mask, a 3-index flip and a concatenation
    lengths = np.asarray(lengths)
    n_batch, n_frames = logits.shape[:2]
    n_states = 2 * np.array([len(seq) for seq in labels]) + 1
    ext_members = np.zeros((n_batch, n_states.max()), dtype=np.intp)
    for b, seq in enumerate(labels):
        ext_members[b, 1 : 2 * len(seq) : 2] = seq
    assert np.array_equal(ext[:n_batch], ext_members)
    frames, states = np.arange(n_frames), np.arange(ext.shape[1])
    frame_ok = frames < lengths[:, None]
    state_ok = states < n_states[:, None]
    former = np.take_along_axis(log_softmax(logits, axis=2), ext_members[:, None, :], axis=2)
    former[~(frame_ok[:, :, None] & state_ok[:, None, :])] = -np.inf
    rev_frames = np.where(frame_ok, lengths[:, None] - 1 - frames, frames)
    rev_states = np.where(state_ok, n_states[:, None] - 1 - states, states)
    flip = (np.arange(n_batch)[:, None, None], rev_frames[:, :, None], rev_states[:, None, :])
    assert np.array_equal(emit, np.concatenate([former, former[flip]]))
    assert np.array_equal(emissions, emit)
    assert np.array_equal(betas, pres[0][n_batch:][flip])


@settings(max_examples=200, deadline=None)
@given(_ragged_batch(), st.sampled_from([0.0, 0.1, 0.5]))
def test_scaled_kernel_matches_log_space_kernel(batch, smoothing):
    """The probability-space kernel gives the log-space losses and gradients, padding included, and never warns."""
    logits, lengths, targets, symbols = batch
    labels = [Vocabulary(symbols).encode(t) for t in targets]
    with warnings.catch_warnings(), mock.patch.object(ctc_mod, "_lattice", wraps=ctc_mod._lattice) as spy:
        warnings.simplefilter("error")
        losses, grad = ctc_loss_and_grad_batch(logits, lengths, labels, smoothing)
    assert _spaces(spy) == [False]
    with _log_space_only():
        want_losses, want_grad = ctc_loss_and_grad_batch(logits, lengths, labels, smoothing)
    # relative to the loss, or absolute where the loss is below 1: a near-certain path has a loss near 0
    assert np.all(np.abs(losses - want_losses) <= 1e-10 * np.maximum(np.abs(want_losses), 1.0))
    np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)
    assert np.all(grad[np.arange(logits.shape[1]) >= np.asarray(lengths)[:, None]] == 0.0)


def _extreme_batch(case):
    """Logits whose probability-space lattice underflows, with their targets."""
    vocab = Vocabulary(("a", "b"))
    if case == "blank-1000":
        # every label's probability is exp(-1000) = 0 in float64
        logits = np.zeros((2, 12, 3))
        logits[:, :, 0] = 1000.0
        return logits, [12, 9], [vocab.encode("ab"), vocab.encode("b")]
    # 150 labels in 200 frames: at least 50 fall in the first 100, where each costs e^-60, so the
    # paths that end are e^-3000 of the forward mass there and flush to 0
    logits = np.zeros((2, 200, 3))
    logits[:, :100, 0] = 60.0
    logits[:, 100:, 1:] = 60.0
    return logits, [200, 190], [vocab.encode("ab" * 75), vocab.encode("ba" * 70)]


@pytest.mark.parametrize("case", ["blank-1000", "blank-then-labels-60"])
@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_underflowing_batch_falls_back_to_log_space_bit_for_bit(case, smoothing):
    logits, lengths, labels = _extreme_batch(case)
    with mock.patch.object(ctc_mod, "_lattice", wraps=ctc_mod._lattice) as spy:
        losses, grad = ctc_loss_and_grad_batch(logits, lengths, labels, smoothing)
    assert _spaces(spy) == [False, True]
    with _log_space_only():
        want_losses, want_grad = ctc_loss_and_grad_batch(logits, lengths, labels, smoothing)
    assert np.all(np.isfinite(losses)) and np.all(losses > 100.0)
    assert np.array_equal(losses, want_losses)
    assert np.array_equal(grad, want_grad)


def test_natural_fallback_matches_closed_form_losses_and_gradient():
    """Blank at logit 1000: a path's probability is e^-1000 per label frame, so Z counts the one-frame alignments.

    "ab" in 12 frames has C(12, 2) = 66 of them and "b" in 9 frames has 9.
    At frame t of member 0, `a` is emitted by the 11 - t alignments with `b`
    later, and `b` by the t with `a` earlier; the softmax puts 1 on blank.
    """
    logits, lengths, labels = _extreme_batch("blank-1000")
    with mock.patch.object(ctc_mod, "_lattice", wraps=ctc_mod._lattice) as spy:
        losses, grad = ctc_loss_and_grad_batch(logits, lengths, labels)
    assert _spaces(spy) == [False, True]
    np.testing.assert_allclose(losses, [2000.0 - math.log(66.0), 1000.0 - math.log(9.0)], rtol=1e-12)
    t = np.arange(12)
    want = np.stack([np.full(12, 11.0), -(11.0 - t), -t], axis=1) / 66.0
    np.testing.assert_allclose(grad[0], want, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(_ragged_batch())
def test_scaled_lattice_is_the_per_frame_normalised_log_space_lattice(batch):
    """Each frame of the scaled lattice is exp of the log-space one over its frame total; dead cells are exactly 0.

    The masses log-sum to the log-space alpha total at each rescaled frame.
    """
    logits, lengths, targets, symbols = batch
    labels = [Vocabulary(symbols).encode(t) for t in targets]
    lengths = np.asarray(lengths)
    n_batch, n_frames = logits.shape[:2]
    n_states = 2 * np.array([len(seq) for seq in labels]) + 1
    ext = np.zeros((n_batch, n_states.max()), dtype=np.intp)
    for b, seq in enumerate(labels):
        ext[b, 1 : 2 * len(seq) : 2] = seq
    emit = np.take_along_axis(log_softmax(logits, axis=2), ext[:, None, :], axis=2)
    frame_ok = np.arange(n_frames) < lengths[:, None]
    state_ok = np.arange(ext.shape[1]) < n_states[:, None]
    emit[~(frame_ok[:, :, None] & state_ok[:, None, :])] = -np.inf
    want = ctc_mod._lattice(emit, ext, True)[0]
    got, mass = ctc_mod._lattice(np.exp(emit), ext, False)
    assert np.all(got[want == -np.inf] == 0.0) and np.all(got[want > -np.inf] > 0.0)
    live = np.any(want > -np.inf, axis=2)  # the valid frames and the one after each member's last
    want_frames = np.exp(want[live] - np.logaddexp.reduce(want[live], axis=1, keepdims=True))
    np.testing.assert_allclose(got[live] / got[live].sum(axis=1, keepdims=True), want_frames, rtol=1e-9, atol=1e-15)
    # each mass is the total of the alphas the next frame's values were divided by, at every
    # _RESCALE_EVERY-th frame from frame 0; the others are not divided, so their mass is 1
    alpha_totals = np.logaddexp.reduce(want + emit, axis=2)
    divided = np.arange(n_frames - 1) < lengths[:, None] - 1
    rescaled = divided & (np.arange(n_frames - 1) % ctc_mod._RESCALE_EVERY == 0)
    assert np.all(mass[~rescaled & divided] == 1.0)
    log_scale = np.cumsum(np.log(np.where(divided, mass, 1.0)), axis=1)
    np.testing.assert_allclose(log_scale[rescaled], alpha_totals[:, :-1][rescaled], rtol=1e-11, atol=1e-13)


def test_batched_ctc_rejects_bad_lengths_and_infeasible_members():
    logits = np.zeros((2, 4, 3))
    with pytest.raises(ValueError):
        ctc_loss_and_grad_batch(logits, [4, 5], [VAB.encode("a"), VAB.encode("b")])
    with pytest.raises(ValueError):
        ctc_loss_and_grad_batch(logits, [4, 0], [VAB.encode("a"), VAB.encode("")])
    with pytest.raises(ValueError):
        ctc_loss_and_grad_batch(logits, [4], [VAB.encode("a"), VAB.encode("b")])
    with pytest.raises(InfeasibleTargetError):
        ctc_loss_and_grad_batch(logits, [4, 2], [VAB.encode("a"), VAB.encode("aab")])


@st.composite
def _stage_targets(draw):
    """A stage's targets of mixed lengths (some empty, some with repeats), each with a feasible frame count."""
    symbols = tuple("abcde"[: draw(st.integers(1, 5))])
    targets = [
        "".join(draw(st.lists(st.sampled_from(symbols), max_size=draw(st.sampled_from([0, 2, 6, 15])))))
        for _ in range(draw(st.integers(2, 24)))
    ]
    frames = [draw(st.integers(n, n + 10)) for n in _needed(targets, symbols)]
    return symbols, targets, frames, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(_stage_targets(), st.sampled_from([0.0, 0.1]))
def test_stage_plan_rows_match_plans_built_per_call_bit_for_bit(stage, smoothing):
    symbols, targets, frames, seed = stage
    vocab = Vocabulary(symbols)
    labels = [vocab.encode(t) for t in targets]
    plan = LabelPlan.build(labels, vocab.size + 1)
    for name in ("ext", "n_states", "rev_states", "rev_ext", "needed"):
        assert getattr(plan, name).dtype == np.int32, name
    rng = np.random.default_rng(seed)
    for _ in range(5):  # random batches of the one stage, as an epoch's shuffle gives them
        members = rng.permutation(len(targets))[: int(rng.integers(1, 9))]
        lengths = [frames[m] for m in members]
        logits = rng.normal(scale=rng.uniform(0.5, 10.0), size=(len(members), max(lengths), vocab.size + 1))
        rows = plan.rows(members)
        per_call = LabelPlan.build([labels[m] for m in members], vocab.size + 1)
        for name in ("ext", "n_states", "rev_states", "rev_ext", "needed"):
            assert np.array_equal(getattr(rows, name), getattr(per_call, name)), name
        losses, grad = ctc_loss_and_grad_batch(logits, lengths, rows, smoothing)
        want_losses, want_grad = ctc_loss_and_grad_batch(logits, lengths, [labels[m] for m in members], smoothing)
        assert np.array_equal(losses, want_losses)
        assert np.array_equal(grad, want_grad)


@pytest.mark.parametrize("case", ["blank-1000", "blank-then-labels-60"])
@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_stage_plan_rows_take_the_log_space_fallback_bit_for_bit(case, smoothing):
    logits, lengths, labels = _extreme_batch(case)
    # the stage also holds a longer target, so the batch's rows are cropped
    plan = LabelPlan.build([[1, 2] * 80] + labels, 3)
    with mock.patch.object(ctc_mod, "_lattice", wraps=ctc_mod._lattice) as spy:
        losses, grad = ctc_loss_and_grad_batch(logits, lengths, plan.rows([1, 2]), smoothing)
    assert _spaces(spy) == [False, True]
    want_losses, want_grad = ctc_loss_and_grad_batch(logits, lengths, labels, smoothing)
    assert np.array_equal(losses, want_losses)
    assert np.array_equal(grad, want_grad)


def test_plan_rejects_what_the_per_call_build_rejected_with_the_same_text():
    labels = [VAB.encode("ab"), [3]]  # label 3 is past the last of 3 classes
    with pytest.raises(ValueError, match=r"labels must lie in \[1, 2\]") as at_build:
        LabelPlan.build(labels, 3)
    with pytest.raises(ValueError) as per_call:
        ctc_loss_and_grad_batch(np.zeros((2, 4, 3)), [4, 4], labels)
    assert str(at_build.value) == str(per_call.value)

    plan = LabelPlan.build([VAB.encode("a"), VAB.encode("aab"), VAB.encode("b")], 3)
    logits = np.zeros((2, 4, 3))
    with pytest.raises(InfeasibleTargetError) as from_rows:
        ctc_loss_and_grad_batch(logits, [4, 3], plan.rows([0, 1]))
    with pytest.raises(InfeasibleTargetError) as per_call:
        ctc_loss_and_grad_batch(logits, [4, 3], [VAB.encode("a"), VAB.encode("aab")])
    assert str(from_rows.value) == str(per_call.value) == "member 1: target of length 3 needs at least 4 frames, got 3"
    with pytest.raises(ValueError, match="3 classes, the logits have 4"):
        ctc_loss_and_grad_batch(np.zeros((2, 4, 4)), [4, 4], plan.rows([0, 2]))


def _two_step_objective(logits, lengths, labels, smoothing):
    """Label-smoothed CTC as two steps: the plain CTC kernel, then the uniform-KL blend from its own log-softmax.

    The plain-CTC step runs the kernel at smoothing 0 on the logits, which is
    what the kernel on ``log_softmax(logits)`` computed before the blend moved
    into it; the KL term and the blend are a copy of the former arithmetic.
    """
    log_probs = log_softmax(logits, axis=2)
    losses, grad = ctc_loss_and_grad_batch(logits, lengths, labels)
    if smoothing == 0.0:
        return losses, grad
    lengths = np.asarray(lengths)
    n_classes = log_probs.shape[2]
    frame_ok = (np.arange(log_probs.shape[1]) < lengths[:, None])[:, :, None]
    kl = -math.log(n_classes) - np.sum(log_probs, axis=(1, 2), where=frame_ok) / (lengths * n_classes)
    kl_grad = (smoothing / lengths[:, None, None]) * (np.exp(log_probs) - 1.0 / n_classes)
    losses = (1.0 - smoothing) * losses + smoothing * kl
    grad = (1.0 - smoothing) * grad + np.where(frame_ok, kl_grad, 0.0)
    return losses, grad


@settings(max_examples=200, deadline=None)
@given(_ragged_batch(), st.one_of(st.sampled_from([0.0, 0.1]), st.floats(0.0, 1.0, exclude_max=True)))
def test_smoothed_kernel_matches_two_step_composition_bit_for_bit(batch, smoothing):
    logits, lengths, targets, symbols = batch
    labels = [Vocabulary(symbols).encode(t) for t in targets]
    losses, grad = ctc_loss_and_grad_batch(logits, lengths, labels, smoothing)
    want_losses, want_grad = _two_step_objective(logits, lengths, labels, smoothing)
    assert np.array_equal(losses, want_losses)
    assert np.array_equal(grad, want_grad)


@pytest.mark.parametrize("smoothing", [1.0, -0.1, math.nan])
def test_kernel_rejects_smoothing_outside_unit_interval(smoothing):
    with pytest.raises(ValueError, match="smoothing"):
        ctc_loss_and_grad_batch(np.zeros((1, 3, 2)), [3], [VA.encode("a")], smoothing)


def test_smoothing_zero_equals_plain_ctc():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(4, 3))
    loss, grad = ctc_loss_and_grad_batch(logits[None], [4], [VAB.encode("ab")], smoothing=0.0)
    plain_loss, plain_grad = _two_step_objective(logits[None], [4], [VAB.encode("ab")], 0.0)
    assert loss[0] == pytest.approx(plain_loss[0], abs=1e-12)
    np.testing.assert_allclose(grad[0], plain_grad[0], atol=1e-12)


def test_uniform_logits_have_zero_kl_term():
    logits = np.zeros((3, 3))
    loss, _ = ctc_loss_and_grad_batch(logits[None], [3], [VAB.encode("a")], smoothing=0.3)
    plain_loss, _ = _two_step_objective(logits[None], [3], [VAB.encode("a")], 0.0)
    assert loss[0] == pytest.approx(0.7 * plain_loss[0], abs=1e-12)


def test_smoothed_loss_lower_bounded_by_scaled_ctc():
    rng = np.random.default_rng(6)
    for _ in range(20):
        logits, target, symbols = random_feasible_instance(rng)
        vocab = Vocabulary(symbols)
        loss, _ = ctc_loss_and_grad_batch(logits[None], [len(logits)], [vocab.encode(target)], smoothing=0.1)
        plain_loss, _ = _two_step_objective(logits[None], [len(logits)], [vocab.encode(target)], 0.0)
        assert loss[0] >= 0.9 * plain_loss[0] - 1e-12


def test_smoothed_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    for _ in range(100):
        logits, target, symbols = random_feasible_instance(rng)
        vocab = Vocabulary(symbols)
        _, grad = ctc_loss_and_grad_batch(logits[None], [len(logits)], [vocab.encode(target)], smoothing=0.1)
        numeric = central_difference_grad(
            lambda x: ctc_loss_and_grad_batch(x[None], [len(x)], [vocab.encode(target)], smoothing=0.1)[0][0],
            logits.copy(),
        )
        assert_grad_close(grad[0], numeric)


def test_smoothed_batch_matches_single_utterance_calls():
    rng = np.random.default_rng(31)
    vocab = Vocabulary(("a", "b", "c"))
    targets = ["", "a", "abca", "cc", "b"]
    lengths = [1, 4, 9, 3, 2]
    logits = rng.normal(scale=3.0, size=(len(targets), max(lengths), 4))  # junk past each length
    for smoothing in (0.0, 0.1):
        losses, grad = ctc_loss_and_grad_batch(logits, lengths, [vocab.encode(t) for t in targets], smoothing)
        for b, (n, target) in enumerate(zip(lengths, targets)):
            loss, member_grad = ctc_loss_and_grad_batch(logits[b, :n][None], [n], [vocab.encode(target)], smoothing)
            assert abs(losses[b] - loss[0]) <= 1e-12
            np.testing.assert_allclose(grad[b, :n], member_grad[0], rtol=0, atol=1e-12)
            assert np.all(grad[b, n:] == 0.0)


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
    result = greedy_decode_batch(logits[None], [len(logits)], VAB)[0]
    assert result.hypothesis == "ab"
    assert result.confidence == pytest.approx(1.0, abs=1e-10)


def test_greedy_decode_uniform_confidence_is_one_third():
    result = greedy_decode_batch(np.zeros((1, 4, 3)), [4], VAB)[0]
    assert result.confidence == pytest.approx(1 / 3, abs=1e-15)
    assert result.hypothesis == ""  # blank wins ties at the lowest index


def test_greedy_decode_confidence_matches_scalar_recompute():
    rng = np.random.default_rng(88)
    logits = rng.normal(scale=3.0, size=(7, 4))
    result = greedy_decode_batch(logits[None], [len(logits)], Vocabulary(("a", "b", "c")))[0]
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
        result = greedy_decode_batch(logits[None], [len(logits)], VAB)[0]
        assert 0.0 < result.confidence < 1.0


def test_greedy_decode_shift_invariance():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(5, 3))
    base = greedy_decode_batch(logits[None], [len(logits)], VAB)[0]
    shifted = greedy_decode_batch(logits[None] + 13.5, [len(logits)], VAB)[0]
    assert shifted.hypothesis == base.hypothesis
    assert shifted.confidence == pytest.approx(base.confidence, abs=1e-9)


def test_greedy_decode_rejects_nonfinite():
    with pytest.raises(ValueError):
        greedy_decode_batch(np.array([[[np.inf, 0.0]]]), [1], VA)
