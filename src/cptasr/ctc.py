"""CTC loss, analytic gradient, and greedy decoding with confidence scoring.

All dynamic programming runs in log-space over the blank-interleaved
extended target; there is no probability-space fallback, so long inputs
cannot underflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Vocabulary

NEG_INF = -np.inf


class InfeasibleTargetError(ValueError):
    """Target cannot be emitted in the available number of frames."""


@dataclass
class DecodeResult:
    hypothesis: str
    confidence: float
    frame_argmax: np.ndarray


def log_softmax(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted log-softmax; exponentials along ``axis`` sum to 1."""
    values = np.asarray(values, dtype=np.float64)
    shifted = values - np.max(values, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def min_frames(target: str) -> int:
    """Fewest frames that can emit ``target``: its length plus one blank per adjacent repeat."""
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


def _extended_target(target: str, vocab: Vocabulary) -> np.ndarray:
    """Blank-interleaved label sequence: [blank, t1, blank, t2, ..., blank]."""
    ext = np.zeros(2 * len(target) + 1, dtype=np.intp)
    ext[1::2] = vocab.encode(target)
    return ext


def _check_feasible(n_frames: int, target: str, vocab: Vocabulary) -> None:
    for ch in target:
        if ch not in vocab:
            raise ValueError(f"target character {ch!r} not in vocabulary")
    needed = min_frames(target)
    if n_frames < needed:
        raise InfeasibleTargetError(
            f"target of length {len(target)} needs at least {needed} frames, got {n_frames}"
        )


def _lattice(emit: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Pre-emission lattices: pre[b, t, s] sums every path into state s at frame t, excluding frame t's emission.

    ``emit[b, t, s]`` is the log-probability of ``ext[b, s]`` at frame t of
    member b. The alphas are ``pre + emit``; run on each member's lattice
    reversed in frames and states, the same recursion gives the betas.
    Padded cells must carry an emission of -inf.
    """
    n_frames = emit.shape[1]
    # a state may skip from s-2 only if it is a non-blank label different from the one two back
    skip_cost = np.where((ext[:, 2:] != 0) & (ext[:, 2:] != ext[:, :-2]), 0.0, NEG_INF)

    pre = np.full(emit.shape, NEG_INF)
    pre[:, 0, :2] = 0.0
    for t in range(1, n_frames):
        prev = pre[:, t - 1] + emit[:, t - 1]
        acc = pre[:, t]
        acc[:, 0] = prev[:, 0]
        np.logaddexp(prev[:, 1:], prev[:, :-1], out=acc[:, 1:])
        np.logaddexp(acc[:, 2:], prev[:, :-2] + skip_cost, out=acc[:, 2:])
    return pre


def ctc_loss_and_grad_batch(
    log_probs: np.ndarray,
    lengths: Sequence[int],
    targets: Sequence[str],
    vocab: Vocabulary,
) -> tuple[np.ndarray, np.ndarray]:
    """CTC losses of a padded batch and their exact gradients with respect to the logits.

    ``log_probs`` is the B x T x C log-softmax of the logits; member b owns
    its first ``lengths[b]`` frames and rows past them are ignored. All
    members share one forward-backward recursion over a B x T x S lattice
    padded to the longest member and the longest extended target. Returns
    the B losses and the B x T x C gradient, softmax minus the
    label-occupancy posterior per frame, so each row sums to zero and rows
    of padded frames are exactly zero. An infeasible target raises
    :class:`InfeasibleTargetError`.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.intp)
    n_batch, n_frames, n_classes = log_probs.shape
    if lengths.shape != (n_batch,) or len(targets) != n_batch:
        raise ValueError(f"{n_batch} members need {n_batch} lengths and targets")
    if n_batch == 0 or lengths.min() < 1 or lengths.max() > n_frames:
        raise ValueError(f"lengths must lie in [1, {n_frames}], got {lengths.tolist()}")
    for n, target in zip(lengths, targets):
        _check_feasible(int(n), target, vocab)

    n_states = 2 * np.array([len(t) for t in targets], dtype=np.intp) + 1
    ext = np.zeros((n_batch, n_states.max()), dtype=np.intp)  # padded with blanks
    for b, target in enumerate(targets):
        ext[b, : n_states[b]] = _extended_target(target, vocab)
    frames, states = np.arange(n_frames), np.arange(ext.shape[1])
    frame_ok = frames < lengths[:, None]
    state_ok = states < n_states[:, None]
    emit = np.take_along_axis(log_probs, ext[:, None, :], axis=2)
    emit[~(frame_ok[:, :, None] & state_ok[:, None, :])] = NEG_INF

    # each member's lattice flipped in frames and states; padded cells map to themselves
    rev_frames = np.where(frame_ok, lengths[:, None] - 1 - frames, frames)
    rev_states = np.where(state_ok, n_states[:, None] - 1 - states, states)
    flip = (np.arange(n_batch)[:, None, None], rev_frames[:, :, None], rev_states[:, None, :])
    # alphas and betas in one recursion: the flipped lattices ride as B more members
    pre = _lattice(np.concatenate([emit, emit[flip]]),
                   np.concatenate([ext, np.take_along_axis(ext, rev_states, axis=1)]))
    alpha = pre[:n_batch] + emit
    beta = pre[n_batch:][flip]

    # a path ends in the final blank or the final label
    last_frame = (np.arange(n_batch), lengths - 1)
    final_label = np.where(n_states > 1, alpha[last_frame + (np.maximum(n_states - 2, 0),)], NEG_INF)
    log_z = np.logaddexp(alpha[last_frame + (n_states - 1,)], final_label)

    posterior = np.exp(alpha + beta - log_z[:, None, None])  # per lattice state; 0 on padding
    occupancy = posterior @ (ext[:, :, None] == np.arange(n_classes)).astype(np.float64)
    grad = np.exp(log_probs) - occupancy
    grad[~frame_ok] = 0.0
    return -log_z, grad


def ctc_loss_and_grad(logits: np.ndarray, target: str, vocab: Vocabulary) -> tuple[float, np.ndarray]:
    """CTC loss of ``target`` and its exact gradient with respect to the pre-softmax logits.

    The loss is the negative log-likelihood summed over every frame-level
    path whose collapse equals the target. Infeasible targets raise
    :class:`InfeasibleTargetError` instead of returning +inf: in training
    that always signals a data or downsampling bug. This is a batch of one
    through :func:`ctc_loss_and_grad_batch`.
    """
    logits = np.asarray(logits, dtype=np.float64)
    losses, grad = ctc_loss_and_grad_batch(log_softmax(logits, axis=1)[None], [logits.shape[0]], [target], vocab)
    return float(losses[0]), grad[0]


def collapse(path: Sequence[int] | np.ndarray, vocab: Vocabulary) -> str:
    """Merge adjacent repeated indices, then delete blanks."""
    path = np.asarray(path, dtype=np.intp)
    keep = path != vocab.blank_index
    keep[1:] &= path[1:] != path[:-1]
    return "".join(vocab.symbols[idx - 1] for idx in path[keep].tolist())


def greedy_decode_batch(logits: np.ndarray, lengths: Sequence[int], vocab: Vocabulary) -> list[DecodeResult]:
    """Best-path decodes of a padded B x T x C batch; member b owns its first ``lengths[b]`` frames.

    Confidence is the geometric mean of the per-frame maximum posteriors,
    i.e. exp(mean over frames of the max log-softmax entry); it lies in
    (0, 1] and reaches 1 only in the limit of infinitely peaked logits.
    Argmax ties break toward the lowest index, so the blank wins ties.
    """
    logits = np.asarray(logits, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != logits.shape[:1] or lengths.min(initial=1) < 1 or lengths.max(initial=0) > logits.shape[1]:
        raise ValueError(f"lengths {lengths.tolist()} do not fit logits of shape {logits.shape}")
    frame_ok = np.arange(logits.shape[1]) < lengths[:, None]
    logits = np.where(frame_ok[:, :, None], logits, 0.0)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits contain non-finite values")
    log_probs = log_softmax(logits, axis=2)
    frame_argmax = np.argmax(log_probs, axis=2)
    confidence = np.exp(np.sum(np.max(log_probs, axis=2), axis=1, where=frame_ok) / lengths)
    return [DecodeResult(collapse(frame_argmax[b, :n], vocab), float(confidence[b]), frame_argmax[b, :n])
            for b, n in enumerate(lengths)]


def greedy_decode(logits: np.ndarray, vocab: Vocabulary) -> DecodeResult:
    """Best-path decode of one T x C utterance: a batch of one through :func:`greedy_decode_batch`."""
    logits = np.asarray(logits, dtype=np.float64)
    return greedy_decode_batch(logits[None], [logits.shape[0]], vocab)[0]
