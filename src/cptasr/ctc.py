"""CTC loss, analytic gradient, and greedy decoding with confidence scoring.

All dynamic programming runs in log-space over the blank-interleaved
extended target; there is no probability-space fallback, so long inputs
cannot underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Pre-emission lattice: pre[t, s] sums every path into state s at frame t, excluding frame t's emission.

    ``emit[t, s]`` is the log-probability of ``ext[s]`` at frame t. The
    alphas are ``pre + emit``; run on ``emit[::-1, ::-1]`` and ``ext[::-1]``
    and flipped back, the same recursion gives the betas.
    """
    n_frames, n_states = emit.shape
    # a state may skip from s-2 only if it is a non-blank label different from the one two back
    can_skip = np.zeros(n_states, dtype=bool)
    can_skip[2:] = (ext[2:] != 0) & (ext[2:] != ext[:-2])

    pre = np.full((n_frames, n_states), NEG_INF)
    pre[0, :2] = 0.0
    for t in range(1, n_frames):
        prev = pre[t - 1] + emit[t - 1]
        acc = np.logaddexp(prev, np.concatenate(([NEG_INF], prev[:-1])))
        if n_states > 2:
            skip = np.concatenate(([NEG_INF, NEG_INF], prev[:-2]))
            acc = np.where(can_skip, np.logaddexp(acc, skip), acc)
        pre[t] = acc
    return pre


def ctc_loss_and_grad(logits: np.ndarray, target: str, vocab: Vocabulary) -> tuple[float, np.ndarray]:
    """CTC loss of ``target`` and its exact gradient with respect to the pre-softmax logits.

    The loss is the negative log-likelihood summed over every frame-level
    path whose collapse equals the target. Infeasible targets raise
    :class:`InfeasibleTargetError` instead of returning +inf: in training
    that always signals a data or downsampling bug. The gradient uses the
    forward-backward posterior form: for each frame it is softmax(logits)
    minus the label-occupancy posterior, so each row sums to zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
    _check_feasible(logits.shape[0], target, vocab)
    log_probs = log_softmax(logits, axis=1)
    ext = _extended_target(target, vocab)
    emit = log_probs[:, ext]
    alpha = _lattice(emit, ext) + emit
    beta = _lattice(emit[::-1, ::-1], ext[::-1])[::-1, ::-1]
    # a path ends in the final blank or the final label
    log_z = float(np.logaddexp.reduce(alpha[-1, -2:]))

    n_frames, n_classes = log_probs.shape
    ab = alpha + beta  # joint posterior per lattice state, log-space
    occupancy = np.zeros((n_frames, n_classes))
    with np.errstate(divide="ignore"):
        for k in np.unique(ext):
            cols = ab[:, ext == k]
            # clamp the max so all-(-inf) columns reduce to -inf without NaNs
            m = np.maximum(np.max(cols, axis=1), -1e300)
            total = m + np.log(np.sum(np.exp(cols - m[:, None]), axis=1))
            occupancy[:, k] = np.exp(total - log_z)
    grad = np.exp(log_probs) - occupancy
    return -log_z, grad


def collapse(path: list[int] | np.ndarray, vocab: Vocabulary) -> str:
    """Merge adjacent repeated indices, then delete blanks."""
    out = []
    prev = None
    for idx in path:
        idx = int(idx)
        if idx != prev and idx != vocab.blank_index:
            out.append(vocab.symbols[idx - 1])
        prev = idx
    return "".join(out)


def greedy_decode(logits: np.ndarray, vocab: Vocabulary) -> DecodeResult:
    """Best-path decode with a length-normalized confidence.

    Confidence is the geometric mean of the per-frame maximum posteriors,
    i.e. exp(mean over frames of the max log-softmax entry); it lies in
    (0, 1] and reaches 1 only in the limit of infinitely peaked logits.
    Argmax ties break toward the lowest index, so the blank wins ties.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits contain non-finite values")
    log_probs = log_softmax(logits, axis=1)
    frame_argmax = np.argmax(log_probs, axis=1)
    confidence = float(np.exp(np.mean(np.max(log_probs, axis=1))))
    return DecodeResult(collapse(frame_argmax, vocab), confidence, frame_argmax)
