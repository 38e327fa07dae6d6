"""CTC loss, analytic gradient, and greedy decoding with confidence scoring.

The forward-backward recursion over the blank-interleaved extended target
runs in probability space, the alphas of every ``_RESCALE_EVERY``-th frame
divided by their total and the scale coefficient 1 at the others (Graves
et al., ICML 2006, section 4.1; Rabiner, Proc. IEEE 1989, section V.A), so
a frame costs multiplies and adds. Where a frame's total of the alpha-beta
product falls below ``_MIN_FRAME_MASS``, the rescaled values may have lost
paths to underflow, and the whole batch is rerun in log space, which cannot
underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Vocabulary

NEG_INF = -np.inf
# the smallest per-frame total of the rescaled alpha-beta product that the probability-space
# kernel trusts: e^-230, so what underflows (below e^-708) is e^-478 of the frame or less
_MIN_FRAME_MASS = 1e-100
# the probability-space lattice divides the alphas of frames 0, k, 2k, ... by their total (k this constant)
_RESCALE_EVERY = 4


class InfeasibleTargetError(ValueError):
    """Target cannot be emitted in the available number of frames."""


@dataclass
class DecodeResult:
    hypothesis: str
    confidence: float


def log_softmax(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted log-softmax; exponentials along ``axis`` sum to 1."""
    values = np.asarray(values, dtype=np.float64)
    shifted = values - np.max(values, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def _lattice(emit: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Pre-emission lattices in log space: pre[b, t, s] sums every path into state s at frame t, minus its emission.

    ``emit[b, t, s]`` is the log-probability of ``ext[b, s]`` at frame t of
    member b. The alphas are ``pre + emit``; run on each member's lattice
    reversed in frames and states, the same recursion gives the betas.
    Padded cells must carry an emission of -inf. A path advances at most
    two states per frame, so frame t computes only the states below 2t + 2;
    the cells beyond stay -inf, as the full-width recursion would leave them.
    The kernel runs this only when :func:`_scaled_lattice` may have
    underflowed: it cannot underflow for finite log-probabilities, but its
    two ``np.logaddexp`` calls per frame cost several times the rescaled
    recursion.
    """
    n_frames, n_states = emit.shape[1:]
    # only a label (odd) state may skip from s-2: if it is non-blank and differs from the label two back
    skip_cost = np.where((ext[:, 3::2] != 0) & (ext[:, 3::2] != ext[:, 1:-2:2]), 0.0, NEG_INF)

    pre = np.full(emit.shape, NEG_INF)
    pre[:, 0, :2] = 0.0
    for t in range(1, n_frames):
        reach = min(n_states, 2 * t + 2)
        prev = pre[:, t - 1, :reach] + emit[:, t - 1, :reach]
        acc = pre[:, t, :reach]
        acc[:, 0] = prev[:, 0]
        np.logaddexp(prev[:, 1:], prev[:, :-1], out=acc[:, 1:])
        skips = acc[:, 3::2]
        np.logaddexp(skips, prev[:, 1 : reach - 2 : 2] + skip_cost[:, : skips.shape[1]], out=skips)
    return pre


def _scaled_lattice(emit: np.ndarray, ext: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lattices of :func:`_lattice` in probability space, rescaled at every ``_RESCALE_EVERY``-th frame.

    ``emit[b, t, s]`` is the probability of ``ext[b, s]`` at frame t of
    member b, 0 in padded cells. Returns (pre, mass): for a frame t < T-1
    that is a multiple of :data:`_RESCALE_EVERY`, mass[b, t] is the total of
    member b's alphas at frame t, and at the other frames it is 1; pre[b, t]
    is the recursion applied to frame t-1's alphas divided by mass[b, t-1],
    so it is the pre-emission lattice over the product of the masses of the
    frames before t. A frame takes a multiply, a shift-add and a masked
    skip-add, within the ``2t + 2`` reach band of :func:`_lattice`, and a
    rescaled frame also a row sum and a divide. A mass below
    :data:`_MIN_FRAME_MASS` (padded frames have mass 0) is divided by that
    constant instead, so no frame divides by zero and each rescaled frame's
    alphas sum to at most 1. An emission is at most 1 and a state reads at
    most three states of the frame before, so between rescalings the values
    grow at most 3x per frame: every alpha and beta stays below
    3^_RESCALE_EVERY, and what underflows is still a negligible share of any
    frame whose alpha-beta total passes the ``_MIN_FRAME_MASS`` check.
    """
    n_members, n_frames, n_states = emit.shape
    # frames lead and members come last, so each frame is one contiguous S x B slab
    emit = np.ascontiguousarray(emit.transpose(1, 2, 0))
    # 1 where state s may skip from s-2: a label (odd) state that is non-blank and differs from the
    # label two back; the other states hold 0, so the skip-add runs over whole contiguous rows
    skip = np.zeros((n_states, n_members))
    skip[3::2] = ((ext[:, 3::2] != 0) & (ext[:, 3::2] != ext[:, 1:-2:2])).T

    pre = np.zeros(emit.shape)
    pre[0, :2] = 1.0
    mass = np.ones((n_frames - 1, n_members))
    # frame t-1's alphas sit below two rows of zeros, so state s reads s-1 and s-2 without edge cases
    shifted = np.zeros((n_states + 2, n_members))
    skipped, ones = np.empty((n_states, n_members)), np.ones(n_states)
    for t in range(1, n_frames):
        reach = min(n_states, 2 * t + 2)
        prev = np.multiply(pre[t - 1, :reach], emit[t - 1, :reach], out=shifted[2 : reach + 2])
        if (t - 1) % _RESCALE_EVERY == 0:
            prev /= np.maximum(np.dot(ones[:reach], prev, out=mass[t - 1]), _MIN_FRAME_MASS)
        acc = np.add(prev, shifted[1 : reach + 1], out=pre[t, :reach])
        acc += np.multiply(shifted[:reach], skip[:reach], out=skipped[:reach])
    del emit
    return np.ascontiguousarray(pre.transpose(2, 0, 1)), mass.T


def _scaled_posteriors(
    probs: np.ndarray,
    rows: np.ndarray,
    columns: np.ndarray,
    rev_states: np.ndarray,
    both_ext: np.ndarray,
    lengths: np.ndarray,
    frame_ok: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """(log Z, per-frame-normalised posteriors) by :func:`_scaled_lattice`, or None where it may have underflowed.

    Lattice m of the 2B (the members, then their flipped copies) reads its
    emissions from row ``rows[m, t]`` and column ``columns[m, s]`` of a
    flattened B x T x (C+1) table. None means that some member's
    alpha-beta product had a valid frame whose total fell below
    :data:`_MIN_FRAME_MASS`: paths it needed may have underflowed.
    """
    n_batch, n_frames, n_classes = probs.shape
    table = np.zeros((n_batch, n_frames, n_classes + 1))
    np.copyto(table[:, :, :n_classes], probs, where=frame_ok[:, :, None])
    emit = np.take(table, rows[:, :, None] * (n_classes + 1) + columns[:, None, :])
    pre, mass = _scaled_lattice(emit, both_ext)
    # each cell's beta is its flipped partner's pre-emission value, and alpha is its own pre times its emission
    n_states = both_ext.shape[1]
    posterior = np.take(pre, (n_batch * n_frames + rows[n_batch:, :, None]) * n_states + rev_states[:, None, :])
    posterior *= pre[:n_batch]
    posterior *= emit[:n_batch]
    del pre, emit
    totals = posterior.sum(axis=2)
    # a frame whose total is this small may have lost paths to underflow (see _scaled_lattice)
    if not np.all(totals >= _MIN_FRAME_MASS, where=frame_ok):
        return None
    # log Z sums the logs of the masses a member's frames were divided by (1 at the frames that were
    # not rescaled; all valid frames but its last) and of the last frame's total: its betas are 1 on
    # the final blank and the final label
    divided = np.arange(n_frames - 1) < lengths[:, None] - 1
    log_z = np.sum(np.log(mass[:n_batch], out=np.zeros(divided.shape), where=divided), axis=1)
    log_z += np.log(totals[np.arange(n_batch), lengths - 1])
    posterior /= np.where(frame_ok, totals, 1.0)[:, :, None]
    return log_z, posterior


@dataclass(frozen=True, eq=False)
class LabelPlan:
    """The blank-interleaved CTC targets of fixed label sequences, built once and read by row.

    Row i serves sequence i of k labels: ``ext[i]`` is [blank, l1, blank, ...,
    lk, blank] padded with blanks to the longest row, ``n_states[i]`` is
    2k + 1, ``rev_states[i, s]`` is the state that s becomes when the lattice
    is flipped (a padded state stays where it is), ``rev_ext[i]`` is the
    flipped target and ``needed[i]`` is the fewest frames that can emit it:
    its length plus one separating blank per adjacent repeat, and at least 1,
    since a member has at least one frame. All arrays are int32.
    """

    n_classes: int
    ext: np.ndarray
    n_states: np.ndarray
    rev_states: np.ndarray
    rev_ext: np.ndarray
    needed: np.ndarray

    @classmethod
    def build(cls, labels: Sequence[Sequence[int]], n_classes: int) -> "LabelPlan":
        """The plan of ``labels``, sequences of label indices in [1, ``n_classes``); ValueError on any other index."""
        if len(labels) == 0:
            raise ValueError("a label plan needs at least one label sequence")
        n_labels = np.array([len(seq) for seq in labels], dtype=np.intp)
        flat = np.concatenate([np.asarray(seq, dtype=np.intp) for seq in labels])
        if np.any((flat < 1) | (flat >= n_classes)):
            raise ValueError(f"labels must lie in [1, {n_classes - 1}]")
        n_states = (2 * n_labels + 1).astype(np.int32)
        label_ok = np.arange(n_labels.max()) < n_labels[:, None]
        padded = np.zeros(label_ok.shape, dtype=np.int32)  # padded with blanks
        padded[label_ok] = flat
        needed = n_labels + np.sum((padded[:, 1:] == padded[:, :-1]) & label_ok[:, 1:], axis=1)
        ext = np.zeros((len(labels), n_states.max()), dtype=np.int32)
        ext[:, 1::2] = padded
        states = np.arange(ext.shape[1], dtype=np.int32)
        last = (n_states - 1)[:, None]
        rev_states = np.where(states <= last, last - states, states)
        return cls(n_classes, ext, n_states, rev_states,
                   np.take_along_axis(ext, rev_states, axis=1), np.maximum(needed, 1).astype(np.int32))

    def __len__(self) -> int:
        return len(self.n_states)

    def rows(self, members: Sequence[int] | np.ndarray) -> "LabelPlan":
        """The plan of sequences ``members``, in that order, cropped to the longest of them."""
        members = np.asarray(members, dtype=np.intp)
        n_states = self.n_states[members]
        width = n_states.max()
        return LabelPlan(self.n_classes, self.ext[members, :width], n_states, self.rev_states[members, :width],
                         self.rev_ext[members, :width], self.needed[members])


def ctc_loss_and_grad_batch(
    logits: np.ndarray,
    lengths: Sequence[int],
    labels: LabelPlan | Sequence[Sequence[int]],
    smoothing: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Label-smoothed CTC losses of a padded batch and their exact gradients with respect to the logits.

    ``logits`` is B x T x C; member b owns its first ``lengths[b]`` frames
    and rows past them are ignored. ``labels`` is a :class:`LabelPlan` of B
    rows for C classes, or B sequences of label indices in [1, C), as
    :meth:`Vocabulary.encode` gives them, which become one on entry. One
    float64 log-softmax feeds all members' shared forward-backward
    recursion over a B x T x S lattice padded to the longest member and the
    longest extended target. The recursion runs in probability space,
    rescaled every ``_RESCALE_EVERY`` frames; if any member's alpha-beta
    product has a valid frame whose total falls below ``_MIN_FRAME_MASS``
    (1e-100, which takes log-probabilities far below zero, such as a label
    whose probability underflows to 0), the whole batch reruns in log space.
    loss_b = (1-s) * ctc_b + s * mean_u
    KL(uniform || softmax(logits_b,u)), with the mean over member b's
    frames and s = ``smoothing`` in [0, 1); s = 0 is plain CTC. The CTC
    gradient is softmax minus the label-occupancy posterior per frame and
    the KL term's is softmax minus uniform, so each row sums to zero and
    rows of padded frames are exactly zero. Lengths and feasibility are
    checked on every call, label ranges where the plan is built; an
    infeasible target raises :class:`InfeasibleTargetError` rather than
    returning +inf: in training that signals a data or downsampling bug.
    """
    if not 0.0 <= smoothing < 1.0:
        raise ValueError("smoothing must lie in [0, 1)")
    log_probs = log_softmax(logits, axis=2)
    lengths = np.asarray(lengths, dtype=np.intp)
    n_batch, n_frames, n_classes = log_probs.shape
    if lengths.shape != (n_batch,) or len(labels) != n_batch:
        raise ValueError(f"{n_batch} members need {n_batch} lengths and label sequences")
    if n_batch == 0 or lengths.min() < 1 or lengths.max() > n_frames:
        raise ValueError(f"lengths must lie in [1, {n_frames}], got {lengths.tolist()}")
    plan = labels if isinstance(labels, LabelPlan) else LabelPlan.build(labels, n_classes)
    if plan.n_classes != n_classes:
        raise ValueError(f"the label plan is for {plan.n_classes} classes, the logits have {n_classes}")
    short = np.flatnonzero(lengths < plan.needed)
    if short.size:
        b = short[0]
        raise InfeasibleTargetError(
            f"member {b}: target of length {plan.n_states[b] // 2} needs at least {plan.needed[b]} frames, "
            f"got {lengths[b]}"
        )

    ext, n_states, rev_states = plan.ext, plan.n_states, plan.rev_states
    frames, states = np.arange(n_frames), np.arange(ext.shape[1])
    frame_ok = frames < lengths[:, None]
    state_ok = states < n_states[:, None]
    # each member's lattice flipped in frames and states; padded cells map to themselves
    rev_frames = np.where(frame_ok, lengths[:, None] - 1 - frames, frames)
    # alphas and betas in one recursion: the flipped lattices ride as B more members.
    # Their emissions are one flat gather from a B x T x (C+1) table whose extra
    # column C and padded frames hold probability 0 (or -inf in log space);
    # padded states read column C.
    first_row = np.arange(n_batch)[:, None] * n_frames
    rows = np.concatenate([first_row + frames, first_row + rev_frames])  # 2B x T
    both_ext = np.concatenate([ext, plan.rev_ext])  # 2B x S
    columns = np.where(np.concatenate([state_ok, state_ok]), both_ext, n_classes)
    probs = np.exp(log_probs)
    scaled = _scaled_posteriors(probs, rows, columns, rev_states, both_ext, lengths, frame_ok)
    if scaled is not None:
        log_z, posterior = scaled
    else:  # a frame's total fell below _MIN_FRAME_MASS: rerun the batch in log space, which cannot underflow
        table = np.full((n_batch, n_frames, n_classes + 1), NEG_INF)
        np.copyto(table[:, :, :n_classes], log_probs, where=frame_ok[:, :, None])
        emit = np.take(table, rows[:, :, None] * (n_classes + 1) + columns[:, None, :])
        pre = _lattice(emit, both_ext)
        alpha = pre[:n_batch] + emit[:n_batch]
        # each cell's beta is its flipped partner's pre-emission value
        beta = np.take(pre, (n_batch * n_frames + rows[n_batch:, :, None]) * ext.shape[1] + rev_states[:, None, :])

        # a path ends in the final blank or the final label
        last_frame = (np.arange(n_batch), lengths - 1)
        final_label = np.where(n_states > 1, alpha[last_frame + (np.maximum(n_states - 2, 0),)], NEG_INF)
        log_z = np.logaddexp(alpha[last_frame + (n_states - 1,)], final_label)

        posterior = np.exp(alpha + beta - log_z[:, None, None])  # per lattice state; 0 on padding
        # rounding in the recursion grows with |log Z|, so each frame is divided by its own total, not trusted to sum to 1
        posterior /= np.where(frame_ok, posterior.sum(axis=2), 1.0)[:, :, None]
    occupancy = posterior @ (ext[:, :, None] == np.arange(n_classes)).astype(np.float64)
    grad = probs - occupancy
    grad[~frame_ok] = 0.0
    if smoothing == 0.0:
        return -log_z, grad
    frame_ok = frame_ok[:, :, None]
    # KL(u || p) per frame = -log C - mean_k log p_k
    kl = -math.log(n_classes) - np.sum(log_probs, axis=(1, 2), where=frame_ok) / (lengths * n_classes)
    kl_grad = (smoothing / lengths[:, None, None]) * (probs - 1.0 / n_classes)
    losses = (1.0 - smoothing) * -log_z + smoothing * kl
    grad = (1.0 - smoothing) * grad + np.where(frame_ok, kl_grad, 0.0)
    return losses, grad


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
    best_path = np.argmax(log_probs, axis=2)
    confidence = np.exp(np.sum(np.max(log_probs, axis=2), axis=1, where=frame_ok) / lengths)
    return [DecodeResult(collapse(best_path[b, :n], vocab), float(confidence[b])) for b, n in enumerate(lengths)]
