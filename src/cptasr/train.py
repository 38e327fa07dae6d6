"""Shared supervised training loop: batching, optimization, validation WER, early stopping."""

from __future__ import annotations

import ctypes
import json
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ctc, net, optim
from .corpus import Dataset, Vocabulary
from .fieldcheck import as_record
from .metrics import WerReport, wer
from .net import NetConfig
from .optim import StageConfig

logger = logging.getLogger(__name__)

# Abort when more than this fraction of a stage's data is CTC-infeasible
# after downsampling; that level of loss signals a misconfigured net.
MAX_SKIP_FRACTION = 0.10

# Utterances per eval-mode forward pass in decode_dataset.
DECODE_CHUNK = 8

# Freed heap glibc keeps at the top instead of returning it (mallopt M_TOP_PAD).
# A long-utterance step frees several MB of 0.25-0.55 MB temporaries; returned
# to the kernel, they fault in again on the next step: ~115,000 minor faults
# per seed-0 long-utt run without the pad, a few hundred at most with it.
_M_TOP_PAD = -2
HEAP_TOP_PAD = 16 * 2**20


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_wer: float
    lr: float
    clipped_steps: int  # steps whose gradient norm exceeded optim.GRAD_CLIP_NORM before clipping
    seconds: float = field(metadata={"timing": True})  # wall clock, so left out of reproducible records


@dataclass
class TrainHistory:
    """Per-epoch records plus the model-selection outcome."""

    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False
    skipped_utterances: int = 0

    @property
    def best_val_wer(self) -> float:
        return self.records[self.best_epoch - 1].val_wer

    def to_dict(self, with_timing: bool = True) -> dict:
        return as_record(self, with_timing)


def save_history(history: TrainHistory, path: str | Path) -> None:
    """One JSON record per epoch, timings included, then a line with the rest of the history."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    summary = history.to_dict()
    records = summary.pop("records")
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
        fh.write(json.dumps(summary) + "\n")


def decode_dataset(theta: np.ndarray, cfg: NetConfig, ds: Dataset, vocab: Vocabulary) -> list[ctc.DecodeResult]:
    """Greedy-decode every utterance in eval mode, in dataset order, ``DECODE_CHUNK`` utterances per forward pass.

    Each pass is :func:`net.infer_batch`, which keeps no activations for a
    backward pass. An utterance shorter than ``cfg.downsample_factor``
    frames has no output frame: it decodes to an empty hypothesis with
    confidence 0, without a forward pass, and one warning per call counts
    such utterances.
    """
    utts = list(ds)
    results = [ctc.DecodeResult("", 0.0) for _ in utts]
    decodable = [i for i, utt in enumerate(utts) if utt.duration_frames >= cfg.downsample_factor]
    if len(decodable) < len(utts):
        logger.warning("%d of %d utterances are shorter than one downsampled step of %d frames; they decode empty",
                       len(utts) - len(decodable), len(utts), cfg.downsample_factor)
    for start in range(0, len(decodable), DECODE_CHUNK):
        chunk = decodable[start : start + DECODE_CHUNK]
        logits, lengths = net.infer_batch(theta, cfg, [utts[i].features for i in chunk])
        for i, result in zip(chunk, ctc.greedy_decode_batch(logits, lengths, vocab)):
            results[i] = result
    return results


def evaluate_wer(theta: np.ndarray, cfg: NetConfig, ds: Dataset, vocab: Vocabulary) -> WerReport:
    """Corpus-level word error rate of greedy decodes against the references."""
    if ds.kind == "unlabeled":
        raise ValueError("cannot score an unlabeled dataset")
    decodes = decode_dataset(theta, cfg, ds, vocab)
    pairs = [(utt.transcript, dec.hypothesis) for utt, dec in zip(ds, decodes)]
    return wer(pairs)


def _keep_freed_heap() -> None:
    """Set glibc's heap top pad to ``HEAP_TOP_PAD``; without ``mallopt`` (macOS, Windows) do nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # Windows cannot open CDLL(None); macOS has no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, HEAP_TOP_PAD)


def train_stage(
    start: np.ndarray,
    cfg: NetConfig,
    data: Dataset,
    val: Dataset,
    stage: StageConfig,
    vocab: Vocabulary,
) -> tuple[np.ndarray, TrainHistory]:
    """Run one training stage from the parameter vector ``start`` and return the best-validation-WER vector.

    Empty training data, and validation data without a single reference
    word, are rejected before any training. Training then sets glibc's heap
    top pad to ``HEAP_TOP_PAD`` (process-wide and idempotent; nothing
    happens where ``mallopt`` is missing), so the temporaries one step frees
    serve the next instead of being faulted in afresh; no number changes.
    The parameters train as one float32 copy of ``start`` (rounded, if
    ``start`` holds a value float32 lacks). The transcripts are encoded once
    (an out-of-vocabulary character raises ValueError naming the utterance)
    into one :class:`ctc.LabelPlan` per stage, whose build checks their
    label ranges and whose ``needed`` alone decides what trains: an
    utterance with fewer downsampled frames is skipped with a warning, more
    than ``MAX_SKIP_FRACTION`` skipped raises ValueError, and the rest train
    on the plan cut to their rows. Each epoch shuffles the data by (stage
    seed, epoch) and runs each batch through one packed
    :func:`net.forward_batch` (member ``pos`` of batch ``b`` draws its
    ``stage.dropout_rate`` masks from ``[stage.seed, epoch, b, pos]``), one
    :func:`ctc.ctc_loss_and_grad_batch` on the members' plan rows (float64
    CTC lattice, with ``stage.label_smoothing``) and one
    :func:`net.backward_batch`; the summed float64 gradient is divided
    by the member count, and a non-finite result raises
    ``FloatingPointError`` naming its tensor. The vector is clipped to
    ``optim.GRAD_CLIP_NORM`` (each epoch's record counts the steps it
    clipped) and stepped by AdamW under the warmup/decay schedule, in
    float64 with float64 moments and rounded once into the float32 vector.
    ``start`` is not modified. Validation WER is measured after every
    epoch, in float32; training stops once ``stage.patience`` consecutive
    epochs fail to improve the best WER (patience None disables early
    stopping). The best epoch's parameters are returned as a float32
    vector; :func:`net.unflatten` gives named views.
    """
    if data.kind == "unlabeled":
        raise ValueError("training data must carry transcripts")
    if val.kind != "labeled":
        raise ValueError("validation dataset must be labeled")
    if not any(utt.transcript.split() for utt in val):
        raise ValueError("validation dataset is empty or has only empty transcripts; validation WER is undefined")
    if len(data) == 0:
        raise ValueError("training data is empty")

    utts = list(data)
    labels = []
    for utt in utts:
        try:
            labels.append(vocab.encode(utt.transcript))
        except ValueError as exc:
            raise ValueError(f"utterance {utt.id!r}: {exc}") from None
    plan = ctc.LabelPlan.build(labels, cfg.vocab_size + 1)
    u_frames = np.array([utt.duration_frames for utt in utts]) // cfg.downsample_factor
    skipped = np.flatnonzero(u_frames < plan.needed)
    for i in skipped:
        logger.warning("skipping utterance %s: %d downsampled frames cannot emit %r",
                       utts[i].id, u_frames[i], utts[i].transcript)
    if len(skipped) > MAX_SKIP_FRACTION * len(data):
        raise ValueError(
            f"{len(skipped)}/{len(data)} utterances are CTC-infeasible after downsampling; "
            f"check downsample_factor={cfg.downsample_factor}"
        )
    kept = np.flatnonzero(u_frames >= plan.needed)
    usable = [utts[i] for i in kept]
    plan = plan.rows(kept)

    _keep_freed_heap()
    theta = start.astype(np.float32)  # a copy even when start is float32
    state = optim.OptState.zeros_like(theta)
    batches_per_epoch = math.ceil(len(usable) / stage.batch_size)
    total_steps = stage.epochs * batches_per_epoch

    history = TrainHistory(skipped_utterances=len(skipped))
    best_wer = math.inf
    best = theta.copy()
    bad_epochs = 0

    for epoch in range(1, stage.epochs + 1):
        tic = time.perf_counter()
        order = np.random.default_rng([stage.seed, epoch]).permutation(len(usable))
        epoch_loss, clipped = 0.0, 0
        for b in range(batches_per_epoch):
            members = order[b * stage.batch_size : (b + 1) * stage.batch_size]
            batch = [usable[idx] for idx in members]
            logits, cache = net.forward_batch(
                theta, cfg, [utt.features for utt in batch],
                dropout_rate=stage.dropout_rate, seeds=[[stage.seed, epoch, b, pos] for pos in range(len(batch))],
            )
            losses, dlogits = ctc.ctc_loss_and_grad_batch(logits, cache.lengths, plan.rows(members),
                                                          stage.label_smoothing)
            epoch_loss += float(np.sum(losses))
            grads = net.backward_batch(theta, cfg, cache, dlogits)
            grads /= len(batch)
            del logits, cache, dlogits  # free this batch's activations before the next forward pass
            if not np.all(np.isfinite(grads)):
                bad = net.tensor_name(cfg, int(np.argmin(np.isfinite(grads))))
                raise FloatingPointError(f"non-finite gradient in {bad!r} at step {state.step}")
            _, scale = optim.clip_gradients(grads, optim.GRAD_CLIP_NORM)  # scales grads in place
            clipped += scale < 1.0
            lr = optim.lr_at(state.step, total_steps, stage)
            optim.adamw_step(theta, grads, state, lr)

        val_report = evaluate_wer(theta, cfg, val, vocab)
        record = EpochRecord(
            epoch=epoch,
            train_loss=epoch_loss / len(usable),
            val_wer=val_report.wer,
            lr=optim.lr_at(state.step, total_steps, stage),
            clipped_steps=clipped,
            seconds=time.perf_counter() - tic,
        )
        history.records.append(record)
        logger.info("epoch %d: train loss %.4f, val WER %.4f", epoch, record.train_loss, record.val_wer)

        if record.val_wer < best_wer:
            best_wer = record.val_wer
            best[:] = theta
            history.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if stage.patience is not None and bad_epochs >= stage.patience:
                history.stopped_early = True
                logger.info("early stopping after epoch %d (best epoch %d)", epoch, history.best_epoch)
                break

    return best, history
