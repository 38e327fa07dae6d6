"""Shared supervised training loop: batching, optimization, validation WER, early stopping."""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import ctc, net, optim
from .corpus import Dataset, Vocabulary
from .metrics import WerReport, wer
from .net import NetConfig, Parameters
from .optim import StageConfig

logger = logging.getLogger(__name__)

# Abort when more than this fraction of a stage's data is CTC-infeasible
# after downsampling; that level of loss signals a misconfigured net.
MAX_SKIP_FRACTION = 0.10

# Utterances per eval-mode forward pass in decode_dataset.
DECODE_CHUNK = 8


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_wer: float
    lr: float
    seconds: float

    def to_dict(self, with_timing: bool = True) -> dict:
        record = {"epoch": self.epoch, "train_loss": self.train_loss, "val_wer": self.val_wer, "lr": self.lr}
        if with_timing:
            record["seconds"] = self.seconds
        return record


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
        return {
            "records": [r.to_dict(with_timing) for r in self.records],
            "best_epoch": self.best_epoch,
            "stopped_early": self.stopped_early,
            "skipped_utterances": self.skipped_utterances,
        }


def save_history(history: TrainHistory, path: str | Path) -> None:
    """One JSON record per epoch, then a summary line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in history.records:
            fh.write(json.dumps(record.to_dict()) + "\n")
        fh.write(json.dumps({
            "best_epoch": history.best_epoch,
            "stopped_early": history.stopped_early,
            "skipped_utterances": history.skipped_utterances,
        }) + "\n")


def decode_dataset(params: Parameters, cfg: NetConfig, ds: Dataset, vocab: Vocabulary) -> list[ctc.DecodeResult]:
    """Greedy-decode every utterance in eval mode, in dataset order, ``DECODE_CHUNK`` utterances per forward pass."""
    utts = list(ds)
    results = []
    for start in range(0, len(utts), DECODE_CHUNK):
        chunk = utts[start : start + DECODE_CHUNK]
        logits, cache = net.forward_batch(params, cfg, [utt.features for utt in chunk], train_mode=False)
        results.extend(ctc.greedy_decode_batch(logits, cache.lengths, vocab))
        del logits, cache  # free this chunk's activations before the next forward pass
    return results


def evaluate_wer(params: Parameters, cfg: NetConfig, ds: Dataset, vocab: Vocabulary) -> WerReport:
    """Corpus-level word error rate of greedy decodes against the references."""
    if ds.kind == "unlabeled":
        raise ValueError("cannot score an unlabeled dataset")
    decodes = decode_dataset(params, cfg, ds, vocab)
    pairs = [(utt.transcript, dec.hypothesis) for utt, dec in zip(ds, decodes)]
    return wer(pairs, unit="word")


def _feasible_subset(data: Dataset, cfg: NetConfig, vocab: Vocabulary) -> tuple[list, int]:
    usable = []
    skipped = 0
    for utt in data:
        u_frames = utt.duration_frames // cfg.downsample_factor
        if u_frames < 1 or u_frames < ctc.min_frames(utt.transcript):
            logger.warning("skipping utterance %s: %d downsampled frames cannot emit %r",
                           utt.id, u_frames, utt.transcript)
            skipped += 1
            continue
        for ch in utt.transcript:
            if ch not in vocab:
                raise ValueError(f"utterance {utt.id!r}: character {ch!r} not in vocabulary")
        usable.append(utt)
    return usable, skipped


def train_stage(
    start: Parameters,
    cfg: NetConfig,
    data: Dataset,
    val: Dataset,
    stage: StageConfig,
    vocab: Vocabulary,
) -> tuple[Parameters, TrainHistory]:
    """Run one training stage and return the best-validation-WER parameters.

    The parameters live in one flat float64 vector. Each epoch shuffles the
    data by (stage seed, epoch) and runs each batch through one packed
    :func:`net.forward_batch` (member ``pos`` of batch ``b`` draws its
    dropout from ``[stage.seed, epoch, b, pos]``), one
    :func:`optim.smoothed_ctc_objective_batch` and one
    :func:`net.backward_batch`; the summed gradient is divided by the
    member count, and a non-finite result raises ``FloatingPointError``
    naming its tensor. The vector is clipped and stepped by AdamW under the
    warmup/decay schedule, then projected to float32-representable values
    in one op so checkpoints round-trip bit-exactly. Validation WER is measured after every epoch; training
    stops once ``stage.patience`` consecutive epochs fail to improve the
    best WER (patience None or 0 disables early stopping).
    """
    if data.kind == "unlabeled":
        raise ValueError("training data must carry transcripts")
    if val.kind != "labeled":
        raise ValueError("validation dataset must be labeled")
    if len(data) == 0:
        raise ValueError("training data is empty")

    # the stage owns the dropout rate; the net config just carries the default
    run_cfg = replace(cfg, dropout_rate=stage.dropout_rate)
    usable, skipped = _feasible_subset(data, run_cfg, vocab)
    if skipped > MAX_SKIP_FRACTION * len(data):
        raise ValueError(
            f"{skipped}/{len(data)} utterances are CTC-infeasible after downsampling; "
            f"check downsample_factor={cfg.downsample_factor}"
        )
    if not usable:
        raise ValueError("no feasible training utterances remain")

    theta = net.flatten(cfg, start)
    state = optim.OptState.zeros_like(theta)
    batches_per_epoch = math.ceil(len(usable) / stage.batch_size)
    total_steps = stage.epochs * batches_per_epoch

    history = TrainHistory(skipped_utterances=skipped)
    best_wer = math.inf
    best = theta
    bad_epochs = 0
    global_step = 0

    for epoch in range(1, stage.epochs + 1):
        tic = time.perf_counter()
        order = np.random.default_rng([stage.seed, epoch]).permutation(len(usable))
        epoch_loss = 0.0
        for b in range(batches_per_epoch):
            batch = [usable[idx] for idx in order[b * stage.batch_size : (b + 1) * stage.batch_size]]
            params = net.unflatten(cfg, theta)
            logits, cache = net.forward_batch(
                params, run_cfg, [utt.features for utt in batch],
                train_mode=True, seeds=[[stage.seed, epoch, b, pos] for pos in range(len(batch))],
            )
            losses, dlogits = optim.smoothed_ctc_objective_batch(
                logits, cache.lengths, [utt.transcript for utt in batch], vocab, stage.label_smoothing
            )
            epoch_loss += float(np.sum(losses))
            grads = net.backward_batch(params, run_cfg, cache, dlogits) / len(batch)
            del logits, cache, dlogits  # free this batch's activations before the next forward pass
            if not np.all(np.isfinite(grads)):
                bad = net.tensor_name(cfg, int(np.argmin(np.isfinite(grads))))
                raise FloatingPointError(f"non-finite gradient in {bad!r} at step {global_step}")
            if stage.grad_clip_norm is not None:
                grads, _ = optim.clip_gradients(grads, stage.grad_clip_norm)
            lr = optim.lr_at(global_step, total_steps, stage)
            theta, state = optim.adamw_step(theta, grads, state, lr, stage)
            theta = net.float32_exact(theta)
            global_step += 1

        val_report = evaluate_wer(net.unflatten(cfg, theta), run_cfg, val, vocab)
        record = EpochRecord(
            epoch=epoch,
            train_loss=epoch_loss / len(usable),
            val_wer=val_report.wer,
            lr=optim.lr_at(global_step, total_steps, stage),
            seconds=time.perf_counter() - tic,
        )
        history.records.append(record)
        logger.info("epoch %d: train loss %.4f, val WER %.4f", epoch, record.train_loss, record.val_wer)

        if record.val_wer < best_wer:
            best_wer = record.val_wer
            best = theta.copy()
            history.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if stage.patience and bad_epochs >= stage.patience:
                history.stopped_early = True
                logger.info("early stopping after epoch %d (best epoch %d)", epoch, history.best_epoch)
                break

    return net.unflatten(cfg, best), history
