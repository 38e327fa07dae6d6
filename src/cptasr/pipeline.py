"""Staged semi-supervised recipe: labeling model, confidence-filtered pseudo-labels,
continued pretraining, supervised finetuning, and the no-CPT comparison baseline."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import net as net_mod
from . import train as train_mod
from .corpus import Dataset, Vocabulary, speaker_disjoint_split
from .fieldcheck import as_record
from .metrics import WerReport
from .net import NetConfig
from .optim import StageConfig
from .train import TrainHistory

logger = logging.getLogger(__name__)

# Fixed offset for the validation split's seed so it never collides with
# a stage seed.
VAL_SPLIT_SEED_OFFSET = 9973
VAL_FRACTION = 0.10


class EmptyPseudoLabelPoolError(RuntimeError):
    """No pseudo-labels survived the confidence threshold."""


@dataclass
class PseudoLabel:
    utterance_id: str
    hypothesis: str
    confidence: float


@dataclass
class PseudoLabelStats:
    total: int
    kept: int
    empty_dropped: int
    below_threshold: int
    labels: list[PseudoLabel] = field(default_factory=list, repr=False)  # not part of the record

    def to_dict(self) -> dict:
        return as_record(self)


@dataclass
class PipelineReport:
    """Everything the staged run produced.

    Compare ``final_eval_wer`` with a :func:`run_baseline` score through
    ``metrics.relative_improvement``.
    """

    # restate pseudo_label_stats.total and .kept; the benchmark workloads read them
    pool_total: int
    pool_kept: int
    pseudo_label_stats: PseudoLabelStats
    cpt_history: TrainHistory
    finetune_history: TrainHistory
    labeler_history: TrainHistory
    final_eval_wer: WerReport

    def to_dict(self) -> dict:
        # wall-clock timings are excluded so identical runs serialize identically
        return as_record(self, with_timing=False)


def filter_pseudo_labels(labels: list[PseudoLabel], threshold: float) -> tuple[list[PseudoLabel], PseudoLabelStats]:
    """Keep labels whose confidence strictly exceeds the threshold.

    Empty hypotheses are dropped regardless of confidence; they carry no
    training signal.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    kept: list[PseudoLabel] = []
    empty_dropped = below_threshold = 0
    for label in labels:
        if not label.hypothesis:
            empty_dropped += 1
        elif label.confidence > threshold:
            kept.append(label)
        else:
            below_threshold += 1
    stats = PseudoLabelStats(
        total=len(labels),
        kept=len(kept),
        empty_dropped=empty_dropped,
        below_threshold=below_threshold,
        labels=labels,
    )
    return kept, stats


def generate_pseudo_labels(
    params: np.ndarray, cfg: NetConfig, pool: Dataset, threshold: float, vocab: Vocabulary,
) -> tuple[Dataset, PseudoLabelStats]:
    """Stage B: greedy-decode the unlabeled pool and keep confident, non-empty hypotheses.

    Output utterances are ordered by id, whatever the order of the pool.
    Logs the kept, empty and below-threshold counts, and raises
    ``EmptyPseudoLabelPoolError`` when no label is kept.
    """
    if pool.kind != "unlabeled":
        raise ValueError("pseudo-labeling expects an unlabeled pool")

    utts = sorted(pool, key=lambda u: u.id)
    decodes = train_mod.decode_dataset(params, cfg, Dataset(utts, "unlabeled"), vocab)
    labels = [PseudoLabel(u.id, d.hypothesis, d.confidence) for u, d in zip(utts, decodes)]

    kept_labels, stats = filter_pseudo_labels(labels, threshold)
    logger.info("pseudo-labels: kept %d of %d (%d empty, %d below threshold)",
                stats.kept, stats.total, stats.empty_dropped, stats.below_threshold)
    if stats.kept == 0:
        raise EmptyPseudoLabelPoolError(
            f"no pseudo-labels survived threshold {threshold} ({stats.empty_dropped} of {stats.total} "
            "hypotheses empty); lower it or improve the labeling model"
        )
    by_id = {u.id: u for u in utts}
    kept = [replace(by_id[label.utterance_id], transcript=label.hypothesis) for label in kept_labels]
    return Dataset(kept, "pseudo_labeled"), stats


def _check_no_leak(labeled: Dataset, others: tuple[Dataset, ...], eval_ds: Dataset | None) -> None:
    """Raise ValueError if ``labeled`` shares utterance ids with ``others`` or speakers with ``eval_ds``."""
    overlap = {u.id for u in labeled}.intersection(u.id for other in others for u in other)
    if overlap:
        raise ValueError(f"datasets share utterance ids: {sorted(overlap)[:3]}...")
    if eval_ds is not None and labeled.speakers() & eval_ds.speakers():
        raise ValueError("evaluation speakers leak into the labeled training data")


def validation_split(labeled: Dataset, stage1: StageConfig) -> tuple[Dataset, Dataset]:
    """Split the labeled data into (train, val), holding out ~10%, speaker-disjoint, for early stopping.

    Seeded from stage A's config; a run makes this split once and every
    training stage validates on the same ``val``.
    """
    val_count = max(1, round(VAL_FRACTION * len(labeled)))
    return speaker_disjoint_split(labeled, val_count, stage1.seed + VAL_SPLIT_SEED_OFFSET)


def labeler_stage(train: Dataset, val: Dataset, stage1: StageConfig, net: NetConfig,
                  vocab: Vocabulary) -> tuple[np.ndarray, TrainHistory]:
    """Stage A: train the labeling model from a fresh initialization seeded by ``stage1``."""
    return train_mod.train_stage(net_mod.init_parameters(net, stage1.seed), net, train, val, stage1, vocab)


def cpt_stage(pseudo: Dataset, train: Dataset, val: Dataset, stage2: StageConfig, net: NetConfig,
              vocab: Vocabulary) -> tuple[np.ndarray, TrainHistory]:
    """Stage C: continued pretraining on the pseudo-labels alone, validated on ``val``.

    Starts from a fresh initialization seeded by ``stage2``. ``train`` is
    only checked to share no utterance id with ``pseudo``.
    """
    if len(pseudo) == 0:
        raise EmptyPseudoLabelPoolError("the pseudo-label set is empty")
    _check_no_leak(pseudo, (train, val), None)
    return train_mod.train_stage(net_mod.init_parameters(net, stage2.seed), net, pseudo, val, stage2, vocab)


def run_baseline(
    labeled: Dataset,
    eval_ds: Dataset,
    cfg: StageConfig,
    net: NetConfig,
    vocab: Vocabulary,
) -> tuple[np.ndarray, WerReport, TrainHistory]:
    """The no-CPT arm: stage A on the validation split of ``labeled``, scored on ``eval_ds``."""
    _check_no_leak(labeled, (eval_ds,), eval_ds)
    params, history = labeler_stage(*validation_split(labeled, cfg), cfg, net, vocab)
    report = train_mod.evaluate_wer(params, net, eval_ds, vocab)
    return params, report, history


def run_cpt_pipeline(
    labeled: Dataset, pool: Dataset, eval_ds: Dataset,
    stage1: StageConfig, stage2: StageConfig, stage3: StageConfig,
    net: NetConfig, threshold: float, vocab: Vocabulary,
) -> tuple[np.ndarray, PipelineReport]:
    """Run stages A-D and return the finetuned model plus a report; nothing is written to disk."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    _check_no_leak(labeled, (pool, eval_ds), eval_ds)

    train_ds, val_ds = validation_split(labeled, stage1)
    labeler, labeler_history = labeler_stage(train_ds, val_ds, stage1, net, vocab)
    pseudo_ds, stats = generate_pseudo_labels(labeler, net, pool, threshold, vocab)
    cpt_params, cpt_history = cpt_stage(pseudo_ds, train_ds, val_ds, stage2, net, vocab)
    final_params, finetune_history = train_mod.train_stage(cpt_params, net, train_ds, val_ds, stage3, vocab)
    final_report = train_mod.evaluate_wer(final_params, net, eval_ds, vocab)
    report = PipelineReport(
        pool_total=stats.total,
        pool_kept=stats.kept,
        pseudo_label_stats=stats,
        cpt_history=cpt_history,
        finetune_history=finetune_history,
        labeler_history=labeler_history,
        final_eval_wer=final_report,
    )
    return final_params, report
