"""Desk-scale continued-pretraining pipeline for CTC speech recognition."""

from .corpus import (
    Dataset,
    SynthConfig,
    Utterance,
    Vocabulary,
    build_vocabulary,
    generate_synthetic_corpus,
    load_manifest,
    save_manifest,
    speaker_disjoint_split,
)
from .ctc import DecodeResult, collapse, ctc_loss_and_grad, greedy_decode, log_softmax
from .metrics import WerReport, edit_distance, relative_improvement, wer
from .net import NetConfig, backward, forward, init_parameters, load_checkpoint, save_checkpoint
from .optim import OptState, StageConfig, adamw_step, clip_gradients, lr_at, preset, smoothed_ctc_objective
from .pipeline import (
    PipelineReport,
    PseudoLabel,
    attach_baseline,
    cpt_stage,
    finetune_stage,
    generate_pseudo_labels,
    labeler_stage,
    pseudo_label_stage,
    run_baseline,
    run_cpt_pipeline,
)
from .train import TrainHistory, evaluate_wer, train_stage

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DecodeResult",
    "NetConfig",
    "OptState",
    "PipelineReport",
    "PseudoLabel",
    "StageConfig",
    "SynthConfig",
    "TrainHistory",
    "Utterance",
    "Vocabulary",
    "WerReport",
    "adamw_step",
    "attach_baseline",
    "backward",
    "build_vocabulary",
    "clip_gradients",
    "collapse",
    "cpt_stage",
    "ctc_loss_and_grad",
    "edit_distance",
    "evaluate_wer",
    "finetune_stage",
    "forward",
    "generate_pseudo_labels",
    "generate_synthetic_corpus",
    "greedy_decode",
    "init_parameters",
    "labeler_stage",
    "load_checkpoint",
    "load_manifest",
    "log_softmax",
    "lr_at",
    "preset",
    "pseudo_label_stage",
    "relative_improvement",
    "run_baseline",
    "run_cpt_pipeline",
    "save_checkpoint",
    "save_manifest",
    "smoothed_ctc_objective",
    "speaker_disjoint_split",
    "train_stage",
    "wer",
]
