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
from .ctc import (
    DecodeResult,
    collapse,
    ctc_loss_and_grad_batch,
    greedy_decode_batch,
    log_softmax,
)
from .metrics import WerReport, edit_distance, relative_improvement, wer
from .net import (
    NetConfig,
    backward_batch,
    forward_batch,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from .optim import (
    OptState,
    StageConfig,
    adamw_step,
    clip_gradients,
    lr_at,
    preset,
)
from .pipeline import (
    PipelineReport,
    PseudoLabel,
    cpt_stage,
    generate_pseudo_labels,
    labeler_stage,
    run_baseline,
    run_cpt_pipeline,
    validation_split,
)
from .train import TrainHistory, evaluate_wer, train_stage

__version__ = "0.1.0"
