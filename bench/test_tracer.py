"""Checks of the span tracer on a tiny pipeline run.

Run with ``python -m pytest bench``; the tier-1 suite does not collect it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cptasr.ctc
from cptasr import corpus, metrics, net, pipeline, train
from cptasr.optim import StageConfig
from tracer import Tracer

BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def tiny():
    synth = corpus.SynthConfig(n_speakers=6, n_utterances=90, labeled_fraction=0.5, seed=5)
    labeled, pool, _ = corpus.generate_synthetic_corpus(synth)
    vocab = corpus.build_vocabulary(labeled.transcripts())
    train_all, eval_ds = corpus.speaker_disjoint_split(labeled, 8, seed=0)
    cfg = net.NetConfig(feature_dim=synth.feature_dim, vocab_size=vocab.size, downsample_factor=4,
                        conv_layers=1, conv_channels=8, context_layers=1, hidden_dim=12, context_window=1)
    stages = [StageConfig(learning_rate=3e-3, epochs=e, batch_size=8, patience=None, seed=s,
                          label_smoothing=ls, dropout_rate=dr)
              for e, s, ls, dr in ((2, 1, 0.0, 0.0), (1, 2, 0.0, 0.0), (2, 3, 0.1, 0.1))]
    return train_all, pool, eval_ds, stages, cfg, vocab


def _run(tiny):
    train_all, pool, eval_ds, (s1, s2, s3), cfg, vocab = tiny
    return pipeline.run_cpt_pipeline(train_all, pool, eval_ds, s1, s2, s3, cfg, 0.0, vocab)


def test_counts_match_the_arithmetic_and_outputs_are_unchanged(tiny):
    plain_params, plain_report = _run(tiny)
    tracer = Tracer()
    with tracer:
        # the copies bound by ``from .ctc import greedy_decode`` and ``from .metrics import wer``
        assert pipeline.greedy_decode is cptasr.ctc.greedy_decode
        assert hasattr(pipeline.greedy_decode, "__wrapped__")
        assert train.wer is metrics.wer and hasattr(train.wer, "__wrapped__")
        with tracer.span("bench.run"):
            traced_params, traced_report = _run(tiny)
    assert pipeline.greedy_decode is cptasr.ctc.greedy_decode  # restored on exit
    assert not hasattr(pipeline.greedy_decode, "__wrapped__")

    assert json.dumps(plain_report.to_dict()) == json.dumps(traced_report.to_dict())
    for name in plain_params:
        np.testing.assert_array_equal(plain_params[name], traced_params[name])

    _, pool, eval_ds, (s1, s2, s3), _, _ = tiny
    summary = tracer.summary()
    calls = {name: f["calls"] for name, f in summary["functions"].items()}
    counts = summary["counts"]
    histories = (traced_report.labeler_history, traced_report.cpt_history, traced_report.finetune_history)
    epochs = sum(len(h.records) for h in histories)
    assert epochs == counts["train.epochs"] == s1.epochs + s2.epochs + s3.epochs
    # one CTC objective per usable utterance per epoch, summed over the stages
    assert calls["ctc.ctc_loss_and_grad"] == counts["train.utterance_passes"]
    assert calls["optim.smoothed_ctc_objective"] == counts["train.utterance_passes"]
    # one decode per pool utterance, per validation utterance per epoch, per eval utterance
    assert calls["train.evaluate_wer"] == epochs + 1
    val_size = (counts["train.evaluated_utterances"] - len(eval_ds)) / epochs
    assert val_size == int(val_size) > 0
    assert calls["ctc.greedy_decode"] == len(pool) + epochs * val_size + len(eval_ds)
    assert calls["net.forward"] == calls["ctc.ctc_loss_and_grad"] + calls["ctc.greedy_decode"]
    # one optimizer step per batch
    assert calls["optim.adamw_step"] == counts["train.steps"] == calls["optim.clip_gradients"]
    assert summary["stages"].keys() == {"labeler", "cpt", "finetune"}
    assert counts["pipeline.pseudo_total"] == len(pool)

    beneath = summary["top_level"]["bench.run/pipeline.run_cpt_pipeline"]["functions"]
    assert beneath["ctc.ctc_loss_and_grad"]["calls"] == calls["ctc.ctc_loss_and_grad"]


def test_self_times_partition_the_root_spans(tiny):
    tracer = Tracer()
    with tracer:
        with tracer.span("bench.outer"):
            _run(tiny)
    name, dur, self_s, parent = tracer.arrays()
    assert np.all(self_s >= -1e-9)
    assert math.isclose(self_s.sum(), dur[parent < 0].sum(), rel_tol=1e-9)
    layers = tracer.summary()["layers"]
    functions = tracer.summary()["functions"]
    program_self = sum(f["self_s"] for n, f in functions.items() if not n.startswith("bench."))
    assert math.isclose(sum(l["self_s"] for l in layers.values()), program_self, rel_tol=1e-9)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pipeline", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
