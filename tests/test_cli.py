"""Command-line surface: command chain, determinism, exit codes, report table."""

import json
import logging
import time
from dataclasses import replace

import pytest

from cptasr.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_EMPTY_POOL,
    EXIT_OK,
    main,
)
from cptasr.corpus import Dataset, build_vocabulary, load_manifest, save_manifest
from cptasr.net import NetConfig, init_parameters, save_checkpoint


@pytest.fixture()
def run_config(tmp_path):
    out_dir = tmp_path / "run"
    cfg = {
        "seed": 3,
        "threshold": 0.25,
        "out_dir": str(out_dir),
        "synth": {
            "n_speakers": 8,
            "n_utterances": 90,
            "labeled_fraction": 0.6,
        },
        "net": {
            "feature_dim": 32,
            "downsample_factor": 4,
            "conv_layers": 1,
            "conv_channels": 16,
            "context_layers": 1,
            "hidden_dim": 24,
            "context_window": 2,
        },
        "stages": {
            "stage1": {"learning_rate": 1e-3, "epochs": 2},
            "stage2-cpt": {"learning_rate": 5e-4, "epochs": 1},
            "stage3-finetune": {"learning_rate": 1e-3, "epochs": 2},
            "baseline": {"learning_rate": 1e-3, "epochs": 2},
        },
        "paths": {
            "labeled": str(out_dir / "train.jsonl"),
            "unlabeled": str(out_dir / "unlabeled.jsonl"),
            "eval": str(out_dir / "eval.jsonl"),
        },
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path, out_dir


def test_gen_data_writes_manifests_and_truth(run_config, capsys):
    cfg_path, out_dir = run_config
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    assert (out_dir / "labeled.jsonl").exists()
    assert (out_dir / "unlabeled.jsonl").exists()
    truth = json.loads((out_dir / "truth.json").read_text())
    assert len(truth) == 36  # 90 utterances at labeled_fraction 0.6
    assert "54 labeled and 36 unlabeled" in capsys.readouterr().out


def test_gen_data_deterministic(run_config):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    first = (out_dir / "labeled.jsonl").read_bytes()
    main(["gen-data", "--config", str(cfg_path)])
    assert (out_dir / "labeled.jsonl").read_bytes() == first


def test_gen_data_warns_on_empty_unlabeled(run_config, capsys):
    cfg_path, out_dir = run_config
    cfg = json.loads(cfg_path.read_text())
    cfg["synth"]["labeled_fraction"] = 1.0
    cfg_path.write_text(json.dumps(cfg))
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    assert "warning" in capsys.readouterr().err.lower()


def test_full_command_chain(run_config, capsys, caplog, tmp_path):
    cfg_path, out_dir = run_config
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["split", "--config", str(cfg_path),
                 "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"]) == EXIT_OK
    assert (out_dir / "train.jsonl").exists() and (out_dir / "eval.jsonl").exists()

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="cptasr.pipeline"):
        assert main(["train-labeler", "--config", str(cfg_path)]) == EXIT_OK
    assert any("quality gate" in r.getMessage() for r in caplog.records)
    assert (out_dir / "labeler.ckpt").exists()
    assert (out_dir / "vocab.json").exists()

    assert main(["pseudolabel", "--config", str(cfg_path)]) == EXIT_OK
    stats = json.loads((out_dir / "pseudo_stats.json").read_text())
    assert stats["total"] == 36

    assert main(["cpt", "--config", str(cfg_path)]) == EXIT_OK
    assert (out_dir / "cpt.ckpt").exists()

    assert main(["finetune", "--config", str(cfg_path)]) == EXIT_OK
    assert (out_dir / "final.ckpt").exists()

    # the one-shot pipeline runs the same stages and writes the same checkpoints
    pipeline_dir = tmp_path / "pipeline_run"
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(pipeline_dir)]) == EXIT_OK
    for name in ("labeler.ckpt", "cpt.ckpt", "final.ckpt"):
        assert (pipeline_dir / name).read_bytes() == (out_dir / name).read_bytes()

    assert main(["eval", "--config", str(cfg_path),
                 "--checkpoint", str(out_dir / "final.ckpt"),
                 "--manifest", str(out_dir / "eval.jsonl")]) == EXIT_OK
    report = json.loads((out_dir / "eval_wer.json").read_text())
    assert set(report) >= {"wer", "substitutions", "insertions", "deletions", "ref_words"}

    assert main(["eval", "--config", str(cfg_path),
                 "--checkpoint", str(out_dir / "final.ckpt"),
                 "--manifest", str(out_dir / "train.jsonl"),
                 "--out", str(out_dir / "train_wer.json")]) == EXIT_OK
    train_report = json.loads((out_dir / "train_wer.json").read_text())
    assert train_report["ref_words"] != report["ref_words"]

    assert main(["baseline", "--config", str(cfg_path)]) == EXIT_OK
    assert (out_dir / "baseline_wer.json").exists()


def test_pipeline_command_is_idempotent_and_quick(run_config):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path),
          "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    tic = time.perf_counter()
    assert main(["pipeline", "--config", str(cfg_path)]) == EXIT_OK
    assert time.perf_counter() - tic < 60.0  # smoke config stays fast
    report1 = (out_dir / "report.json").read_bytes()
    assert main(["pipeline", "--config", str(cfg_path)]) == EXIT_OK
    assert (out_dir / "report.json").read_bytes() == report1


def test_pipeline_empty_pool_exit_code(run_config):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path),
          "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    assert main(["pipeline", "--config", str(cfg_path), "--threshold", "1.0"]) == EXIT_EMPTY_POOL


def test_out_of_range_threshold_is_config_error_before_any_work(run_config):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path),
          "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    assert main(["pipeline", "--config", str(cfg_path), "--threshold", "1.5"]) == EXIT_CONFIG
    assert not (out_dir / "labeler.ckpt").exists()
    assert main(["pseudolabel", "--config", str(cfg_path), "--threshold", "-0.1"]) == EXIT_CONFIG


def test_bad_baseline_stage_is_config_error_before_any_training(run_config):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path),
          "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    cfg = json.loads(cfg_path.read_text())
    cfg["stages"]["baseline"]["learning_rate"] = -1
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(cfg_path), "--with-baseline"]) == EXIT_CONFIG
    assert not list(out_dir.glob("*.ckpt"))


def test_split_seed_flag_acts_like_config_seed(run_config, tmp_path):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    split = ["split", "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"]
    assert main(split + ["--config", str(cfg_path), "--seed", "7"]) == EXIT_OK
    by_flag = (out_dir / "eval.jsonl").read_bytes()
    cfg = json.loads(cfg_path.read_text())
    cfg["seed"] = 7
    seven = tmp_path / "seven.json"
    seven.write_text(json.dumps(cfg))
    assert main(split + ["--config", str(seven)]) == EXIT_OK
    assert (out_dir / "eval.jsonl").read_bytes() == by_flag


def test_missing_config_is_config_error(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_invalid_config_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["gen-data", "--config", str(path)]) == EXIT_CONFIG
    path.write_text(json.dumps({"stages": {"stage7": {}}}))
    assert main(["gen-data", "--config", str(path)]) == EXIT_CONFIG


def test_eval_without_vocabulary_is_data_error(run_config):
    cfg_path, out_dir = run_config
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    labeled = load_manifest(out_dir / "labeled.jsonl")
    vocab = build_vocabulary(labeled.transcripts())
    cfg = NetConfig(feature_dim=32, vocab_size=vocab.size, downsample_factor=4, conv_layers=1,
                    conv_channels=8, context_layers=1, hidden_dim=8, context_window=1)
    save_checkpoint(init_parameters(cfg, seed=0), cfg, out_dir / "model.ckpt")
    # with "a" renamed to "f" everywhere, a vocabulary rebuilt from this manifest has
    # the checkpoint's size but maps the output units to the wrong characters
    shifted = Dataset([replace(u, transcript=u.transcript.replace("a", "f")) for u in labeled], "labeled")
    save_manifest(shifted, out_dir / "shifted.jsonl")
    args = ["eval", "--config", str(cfg_path), "--checkpoint", str(out_dir / "model.ckpt"),
            "--manifest", str(out_dir / "shifted.jsonl")]
    assert main(args) == EXIT_DATA
    assert not (out_dir / "eval_wer.json").exists()

    vocab_path = out_dir / "labeler_vocab.json"
    vocab_path.write_text(json.dumps({"symbols": list(vocab.symbols)}))
    assert main(args + ["--vocab", str(vocab_path)]) == EXIT_OK
    assert (out_dir / "eval_wer.json").exists()


def test_missing_manifest_is_data_error(run_config):
    cfg_path, out_dir = run_config
    assert main(["train-labeler", "--config", str(cfg_path)]) == EXIT_DATA
    assert not (out_dir / "labeler.ckpt").exists()


def test_report_renders_delta_table(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    final = tmp_path / "final.json"
    baseline.write_text(json.dumps({"wer": 17.71}))
    final.write_text(json.dumps({"wer": 3.24}))
    assert main(["report", "--baseline", str(baseline), "--run", f"20K+CPT={final}"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "-81.7%" in out
    assert "20K+CPT" in out


def test_report_multiple_runs(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    baseline.write_text(json.dumps({"wer": 17.71}))
    a.write_text(json.dumps({"wer": 10.89}))
    b.write_text(json.dumps({"wer": 3.24}))
    assert main(["report", "--baseline", str(baseline),
                 "--run", f"5K+CPT={a}", "--run", f"20K+CPT={b}"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "-38.5%" in out and "-81.7%" in out


def test_out_dir_env_override(run_config, monkeypatch, tmp_path):
    cfg_path, _ = run_config
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("CPTASR_OUT_DIR", str(override))
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    assert (override / "labeled.jsonl").exists()


def test_seed_flag_overrides_config(run_config):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    base = (out_dir / "labeled.jsonl").read_bytes()
    main(["gen-data", "--config", str(cfg_path), "--seed", "99"])
    assert (out_dir / "labeled.jsonl").read_bytes() != base
