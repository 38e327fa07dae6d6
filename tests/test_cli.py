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
from cptasr.metrics import WerReport
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


def test_cpt_from_labeler_chain_equals_pipeline_flag(run_config, tmp_path):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path),
          "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    for command in (["train-labeler"], ["pseudolabel"], ["cpt", "--from-labeler"], ["finetune"]):
        assert main(command + ["--config", str(cfg_path)]) == EXIT_OK
    pipeline_dir = tmp_path / "pipeline_run"
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(pipeline_dir),
                 "--cpt-from-labeler"]) == EXIT_OK
    for name in ("labeler.ckpt", "cpt.ckpt", "final.ckpt"):
        assert (pipeline_dir / name).read_bytes() == (out_dir / name).read_bytes()
    warm = (out_dir / "cpt.ckpt").read_bytes()
    assert main(["cpt", "--config", str(cfg_path)]) == EXIT_OK
    assert (out_dir / "cpt.ckpt").read_bytes() != warm


def test_pipeline_mix_labeled_changes_only_cpt_onward(run_config, tmp_path):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path),
          "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    assert main(["pipeline", "--config", str(cfg_path)]) == EXIT_OK
    mixed_dir = tmp_path / "mixed"
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(mixed_dir), "--mix-labeled"]) == EXIT_OK
    default = json.loads((out_dir / "report.json").read_text())
    mixed = json.loads((mixed_dir / "report.json").read_text())
    assert mixed["labeler_history"] == default["labeler_history"]
    assert mixed["cpt_history"] != default["cpt_history"]


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


def test_zero_wer_baseline_reports_no_delta(run_config, capsys):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path),
          "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    assert main(["pipeline", "--config", str(cfg_path)]) == EXIT_OK
    (out_dir / "baseline_wer.json").write_text(json.dumps(WerReport(0, 0, 0, 20, 0.0).to_dict()))
    capsys.readouterr()
    assert main(["report", "--baseline", str(out_dir / "baseline_wer.json"),
                 "--run", f"cpt={out_dir / 'final_wer.json'}"]) == EXIT_OK
    row = capsys.readouterr().out.splitlines()[1]
    assert row.startswith("cpt ") and row.split()[-1] == "n/a"


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
    assert main(["pipeline", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert not list(out_dir.glob("*.ckpt"))


@pytest.mark.parametrize("command,section,field,value", [
    ("gen-data", "baseline", "learning_rate", -1),
    ("train-labeler", "synth", "n_speakers", 2.5),
    ("pipeline", "baseline", "batch_size", 0),
    ("gen-data", "net", "hidden_dim", 24.5),
    ("split", "net", "hidden_dim", 24.5),
], ids=["gen-data-baseline", "train-labeler-synth", "pipeline-baseline", "gen-data-net", "split-net"])
def test_bad_section_the_command_does_not_use_is_config_error_before_any_work(run_config, capsys, command,
                                                                              section, field, value):
    cfg_path, out_dir = run_config
    split = ["split", "--config", str(cfg_path), "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"]
    if command != "gen-data":
        main(["gen-data", "--config", str(cfg_path)])
    if command not in ("gen-data", "split"):
        main(split)
    written = sorted(out_dir.rglob("*"))
    cfg = json.loads(cfg_path.read_text())
    (cfg[section] if section in ("synth", "net") else cfg["stages"][section])[field] = value
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(split if command == "split" else [command, "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and section in err and field in err
    assert sorted(out_dir.rglob("*")) == written
    assert not list(out_dir.glob("*.ckpt"))


@pytest.mark.parametrize("field,value", [
    ("seed", "x"),
    ("threshold", "abc"),
    ("paths", ["a"]),
    ("stages", ["stage1"]),
    ("net", [1]),
    ("synth", [1]),
    ("stages", {"stage1": [1]}),
    ("seed", -3),
], ids=["seed-str", "threshold-str", "paths-list", "stages-list", "net-list", "synth-list", "stage-entry-list",
        "seed-negative"])
def test_wrongly_typed_run_config_field_is_config_error(run_config, capsys, field, value):
    cfg_path, out_dir = run_config
    cfg = json.loads(cfg_path.read_text())
    cfg[field] = value
    cfg_path.write_text(json.dumps(cfg))
    for command in ("gen-data", "train-labeler"):
        assert main([command, "--config", str(cfg_path)]) == EXIT_CONFIG
        assert "config error: " in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["treshold", "stage1"])
def test_unknown_run_config_key_is_config_error_before_any_work(run_config, capsys, key):
    cfg_path, out_dir = run_config
    good = cfg_path.read_text()
    bad = json.loads(good)
    bad[key] = 0.9
    cfg_path.write_text(json.dumps(bad))
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(key) in err
    assert not out_dir.exists()

    cfg_path.write_text(good)
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path),
          "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    cfg_path.write_text(json.dumps(bad))
    capsys.readouterr()
    assert main(["train-labeler", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(key) in err
    assert not (out_dir / "vocab.json").exists() and not list(out_dir.glob("*.ckpt"))


@pytest.mark.parametrize("section,field,value", [
    ("net", "hidden_dim", 24.5),
    ("net", "context_window", True),
    ("stage1", "epochs", 2.5),
    ("stage1", "batch_size", 2.5),
    ("stage1", "seed", "x"),
    ("stage1", "patience", 1.5),
    ("stage1", "learning_rate", True),
    ("stage1", "weight_decay", True),
    ("stage1", "learning_rate", float("nan")),
    ("stage1", "weight_decay", float("inf")),
    ("stage1", "grad_clip_norm", float("nan")),
    ("stage1", "seed", -3),
], ids=["hidden_dim-float", "context_window-bool", "epochs-float", "batch_size-float", "seed-str",
        "patience-float", "learning_rate-bool", "weight_decay-bool", "learning_rate-nan", "weight_decay-inf",
        "grad_clip_norm-nan", "seed-negative"])
def test_wrongly_typed_net_or_stage_field_is_config_error_before_any_work(run_config, capsys, section, field, value):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path),
          "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    cfg = json.loads(cfg_path.read_text())
    (cfg["net"] if section == "net" else cfg["stages"][section])[field] = value
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["train-labeler", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err
    assert not (out_dir / "labeler.ckpt").exists() and not (out_dir / "vocab.json").exists()


@pytest.mark.parametrize("field,value", [
    ("n_utterances", 90.5),
    ("feature_dim", 32.0),
    ("seed", 1.5),
    ("n_speakers", True),
    ("chars_per_utterance", 5),
    ("frames_per_char", [6.5, 10]),
    ("labeled_fraction", True),
    ("noise_sigma", True),
    ("speaker_shift_sigma", False),
    ("alphabet", ["a", "b", "c"]),
], ids=["n_utterances-float", "feature_dim-float", "seed-float", "n_speakers-bool", "chars_per_utterance-int",
        "frames_per_char-float-pair", "labeled_fraction-bool", "noise_sigma-bool", "speaker_shift_sigma-bool",
        "alphabet-list"])
def test_wrongly_typed_synth_field_is_config_error_before_any_work(run_config, capsys, field, value):
    cfg_path, out_dir = run_config
    cfg = json.loads(cfg_path.read_text())
    cfg["synth"][field] = value
    cfg_path.write_text(json.dumps(cfg))
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err
    assert not (out_dir / "labeled.jsonl").exists() and not (out_dir / "unlabeled.jsonl").exists()


def test_negative_seed_flag_is_config_error_before_any_work(run_config, capsys):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    split = ["split", "--config", str(cfg_path), "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"]
    capsys.readouterr()
    assert main(split + ["--seed", "-7"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "seed" in err
    assert not (out_dir / "train.jsonl").exists()
    assert main(split) == EXIT_OK
    capsys.readouterr()
    assert main(["train-labeler", "--config", str(cfg_path), "--seed", "-7"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "seed" in err
    assert not (out_dir / "vocab.json").exists() and not list(out_dir.glob("*.ckpt"))


def test_net_dropout_rate_is_config_error_before_any_training(run_config, capsys):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path),
          "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    cfg = json.loads(cfg_path.read_text())
    cfg["net"]["dropout_rate"] = 0.3
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "dropout_rate" in capsys.readouterr().err
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


def test_vocabulary_checkpoint_size_mismatch_is_data_error(run_config, capsys):
    cfg_path, out_dir = run_config
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["split", "--config", str(cfg_path),
                 "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"]) == EXIT_OK
    assert main(["train-labeler", "--config", str(cfg_path)]) == EXIT_OK
    (out_dir / "vocab.json").write_text(json.dumps({"symbols": ["a", "b"]}))
    want = "data error: vocabulary size 2 does not match checkpoint vocab_size 6"
    capsys.readouterr()
    assert main(["pseudolabel", "--config", str(cfg_path)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(want)
    assert not (out_dir / "pseudo.jsonl").exists()
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(out_dir / "labeler.ckpt"),
                 "--manifest", str(out_dir / "eval.jsonl")]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(want)
    assert not (out_dir / "eval_wer.json").exists()


@pytest.mark.parametrize("symbols", [[1, 2, 3, 4, 5, 6], ["bc", "a", "d", "e", "f", "g"]], ids=["ints", "multi-char"])
def test_bad_vocabulary_symbols_are_data_error(run_config, capsys, symbols):
    cfg_path, out_dir = run_config
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    cfg = NetConfig(feature_dim=32, vocab_size=len(symbols), downsample_factor=4, conv_layers=1,
                    conv_channels=8, context_layers=1, hidden_dim=8, context_window=1)
    save_checkpoint(init_parameters(cfg, seed=0), cfg, out_dir / "labeler.ckpt")
    (out_dir / "vocab.json").write_text(json.dumps({"symbols": symbols}))
    capsys.readouterr()
    assert main(["pseudolabel", "--config", str(cfg_path)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: vocabulary file {out_dir / 'vocab.json'} ")
    assert not (out_dir / "pseudo.jsonl").exists()


def test_feature_dimension_mismatch_is_data_error(run_config, capsys):
    cfg_path, out_dir = run_config
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    vocab = build_vocabulary(load_manifest(out_dir / "labeled.jsonl").transcripts())
    cfg = NetConfig(feature_dim=32, vocab_size=vocab.size, downsample_factor=4, conv_layers=1,
                    conv_channels=8, context_layers=1, hidden_dim=8, context_window=1)
    save_checkpoint(init_parameters(cfg, seed=0), cfg, out_dir / "labeler.ckpt")
    (out_dir / "vocab.json").write_text(json.dumps({"symbols": list(vocab.symbols)}))
    # 16-dim copies of the manifests the two commands read
    for source, target in (("labeled", "train"), ("unlabeled", "unlabeled")):
        ds = load_manifest(out_dir / f"{source}.jsonl")
        save_manifest(Dataset([replace(u, features=u.features[:, :16]) for u in ds], ds.kind),
                      out_dir / f"{target}.jsonl")
    capsys.readouterr()
    assert main(["pseudolabel", "--config", str(cfg_path)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: {out_dir / 'unlabeled.jsonl'}: utterance ")
    assert not (out_dir / "pseudo.jsonl").exists()
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(out_dir / "labeler.ckpt"),
                 "--manifest", str(out_dir / "train.jsonl")]) == EXIT_DATA
    assert "has 16-dim features; the model expects 32" in capsys.readouterr().err
    assert not (out_dir / "eval_wer.json").exists()


def test_pseudolabel_pool_with_a_too_short_utterance(run_config):
    cfg_path, out_dir = run_config
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["split", "--config", str(cfg_path),
                 "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"]) == EXIT_OK
    assert main(["train-labeler", "--config", str(cfg_path)]) == EXIT_OK
    pool = load_manifest(out_dir / "unlabeled.jsonl")
    short = replace(pool.utterances[0], id="short", features=pool.utterances[0].features[:3])
    save_manifest(Dataset(pool.utterances + [short], "unlabeled"), out_dir / "unlabeled.jsonl")
    assert main(["pseudolabel", "--config", str(cfg_path)]) == EXIT_OK
    stats = json.loads((out_dir / "pseudo_stats.json").read_text())
    assert stats["total"] == len(pool) + 1 and stats["empty_dropped"] >= 1


def test_missing_manifest_is_data_error(run_config):
    cfg_path, out_dir = run_config
    assert main(["train-labeler", "--config", str(cfg_path)]) == EXIT_DATA
    assert not (out_dir / "labeler.ckpt").exists()


@pytest.mark.parametrize("field,value", [
    ("frames", "abc"),
    ("features_b64", "AACAPw="),
    ("transcript", 5),
    ("speaker_id", 7),
    ("id", 3),
], ids=["frames-str", "b64-padding", "transcript-int", "speaker-int", "id-int"])
def test_bad_manifest_record_data_is_data_error(run_config, capsys, field, value):
    cfg_path, out_dir = run_config
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    manifest = out_dir / "labeled.jsonl"
    lines = manifest.read_text().splitlines()
    record = json.loads(lines[1])
    record[field] = value
    lines[1] = json.dumps(record)
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["split", "--config", str(cfg_path), "--manifest", str(manifest), "--eval-count", "8"]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: {manifest}: line 2: ")
    assert not (out_dir / "train.jsonl").exists()


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
