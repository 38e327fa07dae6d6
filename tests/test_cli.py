"""Command-line surface: command chain, determinism, exit codes, report table."""

import json
import re
import shlex
import time
from dataclasses import replace
from pathlib import Path, PurePosixPath

import pytest

from cptasr.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_EMPTY_POOL,
    EXIT_ERROR,
    EXIT_OK,
    build_parser,
    load_run_config,
    main,
)
from cptasr.corpus import Dataset, build_vocabulary, load_manifest, save_manifest
from cptasr.metrics import WerReport
from cptasr.net import NetConfig, init_parameters, save_checkpoint
from cptasr.pipeline import run_baseline


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


def test_full_command_chain(run_config, capsys):
    cfg_path, out_dir = run_config
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["split", "--config", str(cfg_path),
                 "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"]) == EXIT_OK
    assert (out_dir / "train.jsonl").exists() and (out_dir / "eval.jsonl").exists()

    assert main(["train-labeler", "--config", str(cfg_path)]) == EXIT_OK
    assert (out_dir / "labeler.ckpt").exists()
    assert (out_dir / "vocab.json").exists()

    assert main(["pseudolabel", "--config", str(cfg_path)]) == EXIT_OK
    stats = json.loads((out_dir / "pseudo_stats.json").read_text())
    assert stats["total"] == 36

    assert main(["cpt", "--config", str(cfg_path)]) == EXIT_OK
    assert (out_dir / "cpt.ckpt").exists()

    assert main(["finetune", "--config", str(cfg_path)]) == EXIT_OK
    assert (out_dir / "final.ckpt").exists()

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

    # the same-budget no-CPT baseline is stage A: eval of the labeler's checkpoint
    assert main(["eval", "--config", str(cfg_path),
                 "--checkpoint", str(out_dir / "labeler.ckpt"),
                 "--manifest", str(out_dir / "eval.jsonl"),
                 "--out", str(out_dir / "baseline_wer.json")]) == EXIT_OK
    cfg = load_run_config(cfg_path)
    labeled = load_manifest(out_dir / "train.jsonl")
    vocab = build_vocabulary(labeled.transcripts())
    _, baseline, _ = run_baseline(labeled, load_manifest(out_dir / "eval.jsonl"), cfg.stages["stage1"],
                                  cfg.net_config(vocab), vocab)
    assert json.loads((out_dir / "baseline_wer.json").read_text()) == baseline.to_dict()


def _without_seconds(path):
    """A file's bytes, or for a stage history its lines with the wall-clock ``seconds`` field dropped."""
    if not path.name.endswith("_history.jsonl"):
        return path.read_bytes()
    return [{k: v for k, v in json.loads(line).items() if k != "seconds"} for line in path.read_text().splitlines()]


def test_command_chain_equals_pipeline_command(run_config, tmp_path):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path),
          "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    chain_dir = tmp_path / "chain_run"
    for command in ("train-labeler", "pseudolabel", "cpt", "finetune"):
        assert main([command, "--config", str(cfg_path), "--out-dir", str(chain_dir)]) == EXIT_OK
    assert main(["eval", "--config", str(cfg_path), "--out-dir", str(chain_dir),
                 "--checkpoint", str(chain_dir / "final.ckpt"), "--manifest", str(out_dir / "eval.jsonl"),
                 "--out", str(chain_dir / "final_wer.json")]) == EXIT_OK
    pipeline_dir = tmp_path / "pipeline_run"
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(pipeline_dir)]) == EXIT_OK
    names = sorted(p.name for p in chain_dir.iterdir())
    assert sorted(p.name for p in pipeline_dir.iterdir()) == names
    assert {"labeler.ckpt", "cpt.ckpt", "final.ckpt", "pseudo.jsonl", "final_wer.json"} <= set(names)
    for name in names:
        assert _without_seconds(pipeline_dir / name) == _without_seconds(chain_dir / name), name
    cpt = (chain_dir / "cpt.ckpt").read_bytes()
    assert main(["cpt", "--config", str(cfg_path), "--out-dir", str(chain_dir)]) == EXIT_OK
    assert (chain_dir / "cpt.ckpt").read_bytes() == cpt


def test_pipeline_command_is_idempotent_and_quick(run_config):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path),
          "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    outputs = ("labeler.ckpt", "cpt.ckpt", "final.ckpt", "pseudo_stats.json", "final_wer.json")
    tic = time.perf_counter()
    assert main(["pipeline", "--config", str(cfg_path)]) == EXIT_OK
    assert time.perf_counter() - tic < 60.0  # smoke config stays fast
    first = {name: (out_dir / name).read_bytes() for name in outputs}
    assert main(["pipeline", "--config", str(cfg_path)]) == EXIT_OK
    assert {name: (out_dir / name).read_bytes() for name in outputs} == first


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


@pytest.mark.parametrize("command", ["train-labeler", "pipeline"])
def test_bad_finetune_stage_is_config_error_before_any_training(run_config, command):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path),
          "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    cfg = json.loads(cfg_path.read_text())
    cfg["stages"]["stage3-finetune"]["learning_rate"] = -1
    cfg_path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(cfg_path)]) == EXIT_CONFIG
    assert not list(out_dir.glob("*.ckpt")) and not (out_dir / "vocab.json").exists()


@pytest.mark.parametrize("command", ["gen-data", "train-labeler"])
def test_baseline_stage_section_is_config_error_before_any_work(run_config, capsys, command):
    cfg_path, out_dir = run_config
    if command != "gen-data":
        main(["gen-data", "--config", str(cfg_path)])
        main(["split", "--config", str(cfg_path),
              "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    written = sorted(out_dir.rglob("*"))
    cfg = json.loads(cfg_path.read_text())
    cfg["stages"]["baseline"] = {"learning_rate": 1e-3, "epochs": 2}
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown stage names ['baseline']; "
                          "expected ('stage1', 'stage2-cpt', 'stage3-finetune')")
    assert sorted(out_dir.rglob("*")) == written


def test_baseline_command_is_gone(run_config):
    cfg_path, out_dir = run_config
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "--config", str(cfg_path)])
    assert exc.value.code == EXIT_CONFIG
    assert not out_dir.exists()


# ``accepted`` is a field that the message of an unknown key must list.
@pytest.mark.parametrize("command,section,field,value,accepted", [
    ("gen-data", "stage3-finetune", "learning_rate", -1, None),
    ("train-labeler", "synth", "n_speakers", 2.5, None),
    ("train-labeler", "stage2-cpt", "batch_size", 0, None),
    ("pipeline", "synth", "n_speakers", 2.5, None),
    ("gen-data", "net", "hidden_dim", 24.5, None),
    ("split", "net", "hidden_dim", 24.5, None),
    ("gen-data", "stage2-cpt", "weight_decay", 0.01, "learning_rate"),  # optimizer constants are not stage keys
    ("train-labeler", "stage1", "grad_clip_norm", 1.0, "label_smoothing"),
    ("gen-data", "net", "num_layers", 2, "context_layers"),
    ("split", "synth", "n_speaker", 8, "n_speakers"),
], ids=["gen-data-stage3-finetune", "train-labeler-synth", "train-labeler-stage2-cpt", "pipeline-bad-synth",
        "gen-data-net", "split-net",
        "gen-data-removed-key", "train-labeler-removed-key", "gen-data-net-unknown-key", "split-synth-unknown-key"])
def test_bad_section_the_command_does_not_use_is_config_error_before_any_work(run_config, capsys, command,
                                                                              section, field, value, accepted):
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
    if accepted is not None:
        assert f"keys [{field!r}]; expected (" in err and repr(accepted) in err.split("; expected (")[1]
    assert sorted(out_dir.rglob("*")) == written
    assert not list(out_dir.glob("*.ckpt"))


def test_net_vocab_size_is_config_error_even_at_the_vocabulary_size(run_config, capsys):
    """The vocabulary sets the head's size, so a ``net`` section may not: any value exits 2 before any work."""
    cfg_path, out_dir = run_config
    good = json.loads(cfg_path.read_text())
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path), "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    size = build_vocabulary(load_manifest(out_dir / "train.jsonl", kind="labeled").transcripts()).size
    written = sorted(out_dir.rglob("*"))
    for command, value in (("gen-data", size), ("train-labeler", size), ("train-labeler", size + 1)):
        cfg_path.write_text(json.dumps({**good, "net": {**good["net"], "vocab_size": value}}))
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown net keys ['vocab_size']; expected ('feature_dim', ")
        assert "'vocab_size'" not in err.split("; expected (")[1]
        assert sorted(out_dir.rglob("*")) == written


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
    ("stage1", "label_smoothing", True),
    ("stage1", "learning_rate", float("nan")),
    ("stage1", "dropout_rate", float("inf")),
    ("stage1", "dropout_rate", float("nan")),
    ("stage1", "seed", -3),
], ids=["hidden_dim-float", "context_window-bool", "epochs-float", "batch_size-float", "seed-str",
        "patience-float", "learning_rate-bool", "label_smoothing-bool", "learning_rate-nan", "dropout_rate-inf",
        "dropout_rate-nan", "seed-negative"])
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

    # the vocabulary is the one beside the checkpoint
    (out_dir / "vocab.json").write_text(json.dumps({"symbols": list(vocab.symbols)}))
    assert main(args) == EXIT_OK
    assert (out_dir / "eval_wer.json").exists()


def test_eval_reads_the_vocabulary_beside_its_checkpoint(run_config, tmp_path):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    main(["split", "--config", str(cfg_path),
          "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"])
    piped, scored = tmp_path / "piped", tmp_path / "scored"
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(piped)]) == EXIT_OK
    assert main(["eval", "--config", str(cfg_path), "--out-dir", str(scored),
                 "--checkpoint", str(piped / "final.ckpt"), "--manifest", str(out_dir / "eval.jsonl")]) == EXIT_OK
    assert not (scored / "vocab.json").exists()
    assert (scored / "eval_wer.json").read_bytes() == (piped / "final_wer.json").read_bytes()


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


@pytest.mark.parametrize("symbols", [[1, 2, 3, 4, 5, 6], ["bc", "a", "d", "e", "f", "g"], "abcdef",
                                     {ch: i for i, ch in enumerate("abcdef")}],
                         ids=["ints", "multi-char", "string", "object"])
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


@pytest.mark.parametrize("command,options,paths,wrong,output", [
    ("eval", ["--checkpoint", "labeler.ckpt", "--manifest", "unlabeled.jsonl"], {}, "unlabeled.jsonl",
     "eval_wer.json"),
    ("split", ["--manifest", "unlabeled.jsonl", "--eval-count", "8"], {}, "unlabeled.jsonl", "train.jsonl"),
    ("pseudolabel", [], {"unlabeled": "labeled.jsonl"}, "labeled.jsonl", "pseudo.jsonl"),
    ("train-labeler", [], {"labeled": "unlabeled.jsonl"}, "unlabeled.jsonl", "labeler_history.jsonl"),
], ids=["eval", "split", "pseudolabel", "train-labeler"])
def test_manifest_of_the_wrong_kind_is_data_error(run_config, capsys, command, options, paths, wrong, output):
    cfg_path, out_dir = run_config
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    vocab = build_vocabulary(load_manifest(out_dir / "labeled.jsonl").transcripts())
    net_cfg = NetConfig(feature_dim=32, vocab_size=vocab.size, downsample_factor=4, conv_layers=1,
                        conv_channels=8, context_layers=1, hidden_dim=8, context_window=1)
    save_checkpoint(init_parameters(net_cfg, seed=0), net_cfg, out_dir / "labeler.ckpt")
    (out_dir / "vocab.json").write_text(json.dumps({"symbols": list(vocab.symbols)}))
    cfg = json.loads(cfg_path.read_text())
    cfg["paths"].update({key: str(out_dir / name) for key, name in paths.items()})
    cfg_path.write_text(json.dumps(cfg))
    files = [str(out_dir / o) if o.endswith((".ckpt", ".jsonl")) else o for o in options]
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path), *files]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: {out_dir / wrong}: ")
    assert not (out_dir / output).exists()


def test_labeler_trained_on_the_eval_utterances_is_an_error_before_training(run_config, capsys):
    """The labeler is the no-CPT baseline: labeled data holding eval utterances would score it on its training set."""
    cfg_path, out_dir = run_config
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["split", "--config", str(cfg_path),
                 "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"]) == EXIT_OK
    cfg = json.loads(cfg_path.read_text())
    cfg["paths"]["labeled"] = str(out_dir / "labeled.jsonl")  # the unsplit manifest
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["train-labeler", "--config", str(cfg_path)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: datasets share utterance ids")
    assert not (out_dir / "labeler.ckpt").exists()
    assert not (out_dir / "vocab.json").exists()


@pytest.mark.parametrize("command", ["train-labeler", "pipeline"])
def test_pool_sharing_a_labeled_id_is_an_error_before_training(run_config, capsys, command):
    cfg_path, out_dir = run_config
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["split", "--config", str(cfg_path),
                 "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"]) == EXIT_OK
    pool = load_manifest(out_dir / "unlabeled.jsonl")
    twin = load_manifest(out_dir / "train.jsonl").utterances[0]
    leaky = Dataset(pool.utterances + [replace(twin, transcript=None)], "unlabeled")
    save_manifest(leaky, out_dir / "unlabeled.jsonl")
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: datasets share utterance ids")
    assert not (out_dir / "labeler.ckpt").exists()
    assert not (out_dir / "vocab.json").exists()


def test_eval_manifest_of_the_wrong_width_is_data_error_before_training(run_config, capsys):
    cfg_path, out_dir = run_config
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["split", "--config", str(cfg_path),
                 "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"]) == EXIT_OK
    eval_ds = load_manifest(out_dir / "eval.jsonl")
    save_manifest(Dataset([replace(u, features=u.features[:, :16]) for u in eval_ds], "labeled"),
                  out_dir / "eval.jsonl")
    capsys.readouterr()
    assert main(["train-labeler", "--config", str(cfg_path)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: {out_dir / 'eval.jsonl'}: utterance ")
    assert not (out_dir / "labeler.ckpt").exists()
    assert not (out_dir / "vocab.json").exists()


def test_pipeline_without_a_pool_path_is_config_error_before_training(run_config, capsys):
    cfg_path, out_dir = run_config
    assert main(["gen-data", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["split", "--config", str(cfg_path),
                 "--manifest", str(out_dir / "labeled.jsonl"), "--eval-count", "8"]) == EXIT_OK
    cfg = json.loads(cfg_path.read_text())
    del cfg["paths"]["unlabeled"]
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: run config is missing paths.unlabeled")
    assert not (out_dir / "labeler.ckpt").exists()


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


@pytest.mark.parametrize("wer", [float("nan"), float("inf"), True, "0.3", -0.2],
                         ids=["nan", "inf", "bool", "string", "negative"])
@pytest.mark.parametrize("bad", ["baseline", "run"])
def test_report_rejects_a_wer_that_is_not_one(tmp_path, capsys, bad, wer):
    paths = {name: tmp_path / f"{name}.json" for name in ("baseline", "run")}
    for name, path in paths.items():
        path.write_text(json.dumps({"wer": wer if name == bad else 0.25}))
    assert main(["report", "--baseline", str(paths["baseline"]), "--run", f"cpt={paths['run']}"]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith(f"data error: report file {paths[bad]} ")
    assert captured.out == ""


def test_out_dir_flag_overrides_config(run_config, tmp_path):
    cfg_path, out_dir = run_config
    override = tmp_path / "elsewhere"
    assert main(["gen-data", "--config", str(cfg_path), "--out-dir", str(override)]) == EXIT_OK
    assert (override / "labeled.jsonl").exists() and (override / "unlabeled.jsonl").exists()
    assert not out_dir.exists()


def test_seed_flag_overrides_config(run_config):
    cfg_path, out_dir = run_config
    main(["gen-data", "--config", str(cfg_path)])
    base = (out_dir / "labeled.jsonl").read_bytes()
    main(["gen-data", "--config", str(cfg_path), "--seed", "99"])
    assert (out_dir / "labeled.jsonl").read_bytes() != base


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_command_block_reads_where_its_config_writes():
    """Each path the README's command sequence reads lies under the out_dir that wrote it."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    commands = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    config = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    roots = [PurePosixPath(config["out_dir"])]
    parser = build_parser()
    for line in commands.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "cptasr", line
        args = parser.parse_args(argv[1:])
        paths = [getattr(args, key, None) for key in ("manifest", "checkpoint", "out", "baseline")]
        paths += [entry.partition("=")[2] for entry in getattr(args, "run", None) or []]
        for path in filter(None, paths):
            assert any(PurePosixPath(path).is_relative_to(root) for root in roots), f"{path} in: {line}"
        if getattr(args, "out_dir", None):
            roots.append(PurePosixPath(args.out_dir))
