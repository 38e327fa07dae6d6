"""Command-line surface for the staged pipeline.

One JSON run-config file drives every command; a handful of flags override
individual fields. ``main`` reads it once and checks every section before
a command starts (``net`` with a stand-in ``vocab_size`` until the
vocabulary is known), so a bad section fails every command. All
randomness fans out from the config's single seed by fixed offsets (synth
data +0, stage1 +1, stage2 +2, stage3 +3, eval split +5), so one number
reproduces a whole run. ``pipeline`` is the command chain itself:
``train-labeler``, ``pseudolabel``, ``cpt``, ``finetune``, then ``eval`` of
``final.ckpt`` on ``paths.eval`` into ``final_wer.json``. The no-CPT
baseline is ``eval`` of ``labeler.ckpt``. ``pseudolabel`` and ``eval``
decode a checkpoint with the ``vocab.json`` that ``train-labeler`` writes
beside it.

Exit codes: 0 success, 2 config error, 3 data error, 4 empty pseudo-label
pool, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import corpus, net, pipeline, train
from .corpus import ManifestError, SynthConfig, Vocabulary, build_vocabulary, load_manifest, save_manifest
from .fieldcheck import as_record, check_field
from .metrics import relative_improvement
from .optim import PRESETS, StageConfig
from .pipeline import EmptyPseudoLabelPoolError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_EMPTY_POOL = 4

SEED_OFFSETS = {"synth": 0, "stage1": 1, "stage2-cpt": 2, "stage3-finetune": 3, "split": 5}
STAGES = ("stage1", "stage2-cpt", "stage3-finetune")


class ConfigError(ValueError):
    """Raised for unusable run configuration."""


def _check_keys(section: str, cls: type, raw: dict, fixed: tuple[str, ...] = ()) -> None:
    """Raise a ConfigError naming ``raw``'s keys that are not fields of the dataclass ``cls``, or are ``fixed`` ones."""
    keys = tuple(f.name for f in fields(cls) if f.name not in fixed)
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {section} keys {sorted(unknown)}; expected {keys}")


def _checked(section: str, cls: type, raw: dict):
    """``cls(**raw)``; an unknown key, TypeError or ValueError raises a ConfigError naming ``section``."""
    _check_keys(section, cls, raw)
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section} config: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """A checked run-config file; its fields are the file's accepted keys.

    ``synth`` and each of :data:`STAGES` are built, seeded by :data:`SEED_OFFSETS`
    unless their section sets ``seed``; ``net`` may not set ``vocab_size``,
    is checked with a stand-in one and stays raw until :meth:`net_config`
    sets it to the vocabulary's size. Relative paths resolve against the
    working directory.
    """

    seed: int
    threshold: float
    out_dir: Path
    net: dict
    synth: SynthConfig
    stages: dict[str, StageConfig]
    paths: dict[str, Path]

    def net_config(self, vocab: Vocabulary) -> net.NetConfig:
        return _checked("net", net.NetConfig, {"vocab_size": vocab.size, **self.net})

    def path(self, key: str) -> Path:
        if key not in self.paths:
            raise ConfigError(f"run config is missing paths.{key}")
        return self.paths[key]


def load_run_config(path: str | Path, overrides: argparse.Namespace | None = None) -> RunConfig:
    """The whole run config at ``path``, checked; any bad section raises ConfigError.

    ``overrides`` (the parsed command line) replace the file's seed,
    threshold and out_dir, and each field is checked after its override.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("run config must be a JSON object")
    _check_keys("run config", RunConfig, raw)
    for key in ("seed", "threshold", "out_dir"):
        if getattr(overrides, key, None) is not None:
            raw[key] = getattr(overrides, key)
    try:
        seed = check_field("seed", raw.get("seed", 0), "int")
        threshold = float(check_field("threshold", raw.get("threshold", 0.75), "float"))
        pipeline._check_threshold(threshold)
        out_dir = Path(check_field("out_dir", raw.get("out_dir", "runs"), "str"))
        net_raw = check_field("net", raw.get("net", {}), "dict")
        synth_raw = check_field("synth", raw.get("synth", {}), "dict")
        stages = check_field("stages", raw.get("stages", {}), "dict")
        stage_raw = {name: check_field(f"stages.{name}", entry, "dict") for name, entry in stages.items()}
        paths = check_field("paths", raw.get("paths", {}), "dict")
        paths = {k: Path(check_field(f"paths.{k}", v, "str")) for k, v in paths.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    unknown = set(stage_raw) - set(STAGES)
    if unknown:
        raise ConfigError(f"unknown stage names {sorted(unknown)}; expected {STAGES}")
    path_keys = ("labeled", "unlabeled", "eval")
    unknown = set(paths) - set(path_keys)
    if unknown:  # a misspelt key would silently skip the checks its manifest gets
        raise ConfigError(f"unknown paths keys {sorted(unknown)}; expected {path_keys}")
    synth = _checked("synth", SynthConfig, {"seed": seed + SEED_OFFSETS["synth"], **synth_raw})
    stages = {name: _checked(f"stages.{name}", StageConfig,
                             {**asdict(PRESETS[name]), "seed": seed + SEED_OFFSETS[name], **stage_raw.get(name, {})})
              for name in STAGES}
    _check_keys("net", net.NetConfig, net_raw, fixed=("vocab_size",))  # the vocabulary sets it
    _checked("net", net.NetConfig, {"vocab_size": 1, **net_raw})
    return RunConfig(seed, threshold, out_dir, net_raw, synth, stages, paths)


def _save_vocab(vocab: Vocabulary, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(as_record(vocab)) + "\n", encoding="utf-8")


def _load_vocab(path: Path) -> Vocabulary:
    try:
        symbols = json.loads(path.read_text(encoding="utf-8"))["symbols"]
        if not isinstance(symbols, list):
            raise TypeError(f"symbols must be a list, got {symbols!r}")
        return Vocabulary(symbols=tuple(symbols))
    except FileNotFoundError:
        raise ManifestError(f"vocabulary file {path} does not exist; run train-labeler first") from None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"vocabulary file {path} is unreadable: {exc}") from None


def _load_model(checkpoint: Path) -> tuple[np.ndarray, net.NetConfig, Vocabulary]:
    """A checkpoint's parameters and config, and the ``vocab.json`` beside it that its outputs decode into."""
    params, net_cfg = net.load_checkpoint(checkpoint)
    vocab = _load_vocab(checkpoint.with_name("vocab.json"))
    if vocab.size != net_cfg.vocab_size:
        raise ManifestError(f"vocabulary size {vocab.size} does not match checkpoint vocab_size {net_cfg.vocab_size}")
    return params, net_cfg, vocab


def _check_feature_dim(net_cfg: net.NetConfig, manifests: dict[Path, corpus.Dataset]) -> None:
    """Raise ManifestError naming the manifest whose features are not ``net_cfg.feature_dim`` wide."""
    for path, ds in manifests.items():
        for utt in ds:
            if utt.features.shape[1] != net_cfg.feature_dim:
                raise ManifestError(f"{path}: utterance {utt.id!r} has {utt.features.shape[1]}-dim features; "
                                    f"the model expects {net_cfg.feature_dim}")


def _write_json(data: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_gen_data(cfg: RunConfig, args: argparse.Namespace) -> int:
    labeled, unlabeled, truth = corpus.generate_synthetic_corpus(cfg.synth)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_manifest(labeled, cfg.out_dir / "labeled.jsonl")
    save_manifest(unlabeled, cfg.out_dir / "unlabeled.jsonl")
    _write_json(truth, cfg.out_dir / "truth.json")
    print(f"wrote {len(labeled)} labeled and {len(unlabeled)} unlabeled utterances to {cfg.out_dir}")
    if len(unlabeled) == 0:
        print("warning: labeled_fraction leaves the unlabeled manifest empty", file=sys.stderr)
    return EXIT_OK


def cmd_split(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.eval_count < 1:
        raise ConfigError("eval_count must be >= 1")
    ds = load_manifest(Path(args.manifest), kind="labeled")
    train_ds, eval_ds = corpus.speaker_disjoint_split(ds, args.eval_count, cfg.seed + SEED_OFFSETS["split"])
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_manifest(train_ds, cfg.out_dir / "train.jsonl")
    save_manifest(eval_ds, cfg.out_dir / "eval.jsonl")
    print(f"train: {len(train_ds)} utterances / {len(train_ds.speakers())} speakers; "
          f"eval: {len(eval_ds)} utterances / {len(eval_ds.speakers())} speakers")
    return EXIT_OK


def cmd_train_labeler(cfg: RunConfig, args: argparse.Namespace) -> int:
    labeled = load_manifest(cfg.path("labeled"), kind="labeled")
    # the later stages read the pool, and the labeler is also the no-CPT baseline scored on eval:
    # every manifest the config names is checked before training
    others = {key: load_manifest(cfg.paths[key], kind=kind)
              for key, kind in (("unlabeled", "unlabeled"), ("eval", "labeled")) if key in cfg.paths}
    pipeline._check_no_leak(labeled, tuple(others.values()), others.get("eval"))
    vocab = build_vocabulary(labeled.transcripts())
    net_cfg = cfg.net_config(vocab)
    _check_feature_dim(net_cfg, {cfg.paths[key]: ds for key, ds in {"labeled": labeled, **others}.items()})
    stage1 = cfg.stages["stage1"]
    params, history = pipeline.labeler_stage(*pipeline.validation_split(labeled, stage1), stage1, net_cfg, vocab)
    _save_vocab(vocab, cfg.out_dir / "vocab.json")
    net.save_checkpoint(params, net_cfg, cfg.out_dir / "labeler.ckpt")
    train.save_history(history, cfg.out_dir / "labeler_history.jsonl")
    print(f"labeler: best val WER {history.best_val_wer:.4f} at epoch {history.best_epoch}; "
          f"checkpoint at {cfg.out_dir / 'labeler.ckpt'}")
    return EXIT_OK


def cmd_pseudolabel(cfg: RunConfig, args: argparse.Namespace) -> int:
    params, net_cfg, vocab = _load_model(cfg.out_dir / "labeler.ckpt")
    pool = load_manifest(cfg.path("unlabeled"), kind="unlabeled")
    _check_feature_dim(net_cfg, {cfg.path("unlabeled"): pool})
    pseudo_ds, stats = pipeline.generate_pseudo_labels(params, net_cfg, pool, cfg.threshold, vocab)
    save_manifest(pseudo_ds, cfg.out_dir / "pseudo.jsonl")
    _write_json(stats.to_dict(), cfg.out_dir / "pseudo_stats.json")
    print(f"kept {stats.kept} of {stats.total} pseudo-labels "
          f"({stats.empty_dropped} empty, {stats.below_threshold} below threshold {cfg.threshold})")
    return EXIT_OK


def cmd_cpt(cfg: RunConfig, args: argparse.Namespace) -> int:
    vocab = _load_vocab(cfg.out_dir / "vocab.json")
    pseudo_ds = load_manifest(cfg.out_dir / "pseudo.jsonl", kind="pseudo_labeled")
    labeled = load_manifest(cfg.path("labeled"), kind="labeled")
    net_cfg = cfg.net_config(vocab)
    _check_feature_dim(net_cfg, {cfg.out_dir / "pseudo.jsonl": pseudo_ds, cfg.path("labeled"): labeled})
    train_ds, val_ds = pipeline.validation_split(labeled, cfg.stages["stage1"])
    params, history = pipeline.cpt_stage(pseudo_ds, train_ds, val_ds, cfg.stages["stage2-cpt"], net_cfg, vocab)
    net.save_checkpoint(params, net_cfg, cfg.out_dir / "cpt.ckpt")
    train.save_history(history, cfg.out_dir / "cpt_history.jsonl")
    print(f"cpt: best val WER {history.best_val_wer:.4f}; checkpoint at {cfg.out_dir / 'cpt.ckpt'}")
    return EXIT_OK


def cmd_finetune(cfg: RunConfig, args: argparse.Namespace) -> int:
    vocab = _load_vocab(cfg.out_dir / "vocab.json")
    labeled = load_manifest(cfg.path("labeled"), kind="labeled")
    net_cfg = cfg.net_config(vocab)
    _check_feature_dim(net_cfg, {cfg.path("labeled"): labeled})
    start, _ = net.load_checkpoint(cfg.out_dir / "cpt.ckpt", expect_cfg=net_cfg)
    train_ds, val_ds = pipeline.validation_split(labeled, cfg.stages["stage1"])
    params, history = train.train_stage(start, net_cfg, train_ds, val_ds, cfg.stages["stage3-finetune"], vocab)
    net.save_checkpoint(params, net_cfg, cfg.out_dir / "final.ckpt")
    train.save_history(history, cfg.out_dir / "finetune_history.jsonl")
    print(f"finetune: best val WER {history.best_val_wer:.4f}; checkpoint at {cfg.out_dir / 'final.ckpt'}")
    return EXIT_OK


def _evaluate(checkpoint: Path, manifest: Path, out_path: Path) -> int:
    """Score ``checkpoint`` on the labeled ``manifest`` and write the WerReport to ``out_path``."""
    ds = load_manifest(manifest, kind="labeled")
    params, net_cfg, vocab = _load_model(checkpoint)
    _check_feature_dim(net_cfg, {manifest: ds})
    report = train.evaluate_wer(params, net_cfg, ds, vocab)
    _write_json(report.to_dict(), out_path)
    print(f"WER {report.wer:.4f} (S={report.substitutions} I={report.insertions} "
          f"D={report.deletions} / {report.ref_words} ref words); report at {out_path}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    return _evaluate(Path(args.checkpoint), Path(args.manifest),
                     Path(args.out) if args.out else cfg.out_dir / "eval_wer.json")


def cmd_pipeline(cfg: RunConfig, args: argparse.Namespace) -> int:
    """The command chain: train-labeler, pseudolabel, cpt, finetune, then eval of final.ckpt on paths.eval."""
    for key in ("unlabeled", "eval"):  # train-labeler skips a missing one; fail before stage A trains
        cfg.path(key)
    for command in (cmd_train_labeler, cmd_pseudolabel, cmd_cpt, cmd_finetune):
        command(cfg, args)
    return _evaluate(cfg.out_dir / "final.ckpt", cfg.path("eval"), cfg.out_dir / "final_wer.json")


def _read_wer(path: Path) -> float:
    try:
        wer = check_field("wer", json.loads(path.read_text(encoding="utf-8"))["wer"], "float")
        if wer < 0:
            raise ValueError(f"wer must be >= 0, got {wer!r}")
        return float(wer)
    except FileNotFoundError:
        raise ManifestError(f"report file {path} does not exist") from None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"report file {path} is unreadable: {exc}") from None


def cmd_report(args: argparse.Namespace) -> int:
    baseline_wer = _read_wer(Path(args.baseline))
    rows = []
    for entry in args.run:
        name, _, path = entry.partition("=")
        if not path:
            raise ConfigError(f"--run expects NAME=PATH, got {entry!r}")
        run_wer = _read_wer(Path(path))
        delta = relative_improvement(baseline_wer, run_wer)
        rows.append((name, run_wer, "n/a" if delta is None else f"{delta:+.1%}"))
    print(f"{'Config':<20} {'Baseline':>10} {'Final WER':>10} {'Delta':>8}")
    for name, run_wer, delta in rows:
        print(f"{name:<20} {baseline_wer:>10.2%} {run_wer:>10.2%} {delta:>8}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cptasr", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--verbose", action="store_true", help="enable info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run-config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threshold", type=float, default=None, help="override the confidence threshold")
        p.add_argument("--out-dir", default=None, help="override the output directory")
        p.set_defaults(func=func)
        return p

    add("gen-data", cmd_gen_data, "generate the synthetic corpus manifests")

    p = add("split", cmd_split, "speaker-disjoint train/eval split of a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--eval-count", type=int, required=True)

    add("train-labeler", cmd_train_labeler, "stage 1: train the labeling model")

    add("pseudolabel", cmd_pseudolabel, "stage 2a: decode the unlabeled pool with confidence filtering")

    add("cpt", cmd_cpt, "stage 2b: continued pretraining on pseudo-labels")

    add("finetune", cmd_finetune, "stage 3: supervised finetune from the CPT checkpoint")

    p = add("eval", cmd_eval, "score a checkpoint against a labeled manifest")
    p.add_argument("--checkpoint", required=True, help="decoded with the vocab.json beside it")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)

    add("pipeline", cmd_pipeline, "train-labeler, pseudolabel, cpt, finetune, then eval of final.ckpt on "
                                  "paths.eval into final_wer.json")

    p = sub.add_parser("report", help="merge saved WER reports into a relative-improvement table")
    p.add_argument("--baseline", required=True, help="baseline WerReport JSON")
    p.add_argument("--run", action="append", required=True, metavar="NAME=PATH",
                   help="final WerReport JSON to compare (repeatable)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if "config" not in args:  # report reads only the WER files it is given
            return args.func(args)
        return args.func(load_run_config(args.config, args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EmptyPseudoLabelPoolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_POOL
    except (ManifestError, FileNotFoundError, net.CheckpointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
