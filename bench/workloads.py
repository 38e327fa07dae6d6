"""The benchmark workloads: set-up from a seed, one timed run, and its output check.

BENCHMARK.json gates ``pipeline`` and ``long-utt``; ``label-job`` runs the
same way but is not gated (see bench/README.md).

Every workload calls the package through public functions with default
keyword arguments, looked up as module attributes at call time so that an
active :class:`tracer.Tracer` sees the calls.

* ``pipeline``: one seed of the acceptance experiment (CPT pipeline plus the
  200- and 500-utterance baselines). The labeled budget, eval set and
  training seeds are the acceptance seed-0 setting; the workload seed draws
  the 2,000-utterance pool from an unlabeled reservoir of the same corpus
  (seed 0 takes the acceptance pool itself), so the early-stopped amount of
  training is the same from seed to seed.
* ``label-job``: offline pseudo-labeling of an 11,760-utterance pool manifest
  with a labeler trained in set-up. No CTC loss, backward pass or optimizer
  step runs in the timed part.
* ``long-utt``: one fixed 3-epoch stage-1 run of the default-size network on
  ~215-frame utterances, then eval WER. The workload seed picks the corpus.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cptasr import corpus, metrics, net, pipeline, train
from cptasr.optim import preset

THRESHOLD = 0.75
CORPUS_SEED = 23
ACCEPTANCE_LABELED = 899  # round(0.31 * 2900): the acceptance corpus's labeled part
ACCEPTANCE_SYNTH = dict(n_speakers=18, chars_per_utterance=(3, 6), frames_per_char=(6, 10),
                        feature_dim=32, noise_sigma=0.55, speaker_shift_sigma=1.7, alphabet="abcde")
ACCEPTANCE_NET = dict(downsample_factor=4, conv_layers=1, conv_channels=24,
                      context_layers=1, hidden_dim=32, context_window=3)
LR_SCALE = 10.0


@dataclass
class Outcome:
    """What one run produced and the work it did."""

    outputs: dict                  # deterministic results; digested and compared across runs
    wall_s: float                  # time of the program calls that make up the run
    final_eval_wer: float
    pseudo_wer: float | None
    epoch_rates: list[float] = field(default_factory=list)  # utterances per second, one per epoch
    decoded: int = 0               # utterances greedy-decoded outside training epochs
    decode_seconds: float = 0.0
    skipped: int = 0               # CTC-infeasible utterances dropped by train_stage
    problems: list[str] = field(default_factory=list)

    def digest(self) -> str:
        blob = json.dumps(self.outputs, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _acceptance_corpus(reservoir: int):
    """The acceptance corpus with ``reservoir`` unlabeled utterances.

    Utterances are generated in index order from one stream, so the labeled
    part and the first 2,001 unlabeled utterances equal the acceptance
    corpus's, whatever the reservoir size.
    """
    n = ACCEPTANCE_LABELED + reservoir
    cfg = corpus.SynthConfig(n_utterances=n, labeled_fraction=ACCEPTANCE_LABELED / n,
                             seed=CORPUS_SEED, **ACCEPTANCE_SYNTH)
    labeled, unlabeled, truth = corpus.generate_synthetic_corpus(cfg)
    if len(labeled) != ACCEPTANCE_LABELED:
        raise RuntimeError(f"expected {ACCEPTANCE_LABELED} labeled utterances, got {len(labeled)}")
    vocab = corpus.build_vocabulary(labeled.transcripts())
    train_all, eval_ds = corpus.speaker_disjoint_split(labeled, 150, seed=CORPUS_SEED)
    return train_all, eval_ds, unlabeled, truth, vocab


def _draw_pool(unlabeled, size: int, seed: int):
    """Seed 0 takes the first ``size`` utterances; other seeds a seeded sample."""
    if seed == 0:
        idx = np.arange(size)
    else:
        idx = np.sort(np.random.default_rng(seed % 2**32).choice(len(unlabeled), size, replace=False))
    return corpus.Dataset([unlabeled.utterances[i] for i in idx], "unlabeled")


def _acceptance_stages(seed: int = 0):
    s1 = preset("stage1", learning_rate=1e-4 * LR_SCALE, seed=1000 * seed + 1)
    s2 = preset("stage2-cpt", learning_rate=5e-5 * LR_SCALE, seed=1000 * seed + 2)
    s3 = preset("stage3-finetune", learning_rate=1e-4 * LR_SCALE, seed=1000 * seed + 3)
    bl = preset("baseline", learning_rate=1e-4 * LR_SCALE, seed=1000 * seed + 1)
    return s1, s2, s3, bl


def _epoch_seconds(*histories) -> float:
    return sum(r.seconds for h in histories for r in h.records)


def _epoch_rates(history, n_utterances: int) -> list[float]:
    """Per epoch, the stage's utterances (trained on, or decoded for validation) per second."""
    return [(n_utterances - history.skipped_utterances) / r.seconds for r in history.records]


def _finite(name: str, value: float, problems: list[str]) -> None:
    if not math.isfinite(value) or value < 0:
        problems.append(f"{name} is {value!r}")


class Pipeline:
    name = "pipeline"
    POOL = 2000
    RESERVOIR = 4901

    def setup(self, seed: int, workdir: Path) -> dict:
        train_all, eval_ds, unlabeled, truth, vocab = _acceptance_corpus(self.RESERVOIR)
        pool = _draw_pool(unlabeled, self.POOL, seed)
        return {
            "lab200": corpus.Dataset(train_all.utterances[:200], "labeled"),
            "lab500": corpus.Dataset(train_all.utterances[:500], "labeled"),
            "pool": pool,
            "eval": eval_ds,
            "truth": {u.id: truth[u.id] for u in pool},
            "vocab": vocab,
            "net": net.NetConfig(feature_dim=32, vocab_size=vocab.size, **ACCEPTANCE_NET),
            "stages": _acceptance_stages(0),
        }

    def run(self, x: dict) -> Outcome:
        s1, s2, s3, bl = x["stages"]
        t0 = time.perf_counter()
        _, report = pipeline.run_cpt_pipeline(x["lab200"], x["pool"], x["eval"], s1, s2, s3,
                                              x["net"], THRESHOLD, x["vocab"])
        _, base200, hist200 = pipeline.run_baseline(x["lab200"], x["eval"], bl, x["net"], x["vocab"])
        _, base500, hist500 = pipeline.run_baseline(x["lab500"], x["eval"], bl, x["net"], x["vocab"])
        t2 = time.perf_counter()

        stats = report.pseudo_label_stats
        kept = [(lab.utterance_id, lab.hypothesis, lab.confidence) for lab in stats.labels
                if lab.hypothesis and lab.confidence > THRESHOLD]
        histories = (report.labeler_history, report.cpt_history, report.finetune_history, hist200, hist500)
        train_s = _epoch_seconds(*histories)
        out = Outcome(
            outputs={
                "report": report.to_dict(),
                "baseline200": {"wer": base200.to_dict(), "history": hist200.to_dict(with_timing=False)},
                "baseline500": {"wer": base500.to_dict(), "history": hist500.to_dict(with_timing=False)},
                "kept_pseudo_labels": hashlib.sha256(json.dumps(kept).encode()).hexdigest(),
            },
            wall_s=t2 - t0,
            final_eval_wer=report.final_eval_wer.wer,
            pseudo_wer=metrics.wer([(x["truth"][uid], hyp) for uid, hyp, _ in kept]).wer,
            epoch_rates=(_epoch_rates(report.labeler_history, len(x["lab200"]))
                         + _epoch_rates(report.cpt_history, report.pool_kept)
                         + _epoch_rates(report.finetune_history, len(x["lab200"]))
                         + _epoch_rates(hist200, len(x["lab200"])) + _epoch_rates(hist500, len(x["lab500"]))),
            decoded=len(x["pool"]) + 3 * len(x["eval"]),
            decode_seconds=(t2 - t0) - train_s,
            skipped=sum(h.skipped_utterances for h in histories),
        )
        if report.pool_total != len(x["pool"]) or report.pool_kept != len(kept):
            out.problems.append(f"pool counts {report.pool_total}/{report.pool_kept} disagree with the labels")
        for name, value in (("final_eval_wer", out.final_eval_wer), ("baseline-200 wer", base200.wer),
                            ("baseline-500 wer", base500.wer), ("pseudo_wer", out.pseudo_wer)):
            _finite(name, value, out.problems)
        return out


class LabelJob:
    name = "label-job"
    POOL = 11760
    RESERVOIR = 12600

    def setup(self, seed: int, workdir: Path) -> dict:
        train_all, eval_ds, unlabeled, truth, vocab = _acceptance_corpus(self.RESERVOIR)
        pool = _draw_pool(unlabeled, self.POOL, seed)
        lab200 = corpus.Dataset(train_all.utterances[:200], "labeled")
        net_cfg = net.NetConfig(feature_dim=32, vocab_size=vocab.size, **ACCEPTANCE_NET)
        s1 = _acceptance_stages(0)[0]
        # the baseline arm with stage-1 settings is the pipeline's labeling stage
        labeler, _, _ = pipeline.run_baseline(lab200, eval_ds, s1, net_cfg, vocab)
        workdir.mkdir(parents=True, exist_ok=True)
        net.save_checkpoint(labeler, net_cfg, workdir / "labeler.ckpt")
        corpus.save_manifest(pool, workdir / "pool.jsonl")
        return {
            "checkpoint": workdir / "labeler.ckpt",
            "pool_manifest": workdir / "pool.jsonl",
            "kept_manifest": workdir / "kept.jsonl",
            "eval": eval_ds,
            "truth": {u.id: truth[u.id] for u in pool},
            "vocab": vocab,
        }

    def run(self, x: dict) -> Outcome:
        start = time.perf_counter()
        params, net_cfg = net.load_checkpoint(x["checkpoint"])
        pool = corpus.load_manifest(x["pool_manifest"])
        t0 = time.perf_counter()
        kept, stats = pipeline.generate_pseudo_labels(params, net_cfg, pool, THRESHOLD, x["vocab"])
        t1 = time.perf_counter()
        corpus.save_manifest(kept, x["kept_manifest"])
        pseudo = metrics.wer([(x["truth"][u.id], u.transcript) for u in kept])
        t2 = time.perf_counter()
        report = train.evaluate_wer(params, net_cfg, x["eval"], x["vocab"])
        t3 = time.perf_counter()

        with open(x["kept_manifest"], "rb") as fh:
            manifest_sha = hashlib.sha256(fh.read()).hexdigest()
        out = Outcome(
            outputs={
                "pseudo_label_stats": stats.to_dict(),
                "kept_manifest_sha256": manifest_sha,
                "pseudo_wer": pseudo.to_dict(),
                "eval_wer": report.to_dict(),
            },
            wall_s=t3 - start,
            final_eval_wer=report.wer,
            pseudo_wer=pseudo.wer,
            decoded=len(pool) + len(x["eval"]),
            decode_seconds=(t1 - t0) + (t3 - t2),
        )
        if stats.total != len(pool) or stats.kept != len(kept) or \
                stats.kept + stats.empty_dropped + stats.below_threshold != stats.total:
            out.problems.append(f"pseudo-label counts do not add up: {stats.to_dict()}")
        if any(not u.transcript for u in kept):
            out.problems.append("an empty hypothesis was kept")
        _finite("final_eval_wer", out.final_eval_wer, out.problems)
        _finite("pseudo_wer", out.pseudo_wer, out.problems)
        return out

    def verify(self, x: dict, out: Outcome) -> None:
        """Untimed extra check: the kept manifest reads back with the kept count."""
        reread = corpus.load_manifest(x["kept_manifest"], kind="pseudo_labeled")
        if len(reread) != out.outputs["pseudo_label_stats"]["kept"]:
            out.problems.append("kept manifest does not read back with the kept count")


class LongUtt:
    name = "long-utt"
    LABELED = 490
    EVAL = 300

    def setup(self, seed: int, workdir: Path) -> dict:
        cfg = corpus.SynthConfig(n_speakers=36, n_utterances=880, labeled_fraction=1.0,
                                 chars_per_utterance=(20, 30), frames_per_char=(6, 10),
                                 seed=CORPUS_SEED + seed % 2**31)
        labeled, _, _ = corpus.generate_synthetic_corpus(cfg)
        vocab = corpus.build_vocabulary(labeled.transcripts())
        train_all, eval_ds = corpus.speaker_disjoint_split(labeled, self.EVAL, seed=cfg.seed)
        if len(train_all) < self.LABELED:
            raise RuntimeError(f"only {len(train_all)} training utterances for {self.LABELED}")
        return {
            "labeled": corpus.Dataset(train_all.utterances[: self.LABELED], "labeled"),
            "eval": corpus.Dataset(eval_ds.utterances[: self.EVAL], "labeled"),
            "vocab": vocab,
            "net": net.NetConfig(feature_dim=cfg.feature_dim, vocab_size=vocab.size),
            "stage": preset("stage1", learning_rate=1e-3, epochs=3, patience=None, seed=1),
        }

    def run(self, x: dict) -> Outcome:
        t0 = time.perf_counter()
        _, report, history = pipeline.run_baseline(x["labeled"], x["eval"], x["stage"], x["net"], x["vocab"])
        t1 = time.perf_counter()
        train_s = _epoch_seconds(history)
        out = Outcome(
            outputs={"eval_wer": report.to_dict(), "history": history.to_dict(with_timing=False)},
            wall_s=t1 - t0,
            final_eval_wer=report.wer,
            pseudo_wer=None,
            epoch_rates=_epoch_rates(history, len(x["labeled"])),
            decoded=len(x["eval"]),
            decode_seconds=(t1 - t0) - train_s,
            skipped=history.skipped_utterances,
        )
        if len(history.records) != x["stage"].epochs:
            out.problems.append(f"ran {len(history.records)} epochs, expected {x['stage'].epochs}")
        _finite("final_eval_wer", out.final_eval_wer, out.problems)
        for r in history.records:
            _finite(f"epoch {r.epoch} train loss", r.train_loss, out.problems)
        return out


WORKLOADS = {w.name: w for w in (Pipeline(), LabelJob(), LongUtt())}
