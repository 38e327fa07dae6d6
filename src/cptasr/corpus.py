"""Vocabulary, dataset manifests, speaker-disjoint splits, and synthetic corpus generation."""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from .fieldcheck import check_field

KINDS = ("labeled", "unlabeled", "pseudo_labeled")


class ManifestError(ValueError):
    """Raised for malformed manifests."""


@dataclass(frozen=True)
class Vocabulary:
    """Ordered character set with index 0 reserved for the CTC blank.

    Characters occupy indices 1..len(symbols); the blank is not a symbol.
    Each symbol is a one-character string.
    """

    symbols: tuple[str, ...]
    blank_index: ClassVar[int] = 0

    def __post_init__(self):
        for ch in self.symbols:
            if len(check_field("vocabulary symbol", ch, "str")) != 1:
                raise ValueError(f"vocabulary symbol must be one character, got {ch!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("vocabulary symbols must be unique")
        object.__setattr__(self, "_index", {ch: i + 1 for i, ch in enumerate(self.symbols)})

    @property
    def size(self) -> int:
        """Number of non-blank symbols (V)."""
        return len(self.symbols)

    def index_of(self, ch: str) -> int:
        try:
            return self._index[ch]
        except KeyError:
            raise ValueError(f"character {ch!r} not in vocabulary") from None

    def encode(self, text: str) -> list[int]:
        return [self.index_of(ch) for ch in text]


def build_vocabulary(transcripts: list[str]) -> Vocabulary:
    """Vocabulary over every character appearing in ``transcripts``, sorted."""
    if not transcripts:
        raise ValueError("cannot build a vocabulary from an empty transcript list")
    chars = sorted(set("".join(transcripts)))
    if not chars:
        raise ValueError("transcripts contain no characters")
    return Vocabulary(symbols=tuple(chars))


@dataclass
class Utterance:
    """One unit of processing: a T x D feature matrix plus metadata."""

    id: str
    speaker_id: str
    features: np.ndarray
    transcript: str | None = None

    def __post_init__(self):
        for name, value in (("id", self.id), ("speaker_id", self.speaker_id), ("transcript", self.transcript)):
            if not isinstance(value, str) and (name != "transcript" or value is not None):
                raise ValueError(f"utterance {self.id!r}: {name} must be a string, got {value!r}")
        feats = np.asarray(self.features, dtype=np.float32)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError(f"utterance {self.id!r}: features must be a T x D matrix with T,D >= 1")
        if not np.isfinite(feats).all():
            raise ValueError(f"utterance {self.id!r}: features contain non-finite values")
        self.features = feats

    @property
    def duration_frames(self) -> int:
        return self.features.shape[0]


@dataclass
class Dataset:
    utterances: list[Utterance]
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        seen = set()
        for utt in self.utterances:
            if utt.id in seen:
                raise ValueError(f"duplicate utterance id {utt.id!r}")
            seen.add(utt.id)
            has_transcript = utt.transcript is not None
            if self.kind == "unlabeled" and has_transcript:
                raise ValueError(f"unlabeled utterance {utt.id!r} carries a transcript")
            if self.kind != "unlabeled" and not has_transcript:
                raise ValueError(f"{self.kind} utterance {utt.id!r} is missing a transcript")

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)

    def speakers(self) -> set[str]:
        return {utt.speaker_id for utt in self.utterances}

    def transcripts(self) -> list[str]:
        return [utt.transcript for utt in self.utterances if utt.transcript is not None]


def speaker_disjoint_split(ds: Dataset, eval_count: int, seed: int) -> tuple[Dataset, Dataset]:
    """Split off an evaluation set by adding whole speakers until ``eval_count`` is met.

    Speakers are shuffled by ``seed``; the eval side may overshoot the
    requested count because speakers are never split. Train and eval share
    no speakers and together contain every utterance of ``ds``.
    """
    if ds.kind != "labeled":
        raise ValueError("speaker-disjoint split requires a labeled dataset")
    if eval_count < 1:
        raise ValueError("eval_count must be >= 1")
    if eval_count >= len(ds):
        raise ValueError(f"eval_count {eval_count} >= dataset size {len(ds)}")
    speakers = sorted(ds.speakers())
    if len(speakers) < 2:
        raise ValueError("need at least 2 distinct speakers to split")

    rng = np.random.default_rng(seed)
    order = [speakers[i] for i in rng.permutation(len(speakers))]
    counts = {spk: 0 for spk in speakers}
    for utt in ds:
        counts[utt.speaker_id] += 1

    eval_speakers: set[str] = set()
    taken = 0
    for spk in order:
        if taken >= eval_count:
            break
        eval_speakers.add(spk)
        taken += counts[spk]
    if len(eval_speakers) == len(speakers):
        raise ValueError(f"eval_count {eval_count} cannot be reached without emptying the train set")

    train_utts = [u for u in ds if u.speaker_id not in eval_speakers]
    eval_utts = [u for u in ds if u.speaker_id in eval_speakers]
    return Dataset(train_utts, "labeled"), Dataset(eval_utts, "labeled")


@dataclass
class SynthConfig:
    """Knobs for the synthetic speech-like corpus generator."""

    n_speakers: int = 12
    n_utterances: int = 1000
    labeled_fraction: float = 0.2
    chars_per_utterance: tuple[int, int] = (3, 6)
    frames_per_char: tuple[int, int] = (6, 10)
    feature_dim: int = 32
    noise_sigma: float = 0.55
    speaker_shift_sigma: float = 1.7
    seed: int = 0
    alphabet: str = "abcde"

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, check_field(f.name, getattr(self, f.name), f.type))
        if self.n_speakers < 1 or self.n_utterances < 1 or self.feature_dim < 1:
            raise ValueError("n_speakers, n_utterances and feature_dim must be >= 1")
        if not 0.0 <= self.labeled_fraction <= 1.0:
            raise ValueError("labeled_fraction must lie in [0, 1]")
        lo, hi = self.chars_per_utterance
        if not (1 <= lo <= hi):
            raise ValueError("chars_per_utterance range is empty")
        lo, hi = self.frames_per_char
        if not (1 <= lo <= hi):
            raise ValueError("frames_per_char range is empty")
        if self.noise_sigma < 0 or self.speaker_shift_sigma < 0:
            raise ValueError("sigmas must be finite and >= 0")
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise ValueError("alphabet must be non-empty with unique characters")
        if " " in self.alphabet:
            raise ValueError("alphabet holds word characters only; the space separator is implicit")


def character_prototypes(cfg: SynthConfig) -> dict[str, np.ndarray]:
    """Prototype vector per character (plus the space separator).

    Prototypes are mutually orthogonal with norm sqrt(feature_dim) when the
    dimension allows, otherwise independent Gaussian draws; either way each
    component has unit scale, so the sigmas read as per-component noise
    fractions. Prototypes are a deterministic function of the seed alone.
    """
    chars = list(cfg.alphabet) + [" "]
    rng = np.random.default_rng([cfg.seed, 0xC0DE])
    gauss = rng.normal(size=(max(len(chars), cfg.feature_dim), cfg.feature_dim))
    if cfg.feature_dim >= len(chars):
        q, _ = np.linalg.qr(gauss.T)
        protos = q.T[: len(chars)] * np.sqrt(cfg.feature_dim)
    else:
        protos = gauss[: len(chars)]
    return {ch: protos[i].astype(np.float64) for i, ch in enumerate(chars)}


def _random_codes(rng: np.random.Generator, cfg: SynthConfig) -> list[int]:
    """One transcript as alphabet indices, with len(alphabet) for the space."""
    target_len = int(rng.integers(cfg.chars_per_utterance[0], cfg.chars_per_utterance[1] + 1))
    n_letters = len(cfg.alphabet)
    codes: list[int] = []
    while len(codes) < target_len:
        if codes:
            codes.append(n_letters)
        for i in rng.integers(0, n_letters, size=int(rng.integers(2, 5))).tolist():
            # no adjacent repeats: keeps targets feasible at tight frame budgets
            codes.append((i + 1) % n_letters if codes and i == codes[-1] else i)
    return codes


def generate_synthetic_corpus(cfg: SynthConfig) -> tuple[Dataset, Dataset, dict[str, str]]:
    """Build (labeled, unlabeled, truth) datasets from character prototypes.

    Each transcript character emits its prototype vector for a random number
    of frames, shifted by a per-speaker offset and perturbed by i.i.d.
    Gaussian noise. Transcripts are space-separated words over the alphabet;
    chars_per_utterance is a lower target, overshot by at most one word.
    Unlabeled utterances drop their transcript; the ground truth for those
    ids is returned separately for test-only use. Output is deterministic
    given the seed, and the order of generator draws is part of it: per
    utterance the speaker, the transcript, then each character's frame count
    followed by its frames' noise. Reordering them changes every corpus.
    """
    chars = cfg.alphabet + " "
    proto_table = np.stack(list(character_prototypes(cfg).values()))  # rows in `chars` order
    rng = np.random.default_rng([cfg.seed, 1])
    sigma_s = cfg.speaker_shift_sigma
    tables = {f"spk{j:03d}": proto_table + (rng.normal(scale=sigma_s, size=cfg.feature_dim) if sigma_s > 0 else 0.0)
              for j in range(cfg.n_speakers)}  # per speaker: shifted prototypes, characters x D
    speaker_ids = sorted(tables)

    n_labeled = int(round(cfg.labeled_fraction * cfg.n_utterances))
    labeled: list[Utterance] = []
    unlabeled: list[Utterance] = []
    truth: dict[str, str] = {}
    lo_f, hi_f = cfg.frames_per_char
    # scratch rows for the longest transcript: the target, then one overshooting space and word
    noise, frames = np.empty((2, (cfg.chars_per_utterance[1] + 4) * hi_f, cfg.feature_dim))
    for i in range(cfg.n_utterances):
        utt_id = f"utt{i:05d}"
        speaker = speaker_ids[int(rng.integers(0, cfg.n_speakers))]
        codes = _random_codes(rng, cfg)
        counts, t = [], 0
        for _ in codes:
            counts.append(int(rng.integers(lo_f, hi_f + 1)))
            if cfg.noise_sigma > 0:
                rng.standard_normal(out=noise[t:t + counts[-1]])
            t += counts[-1]
        feats = np.take(tables[speaker], np.repeat(codes, counts), axis=0, out=frames[:t])
        if cfg.noise_sigma > 0:  # normal(scale=s) is 0.0 + s * z, so scaling z afterwards is exact
            feats += np.multiply(noise[:t], cfg.noise_sigma, out=noise[:t])
        features = feats.astype(np.float32)
        transcript = "".join(chars[c] for c in codes)
        if i < n_labeled:
            labeled.append(Utterance(utt_id, speaker, features, transcript))
        else:
            unlabeled.append(Utterance(utt_id, speaker, features, transcript=None))
            truth[utt_id] = transcript
    return Dataset(labeled, "labeled"), Dataset(unlabeled, "unlabeled"), truth


def save_manifest(ds: Dataset, path: str | Path) -> None:
    """Write one JSON record per line, the features inlined as base64 float32."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for utt in ds:
            record: dict = {"id": utt.id, "speaker_id": utt.speaker_id}
            if utt.transcript is not None:
                record["transcript"] = utt.transcript
            t, d = utt.features.shape
            record["frames"] = t
            record["dim"] = d
            raw = np.ascontiguousarray(utt.features, dtype="<f4").tobytes()
            record["features_b64"] = base64.b64encode(raw).decode("ascii")
            fh.write(json.dumps(record) + "\n")


def load_manifest(path: str | Path, kind: str | None = None) -> Dataset:
    """Read a manifest written by :func:`save_manifest`.

    ``kind`` is inferred from transcript presence when not given (labeled
    vs unlabeled); pass ``kind="pseudo_labeled"`` to mark machine labels.
    Transcript characters are not validated here; vocabulary membership is
    checked where transcripts are consumed.
    """
    path = Path(path)
    utterances: list[Utterance] = []
    seen: set[str] = set()
    any_transcript = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise ManifestError(f"{path}: line {lineno}: record must be a JSON object")
            for key in ("id", "speaker_id", "frames", "dim", "features_b64"):
                if key not in record:
                    raise ManifestError(f"{path}: line {lineno}: missing required field {key!r}")
            t, d = record["frames"], record["dim"]
            try:
                positive = min(check_field("frames and dim", (t, d), "tuple[int, int]")) >= 1
            except TypeError:
                positive = False
            if not positive:
                raise ManifestError(f"{path}: line {lineno}: frames and dim must be positive integers, "
                                    f"got {t!r} and {d!r}")
            try:
                raw = base64.b64decode(record["features_b64"])
            except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
                raise ManifestError(f"{path}: line {lineno}: undecodable features_b64 ({exc})") from None
            if len(raw) != 4 * t * d:
                raise ManifestError(f"{path}: line {lineno}: feature payload does not match declared T x D")
            feats = np.frombuffer(raw, dtype="<f4").reshape(t, d).copy()
            transcript = record.get("transcript")
            any_transcript = any_transcript or transcript is not None
            try:
                utt = Utterance(record["id"], record["speaker_id"], feats, transcript)
            except ValueError as exc:
                raise ManifestError(f"{path}: line {lineno}: {exc}") from None
            if utt.id in seen:
                raise ManifestError(f"{path}: line {lineno}: duplicate utterance id {utt.id!r}")
            seen.add(utt.id)
            utterances.append(utt)
    if kind is None:
        kind = "labeled" if any_transcript else "unlabeled"
    try:
        return Dataset(utterances, kind)
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from None
