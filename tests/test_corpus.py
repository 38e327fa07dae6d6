"""Vocabulary, splits, synthetic corpus generation, and manifest round-trips."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cptasr.corpus import (
    Dataset,
    ManifestError,
    SynthConfig,
    Utterance,
    Vocabulary,
    build_vocabulary,
    character_prototypes,
    generate_synthetic_corpus,
    load_manifest,
    save_manifest,
    speaker_disjoint_split,
)


def test_build_vocabulary_set_union():
    vocab = build_vocabulary(["ab", "ba"])
    assert vocab.symbols == ("a", "b")
    assert vocab.blank_index == 0


def test_build_vocabulary_single_char():
    assert build_vocabulary(["a"]).symbols == ("a",)


def test_build_vocabulary_includes_space():
    vocab = build_vocabulary(["kuna paka"])
    assert vocab.symbols == (" ", "a", "k", "n", "p", "u")


def test_build_vocabulary_rejects_empty():
    with pytest.raises(ValueError):
        build_vocabulary([])
    with pytest.raises(ValueError):
        build_vocabulary([""])


def test_vocabulary_index_bijection():
    vocab = build_vocabulary(["cab"])
    for i, ch in enumerate(vocab.symbols, start=1):
        assert vocab.index_of(ch) == i
    assert vocab.encode("abc") == [vocab.index_of(ch) for ch in "abc"]
    with pytest.raises(ValueError):
        vocab.index_of("z")


def test_vocabulary_symbols_are_single_characters():
    with pytest.raises(TypeError, match="vocabulary symbol must be a string"):
        Vocabulary(symbols=(1, 2, 3))
    for symbols in (("bc", "a"), ("a", "")):
        with pytest.raises(ValueError, match="one character"):
            Vocabulary(symbols=symbols)
    with pytest.raises(ValueError, match="unique"):
        Vocabulary(symbols=("a", "a"))


def _toy_dataset(speaker_sizes: dict[str, int]) -> Dataset:
    utts = []
    n = 0
    for spk, count in speaker_sizes.items():
        for _ in range(count):
            utts.append(Utterance(f"u{n:03d}", spk, np.ones((4, 2), dtype=np.float32), "a b"))
            n += 1
    return Dataset(utts, "labeled")


def test_split_two_speakers_forced_disjoint():
    ds = _toy_dataset({"A": 3, "B": 2})
    train, evalset = speaker_disjoint_split(ds, 2, seed=0)
    assert train.speakers().isdisjoint(evalset.speakers())
    assert len(train) + len(evalset) == len(ds)
    assert evalset.speakers() in ({"A"}, {"B"})
    assert len(evalset) >= 2


def test_split_rejects_eval_count_equal_to_dataset():
    ds = _toy_dataset({"A": 3, "B": 2})
    with pytest.raises(ValueError):
        speaker_disjoint_split(ds, 5, seed=0)


def test_split_rejects_emptying_train():
    ds = _toy_dataset({"A": 3, "B": 2})
    with pytest.raises(ValueError):
        speaker_disjoint_split(ds, 4, seed=0)


def test_split_ten_speakers_exact_count():
    ds = _toy_dataset({f"S{i}": 10 for i in range(10)})
    train, evalset = speaker_disjoint_split(ds, 10, seed=7)
    assert len(evalset) == 10
    assert len(evalset.speakers()) == 1
    assert train.speakers().isdisjoint(evalset.speakers())
    assert {u.id for u in train} | {u.id for u in evalset} == {u.id for u in ds}


def test_split_preserves_utterances_for_all_seeds():
    ds = _toy_dataset({"A": 4, "B": 3, "C": 5, "D": 2})
    for seed in range(20):
        train, evalset = speaker_disjoint_split(ds, 4, seed=seed)
        assert train.speakers().isdisjoint(evalset.speakers())
        ids = sorted(u.id for u in train) + sorted(u.id for u in evalset)
        assert sorted(ids) == sorted(u.id for u in ds)


def test_dataset_kind_invariants():
    feats = np.ones((3, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        Dataset([Utterance("u1", "A", feats, None)], "labeled")
    with pytest.raises(ValueError):
        Dataset([Utterance("u1", "A", feats, "ab")], "unlabeled")
    with pytest.raises(ValueError):
        Dataset([Utterance("u1", "A", feats, "ab"), Utterance("u1", "A", feats, "ab")], "labeled")


def test_utterance_validates_features():
    with pytest.raises(ValueError):
        Utterance("u1", "A", np.ones((0, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        Utterance("u1", "A", np.array([[np.nan, 1.0]], dtype=np.float32))


def test_zero_noise_features_are_repeated_prototype():
    cfg = SynthConfig(n_speakers=1, n_utterances=1, labeled_fraction=1.0,
                      chars_per_utterance=(1, 1), frames_per_char=(3, 3),
                      noise_sigma=0.0, speaker_shift_sigma=0.0, seed=5)
    labeled, _, _ = generate_synthetic_corpus(cfg)
    utt = labeled.utterances[0]
    protos = character_prototypes(cfg)
    assert len(utt.transcript) in (2, 3, 4)  # one word
    first_char = utt.transcript[0]
    np.testing.assert_array_equal(utt.features[0], utt.features[1])
    np.testing.assert_allclose(utt.features[:3], np.tile(protos[first_char], (3, 1)).astype(np.float32),
                               rtol=0, atol=1e-6)


def test_generation_is_deterministic():
    cfg = SynthConfig(n_speakers=3, n_utterances=20, labeled_fraction=0.5, seed=11)
    a_lab, a_unlab, a_truth = generate_synthetic_corpus(cfg)
    b_lab, b_unlab, b_truth = generate_synthetic_corpus(cfg)
    assert a_truth == b_truth
    for x, y in zip(list(a_lab) + list(a_unlab), list(b_lab) + list(b_unlab)):
        assert x.id == y.id and x.speaker_id == y.speaker_id and x.transcript == y.transcript
        np.testing.assert_array_equal(x.features, y.features)


def _reference_corpus(cfg: SynthConfig):
    """The generator as a plain per-character loop, kept to pin its draws and arithmetic.

    Per character: a tiled prototype plus the speaker shift, plus its own
    ``rng.normal(scale=noise_sigma)`` block; blocks are concatenated and cast
    to float32 at the end. Returns (id, speaker, transcript, features) rows
    in id order and the truth map of the unlabeled ids.
    """
    protos = character_prototypes(cfg)
    rng = np.random.default_rng([cfg.seed, 1])
    shifts = {
        f"spk{j:03d}": rng.normal(scale=cfg.speaker_shift_sigma, size=cfg.feature_dim)
        if cfg.speaker_shift_sigma > 0
        else np.zeros(cfg.feature_dim)
        for j in range(cfg.n_speakers)
    }
    speaker_ids = sorted(shifts)
    n_labeled = int(round(cfg.labeled_fraction * cfg.n_utterances))
    rows, truth = [], {}
    for i in range(cfg.n_utterances):
        speaker = speaker_ids[int(rng.integers(0, cfg.n_speakers))]
        target_len = int(rng.integers(cfg.chars_per_utterance[0], cfg.chars_per_utterance[1] + 1))
        words, length = [], 0
        while length < target_len:
            word_len = int(rng.integers(2, 5))
            chars = []
            for k in rng.integers(0, len(cfg.alphabet), size=word_len):
                ch = cfg.alphabet[int(k)]
                if chars and ch == chars[-1]:
                    ch = cfg.alphabet[(int(k) + 1) % len(cfg.alphabet)]
                chars.append(ch)
            words.append("".join(chars))
            length += word_len + (1 if length else 0)
        transcript = " ".join(words)
        blocks = []
        for ch in transcript:
            n_frames = int(rng.integers(cfg.frames_per_char[0], cfg.frames_per_char[1] + 1))
            block = np.tile(protos[ch], (n_frames, 1)) + shifts[speaker]
            if cfg.noise_sigma > 0:
                block = block + rng.normal(scale=cfg.noise_sigma, size=block.shape)
            blocks.append(block)
        features = np.concatenate(blocks, axis=0).astype(np.float32)
        utt_id = f"utt{i:05d}"
        rows.append((utt_id, speaker, transcript if i < n_labeled else None, features))
        if i >= n_labeled:
            truth[utt_id] = transcript
    return rows, truth


@st.composite
def _synth_configs(draw):
    chars_lo = draw(st.integers(1, 5))
    frames_lo = draw(st.integers(1, 4))
    return SynthConfig(
        n_speakers=draw(st.integers(1, 4)),
        n_utterances=draw(st.integers(1, 6)),
        labeled_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        chars_per_utterance=(chars_lo, chars_lo + draw(st.integers(0, 3))),
        frames_per_char=(frames_lo, frames_lo + draw(st.integers(0, 3))),
        feature_dim=draw(st.integers(1, 10)),
        noise_sigma=draw(st.sampled_from([0.0, 0.3, 0.55, 1.25])),
        speaker_shift_sigma=draw(st.sampled_from([0.0, 0.9, 1.7])),
        seed=draw(st.integers(0, 2**16)),
        alphabet="".join(draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6, unique=True))),
    )


@settings(max_examples=80, deadline=None)
@given(_synth_configs())
@example(SynthConfig(n_speakers=3, n_utterances=6, labeled_fraction=0.5, seed=7))
@example(SynthConfig(n_speakers=2, n_utterances=4, labeled_fraction=0.0, noise_sigma=0.0, seed=1))
@example(SynthConfig(n_speakers=2, n_utterances=4, labeled_fraction=1.0, speaker_shift_sigma=0.0, seed=2))
@example(SynthConfig(n_speakers=2, n_utterances=4, feature_dim=3, alphabet="abcdef", seed=3))
@example(SynthConfig(n_speakers=1, n_utterances=3, chars_per_utterance=(4, 4), frames_per_char=(5, 5),
                     alphabet="a", seed=4))
def test_generator_matches_reference_loop_bit_for_bit(cfg):
    labeled, unlabeled, truth = generate_synthetic_corpus(cfg)
    rows, ref_truth = _reference_corpus(cfg)
    assert truth == ref_truth
    utts = list(labeled) + list(unlabeled)
    assert [(u.id, u.speaker_id, u.transcript) for u in utts] == [row[:3] for row in rows]
    for utt, row in zip(utts, rows):
        assert utt.features.dtype == np.float32
        assert np.array_equal(utt.features, row[3])


def test_labeled_fraction_arithmetic():
    cfg = SynthConfig(n_speakers=5, n_utterances=1000, labeled_fraction=0.1, seed=1)
    labeled, unlabeled, truth = generate_synthetic_corpus(cfg)
    assert len(labeled) == 100
    assert len(unlabeled) == 900
    assert set(truth) == {u.id for u in unlabeled}


def test_transcripts_use_alphabet_and_single_spaces():
    cfg = SynthConfig(n_speakers=2, n_utterances=50, labeled_fraction=1.0, seed=2)
    labeled, _, _ = generate_synthetic_corpus(cfg)
    for utt in labeled:
        assert set(utt.transcript) <= set(cfg.alphabet + " ")
        assert "  " not in utt.transcript
        assert utt.transcript == utt.transcript.strip()


def test_prototypes_orthogonal_at_unit_component_scale():
    cfg = SynthConfig(seed=4)
    protos = character_prototypes(cfg)
    mat = np.stack(list(protos.values()))
    gram = mat @ mat.T
    np.testing.assert_allclose(np.diag(gram), cfg.feature_dim, rtol=1e-6)
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-6


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(labeled_fraction=1.5)
    with pytest.raises(ValueError):
        SynthConfig(chars_per_utterance=(5, 2))
    for sigmas in (dict(noise_sigma=-0.1), dict(noise_sigma=float("nan")), dict(speaker_shift_sigma=float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            SynthConfig(**sigmas)
    with pytest.raises(ValueError):
        SynthConfig(alphabet="aab")
    for bad in (dict(n_utterances=9.0), dict(seed=True), dict(frames_per_char=(6, 10.0)),
                dict(chars_per_utterance=(3, 4, 5)), dict(noise_sigma="0.5"), dict(alphabet=("a", "b"))):
        with pytest.raises(TypeError, match=next(iter(bad))):
            SynthConfig(**bad)
    cfg = SynthConfig(n_utterances=np.int64(9), frames_per_char=[6, 10], noise_sigma=np.float32(0.5))
    assert cfg.frames_per_char == (6, 10)


def test_manifest_round_trip_inline(tmp_path):
    cfg = SynthConfig(n_speakers=3, n_utterances=12, labeled_fraction=0.5, seed=8)
    labeled, unlabeled, _ = generate_synthetic_corpus(cfg)
    for ds in (labeled, unlabeled):
        path = tmp_path / f"{ds.kind}.jsonl"
        save_manifest(ds, path)
        loaded = load_manifest(path)
        assert loaded.kind == ds.kind
        assert len(loaded) == len(ds)
        for x, y in zip(ds, loaded):
            assert (x.id, x.speaker_id, x.transcript) == (y.id, y.speaker_id, y.transcript)
            np.testing.assert_array_equal(x.features, y.features)


def test_manifest_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "u1", "speaker_id": "A", "frames": 1, "dim": 1, "features_b64": "AACAPw=="}\nnot json\n')
    with pytest.raises(ManifestError, match="line 2"):
        load_manifest(path)


@pytest.mark.parametrize("record,message", [
    ('{"id": "u1", "speaker_id": "A", "frames": "abc", "dim": 1, "features_b64": "AACAPw=="}',
     "line 2: frames and dim must be positive integers"),
    ('{"id": "u1", "speaker_id": "A", "frames": 1, "dim": 1.5, "features_b64": "AACAPw=="}',
     "line 2: frames and dim must be positive integers"),
    ('{"id": "u1", "speaker_id": "A", "frames": -1, "dim": -1, "features_b64": "AACAPw=="}',
     "line 2: frames and dim must be positive integers"),
    ('{"id": "u1", "speaker_id": "A", "frames": 1, "dim": 1, "features_b64": "AACAPw="}',
     "line 2: undecodable features_b64"),
    ('{"id": "u1", "speaker_id": "A", "frames": 1, "dim": 1, "features_b64": 7}',
     "line 2: undecodable features_b64"),
    ('{"id": "u1", "speaker_id": "A", "frames": 1, "dim": 1, "features_b64": "AADAfw=="}',
     "line 2: .*non-finite"),
    ('{"id": "u1", "speaker_id": "A", "frames": 1, "dim": 1, "features_path": "u1.cptf"}',
     "line 2: missing required field 'features_b64'"),
    ('{"id": 3, "speaker_id": "A", "frames": 1, "dim": 1, "features_b64": "AACAPw=="}',
     "line 2: .*id must be a string, got 3"),
    ('{"id": "u1", "speaker_id": 7, "frames": 1, "dim": 1, "features_b64": "AACAPw=="}',
     "line 2: .*speaker_id must be a string, got 7"),
    ('{"id": "u1", "speaker_id": "A", "transcript": 5, "frames": 1, "dim": 1, "features_b64": "AACAPw=="}',
     "line 2: .*transcript must be a string, got 5"),
    ('["u1", "A"]', "line 2: record must be a JSON object"),
], ids=["frames-str", "dim-float", "frames-dim-negative", "b64-padding", "b64-not-str", "features-nan",
        "features-path", "id-int", "speaker-int", "transcript-int", "not-object"])
def test_manifest_bad_record_data_names_file_and_line(tmp_path, record, message):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "u0", "speaker_id": "A", "frames": 1, "dim": 1, "features_b64": "AACAPw=="}\n'
                    + record + "\n")
    with pytest.raises(ManifestError, match=f"^{re.escape(str(path))}: {message}"):
        load_manifest(path)


def test_manifest_missing_field_names_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"speaker_id": "A", "frames": 1, "dim": 1, "features_b64": "AACAPw=="}\n')
    with pytest.raises(ManifestError, match="line 1.*id"):
        load_manifest(path)


def test_manifest_duplicate_id_rejected(tmp_path):
    line = '{"id": "u1", "speaker_id": "A", "transcript": "a", "frames": 1, "dim": 1, "features_b64": "AACAPw=="}\n'
    path = tmp_path / "dup.jsonl"
    path.write_text(line + line)
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(path)


def test_manifest_kind_override(tmp_path):
    cfg = SynthConfig(n_speakers=2, n_utterances=4, labeled_fraction=1.0, seed=3)
    labeled, _, _ = generate_synthetic_corpus(cfg)
    path = tmp_path / "p.jsonl"
    save_manifest(labeled, path)
    assert load_manifest(path, kind="pseudo_labeled").kind == "pseudo_labeled"
