import hashlib
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from breathsentinel import dsp, gen_corpus
from breathsentinel.corpus import CLIP_BLOCK, Corpus, augment_noise, load_corpus, make_split
from breathsentinel.errors import CorpusTooSmall, EmptyClass


def listed_corpus(n_total, ids=None):
    """Corpus of n_total clips that exist only as a file list (cheap at any scale).

    Splits read only the IDs, so no file is behind a path. Rows cycle
    through the classes, so the default IDs are not in load order:
    "exhale/..." sorts before "inhale/...".
    """
    labels = np.arange(n_total) % 3
    if ids is None:
        ids = tuple(f"{dsp.LABELS[k]}/c{i:05d}.wav" for i, k in enumerate(labels))
    return Corpus(paths=tuple(Path(clip_id) for clip_id in ids), labels=labels, ids=ids)


def id_split(ids, seed, epochs):
    """Test-local copy of the split made over clip IDs: the draws the rows must select."""
    n = len(ids)
    all_ids = sorted(ids)
    order = np.random.default_rng([seed, 0]).permutation(n)
    test_ids = [all_ids[i] for i in order[:math.ceil(n / 30)]]
    pool_ids = [cid for cid in all_ids if cid not in set(test_ids)]
    draws = []
    for epoch in epochs:
        order = np.random.default_rng([seed, 1 + epoch]).permutation(len(pool_ids))
        picked = [pool_ids[i] for i in order]
        val_size = math.ceil(n / 30)
        draws.append((picked[:val_size], picked[val_size:val_size + n // 5]))
    return test_ids, pool_ids, draws


# --- loading ---

def test_small_corpus_loads_balanced(tmp_path):
    gen_corpus(10, seed=3, out_dir=tmp_path)
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 30
    assert np.bincount(corpus.labels).tolist() == [10, 10, 10]
    assert corpus.load_errors == []


def test_corrupt_file_is_reported_not_fatal(tmp_path):
    gen_corpus(10, seed=4, out_dir=tmp_path)
    bad = tmp_path / "inhale" / "inhale_0003.wav"
    bad.write_bytes(b"JUNKJUNKJUNKJUNK")
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 29
    assert len(corpus.load_errors) == 1
    assert "inhale_0003" in corpus.load_errors[0]
    assert corpus.ids[3] == "inhale/inhale_0004.wav"
    assert np.array_equal(corpus.clips([3])[0],
                          dsp.load_wav(tmp_path / "inhale" / "inhale_0004.wav").samples)


def test_rows_follow_class_then_file_order(tmp_path):
    gen_corpus(10, seed=9, out_dir=tmp_path)
    corpus = load_corpus(tmp_path)
    assert corpus.ids == tuple(f"{label}/{label}_{i:04d}.wav"
                               for label in dsp.LABELS for i in range(10))
    assert corpus.labels.tolist() == [0] * 10 + [1] * 10 + [2] * 10
    for row, clip in zip((0, 13, 29), corpus.clips([0, 13, 29])):
        assert np.array_equal(clip, dsp.load_wav(tmp_path / corpus.ids[row]).samples)


def test_every_row_is_the_wav_data_and_converts_bit_equal_to_load_wav(desk_corpus,
                                                                      desk_corpus_dir):
    rows = range(len(desk_corpus))
    for start, block in desk_corpus.blocks(rows):
        assert len(block) <= CLIP_BLOCK
        clips = desk_corpus.clips(rows[start:start + len(block)])
        assert clips.dtype == np.float64 and np.array_equal(clips, block)
        for row, clip in zip(rows[start:], block):
            clip_id = desk_corpus.ids[row]
            pcm = dsp.read_pcm(desk_corpus_dir / clip_id)
            assert np.array_equal(clip * 32768.0, pcm), clip_id  # the WAV data, scaled exactly
            samples = dsp.load_wav(desk_corpus_dir / clip_id).samples
            assert clip.tobytes() == samples.tobytes(), clip_id


def wav_data_chunk(path) -> bytes:
    """The bytes of a WAV file's 'data' chunk, found by walking its chunks."""
    blob = Path(path).read_bytes()
    pos = 12
    while blob[pos:pos + 4] != b"data":
        pos += 8 + struct.unpack_from("<I", blob, pos + 4)[0]
    size = struct.unpack_from("<I", blob, pos + 4)[0]
    return blob[pos + 8:pos + 8 + size]


def test_fingerprint_hashes_the_stored_pcm_in_id_order(desk_corpus, desk_corpus_dir):
    digest = hashlib.sha256()
    for clip_id in sorted(desk_corpus.ids):
        data = wav_data_chunk(desk_corpus_dir / clip_id)
        assert len(data) == 2 * dsp.CLIP_SAMPLES, clip_id
        digest.update(clip_id.encode("utf-8") + b"\0" + data)
    assert desk_corpus.fingerprint() == digest.hexdigest()


def test_load_decodes_nothing_until_rows_are_asked_for(tmp_path, monkeypatch):
    gen_corpus(10, seed=4, out_dir=tmp_path)
    (tmp_path / "inhale" / "inhale_0003.wav").write_bytes(b"JUNKJUNKJUNKJUNK")
    dsp.write_wav(tmp_path / "exhale" / "exhale_0001.wav", np.zeros(1024))
    read = []
    read_pcm = dsp.read_pcm

    def recording(path):
        read.append(path.relative_to(tmp_path).as_posix())
        return read_pcm(path)

    monkeypatch.setattr(dsp, "read_pcm", recording)
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 28 and len(corpus.load_errors) == 2 and read == []
    rows = np.array([27, 0, 13])
    clips = corpus.clips(rows)
    assert read == [corpus.ids[row] for row in rows]
    for row, clip in zip(rows, clips):
        assert np.array_equal(clip * 32768.0, read_pcm(tmp_path / corpus.ids[row]))


def test_wrong_length_clip_is_reported(tmp_path):
    gen_corpus(10, seed=5, out_dir=tmp_path)
    dsp.write_wav(tmp_path / "exhale" / "exhale_0001.wav", np.zeros(1024))
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 29
    assert any("16384" in e for e in corpus.load_errors)


def test_empty_class_directory_raises(tmp_path):
    gen_corpus(10, seed=6, out_dir=tmp_path)
    for path in (tmp_path / "unknown").glob("*.wav"):
        path.unlink()
    with pytest.raises(EmptyClass):
        load_corpus(tmp_path)


def test_missing_corpus_root_is_named(tmp_path):
    root = tmp_path / "nowhere"
    message = re.escape(f"corpus root {root} is missing or is not a directory")
    with pytest.raises(EmptyClass, match=message):
        load_corpus(root)
    root.write_bytes(b"not a directory\n")
    with pytest.raises(EmptyClass, match=message):
        load_corpus(root)


def test_file_in_place_of_a_class_directory_is_named(tmp_path):
    gen_corpus(10, seed=6, out_dir=tmp_path)
    for path in (tmp_path / "unknown").glob("*.wav"):
        path.unlink()
    (tmp_path / "unknown").rmdir()
    (tmp_path / "unknown").write_bytes(b"inhale_0000.wav\n")
    message = f"class path {tmp_path / 'unknown'} is missing or is not a directory"
    with pytest.raises(EmptyClass, match=re.escape(message)):
        load_corpus(tmp_path)


def test_clip_ids_are_relative_paths(tmp_path):
    gen_corpus(10, seed=7, out_dir=tmp_path)
    corpus = load_corpus(tmp_path)
    assert all("/" in clip_id for clip_id in corpus.ids)
    assert corpus.ids[0].split("/")[0] in dsp.LABELS


def test_fingerprint_stable_and_content_sensitive(tmp_path):
    gen_corpus(10, seed=8, out_dir=tmp_path)
    a = load_corpus(tmp_path).fingerprint()
    b = load_corpus(tmp_path).fingerprint()
    assert a == b
    dsp.write_wav(tmp_path / "inhale" / "inhale_0000.wav",
                  np.ones(dsp.CLIP_SAMPLES) * 0.25)
    assert load_corpus(tmp_path).fingerprint() != a


# --- splits ---

def test_reference_scale_split_arithmetic():
    corpus = listed_corpus(1500)
    plan = make_split(corpus, seed=0)
    assert len(plan.test_rows) == 50
    assert len(plan.pool_rows) == 1450
    val, train = plan.epoch_draw(0)
    assert len(val) == 50
    assert len(train) == 300
    # the training draw comes from the 1400 left after both removals
    assert set(val).isdisjoint(train)
    assert len(plan.pool_rows) - len(val) == 1400


def test_scaled_split_sizes():
    plan = make_split(listed_corpus(450), seed=1)
    assert len(plan.test_rows) == 15
    val, train = plan.epoch_draw(3)
    assert len(val) == 15
    assert len(train) == 90


def test_split_is_deterministic():
    corpus = listed_corpus(600)
    a, b = make_split(corpus, seed=9), make_split(corpus, seed=9)
    assert np.array_equal(a.test_rows, b.test_rows)
    for rows_a, rows_b in zip(a.epoch_draw(17), b.epoch_draw(17)):
        assert np.array_equal(rows_a, rows_b)
    assert not np.array_equal(make_split(corpus, seed=10).test_rows, a.test_rows)


def test_epoch_draws_never_touch_test_ids():
    plan = make_split(listed_corpus(450), seed=2)
    forbidden = set(plan.test_rows)
    for epoch in range(100):
        val, train = plan.epoch_draw(epoch)
        assert forbidden.isdisjoint(val)
        assert forbidden.isdisjoint(train)
        assert set(val).isdisjoint(train)


def test_isolation_holds_across_many_seeds():
    corpus = listed_corpus(420)
    for seed in range(50):
        plan = make_split(corpus, seed=seed)
        forbidden = set(plan.test_rows)
        val, train = plan.epoch_draw(0)
        assert forbidden.isdisjoint(val) and forbidden.isdisjoint(train)
        again = make_split(corpus, seed=seed)
        assert np.array_equal(again.test_rows, plan.test_rows)


@pytest.mark.parametrize("load_order", ["cycled", "shuffled"])
def test_split_rows_select_the_clips_the_id_split_selects(load_order):
    corpus = listed_corpus(420)
    if load_order == "shuffled":
        shuffled = np.random.default_rng(0).permutation(corpus.ids)
        corpus = listed_corpus(420, ids=tuple(shuffled.tolist()))
    assert list(corpus.ids) != sorted(corpus.ids)
    ids = np.array(corpus.ids)
    for seed in range(50):
        plan = make_split(corpus, seed=seed)
        test_ids, pool_ids, draws = id_split(corpus.ids, seed, epochs=(0, 7))
        assert ids[plan.test_rows].tolist() == test_ids
        assert ids[plan.pool_rows].tolist() == pool_ids
        for epoch, (val_ids, train_ids) in zip((0, 7), draws):
            val, train = plan.epoch_draw(epoch)
            assert ids[val].tolist() == val_ids
            assert ids[train].tolist() == train_ids


def test_corpus_too_small_rejected():
    with pytest.raises(CorpusTooSmall):
        make_split(listed_corpus(399), seed=0)


# --- augmentation ---

def tone_clip(amplitude=0.5):
    t = np.arange(dsp.CLIP_SAMPLES) / dsp.SAMPLE_RATE
    return amplitude * np.sin(2 * np.pi * 440.0 * t)


def test_zero_amplitude_is_identity():
    clip = tone_clip()
    out = augment_noise(clip, seed=0, amplitude=0.0)
    assert np.array_equal(out, clip)


def test_augmented_samples_stay_clamped():
    clip = np.ones(dsp.CLIP_SAMPLES) * 0.999
    out = augment_noise(clip, seed=1, amplitude=0.05)
    assert float(np.max(np.abs(out))) <= 1.0


def test_augment_is_deterministic_per_seed():
    clip = tone_clip()
    a = augment_noise(clip, seed=5)
    b = augment_noise(clip, seed=5)
    c = augment_noise(clip, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_amplitude_draw_range():
    clip = np.zeros(dsp.CLIP_SAMPLES)
    for seed in range(10):
        noise = augment_noise(clip, seed=seed)
        assert 0.0 < float(np.max(np.abs(noise))) <= 0.05


def test_snr_matches_prediction_within_1db():
    amplitude, a = 0.5, 0.03
    clip = tone_clip(amplitude)
    out = augment_noise(clip, seed=3, amplitude=a)
    noise = out - clip
    rms_tone = amplitude / np.sqrt(2)
    snr_measured = 20 * np.log10(rms_tone / np.sqrt(np.mean(noise ** 2)))
    snr_predicted = 20 * np.log10(rms_tone / (a / np.sqrt(3)))  # uniform noise rms
    assert abs(snr_measured - snr_predicted) < 1.0
