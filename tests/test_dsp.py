import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breathsentinel import dsp
from breathsentinel.errors import EmptyClip, NegativeMagnitude, NotWav, UnsupportedFormat

ROOT = Path(__file__).resolve().parent.parent


def naive_dft(x):
    """O(n^2) reference DFT, X[k] = sum_j x[j] w^(jk mod n), independent of the FFT path.

    Rows are built a chunk at a time from a table of the n roots of unity,
    so the oracle stays within a few MB up to n = 16384.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    roots = np.exp(-2j * np.pi * np.arange(n) / n)
    j = np.arange(n)
    out = np.empty(n, dtype=np.complex128)
    rows = max(1, 2**18 // n)
    for start in range(0, n, rows):
        k = np.arange(start, min(start + rows, n))
        out[k] = roots[np.outer(k, j) % n] @ x
    return out


def same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, and a NaN equals itself."""
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint8), b.view(np.uint8))


# --- WAV loading ---

def test_load_silent_two_second_wav(tmp_path):
    path = tmp_path / "silence.wav"
    dsp.write_wav(path, np.zeros(dsp.CLIP_SAMPLES))
    clip = dsp.load_wav(path)
    assert clip.samples.shape == (16384,)
    assert not clip.samples.any()


def test_load_wav_scaling_extremes(tmp_path):
    path = tmp_path / "extremes.wav"
    dsp.write_wav(path, np.array([-1.0, 32767 / 32768.0]))
    clip = dsp.load_wav(path)
    assert clip.samples[0] == -1.0
    assert clip.samples[1] == 32767 / 32768.0  # 0.999969482421875


def test_pcm_samples_divide_every_16_bit_value_by_32768():
    pcm = np.arange(-32768, 32768).astype("<i2")
    assert same_bits(dsp.pcm_samples(pcm), pcm.astype(np.float64) / 32768)


def test_load_wav_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.wav"
    dsp.write_wav(path, np.zeros(2048))
    data = bytearray(path.read_bytes())
    data[:4] = b"JUNK"
    path.write_bytes(bytes(data))
    with pytest.raises(NotWav):
        dsp.load_wav(path)


def _riff(*chunks):
    """WAV bytes from (id, body, declared size or None) chunks, word aligned."""
    body = b"WAVE"
    for chunk_id, data, size in chunks:
        body += chunk_id + struct.pack("<I", len(data) if size is None else size) + data
        body += b"\0" * (len(data) & 1)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _fmt(rate=8192, channels=1, bits=16, audio_format=1):
    return struct.pack("<HHIIHH", audio_format, channels, rate,
                       rate * channels * bits // 8, channels * bits // 8, bits)


def _wav_bytes(payload=b"\x00\x00", **fmt):
    return _riff((b"fmt ", _fmt(**fmt), None), (b"data", payload, None))


@pytest.mark.parametrize("kwargs,needle", [
    (dict(rate=44100), "sample_rate"),
    (dict(channels=2), "channels"),
    (dict(bits=8), "bits_per_sample"),
    (dict(audio_format=3), "audio_format"),
])
def test_load_wav_names_offending_field(tmp_path, kwargs, needle):
    path = tmp_path / "bad_format.wav"
    path.write_bytes(_wav_bytes(**kwargs))
    with pytest.raises(UnsupportedFormat, match=needle):
        dsp.load_wav(path)


def test_wav_round_trip_quantized(tmp_path):
    rng = np.random.default_rng(5)
    samples = rng.uniform(-1, 1, 4096)
    path = tmp_path / "rt.wav"
    dsp.write_wav(path, samples)
    back = dsp.load_wav(path).samples
    assert np.max(np.abs(back - samples)) <= 0.5 / 32768 + 1e-12


def _pcm(samples):
    return np.round(np.asarray(samples) * 32768.0).astype("<i2").tobytes()


def _streamed(path):
    with open(path, "rb") as f:
        return list(dsp.wav_frames(f, path))


def test_frames_come_only_from_the_data_chunk(tmp_path):
    samples = np.random.default_rng(3).uniform(-0.5, 0.5, 3 * 1024)
    path = tmp_path / "list_after_data.wav"
    path.write_bytes(_riff((b"fmt ", _fmt(), None), (b"data", _pcm(samples), None),
                           (b"LIST", b"INFOISFT" + b"x" * 4097, None)))
    frames = _streamed(path)
    expected = dsp.load_wav(path).samples
    assert expected.size == 3 * 1024
    assert len(frames) == 3
    assert np.array_equal(np.concatenate(frames), expected)


def test_fmt_chunk_after_data_is_accepted(tmp_path):
    samples = np.random.default_rng(4).uniform(-0.5, 0.5, 2 * 1024 + 10)
    path = tmp_path / "fmt_last.wav"
    path.write_bytes(_riff((b"data", _pcm(samples), None), (b"fmt ", _fmt(), None)))
    frames = _streamed(path)
    assert len(frames) == 2
    assert np.array_equal(np.concatenate(frames), dsp.load_wav(path).samples[:2048])


def test_data_size_beyond_end_of_file_yields_the_whole_frames_present(tmp_path):
    samples = np.random.default_rng(5).uniform(-0.5, 0.5, 2 * 1024 + 500)
    path = tmp_path / "truncated.wav"
    path.write_bytes(_riff((b"fmt ", _fmt(), None), (b"data", _pcm(samples), 10 ** 6)))
    assert dsp.load_wav(path).samples.size == samples.size
    assert len(_streamed(path)) == 2


def test_wav_frames_rejects_what_load_wav_rejects(tmp_path):
    path = tmp_path / "bad_format.wav"
    path.write_bytes(_wav_bytes(rate=44100))
    with pytest.raises(UnsupportedFormat, match="sample_rate"):
        _streamed(path)
    path.write_bytes(b"JUNK" + path.read_bytes()[4:])
    with pytest.raises(NotWav):
        _streamed(path)


def test_wav_frames_needs_one_whole_frame(tmp_path):
    path = tmp_path / "short.wav"
    dsp.write_wav(path, np.zeros(1023))
    with pytest.raises(EmptyClip):
        _streamed(path)


# --- domain types ---

def test_audio_clip_rejects_out_of_range():
    with pytest.raises(ValueError):
        dsp.AudioClip(samples=np.array([0.0, 1.5]))


# --- framing ---

def test_two_second_clip_yields_16_frames():
    clip = dsp.AudioClip(samples=np.arange(16384) / 16384.0)
    frames = dsp.frame_signal(clip)
    assert frames.shape == (16, 1024)
    assert [f[0] for f in frames[:3]] == [0.0, 1024 / 16384.0, 2048 / 16384.0]
    assert np.shares_memory(frames, clip.samples)  # a view, not a copy


def test_single_frame_clip():
    assert dsp.frame_signal(dsp.AudioClip(samples=np.zeros(1024))).shape == (1, 1024)


def test_partial_frame_reported():
    clip = dsp.AudioClip(samples=np.zeros(1500))
    frames = dsp.frame_signal(clip)
    assert frames.shape == (1, 1024)
    assert clip.samples.size - frames.size == 476  # trailing partial frame dropped


def test_too_short_clip_raises():
    with pytest.raises(EmptyClip):
        dsp.frame_signal(dsp.AudioClip(samples=np.zeros(1000)))


def test_frames_concatenate_back_to_prefix():
    rng = np.random.default_rng(2)
    samples = rng.uniform(-1, 1, 5000)
    clip = dsp.AudioClip(samples=samples)
    rebuilt = dsp.frame_signal(clip).ravel()
    assert rebuilt.size == 4 * 1024
    assert np.array_equal(rebuilt, samples[:rebuilt.size])


# --- DFFT ---

def test_zero_frame_transforms_to_zero():
    assert not dsp.dfft_magnitude(np.zeros(1024)).any()


def test_integer_bin_cosine():
    n = np.arange(1024)
    mags = np.abs(dsp.fft_radix2(np.cos(2 * np.pi * 8 * n / 1024)))
    assert mags[8] == pytest.approx(512.0, abs=1e-9)
    assert mags[1016] == pytest.approx(512.0, abs=1e-9)
    rest = np.delete(mags, [8, 1016])
    assert np.max(rest) < 1e-9


def test_dfft_magnitude_is_the_half_spectrum():
    x = np.random.default_rng(23).uniform(-1, 1, 1024)
    mags = dsp.dfft_magnitude(x)
    assert mags.shape == (dsp.SPECTRUM_BINS,) == (513,)
    assert np.array_equal(mags, np.abs(dsp.fft_radix2(x))[:513])


@pytest.mark.parametrize("shape", ["1-D", "(3, n)"])
def test_real_input_fft_has_the_bits_of_the_complex_input_fft(shape):
    rng = np.random.default_rng(37)
    for p in range(6, 17):
        n = 2**p
        x = rng.uniform(-1, 1, n if shape == "1-D" else (3, n))
        assert same_bits(dsp.fft_radix2(x), dsp.fft_radix2(x + 0j)), n


# dfft_magnitude stops pass 2 at row 17; prints whether its bins equal |fft_radix2|[:513]
HALF_SPECTRUM_SCRIPT = """
import numpy as np
from breathsentinel import dsp
frames = np.random.default_rng(23).uniform(-1, 1, (40, 1024))
full = np.abs(dsp.fft_radix2(frames))[:, :513]
rows = np.stack([dsp.dfft_magnitude(frame) for frame in frames])
same = lambda a, b: a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))
print(same(rows, full), same(dsp.dfft_magnitude(frames), full))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_dfft_magnitude_has_the_bits_of_the_full_transform(threads):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads}
    done = subprocess.run([sys.executable, "-c", HALF_SPECTRUM_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]


def test_fft_matches_naive_dft_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.uniform(-1, 1, 1024)
        mine = dsp.fft_radix2(x)
        ref = naive_dft(x)
        assert np.max(np.abs(mine - ref)) / np.max(np.abs(ref)) < 1e-6


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [2**p for p in range(15)])
def test_fft_matches_naive_dft_oracle_at_every_length(n, kind):
    rng = np.random.default_rng(n)
    x = rng.uniform(-1, 1, n)
    if kind == "complex":
        x = x + 1j * rng.uniform(-1, 1, n)
    mine = dsp.fft_radix2(x)
    ref = naive_dft(x)
    assert mine.shape == (n,) and mine.dtype == np.complex128
    assert np.max(np.abs(mine - ref)) / np.max(np.abs(ref)) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 32, 64, 1024, 16384])
def test_ifft_round_trip(n):
    rng = np.random.default_rng(n + 1)
    x = rng.uniform(-1, 1, (3, n)) + 1j * rng.uniform(-1, 1, (3, n))
    assert np.max(np.abs(dsp.ifft_radix2(dsp.fft_radix2(x)) - x)) < 1e-12


def test_fft_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        dsp.fft_radix2(np.zeros(1000))


def test_parseval_identity():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, 1024)
    spectrum = dsp.fft_radix2(x)
    lhs = float(np.sum(np.abs(spectrum) ** 2))
    rhs = 1024.0 * float(np.sum(x * x))
    assert abs(lhs - rhs) / rhs < 1e-6


def test_magnitude_mirror_symmetry():
    rng = np.random.default_rng(13)
    mags = np.abs(dsp.fft_radix2(rng.uniform(-1, 1, 1024)))
    k = np.arange(1, 512)
    assert np.allclose(mags[k], mags[1024 - k], rtol=1e-9, atol=1e-9)


def test_batched_fft_equals_per_frame():
    rng = np.random.default_rng(17)
    frames = rng.uniform(-1, 1, (6, 1024))
    batched = dsp.fft_radix2(frames)
    for i in range(6):
        assert np.allclose(batched[i], dsp.fft_radix2(frames[i]), rtol=0, atol=1e-9)


def test_spectra_match_the_streaming_stages():
    frames = np.random.default_rng(19).uniform(-1, 1, (2, 3, 1024))
    batch = dsp.spectra(frames)
    assert batch.shape == (2, 3, 513)
    for i in range(2):
        for j in range(3):
            single = dsp.normalize_spectrum(dsp.dfft_magnitude(frames[i, j]))
            assert np.allclose(batch[i, j], single, rtol=0, atol=1e-12)


def test_spectra_blocks_cover_every_frame():
    n = 2 * dsp.SPECTRA_BLOCK + 37
    frames = np.random.default_rng(29).uniform(-1, 1, (n, 1024))
    batch = dsp.spectra(frames)
    assert batch.shape == (n, 513)
    for i in range(n):
        single = dsp.normalize_spectrum(dsp.dfft_magnitude(frames[i]))
        assert np.allclose(batch[i], single, rtol=0, atol=1e-12), i


def test_spectra_rejects_frames_of_the_wrong_length():
    with pytest.raises(ValueError, match="1024"):
        dsp.spectra(np.zeros((2, 2048)))


def test_spectra_memory_stays_bounded():
    frames = np.random.default_rng(31).uniform(-1, 1, (2400, 1024))
    out_bytes = 2400 * 513 * 8
    tracemalloc.start()
    try:
        dsp.spectra(frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output plus a few complex (SPECTRA_BLOCK, 1024) block temporaries;
    # transforming all 2400 frames at once holds several 39 MB arrays
    assert peak < out_bytes + 16 * 2**20, peak


# --- normalization ---

def test_normalize_fixed_points():
    raw = np.zeros(1024)
    raw[0] = 1024.0
    raw[1] = 31.0
    out = dsp.normalize_magnitudes(raw)
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(math.log(32) / math.log(1025), abs=1e-12)
    assert out[2] == 0.0


def test_normalize_has_the_bits_of_the_clipped_formula():
    rng = np.random.default_rng(41)
    raw = np.concatenate([rng.uniform(0, 3000, 2000),
                          [-0.0, 0.0, 1024.0, 1025.0, 5e-324, 1e308, np.inf, np.nan]])
    expected = np.clip(np.log1p(raw) / math.log1p(1024.0), 0.0, 1.0)
    out = dsp.normalize_magnitudes(raw)
    assert same_bits(out, expected)
    assert math.copysign(1.0, out[2000]) == -1.0  # -0.0 keeps its sign


def test_normalize_rejects_negative():
    raw = np.zeros(1024)
    raw[5] = -0.1
    with pytest.raises(NegativeMagnitude):
        dsp.normalize_magnitudes(raw)


@given(st.lists(st.floats(min_value=0, max_value=2000), min_size=4, max_size=4),
       st.floats(min_value=0, max_value=100))
def test_normalize_is_monotone_per_coordinate(values, bump):
    raw = np.zeros(1024)
    raw[:4] = values
    base = dsp.normalize_magnitudes(raw)
    raw2 = raw.copy()
    raw2[2] += bump
    bumped = dsp.normalize_magnitudes(raw2)
    assert bumped[2] >= base[2]
    untouched = np.delete(bumped, 2)
    assert np.array_equal(untouched, np.delete(base, 2))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_fft_oracle_property(seed):
    x = np.random.default_rng(seed).uniform(-1, 1, 256)
    mine = dsp.fft_radix2(x)
    ref = naive_dft(x)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert float(np.max(np.abs(mine - ref))) / scale < 1e-6
