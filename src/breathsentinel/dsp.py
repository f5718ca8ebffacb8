"""Time-domain framing and frequency-domain preprocessing for breath audio.

All audio is mono PCM at 8192 Hz. A clip is cut into non-overlapping
1024-sample frames (1/8 s each); every frame goes through a four-step
FFT and the magnitude spectrum is log-compressed into [0, 1]. Only the
513 non-redundant bins 0..512 are kept: for a real frame, bin 1024-k
carries the magnitude of bin k. Streamed input (pcm_frames) is read one
frame per pull; input shorter than a frame raises EmptyClip at the first.
"""

from __future__ import annotations

import functools
import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import EmptyClip, NegativeMagnitude, NotWav, UnsupportedFormat

SAMPLE_RATE = 8192
FRAME_LEN = 1024
FRAME_SECONDS = FRAME_LEN / SAMPLE_RATE  # 0.125, exactly representable
CLIP_SECONDS = 2.0
CLIP_SAMPLES = int(CLIP_SECONDS * SAMPLE_RATE)  # 16384
# bins 0..512 of a real frame's spectrum; bins 513..1023 repeat 511..1
SPECTRUM_BINS = FRAME_LEN // 2 + 1
SPECTRA_BLOCK = 256  # frames per FFT call in spectra()

LABELS = ("inhale", "exhale", "unknown")
BREATH_KINDS = LABELS[:2]  # the labels that are breaths

# Largest magnitude a unit-amplitude frame can produce is FRAME_LEN, so this
# divisor is a global constant: no per-clip statistics, loudness differences
# between frames survive normalization.
_NORM_DIVISOR = math.log1p(float(FRAME_LEN))


@dataclass(frozen=True)
class AudioClip:
    """Mono sample sequence in [-1, 1] at 8192 Hz."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError(f"samples must be one-dimensional, got shape {samples.shape}")
        if samples.size and float(np.max(np.abs(samples))) > 1.0:
            raise ValueError("samples must lie in [-1.0, 1.0]")


def _wav_data(f, path) -> int:
    """Walk the chunks of an open WAV file and validate its format.

    Accepts only PCM signed 16-bit little-endian mono 8192 Hz. Leaves `f`
    at the first sample byte and returns the number of whole-sample bytes
    in the 'data' chunk, cut to what the file holds.
    """
    head = f.read(12)
    if len(head) < 12 or head[:4] != b"RIFF":
        raise NotWav(f"{path}: first bytes are not 'RIFF'")
    if head[8:12] != b"WAVE":
        raise NotWav(f"{path}: RIFF form type is not 'WAVE'")

    end = f.seek(0, io.SEEK_END)
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= end:
        f.seek(pos)
        chunk_id, size = struct.unpack("<4sI", f.read(8))
        if chunk_id == b"fmt ":
            fmt = f.read(min(size, 16))
        elif chunk_id == b"data":
            data = (pos + 8, min(size, end - pos - 8))
        pos += 8 + size + (size & 1)  # chunks are word aligned

    if fmt is None or len(fmt) < 16:
        raise NotWav(f"{path}: missing or short 'fmt ' chunk")
    audio_format, channels, rate, _byte_rate, _block_align, bits = struct.unpack("<HHIIHH", fmt)
    if audio_format != 1:
        raise UnsupportedFormat(f"{path}: audio_format={audio_format}, need PCM (1)")
    if channels != 1:
        raise UnsupportedFormat(f"{path}: channels={channels}, need mono (1)")
    if rate != SAMPLE_RATE:
        raise UnsupportedFormat(f"{path}: sample_rate={rate}, need {SAMPLE_RATE}")
    if bits != 16:
        raise UnsupportedFormat(f"{path}: bits_per_sample={bits}, need 16")
    if data is None:
        raise NotWav(f"{path}: missing 'data' chunk")

    start, size = data
    f.seek(start)
    return size - size % 2


def wav_sample_count(path) -> int:
    """Number of samples in a WAV file's 'data' chunk; validates the header, decodes nothing."""
    path = Path(path)
    with path.open("rb") as f:
        return _wav_data(f, path) // 2


def read_pcm(path) -> np.ndarray:
    """A whole WAV file's samples as 16-bit PCM, exactly as stored."""
    path = Path(path)
    with path.open("rb") as f:
        return np.frombuffer(f.read(_wav_data(f, path)), dtype="<i2")


def pcm_samples(pcm: np.ndarray) -> np.ndarray:
    """16-bit PCM values as float64 samples in [-1, 1]: value / 32768."""
    return np.multiply(pcm, 2.0 ** -15, dtype=np.float64)  # exact: 32768 is a power of two


def load_wav(path) -> AudioClip:
    """Read a whole WAV file; sample values are scaled by 1/32768 into [-1, 1]."""
    return AudioClip(samples=pcm_samples(read_pcm(path)))


def pcm_frames(stream, n_bytes: float = math.inf) -> Iterator[np.ndarray]:
    """(1024,) frames in [-1, 1] from raw PCM s16le mono, read one frame at a time.

    Reads min(n_bytes left, 2048) bytes per frame until the stream ends or
    `n_bytes` are used up; a trailing partial frame is dropped, as in
    frame_signal. A stream that ends before one whole frame raises
    EmptyClip at the first pull.
    """
    frame_bytes = 2 * FRAME_LEN
    chunk = stream.read(min(n_bytes, frame_bytes))
    if len(chunk) < frame_bytes:
        raise EmptyClip(f"need at least {FRAME_LEN} samples, got {len(chunk) // 2}")
    while len(chunk) == frame_bytes:
        yield pcm_samples(np.frombuffer(chunk, dtype="<i2"))
        n_bytes -= frame_bytes
        chunk = stream.read(min(n_bytes, frame_bytes))


def wav_frames(f, path) -> Iterator[np.ndarray]:
    """Frames of the 'data' chunk of an open WAV file, streamed as by pcm_frames.

    The header is validated before this returns; a file with less than
    one frame of samples raises EmptyClip at the first pull.
    """
    return pcm_frames(f, _wav_data(f, path))


def write_wav(path, samples) -> None:
    """Write samples in [-1, 1] as PCM s16le mono 8192 Hz."""
    x = np.asarray(samples, dtype=np.float64)
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    body = pcm.tobytes()
    header = (
        b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16)
        + b"data" + struct.pack("<I", len(body))
    )
    Path(path).write_bytes(header + body)


def frame_signal(clip: AudioClip) -> np.ndarray:
    """Cut a clip into non-overlapping 1024-sample frames (hop = frame length).

    Returns an (n_frames, 1024) view of the samples; trailing samples that
    do not fill a final frame are dropped. A 2-second clip yields exactly
    16 frames.
    """
    n_frames = clip.samples.size // FRAME_LEN
    if n_frames == 0:
        raise EmptyClip(f"need at least {FRAME_LEN} samples, got {clip.samples.size}")
    return clip.samples[:n_frames * FRAME_LEN].reshape(n_frames, FRAME_LEN)


# ---------------------------------------------------------------------------
# FFT: four-step Cooley-Tukey over cached DFT matrices

_DIRECT_MAX = 32  # longest transform done as a single DFT-matrix product


@functools.lru_cache(maxsize=None)
def _dft_matrix(n: int) -> np.ndarray:
    """(n, n) matrix w_n^(j k), read-only; symmetric, so x @ F is the DFT of x."""
    k = np.arange(n)
    matrix = np.exp(-2j * np.pi * (np.outer(k, k) % n) / n)
    matrix.flags.writeable = False
    return matrix


@functools.lru_cache(maxsize=None)
def _twiddles(n1: int, n2: int) -> np.ndarray:
    """(n1, n2) factors w_n^(j1 k2), n = n1 n2, applied between the two passes."""
    factors = np.exp(-2j * np.pi * np.outer(np.arange(n1), np.arange(n2)) / (n1 * n2))
    factors.flags.writeable = False
    return factors


def _fft(x: np.ndarray, bins: int | None = None) -> np.ndarray:
    """Four-step transform over the last axis; with `bins`, at least bins 0 .. bins - 1."""
    n = x.shape[-1]
    if n <= _DIRECT_MAX:
        return x @ _dft_matrix(n)
    n1 = min(1 << (n.bit_length() - 1) // 2, _DIRECT_MAX)
    n2 = n // n1
    # x[j1 + n1 j2] sits at [j1, j2]; pass 1 takes the n2-point DFTs along j2
    x = x.reshape(x.shape[:-1] + (n2, n1)).swapaxes(-1, -2)
    if n2 <= _DIRECT_MAX and x.dtype == np.float64:
        # Real input: one real product with the DFT matrix read as interleaved real
        # and imaginary parts, at half the arithmetic; viewed as complex, it has the
        # bits of the complex product. Its n1 >= 8 rows keep it on the matrix-matrix
        # kernels: for a 1-D transform of 16 or 32 points the two differ in the last bit.
        cols = (x @ _dft_matrix(n2).view(np.float64)).view(np.complex128)
    else:
        cols = _fft(x)
    cols *= _twiddles(n1, n2)
    # pass 2 takes the n1-point DFTs along j1 and leaves X[n2 k1 + k2] at [k1, k2],
    # so its first `rows` rows hold bins 0 .. rows n2 - 1
    rows = n1 if bins is None else min(n1, -(-bins // n2))
    return (_dft_matrix(n1)[:rows] @ cols).reshape(x.shape[:-2] + (rows * n2,))


def fft_radix2(x: np.ndarray) -> np.ndarray:
    """Four-step (two-pass) Cooley-Tukey FFT over the last axis, any power-of-two length.

    For n = n1 * n2 the transform is an n2-point DFT, a twiddle multiply
    and an n1-point DFT, each pass one matrix product with a cached DFT
    matrix of at most 32 x 32 (a 1024-sample frame is 32 x 32 twice);
    a longer pass 1 splits again the same way. Real or complex input is
    accepted; the complex spectrum is returned (unnormalized forward
    transform, so Parseval reads sum|X|^2 == n * sum|x|^2).
    """
    return _fft(_power_of_two(x))


def _power_of_two(x) -> np.ndarray:
    """`x` as an array whose last axis has a power-of-two length; else ValueError."""
    x = np.asarray(x)
    n = x.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"FFT length must be a power of two, got {n}")
    return x


def ifft_radix2(x: np.ndarray) -> np.ndarray:
    """Inverse of fft_radix2 via the conjugation identity."""
    x = np.asarray(x, dtype=np.complex128)
    return np.conj(fft_radix2(np.conj(x))) / x.shape[-1]


def dfft_magnitude(samples: np.ndarray) -> np.ndarray:
    """Raw half magnitude spectrum |X[k]|, k = 0..512, of one (1024,) frame.

    Bins 513..1023 of a real frame repeat bins 511..1 (|X[k]| == |X[1024-k]|)
    and are left out: pass 2 runs over the first 17 rows of the 32 x 32 DFT
    matrix only, which give bins 0..543. Bit for bit the first 513 bins of
    |fft_radix2(samples)|.
    """
    return np.abs(_fft(_power_of_two(samples), SPECTRUM_BINS)[..., :SPECTRUM_BINS])


def normalize_magnitudes(raw: np.ndarray) -> np.ndarray:
    """log1p compression with the fixed divisor log(1 + 1024), clamped to [0, 1].

    Works on a single magnitude vector or any stack of them; monotone in every
    coordinate and free of per-clip statistics, so it is streaming-safe.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size and float(raw.min()) < 0.0:
        raise NegativeMagnitude("magnitude vector contains negative values")
    out = np.log1p(raw)
    out /= _NORM_DIVISOR
    return out.clip(0.0, 1.0, out=out)


# The same transform under the per-frame name the streaming path calls, so
# per-frame and batched normalization stay apart in perfbench's traces.
normalize_spectrum = normalize_magnitudes


def spectra(frames: np.ndarray) -> np.ndarray:
    """Normalized half spectra, shape (..., 513), of a (..., 1024) array of frames.

    The batch front end: training, evaluation and the tests all turn
    samples into spectra here, with the same arithmetic as the streaming
    dfft_magnitude + normalize_spectrum pair. Frames are transformed
    SPECTRA_BLOCK at a time, so the complex temporaries stay a few MB
    however many frames come in.
    """
    frames = np.asarray(frames)
    if frames.shape[-1:] != (FRAME_LEN,):
        raise ValueError(f"frames must have shape (..., {FRAME_LEN}), got {frames.shape}")
    flat = frames.reshape(-1, FRAME_LEN)
    out = np.empty((flat.shape[0], SPECTRUM_BINS))
    for start in range(0, flat.shape[0], SPECTRA_BLOCK):
        block = fft_radix2(flat[start:start + SPECTRA_BLOCK])[:, :SPECTRUM_BINS]
        out[start:start + SPECTRA_BLOCK] = normalize_magnitudes(np.abs(block))
    return out.reshape(frames.shape[:-1] + (SPECTRUM_BINS,))
