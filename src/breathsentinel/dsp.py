"""Time-domain framing and frequency-domain preprocessing for breath audio.

All audio is mono PCM at 8192 Hz. A clip is cut into non-overlapping
1024-sample frames (1/8 s each); every frame goes through a radix-2 FFT
and the magnitude spectrum is log-compressed into [0, 1]. The full
1024-bin (mirrored) magnitude vector is kept so downstream layer sizes
stay fixed.
"""

from __future__ import annotations

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
NYQUIST_HZ = SAMPLE_RATE // 2

LABELS = ("inhale", "exhale", "unknown")

# Largest magnitude a unit-amplitude frame can produce is FRAME_LEN, so this
# divisor is a global constant: no per-clip statistics, loudness differences
# between frames survive normalization.
_NORM_DIVISOR = math.log1p(float(FRAME_LEN))


@dataclass(frozen=True)
class AudioClip:
    """Mono sample sequence in [-1, 1] at 8192 Hz with an optional class label."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE
    label: str | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate != SAMPLE_RATE:
            raise ValueError(f"sample_rate must be {SAMPLE_RATE} Hz, got {self.sample_rate}")
        if samples.ndim != 1:
            raise ValueError(f"samples must be one-dimensional, got shape {samples.shape}")
        if samples.size and float(np.max(np.abs(samples))) > 1.0:
            raise ValueError("samples must lie in [-1.0, 1.0]")
        if self.label is not None and self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}, got {self.label!r}")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


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


def load_wav(path) -> AudioClip:
    """Read a whole WAV file; sample values are scaled by 1/32768 into [-1, 1]."""
    path = Path(path)
    with path.open("rb") as f:
        raw = np.frombuffer(f.read(_wav_data(f, path)), dtype="<i2")
    return AudioClip(samples=raw.astype(np.float64) / 32768.0)


def pcm_frames(stream, n_bytes: float = math.inf) -> Iterator[np.ndarray]:
    """(1024,) frames in [-1, 1] from raw PCM s16le mono, read one frame at a time.

    Reads 2048 bytes per frame until the stream ends or `n_bytes` are
    used up; a trailing partial frame is dropped, as in frame_signal.
    """
    frame_bytes = 2 * FRAME_LEN
    while n_bytes >= frame_bytes:
        chunk = stream.read(frame_bytes)
        if len(chunk) < frame_bytes:
            return
        n_bytes -= frame_bytes
        yield np.frombuffer(chunk, dtype="<i2").astype(np.float64) / 32768.0


def wav_frames(f, path) -> Iterator[np.ndarray]:
    """Frames of the 'data' chunk of an open WAV file, streamed as by pcm_frames.

    The header is validated before this returns; a file with less than
    one frame of samples raises EmptyClip.
    """
    n_bytes = _wav_data(f, path)
    if n_bytes < 2 * FRAME_LEN:
        raise EmptyClip(f"need at least {FRAME_LEN} samples, got {n_bytes // 2}")
    return pcm_frames(f, n_bytes)


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
# radix-2 FFT

_FFT_TABLES: dict[int, tuple[np.ndarray, list[np.ndarray]]] = {}


def _fft_tables(n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    cached = _FFT_TABLES.get(n)
    if cached is None:
        bits = n.bit_length() - 1
        idx = np.arange(n)
        rev = np.zeros(n, dtype=np.intp)
        for _ in range(bits):
            rev = (rev << 1) | (idx & 1)
            idx >>= 1
        twiddles = []
        size = 2
        while size <= n:
            half = size // 2
            twiddles.append(np.exp(-2j * np.pi * np.arange(half) / size))
            size *= 2
        cached = _FFT_TABLES[n] = (rev, twiddles)
    return cached


def fft_radix2(x: np.ndarray) -> np.ndarray:
    """Iterative radix-2 decimation-in-time FFT over the last axis.

    The last axis length must be a power of two. Real or complex input is
    accepted; the complex spectrum is returned (unnormalized forward
    transform, so Parseval reads sum|X|^2 == n * sum|x|^2).
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"FFT length must be a power of two, got {n}")
    rev, twiddles = _fft_tables(n)
    out = np.ascontiguousarray(x[..., rev], dtype=np.complex128)
    size = 2
    for w in twiddles:
        half = size // 2
        blocks = out.reshape(x.shape[:-1] + (n // size, size))
        even = blocks[..., :half].copy()
        odd = blocks[..., half:] * w
        blocks[..., :half] = even + odd
        blocks[..., half:] = even - odd
        size *= 2
    return out


def ifft_radix2(x: np.ndarray) -> np.ndarray:
    """Inverse of fft_radix2 via the conjugation identity."""
    x = np.asarray(x, dtype=np.complex128)
    return np.conj(fft_radix2(np.conj(x))) / x.shape[-1]


def dfft_magnitude(samples: np.ndarray) -> np.ndarray:
    """Raw magnitude spectrum |X[k]|, k = 0..1023, of one (1024,) frame.

    The mirrored half is retained: for real input, bins k and 1024-k carry
    equal magnitude.
    """
    return np.abs(fft_radix2(samples))


def normalize_magnitudes(raw: np.ndarray) -> np.ndarray:
    """log1p compression with the fixed divisor log(1 + 1024), clamped to [0, 1].

    Works on a single 1024-vector or any stack of them; monotone in every
    coordinate and free of per-clip statistics, so it is streaming-safe.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size and float(raw.min()) < 0.0:
        raise NegativeMagnitude("magnitude vector contains negative values")
    return np.clip(np.log1p(raw) / _NORM_DIVISOR, 0.0, 1.0)


# The same transform under the per-frame name the streaming path calls, so
# per-frame and batched normalization stay apart in perfbench's traces.
normalize_spectrum = normalize_magnitudes


def spectra(frames: np.ndarray) -> np.ndarray:
    """Normalized magnitude spectra of a (..., 1024) array of frames, same shape.

    The batch front end: training, evaluation and the tests all turn
    samples into spectra here, with the same arithmetic as the streaming
    dfft_magnitude + normalize_spectrum pair.
    """
    return normalize_magnitudes(np.abs(fft_radix2(frames)))
