"""Synthetic breath audio: labeled training clips and continuous scenarios.

Real infant recordings are not available, so the corpus is synthesized
with the qualitative spectral shape of breath sounds: inhales are
band-limited noise bursts biased high (300-1500 Hz), exhales sit lower
(100-800 Hz) with a slower decay, and the unknown class mixes
near-silence, broadband ambience, and transient clicks. Band limiting is
done by frequency-domain masking with the package's own FFT rather than a
filter-design dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import dsp
from .errors import ConfigError

SCENARIO_KINDS = ("normal", "arrest", "decrement")
MIN_PER_CLASS = 10  # fewest clips per class gen_corpus writes
MAX_DURATION = 3600.0  # longest scenario in seconds: 29.5 M samples, 236 MB as float64

# Burst shape ranges (seconds / Hz). Exhales decay slower and sit lower.
# Widths stay under ~1.2 s so several consecutive 2 s windows can contain
# a burst completely; that is what the debouncer's run rule needs.
_INHALE_WIDTH = (0.8, 1.0)
_EXHALE_WIDTH = (0.95, 1.15)
_INHALE_BAND = ((270.0, 330.0), (1350.0, 1650.0))
_EXHALE_BAND = ((90.0, 110.0), (720.0, 880.0))


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one continuous monitoring scenario."""

    kind: str
    duration: float = 120.0
    base_period: float = 2.5
    jitter_sd: float = 0.1
    onset: float = 60.0
    decrement_rate: float = 0.04
    noise_floor: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")
        for field in (f for f in fields(self) if f.type == "float"):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value}")
            object.__setattr__(self, field.name, value + 0.0)  # -0.0 reads as 0.0
        if not 0.0 < self.duration <= MAX_DURATION:
            raise ConfigError(f"duration must be in (0, {MAX_DURATION:g}] s, got {self.duration}")
        if self.base_period < 1.0:
            raise ConfigError(f"base_period must be >= 1.0 s, got {self.base_period}")
        if not self.onset < self.duration:
            raise ConfigError(f"onset ({self.onset}) must be before duration ({self.duration})")
        if not 0.0 <= self.decrement_rate <= 0.2:
            raise ConfigError(f"decrement_rate must be in [0, 0.2], got {self.decrement_rate}")
        if self.jitter_sd < 0.0 or self.noise_floor < 0.0:
            raise ConfigError("jitter_sd and noise_floor must be non-negative")


@dataclass(frozen=True)
class GroundTruth:
    """Every placed breath onset, in order, as (time_s, kind) pairs."""

    onsets: tuple[tuple[float, str], ...]

    def __post_init__(self):
        onsets = tuple((float(t), k) for t, k in self.onsets)
        object.__setattr__(self, "onsets", onsets)
        for (t0, k0), (t1, k1) in zip(onsets, onsets[1:]):
            if t1 <= t0:
                raise ValueError("ground-truth times must be strictly increasing")
        for _, k in onsets:
            if k not in dsp.BREATH_KINDS:
                raise ValueError(f"ground-truth kind must be one of {dsp.BREATH_KINDS}, got {k!r}")

    def to_csv(self) -> str:
        lines = ["time_s,kind"]
        lines += [f"{t:.6f},{k}" for t, k in self.onsets]
        return "\n".join(lines) + "\n"


def _band_noise(rng: np.random.Generator, n: int, f_lo: float, f_hi: float) -> np.ndarray:
    """Unit-peak white noise band-limited to [f_lo, f_hi] by spectral masking."""
    m = 1 << max(1, (n - 1).bit_length())
    spec = dsp.fft_radix2(rng.standard_normal(m))
    k = np.arange(m)
    freqs = np.minimum(k, m - k) * (dsp.SAMPLE_RATE / m)
    spec[(freqs < f_lo) | (freqs > f_hi)] = 0.0
    x = dsp.ifft_radix2(spec).real[:n]
    peak = float(np.max(np.abs(x)))
    return x / peak if peak > 0 else x


def _rise_fall(n: int, rise_frac: float) -> np.ndarray:
    """Half-cosine attack over rise_frac of the length, half-cosine decay after."""
    n_rise = max(1, int(n * rise_frac))
    t_rise = np.arange(n_rise) / n_rise
    t_fall = np.arange(n - n_rise) / max(1, n - n_rise)
    return np.concatenate([0.5 - 0.5 * np.cos(np.pi * t_rise),
                           0.5 + 0.5 * np.cos(np.pi * t_fall)])


def _breath_burst(kind: str, rng: np.random.Generator,
                  peak: float | None = None) -> np.ndarray:
    """One enveloped band-noise burst, normalized to the drawn peak amplitude."""
    if kind == "inhale":
        width = rng.uniform(*_INHALE_WIDTH)
        (lo_a, lo_b), (hi_a, hi_b) = _INHALE_BAND
        rise_frac = 0.35
    else:
        width = rng.uniform(*_EXHALE_WIDTH)
        (lo_a, lo_b), (hi_a, hi_b) = _EXHALE_BAND
        rise_frac = 0.2
    n = int(width * dsp.SAMPLE_RATE)
    burst = _band_noise(rng, n, rng.uniform(lo_a, lo_b), rng.uniform(hi_a, hi_b))
    burst = burst * _rise_fall(n, rise_frac)
    if peak is None:
        peak = rng.uniform(0.2, 0.8)
    top = float(np.max(np.abs(burst)))
    return burst * (peak / top) if top > 0 else burst


def _place(audio: np.ndarray, burst: np.ndarray, t: float) -> bool:
    """Add `burst` to `audio` from `t` seconds on if it starts at or after 0 s and fits whole."""
    start = t * dsp.SAMPLE_RATE  # checked in float: int() of an infinite time overflows
    if not 0.0 <= start < audio.size - burst.size + 1:  # int(start) + burst.size <= audio.size
        return False
    audio[int(start):int(start) + burst.size] += burst
    return True


def _breath_in_context(kind: str, rng: np.random.Generator) -> np.ndarray:
    """A 2-second cut around one breath with its cycle neighbours visible.

    Continuous breathing never isolates a burst: at a ~2.5 s cycle a 2 s
    window also catches fragments of the bursts on either side. Cutting
    the clip out of a small synthesized sequence teaches the classifier
    the mixed views it will meet when streaming; the labeled burst stays
    near the cut center.
    """
    canvas = np.zeros(8 * dsp.SAMPLE_RATE)
    t_inhale = 4.0  # canvas seconds; cycle: inhale, short gap, exhale
    inhale = _breath_burst("inhale", rng)
    exhale = _breath_burst("exhale", rng)
    t_exhale = t_inhale + inhale.size / dsp.SAMPLE_RATE + rng.uniform(0.05, 0.15)
    _place(canvas, inhale, t_inhale)
    _place(canvas, exhale, t_exhale)
    if rng.uniform() < 0.85:  # previous cycle's exhale tail
        prev_inhale_w = rng.uniform(*_INHALE_WIDTH)
        t_prev = t_inhale - rng.uniform(2.2, 2.9) + prev_inhale_w + rng.uniform(0.05, 0.15)
        _place(canvas, _breath_burst("exhale", rng), t_prev)
    if rng.uniform() < 0.85:  # next cycle's inhale head
        _place(canvas, _breath_burst("inhale", rng), t_inhale + rng.uniform(2.2, 2.9))

    if kind == "inhale":
        center = t_inhale + inhale.size / dsp.SAMPLE_RATE / 2.0
    else:
        center = t_exhale + exhale.size / dsp.SAMPLE_RATE / 2.0
    center += rng.uniform(-0.15, 0.15)
    start = int((center - dsp.CLIP_SECONDS / 2.0) * dsp.SAMPLE_RATE)
    start = min(max(start, 0), canvas.size - dsp.CLIP_SAMPLES)
    return canvas[start:start + dsp.CLIP_SAMPLES].copy()


def _unknown_signal(rng: np.random.Generator, n: int, variant: int | None = None) -> np.ndarray:
    """Near-silence, broadband ambience, or transient clicks, seeded."""
    if variant is None:
        variant = int(rng.integers(3))
    if variant == 0:  # near-silence
        return rng.uniform(-1.0, 1.0, n) * rng.uniform(0.005, 0.02)
    if variant == 1:  # broadband ambience with slow level wobble
        x = _band_noise(rng, n, 50.0, 3900.0)
        t = np.arange(n) / dsp.SAMPLE_RATE
        wobble = 0.75 + 0.25 * np.sin(2 * np.pi * rng.uniform(0.2, 1.0) * t + rng.uniform(0, 2 * np.pi))
        x = x * wobble
        return x * (rng.uniform(0.2, 0.6) / np.max(np.abs(x)))
    x = np.zeros(n)  # transient clicks
    for _ in range(int(rng.integers(1, 4))):
        w = int(rng.uniform(0.003, 0.015) * dsp.SAMPLE_RATE)
        pos = int(rng.integers(0, n - w))
        click = rng.standard_normal(w) * np.hanning(w)
        x[pos:pos + w] += click * (rng.uniform(0.2, 0.8) / np.max(np.abs(click)))
    return x


def gen_clip(kind: str, seed) -> dsp.AudioClip:
    """One 2-second clip of class `kind` at 8192 Hz, peak amplitude capped at 0.8.

    The labeled burst sits near the clip center with a little jitter;
    most breath clips are cut out of a synthesized breathing sequence so
    neighbouring-burst fragments show at the edges, the rest hold the
    burst in isolation.
    """
    if kind not in dsp.LABELS:
        raise ValueError(f"kind must be one of {dsp.LABELS}, got {kind!r}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, dsp.CLIP_SAMPLES) * rng.uniform(0.001, 0.01)
    if kind == "unknown":
        x += _unknown_signal(rng, dsp.CLIP_SAMPLES)
    elif rng.uniform() < 0.6:
        x += _breath_in_context(kind, rng)
    else:
        burst = _breath_burst(kind, rng)
        center = dsp.CLIP_SECONDS / 2.0 + rng.uniform(-0.15, 0.15)
        start = int((center - burst.size / dsp.SAMPLE_RATE / 2.0) * dsp.SAMPLE_RATE)
        start = min(max(start, 0), dsp.CLIP_SAMPLES - burst.size)
        x[start:start + burst.size] += burst
    top = float(np.max(np.abs(x)))
    if top > 0.8:
        x = x * (0.8 / top)
    return dsp.AudioClip(samples=x)


def gen_corpus(n_per_class: int, seed: int, out_dir) -> list[Path]:
    """Write a labeled corpus (standard directory layout); returns the paths written.

    One clip is in memory at a time; read the corpus with load_corpus.
    """
    if n_per_class < MIN_PER_CLASS:
        raise ConfigError(f"--per-class={n_per_class}: must be >= {MIN_PER_CLASS}")
    root = Path(out_dir)
    for label in dsp.LABELS:  # every class directory before the first clip
        (root / label).mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for ci, label in enumerate(dsp.LABELS):
        for i in range(n_per_class):
            path = root / label / f"{label}_{i:04d}.wav"
            dsp.write_wav(path, gen_clip(label, seed=[seed, ci, i]).samples)
            paths.append(path)
    return paths


def gen_scenario(spec: ScenarioSpec) -> tuple[dsp.AudioClip, GroundTruth]:
    """Continuous audio for one scenario plus the placed breath onsets.

    Breath cycles sit on a steady rhythm grid and each placed onset gets
    independent jitter around its grid point; breathing wanders around
    the rhythm instead of random-walking away from it, which is also
    what keeps the trend test quiet on healthy rhythms. The scenario
    diverges at `onset`: arrest stops placing breaths entirely;
    decrement multiplies the grid period by (1 + rate) per breath, with
    onsets nudged so consecutive inhale-to-inhale gaps strictly
    increase. A uniform noise floor runs throughout. At a short period or
    a wide jitter a burst can start before the one placed ahead of it;
    the bursts then overlap, and the truth lists every onset in time order.
    A burst that jitter pushes before 0 s is left out, and so is an exhale
    that runs past the end; the first inhale that runs past the end stops
    the scenario.
    """
    rng = np.random.default_rng(spec.seed)
    n = int(spec.duration * dsp.SAMPLE_RATE)
    audio = rng.uniform(-1.0, 1.0, n) * spec.noise_floor
    onsets: list[tuple[float, str]] = []
    grid = 2.0 + rng.uniform(0.0, 0.5)
    period = spec.base_period
    prev_inhale = None
    prev_gap = None
    while True:
        t_in = grid + rng.normal(0.0, spec.jitter_sd)
        decrementing = spec.kind == "decrement" and t_in >= spec.onset
        if decrementing and prev_gap is not None:
            t_in = max(t_in, prev_inhale + prev_gap + 0.01)
        if spec.kind == "arrest" and t_in >= spec.onset:
            break
        inhale = _breath_burst("inhale", rng, peak=rng.uniform(0.3, 0.8))
        if t_in >= 0.0:  # an inhale that jitter pushes before 0 s is left out
            if not _place(audio, inhale, t_in):
                break
            onsets.append((t_in, "inhale"))
            if prev_inhale is not None:
                prev_gap = t_in - prev_inhale
            prev_inhale = t_in

        ex_t = t_in + inhale.size / dsp.SAMPLE_RATE + rng.uniform(0.05, 0.15)
        if spec.kind != "arrest" or ex_t < spec.onset:
            exhale = _breath_burst("exhale", rng, peak=rng.uniform(0.3, 0.8))
            if _place(audio, exhale, ex_t):
                onsets.append((ex_t, "exhale"))

        if decrementing:
            period = period * (1.0 + spec.decrement_rate)
        grid = grid + period

    np.clip(audio, -1.0, 1.0, out=audio)
    return dsp.AudioClip(samples=audio), GroundTruth(onsets=tuple(sorted(onsets)))
