"""Labeled clip collection: on-disk layout, deterministic splits, augmentation.

Layout is one subdirectory per class under the corpus root:
root/{inhale,exhale,unknown}/*.wav. Clip IDs are the relative paths, so a
corpus fingerprints and splits identically wherever it is checked out.
A clip's content is its stored 16-bit PCM: the fingerprint hashes that,
and the float64 samples training reads are derived from it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import dsp
from .errors import BreathSentinelError, CorpusTooSmall, EmptyClass

# Split proportions: 1/30 of the corpus is isolated for testing, 1/30 is
# redrawn every epoch as validation, 1/5 is drawn per epoch for training.
# At the reference scale of 1500 clips that is 50 test / 50 validation /
# 300 training drawn from the 1400 left after both removals.
TEST_FRACTION = 30
VALIDATION_FRACTION = 30
TRAIN_FRACTION = 5
MIN_CORPUS_SIZE = 400


# Clips read and converted to float64 at a time: 16 clips are 256 frames,
# one dsp.spectra block, so a block's frames are transformed in one FFT call.
CLIP_BLOCK = dsp.SPECTRA_BLOCK * dsp.FRAME_LEN // dsp.CLIP_SAMPLES


@dataclass(frozen=True)
class Corpus:
    """The usable clip files of a corpus directory, validated but not decoded.

    Row i is the 2-second clip in `paths[i]`, `labels[i]` its class index
    into dsp.LABELS and `ids[i]` its relative path. Samples are read from
    disk only when asked for: `clips(rows)` all at once, `blocks(rows)`
    CLIP_BLOCK clips at a time.
    """

    paths: tuple[Path, ...]
    labels: np.ndarray   # (n,) class indices
    ids: tuple[str, ...]
    load_errors: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ids)

    def _pcm(self, row) -> np.ndarray:
        """The clip at `row` as its stored 16-bit PCM (dsp.read_pcm), length checked."""
        path = self.paths[row]
        pcm = dsp.read_pcm(path)
        _check_length(path, pcm.size)
        return pcm

    def clips(self, rows) -> np.ndarray:
        """The clips at `rows` as float64 samples, scaled as dsp.load_wav scales them."""
        samples = np.empty((len(rows), dsp.CLIP_SAMPLES))
        for out, row in zip(samples, rows):
            out[:] = dsp.pcm_samples(self._pcm(row))
        return samples

    def blocks(self, rows) -> Iterator[tuple[int, np.ndarray]]:
        """(start, clips(rows[start:start + CLIP_BLOCK])) for each block of `rows`."""
        for start in range(0, len(rows), CLIP_BLOCK):
            yield start, self.clips(rows[start:start + CLIP_BLOCK])

    def fingerprint(self) -> str:
        """sha256 over each clip's ID, a NUL byte and its stored little-endian
        16-bit PCM, in ID order; stable across machines."""
        digest = hashlib.sha256()
        for row in np.argsort(self.ids):
            digest.update(self.ids[row].encode("utf-8"))
            digest.update(b"\0")
            digest.update(self._pcm(row).tobytes())
        return digest.hexdigest()


def _check_length(path, count: int) -> None:
    if count != dsp.CLIP_SAMPLES:
        raise BreathSentinelError(f"{path}: expected {dsp.CLIP_SAMPLES} samples (2 s), got {count}")


def load_corpus(root) -> Corpus:
    """Validate every WAV under root/{inhale,exhale,unknown}/ by header and sample count.

    No samples are decoded. Files are taken in class then file-name
    order. Bad files do not abort the scan; their errors are collected
    with their paths. A root or class path that is missing or not a
    directory, and a class with no usable clip at all, raise EmptyClass.
    """
    root = Path(root)
    if not root.is_dir():
        raise EmptyClass(f"corpus root {root} is missing or is not a directory")
    kept: list[tuple[int, Path]] = []
    errors: list[str] = []
    for index, label in enumerate(dsp.LABELS):
        if not (root / label).is_dir():
            raise EmptyClass(f"class path {root / label} is missing or is not a directory")
        for path in sorted((root / label).glob("*.wav")):
            try:
                _check_length(path, dsp.wav_sample_count(path))
            except BreathSentinelError as exc:
                errors.append(str(exc))
                continue
            kept.append((index, path))
    labels = np.array([index for index, _ in kept], dtype=np.intp)
    for index, count in enumerate(np.bincount(labels, minlength=len(dsp.LABELS))):
        if count == 0:
            label = dsp.LABELS[index]
            raise EmptyClass(f"no usable clips for class '{label}' under {root / label}")
    return Corpus(paths=tuple(path for _, path in kept), labels=labels,
                  ids=tuple(f"{dsp.LABELS[index]}/{path.name}" for index, path in kept),
                  load_errors=errors)


@dataclass(frozen=True)
class SplitPlan:
    """Fixed test rows plus a pure per-epoch sampler over the remaining pool.

    Rows index the corpus. The test set is chosen once per seed
    and never reappears; each epoch shuffles the pool, takes the
    validation clips first, then draws the training clips from what is
    left, so train and validation are disjoint within an epoch by
    construction.
    """

    seed: int
    test_rows: np.ndarray
    pool_rows: np.ndarray  # in clip ID order
    validation_size: int
    train_size: int

    def epoch_draw(self, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """(validation_rows, train_rows) for one epoch; pure in (seed, epoch)."""
        rng = np.random.default_rng([self.seed, 1 + epoch])
        order = rng.permutation(len(self.pool_rows))
        val = self.pool_rows[order[:self.validation_size]]
        train = self.pool_rows[order[self.validation_size:self.validation_size + self.train_size]]
        return val, train


def make_split(corpus: Corpus, seed: int) -> SplitPlan:
    """Deterministic split plan for a corpus of at least 400 clips.

    Draws are made over the rows in clip ID order, not load order; only
    the IDs are read.
    """
    n = len(corpus)
    if n < MIN_CORPUS_SIZE:
        raise CorpusTooSmall(f"need at least {MIN_CORPUS_SIZE} clips, got {n}")
    test_size = math.ceil(n / TEST_FRACTION)
    validation_size = math.ceil(n / VALIDATION_FRACTION)
    train_size = n // TRAIN_FRACTION

    id_rows = np.argsort(corpus.ids)
    rng = np.random.default_rng([seed, 0])
    order = rng.permutation(n)
    in_test = np.zeros(n, dtype=bool)
    in_test[order[:test_size]] = True
    return SplitPlan(seed=seed, test_rows=id_rows[order[:test_size]], pool_rows=id_rows[~in_test],
                     validation_size=validation_size, train_size=train_size)


def augment_noise(samples: np.ndarray, seed, amplitude: float | None = None) -> np.ndarray:
    """Add i.i.d. uniform noise in +/-a to every sample, clamped to [-1, 1].

    a is drawn uniformly from [0.005, 0.05] of full scale unless given
    explicitly.
    """
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.005, 0.05)) if amplitude is None else float(amplitude)
    noisy = samples + rng.uniform(-a, a, size=samples.shape)
    return np.clip(noisy, -1.0, 1.0)
