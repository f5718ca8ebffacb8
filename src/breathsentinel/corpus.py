"""Labeled clip collection: on-disk layout, deterministic splits, augmentation.

Layout is one subdirectory per class under the corpus root:
root/{inhale,exhale,unknown}/*.wav. Clip IDs are the relative paths, so a
corpus fingerprints and splits identically wherever it is checked out.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

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


@dataclass
class Corpus:
    """Clips as one sample matrix, plus any per-file load errors.

    Row i of `samples` is one 2-second clip, `labels[i]` its class index
    into dsp.LABELS and `ids[i]` its relative path.
    """

    samples: np.ndarray  # (n, 16384) float64
    labels: np.ndarray   # (n,) class indices
    ids: tuple[str, ...]
    load_errors: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ids)

    def class_counts(self) -> dict[str, int]:
        counts = np.bincount(self.labels, minlength=len(dsp.LABELS))
        return dict(zip(dsp.LABELS, counts.tolist()))

    def fingerprint(self) -> str:
        """sha256 over clip IDs and sample data, stable across machines."""
        digest = hashlib.sha256()
        for row in np.argsort(self.ids):
            digest.update(self.ids[row].encode("utf-8"))
            digest.update(b"\0")
            digest.update(self.samples[row].tobytes())
        return digest.hexdigest()


def load_corpus(root) -> Corpus:
    """Load and validate every WAV under root/{inhale,exhale,unknown}/.

    Clips fill the rows of one matrix, allocated once for every globbed
    path, in class then file-name order. Bad files do not abort the load;
    their errors are collected on the returned corpus with their paths. A
    class with no usable clip at all raises EmptyClass.
    """
    root = Path(root)
    paths = [(index, path) for index, label in enumerate(dsp.LABELS)
             for path in sorted((root / label).glob("*.wav"))]
    samples = np.empty((len(paths), dsp.CLIP_SAMPLES))
    rows: list[tuple[int, str]] = []
    errors: list[str] = []
    for index, path in paths:
        try:
            clip = dsp.load_wav(path)
            if clip.samples.size != dsp.CLIP_SAMPLES:
                raise BreathSentinelError(
                    f"{path}: expected {dsp.CLIP_SAMPLES} samples (2 s), got {clip.samples.size}"
                )
        except BreathSentinelError as exc:
            errors.append(str(exc))
            continue
        samples[len(rows)] = clip.samples
        rows.append((index, f"{dsp.LABELS[index]}/{path.name}"))
    corpus = Corpus(samples=samples[:len(rows)],
                    labels=np.array([index for index, _ in rows], dtype=np.intp),
                    ids=tuple(clip_id for _, clip_id in rows), load_errors=errors)
    for label, count in corpus.class_counts().items():
        if count == 0:
            raise EmptyClass(f"no usable clips for class '{label}' under {root / label}")
    return corpus


@dataclass(frozen=True)
class SplitPlan:
    """Fixed test rows plus a pure per-epoch sampler over the remaining pool.

    Rows index the corpus matrix. The test set is chosen once per seed
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

    Draws are made over the rows in clip ID order, not load order.
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
