"""Many-to-one recurrent classifier over a 2-second window of latent frames.

A single tanh hidden layer (75 units by default) is unrolled across the 16
frames of a window; three independent sigmoid outputs - inhale, exhale,
unknown - are read from the final hidden state only. tanh keeps the
recurrence bounded; sigmoid keeps confidences positive. Training is
per-class binary cross-entropy against one-hot targets with backprop
through time, per-clip Adagrad updates, and gradient clipping as a second
guard against blow-ups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import corpus as corpus_mod
from . import dsp
from .autoencoder import AEParams, _glorot, _sigmoid, encode_batch
from .errors import DivergedLoss, EmptyEvalSet, NonFiniteActivation
from .optim import AdagradState, adagrad_step, clip_gradients

CLASSES = ("inhale", "exhale", "unknown")
N_CLASSES = len(CLASSES)
INPUT_DIM = 50
HIDDEN_DEFAULT = 75
WINDOW_FRAMES = 16
GRAD_CLIP_NORM = 5.0
TENSOR_NAMES = ("w_xh", "w_hh", "b_h", "w_hy", "b_y")


@dataclass
class RNNParams:
    """Recurrent classifier weights; hidden size is read from the shapes."""

    w_xh: np.ndarray  # (50, hidden)
    w_hh: np.ndarray  # (hidden, hidden)
    b_h: np.ndarray   # (hidden,)
    w_hy: np.ndarray  # (hidden, 3)
    b_y: np.ndarray   # (3,)

    def __post_init__(self):
        for name in TENSOR_NAMES:
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
        hidden = self.w_hh.shape[0]
        expected = {
            "w_xh": (INPUT_DIM, hidden), "w_hh": (hidden, hidden), "b_h": (hidden,),
            "w_hy": (hidden, N_CLASSES), "b_y": (N_CLASSES,),
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {getattr(self, name).shape}")

    @property
    def hidden(self) -> int:
        return self.w_hh.shape[0]

    def to_dict(self) -> dict[str, np.ndarray]:
        """Name -> array view of the live parameter tensors (shared, not copied)."""
        return {name: getattr(self, name) for name in TENSOR_NAMES}

    @classmethod
    def from_dict(cls, tensors: dict[str, np.ndarray]) -> "RNNParams":
        return cls(**{name: tensors[name] for name in TENSOR_NAMES})


def init_rnn(seed, hidden: int = HIDDEN_DEFAULT) -> RNNParams:
    """Fan-balanced uniform weights, zero biases, zero initial hidden state."""
    rng = np.random.default_rng(seed)
    return RNNParams(
        w_xh=_glorot(rng, INPUT_DIM, hidden),
        w_hh=_glorot(rng, hidden, hidden),
        b_h=np.zeros(hidden),
        w_hy=_glorot(rng, hidden, N_CLASSES),
        b_y=np.zeros(N_CLASSES),
    )


def _forward_codes(params: RNNParams, codes: np.ndarray):
    """Run the recurrence over (t, 50) codes.

    Returns (h, scores): h has shape (t+1, hidden) with h[0] the zero
    initial state, scores shape (3,) from the final hidden state only.
    """
    t_len = codes.shape[0]
    h = np.zeros((t_len + 1, params.hidden))
    x_proj = codes @ params.w_xh + params.b_h
    for t in range(t_len):
        h[t + 1] = np.tanh(x_proj[t] + h[t] @ params.w_hh)
    scores = _sigmoid(h[t_len] @ params.w_hy + params.b_y)
    return h, scores


def rnn_forward(params: RNNParams, codes: np.ndarray) -> np.ndarray:
    """Many-to-one forward pass over a (16, 50) window of latent codes.

    Only the final hidden state produces output: three independent
    sigmoid confidences ordered (inhale, exhale, unknown), not a
    distribution.
    """
    _, scores = _forward_codes(params, codes)
    if not np.isfinite(scores).all():
        raise NonFiniteActivation("classifier produced non-finite scores")
    return scores


def classify(scores: np.ndarray) -> tuple[str, float]:
    """Argmax label and its confidence; ties resolve to the earliest class."""
    idx = int(np.argmax(scores))
    return CLASSES[idx], float(scores[idx])


def bce_loss(scores: np.ndarray, target: np.ndarray) -> float:
    """Summed per-class binary cross-entropy against a one-hot target."""
    s = np.clip(scores, 1e-12, 1.0 - 1e-12)
    return float(-np.sum(target * np.log(s) + (1.0 - target) * np.log(1.0 - s)))


def _backward_codes(params: RNNParams, codes: np.ndarray,
                    target: np.ndarray) -> tuple[dict[str, np.ndarray], float]:
    """Exact BPTT gradients of the per-class BCE loss for one window."""
    h, scores = _forward_codes(params, codes)
    loss = bce_loss(scores, target)
    t_len = codes.shape[0]

    dlogits = scores - target  # sigmoid + BCE
    g_w_hy = np.outer(h[t_len], dlogits)
    g_b_y = dlogits.copy()
    g_w_xh = np.zeros_like(params.w_xh)
    g_w_hh = np.zeros_like(params.w_hh)
    g_b_h = np.zeros_like(params.b_h)

    dh = params.w_hy @ dlogits
    for t in range(t_len - 1, -1, -1):
        draw = dh * (1.0 - h[t + 1] * h[t + 1])
        g_b_h += draw
        g_w_xh += np.outer(codes[t], draw)
        g_w_hh += np.outer(h[t], draw)
        dh = params.w_hh @ draw

    grads = {"w_xh": g_w_xh, "w_hh": g_w_hh, "b_h": g_b_h, "w_hy": g_w_hy, "b_y": g_b_y}
    return grads, loss


def one_hot(label: str) -> np.ndarray:
    target = np.zeros(N_CLASSES)
    target[CLASSES.index(label)] = 1.0
    return target


@dataclass
class RNNTrainConfig:
    epochs: int = 300
    seed: int = 0
    learning_rate: float = 0.01
    noise_aug: bool = True
    hidden: int = HIDDEN_DEFAULT


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    val_accuracy: float


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    f1: dict[str, float]
    macro_f1: float
    confusion: np.ndarray  # (3, 3), rows = truth, cols = prediction


def _encode_samples(ae: AEParams, samples_matrix: np.ndarray) -> np.ndarray:
    """(n_clips, 16384) samples -> (n_clips, 16, 50) latent code sequences."""
    n = samples_matrix.shape[0]
    frames = samples_matrix.reshape(n * WINDOW_FRAMES, dsp.FRAME_LEN)
    return encode_batch(ae, dsp.spectra(frames)).reshape(n, WINDOW_FRAMES, INPUT_DIM)


def _metrics_from_predictions(labels: list[str], predicted: list[str]) -> EvalMetrics:
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for truth, pred in zip(labels, predicted):
        confusion[CLASSES.index(truth), CLASSES.index(pred)] += 1
    accuracy = float(np.trace(confusion)) / max(1, len(labels))
    f1 = {}
    for i, name in enumerate(CLASSES):
        tp = float(confusion[i, i])
        fp = float(confusion[:, i].sum() - confusion[i, i])
        fn = float(confusion[i, :].sum() - confusion[i, i])
        denom = 2 * tp + fp + fn
        f1[name] = (2 * tp / denom) if denom > 0 else 0.0
    macro = float(np.mean([f1[name] for name in CLASSES]))
    return EvalMetrics(accuracy=accuracy, f1=f1, macro_f1=macro, confusion=confusion)


def evaluate(params: RNNParams, ae: AEParams, clips) -> EvalMetrics:
    """Accuracy, per-class and macro F1, and the 3x3 confusion matrix."""
    clips = list(clips)
    if not clips:
        raise EmptyEvalSet("no clips to evaluate")
    samples = np.stack([c.clip.samples for c in clips])
    code_seqs = _encode_samples(ae, samples)
    predicted = []
    for seq in code_seqs:
        _, scores = _forward_codes(params, seq)
        predicted.append(CLASSES[int(np.argmax(scores))])
    return _metrics_from_predictions([c.label for c in clips], predicted)


def train_rnn(corpus: "corpus_mod.Corpus", ae: AEParams,
              config: RNNTrainConfig) -> tuple[RNNParams, list[EpochMetrics]]:
    """Train the classifier on a frozen autoencoder's codes.

    Per epoch: draw that epoch's validation and training clips from the
    split plan, optionally noise-augment the training clips in the time
    domain, re-run the DFFT + encoder on them, then apply one clipped
    Adagrad update per clip. Validation accuracy is scored on the epoch's
    dynamically drawn validation clips; the isolated test clips are never
    touched here. Deterministic per seed.
    """
    plan = corpus_mod.make_split(corpus, config.seed)
    by_id = {c.clip_id: c for c in corpus.clips}

    params = init_rnn(config.seed, config.hidden)
    tensors = params.to_dict()
    state = AdagradState.for_params(tensors, config.learning_rate)
    aug_rng = np.random.default_rng([config.seed, 0x5EED])

    # Unaugmented latent codes for the pool, computed once: validation
    # clips are never augmented, so their codes are fixed for a frozen
    # encoder.
    pool_clips = [by_id[cid] for cid in plan.pool_ids]
    pool_codes = {}
    if pool_clips:
        stacked = _encode_samples(ae, np.stack([c.clip.samples for c in pool_clips]))
        pool_codes = {c.clip_id: stacked[i] for i, c in enumerate(pool_clips)}

    trace: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        val_ids, train_ids = plan.epoch_draw(epoch)
        train_clips = [by_id[cid] for cid in train_ids]

        if config.noise_aug:
            seeds = aug_rng.integers(0, 2**63, size=len(train_clips))
            samples = np.stack([
                corpus_mod.augment_noise(c.clip, int(s)).samples
                for c, s in zip(train_clips, seeds)
            ])
            code_seqs = _encode_samples(ae, samples)
        else:
            code_seqs = np.stack([pool_codes[cid] for cid in train_ids])

        losses = []
        for seq, clip in zip(code_seqs, train_clips):
            grads, loss = _backward_codes(params, seq, one_hot(clip.label))
            losses.append(loss)
            clip_gradients(grads, GRAD_CLIP_NORM)
            adagrad_step(tensors, grads, state)
        epoch_loss = float(np.mean(losses)) if losses else 0.0
        if not math.isfinite(epoch_loss):
            raise DivergedLoss(f"epoch {epoch}: training loss became {epoch_loss}")

        correct = 0
        for cid in val_ids:
            _, scores = _forward_codes(params, pool_codes[cid])
            if CLASSES[int(np.argmax(scores))] == by_id[cid].label:
                correct += 1
        val_acc = correct / len(val_ids) if val_ids else 0.0
        trace.append(EpochMetrics(epoch=epoch, train_loss=epoch_loss, val_accuracy=val_acc))
    return params, trace
