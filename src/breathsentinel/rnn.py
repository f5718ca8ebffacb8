"""Many-to-one recurrent classifier over a 2-second window of latent frames.

A window is one clip's 16 frames, and each frame is the compressor's
50-value latent code. A single tanh hidden layer (75 units by default) is
unrolled across the frames of a window; three independent sigmoid
outputs - inhale, exhale, unknown - are read from the final hidden state
only. tanh keeps the recurrence bounded; sigmoid keeps confidences positive. Training is
per-class binary cross-entropy against one-hot targets with backprop
through time, per-clip Adagrad updates, and gradient clipping as a second
guard against blow-ups. Only the error passed back through the recurrence
is stepped frame by frame; a window's input and recurrent weight gradients
are then one matrix product each over its 16 steps, and the bias gradient
one column sum.

Training and evaluation turn corpus rows into codes one way: clips are
read 16 at a time, noise-augmented when training asks for it, and each
block goes through dsp.spectra and one encoder product. No code is kept
from one epoch to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import corpus as corpus_mod
from . import dsp
from .autoencoder import LATENT_DIM, AEParams, _glorot, _sigmoid, encode_batch
from .config import RunConfig
from .errors import DivergedLoss, EmptyEvalSet, NonFiniteActivation
from .optim import AdagradState, Params, adagrad_step, clip_gradients

N_CLASSES = len(dsp.LABELS)
WINDOW_FRAMES = dsp.CLIP_SAMPLES // dsp.FRAME_LEN  # one clip per window
GRAD_CLIP_NORM = 5.0


@dataclass
class RNNParams(Params):
    """Recurrent classifier weights; hidden size is read from the shapes."""

    w_xh: np.ndarray  # (50, hidden)
    w_hh: np.ndarray  # (hidden, hidden)
    b_h: np.ndarray   # (hidden,)
    w_hy: np.ndarray  # (hidden, 3)
    b_y: np.ndarray   # (3,)

    def shapes(self) -> dict[str, tuple[int, ...]]:
        hidden = self.hidden
        return {"w_xh": (LATENT_DIM, hidden), "w_hh": (hidden, hidden), "b_h": (hidden,),
                "w_hy": (hidden, N_CLASSES), "b_y": (N_CLASSES,)}

    @property
    def hidden(self) -> int:
        return self.w_hh.shape[0]


def init_rnn(seed, hidden: int = RunConfig.rnn_hidden) -> RNNParams:
    """Fan-balanced uniform weights, zero biases, zero initial hidden state."""
    rng = np.random.default_rng(seed)
    return RNNParams(
        w_xh=_glorot(rng, LATENT_DIM, hidden),
        w_hh=_glorot(rng, hidden, hidden),
        b_h=np.zeros(hidden),
        w_hy=_glorot(rng, hidden, N_CLASSES),
        b_y=np.zeros(N_CLASSES),
    )


def _forward_codes(params: RNNParams, codes: np.ndarray):
    """Run the recurrence over (..., t, 50) codes, one window per leading index.

    Returns (h, scores): h has shape (t+1, ..., hidden), time first, with
    h[0] the zero initial state; scores shape (..., 3) from the final
    hidden state only.
    """
    x_proj = codes @ params.w_xh + params.b_h
    x_proj = x_proj.transpose(x_proj.ndim - 2, *range(x_proj.ndim - 2), -1)  # time first
    h = np.zeros((x_proj.shape[0] + 1,) + x_proj.shape[1:])
    for t in range(x_proj.shape[0]):
        h[t + 1] = np.tanh(x_proj[t] + h[t] @ params.w_hh)
    scores = _sigmoid(h[-1] @ params.w_hy + params.b_y)
    return h, scores


def advance(params: RNNParams, states: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Feed one (50,) code to the 16 windows in flight, in place, with one product.

    `states` is (16, hidden): row r is the hidden state of the window that
    has taken r + 1 codes. Every window takes the new code at the same
    step, so row r + 1 becomes tanh(x + row r @ w_hh) and row 0 starts a
    new window from the zero state. Returns `states`. Computes in the
    dtype of the weights, which `states` and `code` must share: float32
    in the monitor, float64 in tests that hold it to the per-window
    recurrence.
    """
    x = code @ params.w_xh + params.b_h
    pre = states[:-1] @ params.w_hh
    pre += x
    np.tanh(pre, out=states[1:])
    np.tanh(x, out=states[0])
    return states


def rnn_forward(params: RNNParams, states: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Advance the windows in flight by `code` and score the one it completes.

    After `advance`, row 15 of `states` is the final hidden state of the
    window of the last 16 codes; it alone produces output: three
    independent sigmoid confidences ordered (inhale, exhale, unknown),
    not a distribution, in the dtype of the weights. With float64
    weights, the same scores as _forward_codes on those codes.
    """
    advance(params, states, code)
    scores = _sigmoid(states[-1] @ params.w_hy + params.b_y)
    if not np.isfinite(scores).all():
        raise NonFiniteActivation("classifier produced non-finite scores")
    return scores


def classify(scores: np.ndarray) -> tuple[str, float]:
    """Argmax label and its confidence; ties resolve to the earliest class."""
    idx = int(np.argmax(scores))
    return dsp.LABELS[idx], float(scores[idx])


def bce_loss(scores: np.ndarray, target: np.ndarray) -> float:
    """Summed per-class binary cross-entropy against a one-hot target."""
    s = np.clip(scores, 1e-12, 1.0 - 1e-12)
    return float(-np.sum(target * np.log(s) + (1.0 - target) * np.log(1.0 - s)))


def _backward_codes(params: RNNParams, codes: np.ndarray,
                    target: np.ndarray) -> tuple[dict[str, np.ndarray], float]:
    """Exact BPTT gradients of the per-class BCE loss for one window.

    Only the error carried back through w_hh is sequential; the loop stores
    each step's pre-activation error as a row of `draws`, and the weight
    gradients, sums of outer products over time, are then one product each.
    """
    h, scores = _forward_codes(params, codes)
    loss = bce_loss(scores, target)
    t_len = codes.shape[0]

    dlogits = scores - target  # sigmoid + BCE
    g_w_hy = np.outer(h[t_len], dlogits)
    g_b_y = dlogits.copy()

    dact = 1.0 - h[1:] * h[1:]
    draws = np.empty_like(dact)  # (t_len, hidden)
    dh = params.w_hy @ dlogits
    for t in range(t_len - 1, -1, -1):
        np.multiply(dh, dact[t], out=draws[t])
        dh = params.w_hh @ draws[t]

    grads = {"w_xh": codes.T @ draws, "w_hh": h[:-1].T @ draws, "b_h": draws.sum(axis=0),
             "w_hy": g_w_hy, "b_y": g_b_y}
    return grads, loss


def one_hot(label: int) -> np.ndarray:
    """Target vector for the class index `label` into dsp.LABELS."""
    target = np.zeros(N_CLASSES)
    target[label] = 1.0
    return target


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


def _encode_samples(ae: AEParams, clips: np.ndarray) -> np.ndarray:
    """(n_clips, 16384) float64 clips -> (n_clips, 16, 50) latent codes, one encoder product."""
    spectra = dsp.spectra(clips.reshape(-1, dsp.FRAME_LEN))
    return encode_batch(ae, spectra).reshape(-1, WINDOW_FRAMES, LATENT_DIM)


def _corpus_codes(ae: AEParams, corpus: "corpus_mod.Corpus", rows,
                  noise_seeds=None) -> np.ndarray:
    """(len(rows), 16, 50) latent codes of the corpus clips at `rows`.

    The one path from corpus rows to codes: clips are read and encoded
    corpus.CLIP_BLOCK at a time. With `noise_seeds`, one per row, each
    clip is first noise-augmented with its seed.
    """
    codes = np.empty((len(rows), WINDOW_FRAMES, LATENT_DIM))
    for start, block in corpus.blocks(rows):
        if noise_seeds is not None:
            for clip, seed in zip(block, noise_seeds[start:]):
                clip[:] = corpus_mod.augment_noise(clip, int(seed))
        codes[start:start + len(block)] = _encode_samples(ae, block)
    return codes


def _metrics_from_predictions(labels: np.ndarray, predicted: np.ndarray) -> EvalMetrics:
    """Metrics from true and predicted class indices into dsp.LABELS."""
    cells = N_CLASSES * labels + predicted
    confusion = np.bincount(cells, minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)
    accuracy = float(np.trace(confusion)) / max(1, len(labels))
    tp = np.diag(confusion).astype(np.float64)
    denom = 2 * tp + (confusion.sum(axis=0) - tp) + (confusion.sum(axis=1) - tp)
    f1 = np.divide(2 * tp, denom, out=np.zeros(N_CLASSES), where=denom > 0)
    return EvalMetrics(accuracy=accuracy, f1=dict(zip(dsp.LABELS, f1.tolist())),
                       macro_f1=float(np.mean(f1)), confusion=confusion)


def evaluate(params: RNNParams, ae: AEParams, corpus: "corpus_mod.Corpus",
             rows) -> EvalMetrics:
    """Accuracy, per-class and macro F1, and the 3x3 confusion matrix.

    Scores the corpus clips at `rows` against their labels.
    """
    if len(rows) == 0:
        raise EmptyEvalSet("no clips to evaluate")
    _, scores = _forward_codes(params, _corpus_codes(ae, corpus, rows))
    return _metrics_from_predictions(corpus.labels[rows], scores.argmax(axis=-1))


def train_rnn(corpus: "corpus_mod.Corpus", ae: AEParams,
              cfg: RunConfig) -> tuple[RNNParams, list[EpochMetrics]]:
    """Train the classifier on a frozen autoencoder's codes.

    Per epoch: draw that epoch's validation and training clips from the
    split plan, optionally noise-augment the training clips in the time
    domain, re-run the DFFT + encoder on them, then apply one clipped
    Adagrad update per clip. Validation accuracy is scored on the epoch's
    dynamically drawn validation clips; the isolated test clips are never
    touched here. Reads `seed`, `rnn_epochs`, `rnn_learning_rate`,
    `rnn_hidden` and `noise_aug` from `cfg`. Deterministic per seed.
    """
    plan = corpus_mod.make_split(corpus, cfg.seed)

    params = init_rnn(cfg.seed, cfg.rnn_hidden)
    tensors = params.to_dict()
    state = AdagradState.for_params(tensors, cfg.rnn_learning_rate)
    aug_rng = np.random.default_rng([cfg.seed, 0x5EED])

    trace: list[EpochMetrics] = []
    for epoch in range(cfg.rnn_epochs):
        val_rows, train_rows = plan.epoch_draw(epoch)
        seeds = aug_rng.integers(0, 2**63, size=len(train_rows)) if cfg.noise_aug else None
        losses = []
        for seq, label in zip(_corpus_codes(ae, corpus, train_rows, seeds),
                              corpus.labels[train_rows]):
            grads, loss = _backward_codes(params, seq, one_hot(label))
            losses.append(loss)
            clip_gradients(grads, GRAD_CLIP_NORM)
            adagrad_step(tensors, grads, state)
        epoch_loss = float(np.mean(losses))
        if not math.isfinite(epoch_loss):
            raise DivergedLoss(f"epoch {epoch}: training loss became {epoch_loss}")
        val_acc = evaluate(params, ae, corpus, val_rows).accuracy
        trace.append(EpochMetrics(epoch=epoch, train_loss=epoch_loss, val_accuracy=val_acc))
    return params, trace
