"""Spectral compression: 1024 magnitude bins -> 50 latent values.

Encoder 1024-256-50 and decoder 50-256-1024, tanh hidden layers, logistic
sigmoid output so reconstructions match the [0, 1] normalized spectra.
The 50-value bottleneck activation is the latent code handed to the
classifier; training is plain reconstruction (mean squared error), no
labels involved.

The public functions take the 513-bin half spectra the DSP front end
emits. The 1024-bin layout stays in here: `mirror` rebuilds the full
spectrum for the decoder target and for ae_backward_batch, and the
encoder multiplies half spectra by `fold(enc_w1)`, a 513-row first
layer with the weights of mirrored bins k and 1024-k summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergedLoss, NonFiniteActivation
from .optim import AdagradState, adagrad_step

DIMS = (1024, 256, 50, 256, 1024)
LATENT_DIM = DIMS[2]
HALF_BINS = DIMS[0] // 2 + 1  # 513: bins 0..512; bin 1024-k mirrors bin k
TENSOR_NAMES = ("enc_w1", "enc_b1", "enc_w2", "enc_b2",
                "dec_w1", "dec_b1", "dec_w2", "dec_b2")


@dataclass
class AEParams:
    """Weights and biases of the reconstruction network, layer by layer."""

    enc_w1: np.ndarray  # (1024, 256)
    enc_b1: np.ndarray  # (256,)
    enc_w2: np.ndarray  # (256, 50)
    enc_b2: np.ndarray  # (50,)
    dec_w1: np.ndarray  # (50, 256)
    dec_b1: np.ndarray  # (256,)
    dec_w2: np.ndarray  # (256, 1024)
    dec_b2: np.ndarray  # (1024,)

    def __post_init__(self):
        d0, d1, d2, d3, d4 = DIMS
        expected = {
            "enc_w1": (d0, d1), "enc_b1": (d1,),
            "enc_w2": (d1, d2), "enc_b2": (d2,),
            "dec_w1": (d2, d3), "dec_b1": (d3,),
            "dec_w2": (d3, d4), "dec_b2": (d4,),
        }
        for name, shape in expected.items():
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")

    def to_dict(self) -> dict[str, np.ndarray]:
        """Name -> array view of the live parameter tensors (shared, not copied)."""
        return {name: getattr(self, name) for name in TENSOR_NAMES}

    @classmethod
    def from_dict(cls, tensors: dict[str, np.ndarray]) -> "AEParams":
        return cls(**{name: tensors[name] for name in TENSOR_NAMES})


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_ae(seed) -> AEParams:
    """Fan-balanced uniform weights, zero biases; bit-reproducible per seed."""
    rng = np.random.default_rng(seed)
    d0, d1, d2, d3, d4 = DIMS
    return AEParams(
        enc_w1=_glorot(rng, d0, d1), enc_b1=np.zeros(d1),
        enc_w2=_glorot(rng, d1, d2), enc_b2=np.zeros(d2),
        dec_w1=_glorot(rng, d2, d3), dec_b1=np.zeros(d3),
        dec_w2=_glorot(rng, d3, d4), dec_b2=np.zeros(d4),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def mirror(half: np.ndarray) -> np.ndarray:
    """(..., 513) half spectra -> (..., 1024) full spectra, bin k > 512 set to bin 1024-k."""
    return np.concatenate([half, half[..., -2:0:-1]], axis=-1)


def fold(w1: np.ndarray) -> np.ndarray:
    """(1024, h) first-layer weights -> (513, h): rows 0 and 512 as they are,
    row k plus row 1024-k for 0 < k < 512, so half @ fold(w1) == mirror(half) @ w1.

    A fresh array each call: train_ae updates enc_w1 in place, so callers
    fold once per pass over the data and never keep the result on AEParams.
    """
    folded = w1[:HALF_BINS].copy()
    folded[1:-1] += w1[HALF_BINS:][::-1]
    return folded


def _forward(params: AEParams, x: np.ndarray):
    """All layer activations for a (batch, 1024) input."""
    h1 = np.tanh(x @ params.enc_w1 + params.enc_b1)
    code = np.tanh(h1 @ params.enc_w2 + params.enc_b2)
    h2 = np.tanh(code @ params.dec_w1 + params.dec_b1)
    recon = _sigmoid(h2 @ params.dec_w2 + params.dec_b2)
    return h1, code, h2, recon


def encode_batch(params: AEParams, x: np.ndarray, w1: np.ndarray | None = None) -> np.ndarray:
    """Latent codes, shape (batch, 50), for a (batch, 513) matrix of half spectra.

    `w1` is fold(params.enc_w1), folded here when not given; a caller that
    encodes frame after frame with the same weights folds once and passes it.
    """
    if w1 is None:
        w1 = fold(params.enc_w1)
    h1 = np.tanh(x @ w1 + params.enc_b1)
    code = np.tanh(h1 @ params.enc_w2 + params.enc_b2)
    if not np.isfinite(code).all():
        raise NonFiniteActivation("encoder produced non-finite activations")
    return code


def encode(params: AEParams, spectrum: np.ndarray, w1: np.ndarray | None = None) -> np.ndarray:
    """Encoder half for one (513,) half spectrum; returns its (50,) latent code."""
    return encode_batch(params, spectrum[None, :], w1)[0]


def reconstruct(params: AEParams, spectrum: np.ndarray) -> tuple[np.ndarray, float]:
    """Full forward pass on a (513,) half spectrum.

    Returns the reconstruction in (0,1)^1024 and its mse against the
    mirrored 1024-bin input.
    """
    full = mirror(spectrum)
    _, _, _, recon = _forward(params, full[None, :])
    recon = recon[0]
    if not np.isfinite(recon).all():
        raise NonFiniteActivation("decoder produced non-finite activations")
    mse = float(np.mean((recon - full) ** 2))
    return recon, mse


def full_mse(params: AEParams, x: np.ndarray) -> float:
    """Mean reconstruction mse over a (batch, 1024) matrix, the loss ae_backward_batch takes."""
    _, _, _, recon = _forward(params, x)
    return float(np.mean((recon - x) ** 2))


def batch_mse(params: AEParams, x: np.ndarray) -> float:
    """Mean reconstruction mse over a (batch, 513) matrix of half spectra."""
    return full_mse(params, mirror(x))


def ae_backward_batch(params: AEParams, x: np.ndarray) -> tuple[dict[str, np.ndarray], float]:
    """Analytic gradients of the mean reconstruction mse over a (batch, 1024) matrix."""
    h1, code, h2, recon = _forward(params, x)
    b, d = x.shape
    loss = float(np.mean((recon - x) ** 2))

    dlogits = (2.0 / (b * d)) * (recon - x) * recon * (1.0 - recon)
    g_dec_w2 = h2.T @ dlogits
    g_dec_b2 = dlogits.sum(axis=0)
    dh2 = (dlogits @ params.dec_w2.T) * (1.0 - h2 * h2)
    g_dec_w1 = code.T @ dh2
    g_dec_b1 = dh2.sum(axis=0)
    dcode = (dh2 @ params.dec_w1.T) * (1.0 - code * code)
    g_enc_w2 = h1.T @ dcode
    g_enc_b2 = dcode.sum(axis=0)
    dh1 = (dcode @ params.enc_w2.T) * (1.0 - h1 * h1)
    g_enc_w1 = x.T @ dh1
    g_enc_b1 = dh1.sum(axis=0)

    grads = {
        "enc_w1": g_enc_w1, "enc_b1": g_enc_b1,
        "enc_w2": g_enc_w2, "enc_b2": g_enc_b2,
        "dec_w1": g_dec_w1, "dec_b1": g_dec_b1,
        "dec_w2": g_dec_w2, "dec_b2": g_dec_b2,
    }
    return grads, loss


@dataclass
class AETrainConfig:
    epochs: int = 200
    batch: int = 128
    seed: int = 0
    learning_rate: float = 0.05


def train_ae(frames: np.ndarray, config: AETrainConfig) -> tuple[AEParams, list[float]]:
    """Adagrad minimization of the mean mse on (n, 513) normalized half spectra.

    Each minibatch is mirrored to 1024 bins as it is drawn. Returns the
    trained parameters and the per-epoch mean loss trace; fully
    deterministic for a fixed config.
    """
    x = np.ascontiguousarray(frames, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != HALF_BINS:
        raise ValueError(f"frames must have shape (n, {HALF_BINS}), got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("need at least one frame to train on")
    if config.batch < 1:
        raise ValueError(f"batch must be >= 1, got {config.batch}")

    params = init_ae(config.seed)
    tensors = params.to_dict()
    state = AdagradState.for_params(tensors, config.learning_rate)
    rng = np.random.default_rng([config.seed, 0xAE])
    trace: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(x.shape[0])
        losses = []
        for start in range(0, order.size, config.batch):
            batch = mirror(x[order[start:start + config.batch]])
            grads, loss = ae_backward_batch(params, batch)
            losses.append(loss)
            adagrad_step(tensors, grads, state)
        epoch_loss = float(np.mean(losses))
        if not math.isfinite(epoch_loss):
            raise DivergedLoss(f"epoch {epoch}: reconstruction loss became {epoch_loss}")
        trace.append(epoch_loss)
    return params, trace
