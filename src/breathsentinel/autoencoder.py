"""Spectral compression: 513 half-spectrum bins -> 50 latent values.

Encoder 513-256-50 and decoder 50-256-513, tanh hidden layers, logistic
sigmoid output so reconstructions match the [0, 1] normalized spectra.
The 50-value bottleneck activation is the latent code handed to the
classifier; training is plain reconstruction, no labels involved.

The loss is a bin-weighted mean squared error. Bins 1..511 of the half
spectrum stand for two bins of the full 1024-bin spectrum (k and
1024-k), bins 0 and 512 for one, so they weigh 2/1024 and 1/1024: the
weights sum to 1 and the loss is the mse over the full spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .dsp import FRAME_LEN, SPECTRUM_BINS
from .errors import DivergedLoss, NonFiniteActivation
from .optim import AdagradState, Params, adagrad_step

DIMS = (SPECTRUM_BINS, 256, 50, 256, SPECTRUM_BINS)
LATENT_DIM = DIMS[2]
BIN_WEIGHTS = np.full(SPECTRUM_BINS, 2.0 / FRAME_LEN)
BIN_WEIGHTS[[0, -1]] = 1.0 / FRAME_LEN


@dataclass
class AEParams(Params):
    """Weights and biases of the reconstruction network, layer by layer."""

    enc_w1: np.ndarray  # (513, 256)
    enc_b1: np.ndarray  # (256,)
    enc_w2: np.ndarray  # (256, 50)
    enc_b2: np.ndarray  # (50,)
    dec_w1: np.ndarray  # (50, 256)
    dec_b1: np.ndarray  # (256,)
    dec_w2: np.ndarray  # (256, 513)
    dec_b2: np.ndarray  # (513,)

    def shapes(self) -> dict[str, tuple[int, ...]]:
        d0, d1, d2, d3, d4 = DIMS
        return {
            "enc_w1": (d0, d1), "enc_b1": (d1,),
            "enc_w2": (d1, d2), "enc_b2": (d2,),
            "dec_w1": (d2, d3), "dec_b1": (d3,),
            "dec_w2": (d3, d4), "dec_b2": (d4,),
        }


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
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _forward(params: AEParams, x: np.ndarray):
    """All layer activations for a (batch, 513) input."""
    h1 = np.tanh(x @ params.enc_w1 + params.enc_b1)
    code = np.tanh(h1 @ params.enc_w2 + params.enc_b2)
    h2 = np.tanh(code @ params.dec_w1 + params.dec_b1)
    recon = _sigmoid(h2 @ params.dec_w2 + params.dec_b2)
    return h1, code, h2, recon


def _weighted_mse(recon: np.ndarray, x: np.ndarray) -> float:
    return float(np.mean((recon - x) ** 2 @ BIN_WEIGHTS))


def encode_batch(params: AEParams, x: np.ndarray) -> np.ndarray:
    """Latent codes, shape (batch, 50), for a (batch, 513) matrix of half spectra."""
    h1 = np.tanh(x @ params.enc_w1 + params.enc_b1)
    code = np.tanh(h1 @ params.enc_w2 + params.enc_b2)
    if not np.isfinite(code).all():
        raise NonFiniteActivation("encoder produced non-finite activations")
    return code


def encode(params: AEParams, spectrum: np.ndarray) -> np.ndarray:
    """Encoder half for one (513,) half spectrum; returns its (50,) latent code.

    Computes in the dtype of the weights: the spectrum is cast to it first,
    so float32 weights (`params.astype(np.float32)`) give a float32 code.
    """
    x = spectrum.astype(params.enc_w1.dtype, copy=False)
    return encode_batch(params, x[None, :])[0]


def reconstruct(params: AEParams, spectrum: np.ndarray) -> tuple[np.ndarray, float]:
    """Full forward pass on a (513,) half spectrum.

    Returns the reconstruction in (0,1)^513 and its bin-weighted mse.
    """
    _, _, _, recon = _forward(params, spectrum[None, :])
    if not np.isfinite(recon).all():
        raise NonFiniteActivation("decoder produced non-finite activations")
    return recon[0], _weighted_mse(recon, spectrum[None, :])


def batch_mse(params: AEParams, x: np.ndarray) -> float:
    """Mean bin-weighted reconstruction mse over a (batch, 513) matrix, the training loss."""
    _, _, _, recon = _forward(params, x)
    return _weighted_mse(recon, x)


def ae_backward_batch(params: AEParams, x: np.ndarray) -> tuple[dict[str, np.ndarray], float]:
    """Analytic gradients of the mean bin-weighted mse over a (batch, 513) matrix."""
    h1, code, h2, recon = _forward(params, x)
    loss = _weighted_mse(recon, x)

    dlogits = (2.0 / x.shape[0]) * BIN_WEIGHTS * (recon - x) * recon * (1.0 - recon)
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


def train_ae(frames: np.ndarray, cfg: RunConfig) -> tuple[AEParams, list[float]]:
    """Adagrad minimization of the bin-weighted mse on (n, 513) normalized half spectra.

    Reads `seed`, `ae_epochs`, `ae_batch` and `ae_learning_rate` from
    `cfg`. Returns the trained parameters and the per-epoch mean loss
    trace; fully deterministic for a fixed config.
    """
    x = np.ascontiguousarray(frames, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != SPECTRUM_BINS:
        raise ValueError(f"frames must have shape (n, {SPECTRUM_BINS}), got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("need at least one frame to train on")
    if cfg.ae_batch < 1:
        raise ValueError(f"batch must be >= 1, got {cfg.ae_batch}")

    params = init_ae(cfg.seed)
    tensors = params.to_dict()
    state = AdagradState.for_params(tensors, cfg.ae_learning_rate)
    rng = np.random.default_rng([cfg.seed, 0xAE])
    trace: list[float] = []
    for epoch in range(cfg.ae_epochs):
        order = rng.permutation(x.shape[0])
        losses = []
        for start in range(0, order.size, cfg.ae_batch):
            grads, loss = ae_backward_batch(params, x[order[start:start + cfg.ae_batch]])
            losses.append(loss)
            adagrad_step(tensors, grads, state)
        epoch_loss = float(np.mean(losses))
        if not math.isfinite(epoch_loss):
            raise DivergedLoss(f"epoch {epoch}: reconstruction loss became {epoch_loss}")
        trace.append(epoch_loss)
    return params, trace
