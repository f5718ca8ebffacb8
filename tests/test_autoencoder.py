import math

import numpy as np
import pytest

from breathsentinel import autoencoder as ae
from breathsentinel.config import RunConfig
from breathsentinel.errors import DivergedLoss
from helpers import grad_check


def random_frame(seed=0, bins=ae.DIMS[0]):
    return np.random.default_rng(seed).uniform(0, 1, bins)


def synthetic_frames(n, seed=0):
    """Smooth band-shaped half spectra, roughly what the DSP front end emits."""
    rng = np.random.default_rng(seed)
    bins = np.arange(ae.DIMS[0])
    frames = []
    for _ in range(n):
        center = rng.uniform(50, 400)
        width = rng.uniform(30, 120)
        shape = np.exp(-0.5 * ((bins - center) / width) ** 2)
        frames.append(np.clip(shape * rng.uniform(0.2, 0.9), 0, 1))
    return np.stack(frames)


def masked_sigmoid(z):
    """The logistic function built through boolean-mask indexing, as an oracle."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# --- initialization ---

def test_init_is_deterministic_per_seed():
    a = ae.init_ae(11)
    b = ae.init_ae(11)
    for name, tensor in a.to_dict().items():
        assert np.array_equal(tensor, getattr(b, name))


def test_init_differs_between_seeds():
    a, b = ae.init_ae(1), ae.init_ae(2)
    assert not np.array_equal(a.enc_w1, b.enc_w1)


def test_init_weight_mean_near_zero():
    params = ae.init_ae(3)
    assert abs(float(params.enc_w1.mean())) < 0.01  # 513*256 samples of uniform


def test_init_biases_zero():
    params = ae.init_ae(4)
    assert not params.enc_b1.any() and not params.dec_b2.any()


# --- forward passes ---

def test_encode_zero_weights_gives_zero_code():
    params = ae.init_ae(0)
    zeroed = ae.AEParams.from_dict({k: np.zeros_like(v) for k, v in params.to_dict().items()})
    assert not ae.encode(zeroed, random_frame()).any()


def test_encode_is_deterministic():
    params = ae.init_ae(5)
    frame = random_frame(1)
    assert np.array_equal(ae.encode(params, frame), ae.encode(params, frame))


def test_encode_matches_per_neuron_oracle():
    params = ae.init_ae(6)
    frame = random_frame(2)
    code = ae.encode(params, frame)
    # naive per-neuron dot products over the 513 bins, no matrix ops
    h1 = np.array([math.tanh(float(np.sum(frame * params.enc_w1[:, j])) + params.enc_b1[j])
                   for j in range(256)])
    expected = np.array([math.tanh(float(np.sum(h1 * params.enc_w2[:, j])) + params.enc_b2[j])
                         for j in range(50)])
    assert np.max(np.abs(code - expected)) < 1e-6


def test_encode_batch_matches_encode_row_by_row():
    params = ae.init_ae(14)
    half = np.random.default_rng(15).uniform(0, 1, (64, 513))
    codes = ae.encode_batch(params, half)
    rows = np.stack([ae.encode(params, frame) for frame in half])
    assert np.max(np.abs(codes - rows)) < 1e-12


def test_sigmoid_matches_the_masked_form():
    rng = np.random.default_rng(18)
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 800.0, -800.0, 36.0, -36.0]
    z = np.concatenate([rng.normal(0, 10, 4991), specials]).reshape(-1, 10)
    assert np.array_equal(ae._sigmoid(z), masked_sigmoid(z), equal_nan=True)
    assert ae._sigmoid(z).shape == z.shape


def two_branch_sigmoid(z):
    """1 / (1 + e) for z >= 0 and e / (1 + e) below, e = exp(-|z|), as two divisions."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_has_the_bits_of_the_two_branch_formula(dtype):
    rng = np.random.default_rng(19)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 88.0, -88.0, 800.0, -800.0, 1e-30, -1e-30]
    z = np.concatenate([rng.normal(0, 10, 20000), specials]).astype(dtype)
    got, expected = ae._sigmoid(z), two_branch_sigmoid(z)
    assert got.dtype == expected.dtype == dtype
    assert np.array_equal(got.view(np.uint8), expected.view(np.uint8))


def test_reconstruction_stays_in_unit_interval():
    params = ae.init_ae(7)
    recon, mse = ae.reconstruct(params, random_frame(3))
    assert recon.shape == (513,)
    assert np.all((recon > 0) & (recon < 1))
    assert mse >= 0.0


def test_bin_weights_count_each_half_bin_as_its_full_spectrum_bins():
    w = ae.BIN_WEIGHTS
    assert w.shape == (513,) and w[0] == w[512] == 1 / 1024
    assert np.all(w[1:512] == 2 / 1024) and w.sum() == 1.0


def test_mse_is_the_mean_squared_error():
    def full(half):  # the 1024-bin spectrum, bin 1024-k repeating bin k
        return np.concatenate([half, half[-2:0:-1]])

    params = ae.init_ae(8)
    frame = random_frame(4)
    recon, mse = ae.reconstruct(params, frame)
    assert mse == pytest.approx(float(np.sum(ae.BIN_WEIGHTS * (recon - frame) ** 2)), rel=1e-12)
    assert ae.batch_mse(params, frame[None, :]) == pytest.approx(mse, rel=1e-12)
    assert mse == pytest.approx(float(np.mean((full(recon) - full(frame)) ** 2)), rel=1e-12)


def test_latent_dimension_is_50():
    params = ae.init_ae(9)
    assert ae.encode(params, random_frame()).shape == (50,)
    assert ae.encode_batch(params, np.zeros((3, 513))).shape == (3, 50)


# --- gradients ---

def test_backward_matches_finite_differences():
    params = ae.init_ae(10)
    x = random_frame(5)[None, :]
    grads, _ = ae.ae_backward_batch(params, x)

    def loss(tensors):
        return ae.batch_mse(ae.AEParams.from_dict(tensors), x)

    err = grad_check(loss, params.to_dict(), grads, sample=8,
                     rng=np.random.default_rng(0))
    assert err <= 1e-4


def test_zero_input_zero_bias_first_layer_gradient_is_zero():
    params = ae.init_ae(11)
    grads, _ = ae.ae_backward_batch(params, np.zeros((1, 513)))
    assert not grads["enc_w1"].any()  # chain rule: dL/dW1 = x^T * dh1, x = 0
    assert grads["enc_b1"].any()


def test_gradient_norm_small_after_convergence():
    # a tiny frame set makes the minimum reachable within the test budget
    frames = synthetic_frames(2, seed=1)
    params, trace = ae.train_ae(frames, RunConfig(ae_epochs=3000, ae_batch=8, seed=1,
                                                  ae_learning_rate=0.1))
    grads, _ = ae.ae_backward_batch(params, frames)
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert norm < 1e-3
    assert trace[-1] < trace[0]


# --- training ---

def test_zero_epochs_returns_initialized_params():
    frames = synthetic_frames(4)
    params, trace = ae.train_ae(frames, RunConfig(ae_epochs=0, seed=21))
    reference = ae.init_ae(21)
    for name, tensor in params.to_dict().items():
        assert np.array_equal(tensor, getattr(reference, name))
    assert trace == []


def test_training_reduces_loss_and_stays_finite():
    frames = synthetic_frames(300, seed=2)
    params, trace = ae.train_ae(frames, RunConfig(ae_epochs=200, ae_batch=128, seed=2))
    assert all(math.isfinite(v) for v in trace)
    assert trace[-1] < trace[0] / 2
    # smoothed over 10-epoch windows the loss trends down; the 5% slack
    # absorbs mini-batch reshuffling noise
    smoothed = [float(np.mean(trace[i:i + 10])) for i in range(0, 200, 10)]
    assert all(b <= a * 1.05 for a, b in zip(smoothed, smoothed[1:]))


def test_training_is_deterministic():
    frames = synthetic_frames(40, seed=3)
    cfg = RunConfig(ae_epochs=5, ae_batch=16, seed=33)
    p1, t1 = ae.train_ae(frames, cfg)
    p2, t2 = ae.train_ae(frames, cfg)
    assert t1 == t2
    for name, tensor in p1.to_dict().items():
        assert np.array_equal(tensor, getattr(p2, name))


def test_diverged_loss_detected(monkeypatch):
    # bounded activations keep honest training finite, so force the
    # failure mode to check the guard itself
    frames = synthetic_frames(16, seed=4)

    def broken_backward(params, x):
        return {k: np.zeros_like(v) for k, v in params.to_dict().items()}, float("nan")

    monkeypatch.setattr(ae, "ae_backward_batch", broken_backward)
    with pytest.raises(DivergedLoss):
        ae.train_ae(frames, RunConfig(ae_epochs=1, ae_batch=16, seed=4))
