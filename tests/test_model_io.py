import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from breathsentinel import dsp
from breathsentinel.autoencoder import encode_batch, init_ae
from breathsentinel.errors import (
    BadMagic,
    CorruptModel,
    DivergedLoss,
    TruncatedFile,
    VersionMismatch,
)
from breathsentinel.model_io import (
    FORMAT_VERSION,
    MAGIC,
    ModelBundle,
    TENSOR_ORDER,
    load_model,
    save_model,
)
from breathsentinel.rnn import init_rnn

FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture" / "desk_model.bsm"
V1_SHAPES = {"ae.enc_w1": (1024, 256), "ae.dec_w2": (256, 1024), "ae.dec_b2": (1024,)}


def mirror(half):
    """(..., 513) half spectra -> (..., 1024) full spectra, bin 1024-k repeating bin k."""
    return np.concatenate([half, half[..., -2:0:-1]], axis=-1)


def unfolded_codes(tensors, half):
    """A format-1 encoder as stored: a plain 1024-input network on mirrored spectra."""
    h1 = np.tanh(mirror(half) @ tensors["ae.enc_w1"] + tensors["ae.enc_b1"])
    return np.tanh(h1 @ tensors["ae.enc_w2"] + tensors["ae.enc_b2"])


def v1_tensors(seed=3):
    """Float32-exact tensors in the format-1 shapes: a 1024-256-50-256-1024 compressor."""
    rng = np.random.default_rng(seed)
    template = ModelBundle(ae=init_ae(seed), rnn=init_rnn(seed))
    shapes = {name: template.tensor(name).shape for name in TENSOR_ORDER} | V1_SHAPES
    return {name: rng.uniform(-0.3, 0.3, shape).astype(np.float32).astype(np.float64)
            for name, shape in shapes.items()}


def v1_bytes(tensors) -> bytes:
    """A bundle in the format-1 layout with metadata "seed=3", written without save_model."""
    out = bytearray(MAGIC + struct.pack("<I", 1))
    for name in TENSOR_ORDER:
        arr = np.asarray(tensors[name], dtype="<f4")
        out += struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape) + arr.tobytes()
    return bytes(out + struct.pack("<I", 7) + b"seed=3\n")


@pytest.fixture()
def bundle():
    return ModelBundle(ae=init_ae(5), rnn=init_rnn(5),
                       metadata={"seed": "5", "rnn_epochs": "0"})


def test_save_load_round_trip_is_bit_identical(bundle, tmp_path):
    path = tmp_path / "model.bsm"
    save_model(bundle, path)
    first = path.read_bytes()
    loaded = load_model(path)
    save_model(loaded, path)
    assert path.read_bytes() == first
    for name in TENSOR_ORDER:
        original32 = bundle.tensor(name).astype(np.float32)
        assert np.array_equal(loaded.tensor(name), original32.astype(np.float64))
    assert loaded.metadata == bundle.metadata


def test_magic_and_version_header(bundle, tmp_path):
    path = tmp_path / "model.bsm"
    save_model(bundle, path)
    data = path.read_bytes()
    assert data[:4] == MAGIC
    assert int.from_bytes(data[4:8], "little") == FORMAT_VERSION


def test_corrupted_magic_rejected(bundle, tmp_path):
    path = tmp_path / "model.bsm"
    save_model(bundle, path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(BadMagic):
        load_model(path)


def test_version_mismatch_rejected(bundle, tmp_path):
    path = tmp_path / "model.bsm"
    save_model(bundle, path)
    data = bytearray(path.read_bytes())
    data[4:8] = (FORMAT_VERSION + 1).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(VersionMismatch):
        load_model(path)


def test_saved_bundle_is_format_2_with_513_bin_layers(bundle, tmp_path):
    path = tmp_path / "model.bsm"
    save_model(bundle, path)
    data = path.read_bytes()
    assert FORMAT_VERSION == 2 and data[4:8] == (2).to_bytes(4, "little")
    # ae.enc_w1 is the first tensor: rank 2, dims 513 and 256
    assert struct.unpack_from("<3I", data, 8) == (2, 513, 256)
    values = sum(bundle.tensor(name).size for name in TENSOR_ORDER)
    header = 8 + sum(4 * (1 + bundle.tensor(name).ndim) for name in TENSOR_ORDER)
    assert len(data) == header + 4 * values + 4 + len(b"rnn_epochs=0\nseed=5\n")
    assert 1_150_000 < len(data) < 1_250_000


def test_v1_bundle_loads_with_the_encoder_folded_and_the_decoder_averaged(tmp_path):
    tensors = v1_tensors()
    path = tmp_path / "v1.bsm"
    path.write_bytes(v1_bytes(tensors))
    loaded = load_model(path)
    assert loaded.metadata == {"seed": "3"}

    w1, enc_w1 = tensors["ae.enc_w1"], loaded.ae.enc_w1
    assert enc_w1.shape == (513, 256)
    assert np.array_equal(enc_w1[0], w1[0]) and np.array_equal(enc_w1[512], w1[512])
    for k in (1, 200, 511):
        assert np.array_equal(enc_w1[k], w1[k] + w1[1024 - k])  # summed in float64
    dec_w2, dec_b2 = tensors["ae.dec_w2"], tensors["ae.dec_b2"]
    assert loaded.ae.dec_w2.shape == (256, 513) and loaded.ae.dec_b2.shape == (513,)
    for k in (0, 512):
        assert np.array_equal(loaded.ae.dec_w2[:, k], dec_w2[:, k])
        assert loaded.ae.dec_b2[k] == dec_b2[k]
    for k in (1, 300, 511):
        assert np.array_equal(loaded.ae.dec_w2[:, k], (dec_w2[:, k] + dec_w2[:, 1024 - k]) / 2)
        assert loaded.ae.dec_b2[k] == (dec_b2[k] + dec_b2[1024 - k]) / 2
    for name in set(TENSOR_ORDER) - set(V1_SHAPES):
        assert np.array_equal(loaded.tensor(name), tensors[name]), name

    half = np.random.default_rng(15).uniform(0, 1, (64, 513))
    assert np.max(np.abs(encode_batch(loaded.ae, half) - unfolded_codes(tensors, half))) < 1e-12


def test_v1_fixture_codes_match_its_unfolded_layer():
    data = FIXTURE.read_bytes()
    assert len(data) == 2_244_960 and data[4:8] == (1).to_bytes(4, "little")
    assert struct.unpack_from("<3I", data, 8) == (2, 1024, 256)
    stored = {"ae.enc_w1": np.frombuffer(data, "<f4", 1024 * 256, 20).reshape(1024, 256)}
    loaded = load_model(FIXTURE)
    for name in ("ae.enc_b1", "ae.enc_w2", "ae.enc_b2"):
        stored[name] = loaded.tensor(name)
    frames = np.random.default_rng(8).uniform(-0.5, 0.5, (64, dsp.FRAME_LEN))
    half = dsp.spectra(frames)
    assert np.max(np.abs(encode_batch(loaded.ae, half) - unfolded_codes(stored, half))) < 1e-12


def test_v1_header_on_a_513_bin_bundle_is_corrupt(bundle, tmp_path):
    path = tmp_path / "model.bsm"
    save_model(bundle, path)
    data = bytearray(path.read_bytes())
    data[4:8] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptModel, match="format 1 tensor ae.enc_w1"):
        load_model(path)


@pytest.mark.parametrize("name", TENSOR_ORDER)
@pytest.mark.parametrize("reshape", ["grow", "shrink", "rank"])
def test_v1_bundle_with_a_wrong_shape_is_corrupt(tmp_path, name, reshape):
    tensors = v1_tensors()
    arr = tensors[name]
    if reshape == "grow":
        arr = np.concatenate([arr, arr[:1]])
    elif reshape == "shrink":
        arr = arr[1:]
    else:
        arr = arr.ravel() if arr.ndim == 2 else arr[None, :]
    tensors[name] = arr
    path = tmp_path / "v1.bsm"
    path.write_bytes(v1_bytes(tensors))
    with pytest.raises(CorruptModel):
        load_model(path)


def test_v1_bundle_resaves_as_format_2(tmp_path):
    v1, v2 = tmp_path / "v1.bsm", tmp_path / "v2.bsm"
    v1.write_bytes(v1_bytes(v1_tensors()))
    save_model(load_model(v1), v2)
    data = v2.read_bytes()
    assert data[4:8] == (2).to_bytes(4, "little") and len(data) < len(v1.read_bytes()) * 0.6
    assert load_model(v2).ae.enc_w1.shape == (513, 256)


def test_truncation_names_the_tensor(bundle, tmp_path):
    path = tmp_path / "model.bsm"
    save_model(bundle, path)
    data = path.read_bytes()
    # cut inside the first tensor's payload; the message names the file like every load error
    path.write_bytes(data[:2000])
    with pytest.raises(TruncatedFile, match=f"^{re.escape(str(path))}: file ended while "
                                            r"reading tensor ae\.enc_w1 values "):
        load_model(path)


def test_truncation_in_metadata_detected(bundle, tmp_path):
    path = tmp_path / "model.bsm"
    save_model(bundle, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(TruncatedFile,
                       match=f"^{re.escape(str(path))}: file ended while reading metadata "):
        load_model(path)


def test_metadata_rejects_newlines(bundle, tmp_path):
    bundle.metadata["bad"] = "a\nb"
    with pytest.raises(ValueError):
        save_model(bundle, tmp_path / "model.bsm")


def test_identical_bundles_serialize_identically(bundle, tmp_path):
    a, b = tmp_path / "a.bsm", tmp_path / "b.bsm"
    save_model(bundle, a)
    save_model(ModelBundle(ae=init_ae(5), rnn=init_rnn(5),
                           metadata={"seed": "5", "rnn_epochs": "0"}), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name, value", [("ae.enc_w1", 1e300), ("rnn.b_y", -4e38)])
def test_save_rejects_a_tensor_outside_float32_before_writing(bundle, tmp_path, name, value):
    path = tmp_path / "m.bsm"
    path.write_bytes(b"previous")
    bundle.tensor(name).flat[0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning must not escape
        with pytest.raises(DivergedLoss, match=name):
            save_model(bundle, path)
    assert path.read_bytes() == b"previous"
