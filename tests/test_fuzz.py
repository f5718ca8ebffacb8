"""Malformed model bundles, WAV files, config files and raw PCM must end as a
typed error, never a traceback.

Every case runs through ``cli.main(["monitor", ...])`` and must give exit
0, or exit 1 with an ``error:`` line on stderr. Any other exception
escapes ``cli.main`` and fails the test.
"""

import contextlib
import io
import struct
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from breathsentinel import cli, dsp
from breathsentinel.autoencoder import init_ae
from breathsentinel.model_io import TENSOR_ORDER, ModelBundle, save_model
from breathsentinel.rnn import init_rnn

FUZZ = settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
FRAME_BYTES = 2 * dsp.FRAME_LEN
WAV_HEADER_BYTES = 44
CONFIG = (b"# detection settings\nseed=11\nconfidence=0.99\nrun_length=3\n"
          b"interval_window=20\ntrend_alpha=0.05\nci_level=0.8\nrefractory=1.0\n"
          b"noise_aug=true\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_model(ModelBundle(ae=init_ae(0), rnn=init_rnn(0), metadata={"seed": "0"}),
               root / "valid.bsm")
    # 20 frames: the first window completes at frame 16
    dsp.write_wav(root / "short.wav",
                  np.random.default_rng(0).uniform(-0.5, 0.5, 20 * dsp.FRAME_LEN))
    return root


def _field_bytes(data: bytes) -> list[int]:
    """Offsets of every byte outside the tensor values: header, ranks, dims, metadata."""
    offsets = list(range(8))
    pos = 8
    for _ in TENSOR_ORDER:
        rank = struct.unpack_from("<I", data, pos)[0]
        dims = struct.unpack_from(f"<{rank}I", data, pos + 4)
        offsets.extend(range(pos, pos + 4 * (rank + 1)))
        pos += 4 * (rank + 1) + 4 * int(np.prod(dims))
    offsets.extend(range(pos, len(data)))
    return offsets


@st.composite
def mutations(draw, data: bytes, fields):
    """Bit flips, a truncation or a spliced tail, mostly aimed at the offsets in `fields`."""
    position = st.one_of(st.sampled_from(fields), st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(("flip", "truncate", "splice")))
    if kind == "flip":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(position)] ^= 1 << draw(st.integers(0, 7))
        return bytes(out)
    cut = draw(position)
    tail = draw(st.binary(max_size=64)) if kind == "splice" else b""
    return data[:cut] + tail


@st.composite
def wav_mutations(draw, data: bytes):
    """The mutations above aimed at the header, bytes inserted into it, or a rewritten chunk size."""
    kind = draw(st.sampled_from(("mutate", "insert", "size")))
    if kind == "mutate":
        return draw(mutations(data, range(WAV_HEADER_BYTES)))
    if kind == "insert":
        cut = draw(st.integers(0, WAV_HEADER_BYTES))
        return data[:cut] + draw(st.binary(min_size=1, max_size=64)) + data[cut:]
    at = draw(st.sampled_from((4, 16, 40)))  # the RIFF, 'fmt ' and 'data' chunk sizes
    size = draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 64),
                          st.integers(len(data) - 64, len(data) + 64)))
    return data[:at] + struct.pack("<I", size) + data[at + 4:]


def _monitor(model, source: str, *extra: str) -> tuple[int, str]:
    err = io.StringIO()
    # overflow in a wild weight is a warning, and the NaN it leads to a typed error
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["monitor", "--model", str(model), "--input", source, *extra])
    return code, err.getvalue()


@FUZZ
@given(data=st.data())
def test_mutated_bundle_ends_in_a_typed_error(workdir, data):
    bundle = (workdir / "valid.bsm").read_bytes()
    blob = data.draw(mutations(bundle, _field_bytes(bundle)))
    model = workdir / "mutated.bsm"
    model.write_bytes(blob)
    code, err = _monitor(model, str(workdir / "short.wav"))
    assert code == 0 or (code == 1 and err.startswith("error: ")), (code, err)


@FUZZ
@given(n_bytes=st.integers(0, 24 * FRAME_BYTES + 3), seed=st.integers(0, 2**32 - 1),
       fill=st.sampled_from(("random", "zeros", "max", "min")))
def test_raw_pcm_ends_in_exit_zero_or_a_typed_error(workdir, n_bytes, seed, fill):
    sample = {"zeros": b"\x00\x00", "max": b"\xff\x7f", "min": b"\x00\x80"}.get(fill)
    if sample is None:
        pcm = np.random.default_rng(seed).bytes(n_bytes)
    else:
        pcm = (sample * (n_bytes // 2 + 1))[:n_bytes]
    stdin = type("FakeStdin", (), {"buffer": io.BytesIO(pcm)})()
    with mock.patch.object(sys, "stdin", stdin):
        code, err = _monitor(workdir / "valid.bsm", "-")
    # any bytes are valid PCM: only a stream shorter than one frame is an error
    if n_bytes < FRAME_BYTES:
        assert code == 1 and err.startswith("error: need at least 1024 samples"), (code, err)
    else:
        assert code == 0, err


@FUZZ
@given(data=st.data())
def test_mutated_wav_header_ends_in_a_typed_error(workdir, data):
    blob = data.draw(wav_mutations((workdir / "short.wav").read_bytes()))
    wav = workdir / "mutated.wav"
    wav.write_bytes(blob)
    code, err = _monitor(workdir / "valid.bsm", str(wav))
    assert code == 0 or (code == 1 and err.startswith("error: ")), (code, err)


@FUZZ
@given(data=st.data())
def test_mutated_config_ends_in_a_typed_error(workdir, data):
    cfg = workdir / "mutated.cfg"
    cfg.write_bytes(data.draw(mutations(CONFIG, range(len(CONFIG)))))
    code, err = _monitor(workdir / "valid.bsm", str(workdir / "short.wav"), "--config", str(cfg))
    assert code == 0 or (code == 1 and err.startswith("error: ")), (code, err)
