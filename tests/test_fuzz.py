"""Malformed model bundles, WAV files, config files, raw PCM and corpus
directories must end as a typed error, never a traceback.

The bundle, WAV, config and PCM cases run through
``cli.main(["monitor", ...])`` and must give exit 0, or exit 1 with an
``error:`` line on stderr. The corpus cases run ``train-ae``, ``train-rnn``
and ``eval`` on mutated copies of the desk corpus; each must give exit 0,
or exit 1 with exactly one ``error:`` line, and every bundle they write
must round-trip through ``load_model`` and ``save_model`` byte for byte.
Any other exception escapes ``cli.main`` and fails the test.
"""

import contextlib
import io
import shutil
import struct
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from breathsentinel import cli, dsp
from breathsentinel.autoencoder import init_ae
from breathsentinel.model_io import TENSOR_ORDER, ModelBundle, load_model, save_model
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


def _cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one command; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _monitor(model, source: str, *extra: str) -> tuple[int, str]:
    # overflow in a wild weight is a warning, and the NaN it leads to a typed error
    with np.errstate(over="ignore", invalid="ignore"):
        return _cli(["monitor", "--model", str(model), "--input", source, *extra])


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


# --- the training path ---

TRAINING = ["--epochs", "1", "--seed", "3"]
WAV_RATE_OFFSET = 24  # the sample rate field of the canonical 44-byte header


def _cut(path, rng, fields) -> None:
    """Cut the file short, at one of the offsets in `fields` or anywhere, evenly often."""
    data = path.read_bytes()
    cut = rng.choice(fields) if rng.integers(2) else rng.integers(0, len(data))
    path.write_bytes(data[:int(cut)])


def _cut_wav(path, rng) -> None:
    _cut(path, rng, range(WAV_HEADER_BYTES))


def _wrong_rate(path, rng) -> None:
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, WAV_RATE_OFFSET, int(rng.choice([8000, 16000, 44100])))
    path.write_bytes(bytes(data))


def _wrong_length(path, rng) -> None:
    count = dsp.CLIP_SAMPLES + int(rng.choice([-dsp.FRAME_LEN, -1, 1, dsp.FRAME_LEN]))
    dsp.write_wav(path, rng.uniform(-0.5, 0.5, count))


WAV_MUTATIONS = {"truncated_wavs": _cut_wav, "wrong_rate_wavs": _wrong_rate,
                 "wrong_length_wavs": _wrong_length}
MUTATED_WAVS = 3  # leaves 417 of the desk corpus's 420 clips, above the 400 a split needs
# exit codes of train-ae, train-rnn and eval
TRAINING_CASES = {**{name: (0, 0, 0) for name in WAV_MUTATIONS},
                  "empty_class_directory": (1, 1, 1), "file_for_class_directory": (1, 1, 1),
                  "cut_train_ae_bundle": (0, 1, 1), "cut_train_rnn_bundle": (0, 0, 1)}


def _assert_round_trips(bundle, tmp_path) -> None:
    again = tmp_path / "again.bsm"
    save_model(load_model(bundle), again)
    assert again.read_bytes() == bundle.read_bytes(), bundle


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", TRAINING_CASES)
def test_mutated_corpus_or_bundle_ends_training_in_exit_zero_or_one_error(
        desk_corpus_dir, tmp_path, case, seed):
    rng = np.random.default_rng([list(TRAINING_CASES).index(case), seed])
    corpus = tmp_path / "corpus"
    shutil.copytree(desk_corpus_dir, corpus)
    if case in WAV_MUTATIONS:
        wavs = sorted(corpus.rglob("*.wav"))
        for index in rng.choice(len(wavs), MUTATED_WAVS, replace=False):
            WAV_MUTATIONS[case](wavs[index], rng)
    elif case == "empty_class_directory":
        for wav in (corpus / "exhale").glob("*.wav"):
            wav.unlink()
    elif case == "file_for_class_directory":
        shutil.rmtree(corpus / "unknown")
        (corpus / "unknown").write_bytes(b"inhale_0000.wav\n")

    codes = []

    def run(*argv: str) -> int:
        code, err = _cli([*argv, "--corpus", str(corpus)])
        lines = err.splitlines()
        assert all(line.startswith(("skipped,", "warning: ", "error: ")) for line in lines), err
        assert sum(line.startswith("error: ") for line in lines) == code, err
        skipped = sum(line.startswith("skipped,") for line in lines)
        assert skipped == (MUTATED_WAVS if case in WAV_MUTATIONS else 0), err
        codes.append(code)
        return code

    ae, classifier = tmp_path / "ae.bsm", tmp_path / "rnn.bsm"
    if run("train-ae", "--out", str(ae), *TRAINING) == 0:
        _assert_round_trips(ae, tmp_path)
        if case == "cut_train_ae_bundle":
            _cut(ae, rng, _field_bytes(ae.read_bytes()))
    if run("train-rnn", "--model", str(ae), "--out", str(classifier), *TRAINING) == 0:
        _assert_round_trips(classifier, tmp_path)
        if case == "cut_train_rnn_bundle":
            _cut(classifier, rng, _field_bytes(classifier.read_bytes()))
    run("eval", "--model", str(classifier if classifier.exists() else ae))
    assert tuple(codes) == TRAINING_CASES[case]
