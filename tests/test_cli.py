import io
import re
import tracemalloc

import numpy as np
import pytest

from breathsentinel import cli, dsp, rnn
from breathsentinel.model_io import ModelBundle, load_model, save_model
from breathsentinel.autoencoder import encode_batch, init_ae
from breathsentinel.rnn import init_rnn
from breathsentinel.synthgen import ScenarioSpec, gen_scenario


@pytest.fixture(scope="module")
def tiny_corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_corpus")
    assert cli.main(["synth", "corpus", "--out", str(root), "--per-class", "10",
                     "--seed", "3"]) == 0
    return root


@pytest.fixture(scope="module")
def untrained_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "untrained.bsm"
    save_model(ModelBundle(ae=init_ae(0), rnn=init_rnn(0), metadata={"seed": "0"}), path)
    return path


# --- exit codes and usage ---

def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 64
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["transcode"]) == 64


def test_missing_required_flag_is_usage_error(capsys):
    assert cli.main(["eval", "--corpus", "somewhere"]) == 64
    err = capsys.readouterr().err
    assert "usage" in err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out or True


def test_runtime_error_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.bsm"
    code = cli.main(["eval", "--model", str(missing), "--corpus", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_bad_config_value_exits_one(tmp_path, tiny_corpus_dir, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("confidence=0.2\n")
    code = cli.main(["train-ae", "--corpus", str(tiny_corpus_dir),
                     "--out", str(tmp_path / "m.bsm"), "--config", str(cfg)])
    assert code == 1


# --- synth ---

def test_synth_corpus_writes_labeled_tree(tiny_corpus_dir):
    for label in dsp.LABELS:
        assert len(list((tiny_corpus_dir / label).glob("*.wav"))) == 10


def test_synth_scenario_writes_wav_and_truth(tmp_path):
    wav, csv = tmp_path / "s.wav", tmp_path / "s.csv"
    code = cli.main(["synth", "scenario", "--kind", "arrest", "--out", str(wav),
                     "--truth", str(csv), "--duration", "90", "--onset", "45",
                     "--seed", "2"])
    assert code == 0
    assert dsp.load_wav(wav).samples.size == 90 * 8192
    header, first = csv.read_text().splitlines()[:2]
    assert header == "time_s,kind"
    assert first.endswith(",inhale")


# --- training commands ---

def test_train_ae_writes_bundle(tiny_corpus_dir, tmp_path):
    out = tmp_path / "ae.bsm"
    code = cli.main(["train-ae", "--corpus", str(tiny_corpus_dir), "--out", str(out),
                     "--epochs", "2", "--seed", "5"])
    assert code == 0
    bundle = load_model(out)
    assert bundle.metadata["ae_epochs"] == "2"
    assert bundle.metadata["rnn_epochs"] == "0"
    assert "corpus_fingerprint" in bundle.metadata


def test_train_rnn_zero_epochs_writes_valid_bundle(desk_corpus_dir, tmp_path):
    ae_path, out = tmp_path / "ae.bsm", tmp_path / "full.bsm"
    assert cli.main(["train-ae", "--corpus", str(desk_corpus_dir), "--out", str(ae_path),
                     "--epochs", "0", "--seed", "6"]) == 0
    code = cli.main(["train-rnn", "--corpus", str(desk_corpus_dir),
                     "--model", str(ae_path), "--out", str(out),
                     "--epochs", "0", "--seed", "6"])
    assert code == 0
    bundle = load_model(out)
    assert bundle.metadata["rnn_epochs"] == "0"
    assert "rnn_val_accuracy_final" not in bundle.metadata
    reference = init_rnn(6)
    assert np.array_equal(bundle.rnn.w_hh, reference.w_hh.astype(np.float32).astype(np.float64))


def test_train_rnn_on_tiny_corpus_reports_corpus_too_small(tiny_corpus_dir, tmp_path,
                                                           untrained_model, capsys):
    code = cli.main(["train-rnn", "--corpus", str(tiny_corpus_dir),
                     "--model", str(untrained_model), "--out", str(tmp_path / "x.bsm")])
    assert code == 1
    assert "400" in capsys.readouterr().err


# --- eval / monitor / simulate ---

def test_eval_prints_metrics(desk_corpus_dir, tmp_path, capsys):
    ae_path = tmp_path / "ae.bsm"
    cli.main(["train-ae", "--corpus", str(desk_corpus_dir), "--out", str(ae_path),
              "--epochs", "0", "--seed", "6"])
    capsys.readouterr()
    assert cli.main(["eval", "--model", str(ae_path), "--corpus",
                     str(desk_corpus_dir)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("clips,14")
    assert "macro_f1," in out
    assert "confusion_inhale," in out


def test_monitor_runs_on_wav(untrained_model, tmp_path, capsys):
    wav = tmp_path / "quiet.wav"
    dsp.write_wav(wav, np.zeros(8192 * 4))
    assert cli.main(["monitor", "--model", str(untrained_model),
                     "--input", str(wav)]) == 0


def _monitor_with_model_bytes(data: bytes, tmp_path, capsys) -> str:
    model = tmp_path / "damaged.bsm"
    model.write_bytes(data)
    wav = tmp_path / "quiet.wav"
    dsp.write_wav(wav, np.zeros(8192 * 4))
    assert cli.main(["monitor", "--model", str(model), "--input", str(wav)]) == 1
    return capsys.readouterr().err


def test_monitor_rejects_non_utf8_metadata(untrained_model, tmp_path, capsys):
    data = untrained_model.read_bytes()
    assert data.endswith(b"seed=0\n")
    err = _monitor_with_model_bytes(data[:-2] + b"\xff\n", tmp_path, capsys)
    assert "UTF-8" in err


def test_monitor_rejects_transposed_tensor_dims(untrained_model, tmp_path, capsys):
    data = bytearray(untrained_model.read_bytes())
    # ae.enc_w1 is the first tensor: rank at offset 8, then dims 1024 and 256
    assert data[8:20] == b"".join(n.to_bytes(4, "little") for n in (2, 1024, 256))
    data[12:20] = data[16:20] + data[12:16]
    err = _monitor_with_model_bytes(bytes(data), tmp_path, capsys)
    assert "enc_w1" in err


def test_monitor_rejects_trailing_bytes(untrained_model, tmp_path, capsys):
    err = _monitor_with_model_bytes(untrained_model.read_bytes() + b"\0", tmp_path, capsys)
    assert "1 unexpected bytes" in err


def test_monitor_too_short_wav_is_empty_clip(untrained_model, tmp_path, capsys):
    wav = tmp_path / "short.wav"
    dsp.write_wav(wav, np.zeros(1023))
    assert cli.main(["monitor", "--model", str(untrained_model), "--input", str(wav)]) == 1
    assert "need at least 1024 samples" in capsys.readouterr().err


def _peak_monitor_bytes(model, wav) -> int:
    tracemalloc.start()
    try:
        assert cli.main(["monitor", "--model", str(model), "--input", str(wav)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monitor_memory_does_not_grow_with_the_input(untrained_model, tmp_path, capsys):
    short, long = tmp_path / "one_minute.wav", tmp_path / "ten_minutes.wav"
    dsp.write_wav(short, np.zeros(60 * dsp.SAMPLE_RATE))
    dsp.write_wav(long, np.zeros(600 * dsp.SAMPLE_RATE))
    peak_short = _peak_monitor_bytes(untrained_model, short)
    peak_long = _peak_monitor_bytes(untrained_model, long)
    assert peak_long <= 1.5 * peak_short, (peak_short, peak_long)


MONITOR_LINE = re.compile(r"\d+\.\d{3},(inhale|exhale)|\d+\.\d{3},(arrest|trend),-?[\d.]+,-?[\d.]+")


@pytest.fixture(scope="module")
def breathing_wav(tmp_path_factory):
    clip, _ = gen_scenario(ScenarioSpec(kind="normal", duration=20.0, onset=10.0, seed=4))
    path = tmp_path_factory.mktemp("breathing") / "breathing.wav"
    dsp.write_wav(path, clip.samples)
    return path


def _saturated_model(tmp_path, part, name, scale):
    bundle = ModelBundle(ae=init_ae(1), rnn=init_rnn(1), metadata={})
    params = getattr(bundle, part)
    setattr(params, name, getattr(params, name) * scale)
    path = tmp_path / f"{name}_x{scale:g}.bsm"
    save_model(bundle, path)
    return load_model(path), path


def _monitor_lines(model_path, wav, capsys) -> list[str]:
    assert cli.main(["monitor", "--model", str(model_path), "--input", str(wav)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(MONITOR_LINE.fullmatch(line) for line in lines), lines
    return lines


def test_monitor_accepts_codes_saturated_at_one(breathing_wav, tmp_path, capsys):
    bundle, path = _saturated_model(tmp_path, "ae", "enc_w2", 400.0)
    spectra = dsp.spectra(dsp.frame_signal(dsp.load_wav(breathing_wav)))
    assert np.abs(encode_batch(bundle.ae, spectra)).max() == 1.0  # tanh saturated exactly
    _monitor_lines(path, breathing_wav, capsys)


def test_monitor_accepts_scores_saturated_at_one(breathing_wav, tmp_path, capsys):
    bundle, path = _saturated_model(tmp_path, "rnn", "w_hy", 1000.0)
    frames = dsp.frame_signal(dsp.load_wav(breathing_wav))
    codes = encode_batch(bundle.ae, dsp.spectra(frames[:rnn.WINDOW_FRAMES]))
    assert rnn.rnn_forward(bundle.rnn, codes).max() == 1.0  # sigmoid saturated exactly
    assert _monitor_lines(path, breathing_wav, capsys)


def test_monitor_non_finite_activation_exits_one(untrained_model, breathing_wav, capsys,
                                                 monkeypatch):
    bundle = load_model(untrained_model)
    bundle.rnn.w_hy[0, 0] = float("nan")  # past the load-time finiteness check
    monkeypatch.setattr(cli, "load_model", lambda path: bundle)
    assert cli.main(["monitor", "--model", str(untrained_model),
                     "--input", str(breathing_wav)]) == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "stream position 1.875 s" in err


def test_monitor_stdin_matches_file(untrained_model, tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(8)
    samples = rng.uniform(-0.5, 0.5, 8192 * 6)
    wav = tmp_path / "noise.wav"
    dsp.write_wav(wav, samples)
    assert cli.main(["monitor", "--model", str(untrained_model), "--input", str(wav)]) == 0
    from_file = capsys.readouterr().out

    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    monkeypatch.setattr("sys.stdin", type("FakeStdin", (), {"buffer": io.BytesIO(pcm)})())
    assert cli.main(["monitor", "--model", str(untrained_model), "--input", "-"]) == 0
    from_stdin = capsys.readouterr().out
    assert from_stdin == from_file


def test_simulate_writes_report_and_exit_code(untrained_model, tmp_path):
    report = tmp_path / "report.csv"
    code = cli.main(["simulate", "--model", str(untrained_model), "--scenario", "normal",
                     "--duration", "20", "--onset", "10", "--seed", "4",
                     "--report", str(report)])
    # untrained model produces no confident events, so no alerts
    assert code == 0
    text = report.read_text()
    assert text.startswith("report,simulate")
    assert "false_positives," in text
    assert "recall," in text


def test_simulate_determinism(untrained_model, tmp_path):
    reports = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.csv"
        cli.main(["simulate", "--model", str(untrained_model), "--scenario", "normal",
                  "--duration", "15", "--onset", "5", "--seed", "9",
                  "--report", str(path)])
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_config_file_supplies_paths(tiny_corpus_dir, untrained_model, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus_dir={tiny_corpus_dir}\nmodel_path={untrained_model}\n")
    out = tmp_path / "from_config.bsm"
    assert cli.main(["train-ae", "--out", str(out), "--epochs", "0",
                     "--config", str(cfg)]) == 0
    assert out.exists()
    # still a usage error when neither flag nor config has the path
    assert cli.main(["train-ae", "--out", str(out), "--epochs", "0"]) == 64
    assert "corpus" in capsys.readouterr().err


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("BREATHSENTINEL_SEED", "1000")
    out_a = tmp_path / "a"
    cli.main(["synth", "corpus", "--out", str(out_a), "--per-class", "10", "--seed", "1"])
    monkeypatch.delenv("BREATHSENTINEL_SEED")
    out_b = tmp_path / "b"
    cli.main(["synth", "corpus", "--out", str(out_b), "--per-class", "10", "--seed", "1000"])
    a = sorted(p.read_bytes() for p in out_a.rglob("*.wav"))
    b = sorted(p.read_bytes() for p in out_b.rglob("*.wav"))
    assert a == b
