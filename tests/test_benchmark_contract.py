"""The benchmark's worker wraps package attributes by name; they must stay bound.

perfbench/worker.py records its layer spans by replacing module attributes
(``cli.infer_stream``, ``dsp.dfft_magnitude``, ``rnn._encode_samples``, ...).
A refactor that renames or removes one of them breaks ``--trace 0`` and
``--trace 1`` without any other test noticing, so this test installs the
worker's hooks and tracer in a fresh process, runs a short monitor and a
one-epoch train-ae through them, and checks the per-layer counts.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from breathsentinel import dsp
from breathsentinel.autoencoder import init_ae
from breathsentinel.model_io import ModelBundle, save_model
from breathsentinel.rnn import init_rnn

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SCRIPT = """
import contextlib, json, sys, time
sys.path.insert(0, sys.argv[1])
import worker

hooks = worker.Hooks()
hooks.install()
tracer = worker.Tracer()
worker.install_tracer(tracer)
hooks.tracer = tracer
ops = []
for op, argv in enumerate(json.loads(sys.argv[2])):
    tracer.op = op
    started = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        assert worker.cli.main(argv) == 0, argv
    ops.append({"index": op, "name": argv[0], "wall": time.perf_counter() - started})
metrics = worker.layer_metrics(tracer, ops, {"ae_epochs": 1})
print(json.dumps({name: value for name, (value, _unit) in metrics.items()}))
"""


def test_worker_hooks_and_tracer_find_every_layer(tmp_path, desk_corpus_dir):
    model = tmp_path / "random.bsm"
    save_model(ModelBundle(ae=init_ae(0), rnn=init_rnn(0)), model)
    wav = tmp_path / "three_seconds.wav"
    dsp.write_wav(wav, np.random.default_rng(1).uniform(-0.5, 0.5, 3 * dsp.SAMPLE_RATE))
    argv = [
        ["monitor", "--model", str(model), "--input", str(wav)],
        ["train-ae", "--corpus", str(desk_corpus_dir), "--out", str(tmp_path / "ae.bsm"),
         "--epochs", "1", "--seed", "1"],
    ]
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(PERFBENCH), json.dumps(argv)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])

    monitor_frames, corpus_frames = 24, 3 * 140 * 16
    assert metrics["dsp.frames"] == monitor_frames + corpus_frames
    assert metrics["rnn.windows"] == monitor_frames - 15
    assert metrics["stream.predictions"] == monitor_frames - 15
    assert metrics["vigil.ticks"] == monitor_frames - 15
    for name in ("dsp.fft_us_per_frame", "dsp.normalize_us_per_frame",
                 "autoencoder.encode_us_per_frame", "stream.self_us_per_frame",
                 "cli.input_us_per_frame", "autoencoder.epoch_s", "model_io.load_ms"):
        assert metrics[name] > 0, name
