"""The benchmark's worker wraps package attributes by name; they must stay bound.

perfbench/worker.py records its layer spans by replacing module attributes
(``cli.infer_stream``, ``dsp.dfft_magnitude``, ``rnn._encode_samples``, ...).
A refactor that renames or removes one of them breaks ``--trace 0`` and
``--trace 1`` without any other test noticing, so this test installs the
worker's hooks and tracer in a fresh process, runs a short monitor and a
one-epoch train-ae and a one-epoch train-rnn through them, and checks the
per-layer counts. The train-rnn run also pins the training re-encode: its
batched ``fft_radix2`` calls must reach the tracer, or ``dsp.frames`` and
``rnn.reencode_share`` would miss them. The span counts of ``rnn.bptt``
(one per training clip) and ``autoencoder.backward_batch`` (one per
compressor minibatch of 128 frames) pin what a train-desk tick is, so a
change that batched clips or resized minibatches would show here.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from breathsentinel import dsp
from breathsentinel.autoencoder import init_ae
from breathsentinel.corpus import make_split
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
metrics = {name: value for name, (value, _unit) in metrics.items()}
for name in ("rnn.bptt", "autoencoder.backward_batch"):
    metrics["spans:" + name] = sum(1 for span in tracer.spans if span[0] == name)
print(json.dumps(metrics))
"""


def test_worker_hooks_and_tracer_find_every_layer(tmp_path, desk_corpus_dir, desk_corpus):
    model = tmp_path / "random.bsm"
    save_model(ModelBundle(ae=init_ae(0), rnn=init_rnn(0)), model)
    wav = tmp_path / "three_seconds.wav"
    dsp.write_wav(wav, np.random.default_rng(1).uniform(-0.5, 0.5, 3 * dsp.SAMPLE_RATE))
    argv = [
        ["monitor", "--model", str(model), "--input", str(wav)],
        ["train-ae", "--corpus", str(desk_corpus_dir), "--out", str(tmp_path / "ae.bsm"),
         "--epochs", "1", "--seed", "1"],
        ["train-rnn", "--corpus", str(desk_corpus_dir), "--model", str(tmp_path / "ae.bsm"),
         "--out", str(tmp_path / "rnn.bsm"), "--epochs", "1", "--seed", "1"],
    ]
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(PERFBENCH), json.dumps(argv)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])

    monitor_frames, corpus_frames = 24, 3 * 140 * 16
    # train-rnn encodes the epoch's noise-augmented training clips, then
    # scores its validation clips, encoded plain
    plan = make_split(desk_corpus, 1)
    val_rows, train_rows = plan.epoch_draw(0)
    reencode_frames = 16 * (len(val_rows) + len(train_rows))
    assert metrics["dsp.frames"] == monitor_frames + corpus_frames + reencode_frames
    assert metrics["rnn.reencode_share"] > 0
    assert metrics["rnn.windows"] == monitor_frames - 15
    assert metrics["stream.predictions"] == monitor_frames - 15
    assert metrics["vigil.ticks"] == monitor_frames - 15
    # a train-desk tick is one classifier clip or one compressor minibatch
    assert metrics["spans:rnn.bptt"] == len(plan.epoch_draw(0)[1])
    assert metrics["spans:autoencoder.backward_batch"] == math.ceil(corpus_frames / 128)
    for name in ("dsp.fft_us_per_frame", "dsp.normalize_us_per_frame",
                 "autoencoder.encode_us_per_frame", "stream.self_us_per_frame",
                 "cli.input_us_per_frame", "autoencoder.epoch_s", "model_io.load_ms"):
        assert metrics[name] > 0, name


# perfbench/run.py builds each workload's inputs from the package before any
# run; this writes them for every workload, as its set-up does.
SETUP_SCRIPT = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import run
run.verify_fixture()
manifests = {}
for workload in run.WORKLOADS:
    work = Path(sys.argv[3]) / workload
    work.mkdir()
    manifests[workload] = run.make_inputs(workload, 3, work)[0]
print(json.dumps(manifests))
"""


def test_the_benchmark_set_up_writes_every_workloads_inputs(tmp_path):
    done = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(PERFBENCH),
                           str(PERFBENCH.parent / "src"), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    manifests = json.loads(done.stdout.splitlines()[-1])
    assert sorted(manifests) == ["monitor-alarms", "monitor-night", "train-desk"]

    (night,) = manifests["monitor-night"]["ops"]
    wav = tmp_path / "monitor-night" / "night.wav"
    assert night["argv"][-1] == str(wav)
    assert dsp.wav_sample_count(wav) == 1200 * dsp.SAMPLE_RATE
    assert night["audio_s"] == 1200.0
    arrest, decrement = manifests["monitor-alarms"]["ops"]
    for op, seconds in ((arrest, 120), (decrement, 150)):
        assert (tmp_path / "monitor-alarms" / f"{op['name']}.pcm").stat().st_size \
            == 2 * seconds * dsp.SAMPLE_RATE
    for op in (night, arrest, decrement):
        times = [t for t, _ in op["truth"]]
        assert times and times == sorted(times), op["name"]
        assert {kind for _, kind in op["truth"]} == set(dsp.BREATH_KINDS), op["name"]
    assert max(t for t, _ in arrest["truth"]) < arrest["onset"]

    train_ae, train_rnn = manifests["train-desk"]["ops"]
    corpus = tmp_path / "train-desk" / "corpus"
    for label in dsp.LABELS:
        assert len(list((corpus / label).glob("*.wav"))) == 150, label
    assert train_ae["argv"][:3] == ["train-ae", "--corpus", str(corpus)]
    assert train_rnn["argv"][:3] == ["train-rnn", "--corpus", str(corpus)]
