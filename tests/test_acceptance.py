"""Acceptance harness.

Each test covers one release criterion at its stated tolerance and prints
a [PASS]/[FAIL] line (run with `pytest -s` to watch them live). The
desk-scale model is trained once per session on a single CPU core and
shared by the end-to-end criteria.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats as scipy_stats

from breathsentinel import autoencoder as ae_mod
from breathsentinel import cli, dsp
from breathsentinel import rnn as rnn_mod
from breathsentinel.config import RunConfig
from breathsentinel.corpus import make_split
from breathsentinel.model_io import ModelBundle, save_model
from breathsentinel.optim import grad_check
from breathsentinel.stream import BreathEvent, infer_stream, match_events
from breathsentinel.synthgen import ScenarioSpec, gen_corpus, gen_scenario
from breathsentinel.vigil import ols_slope_t, run_detection, t_quantile

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover - then timings use ambient threading
    from contextlib import nullcontext

    def threadpool_limits(n):
        return nullcontext()


pytestmark = pytest.mark.acceptance

DESK_SEED = 7


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@dataclass
class DeskModel:
    corpus_dir: object
    corpus: object
    ae: object
    rnn: object
    bundle_path: object
    train_seconds: float
    metrics: object


@pytest.fixture(scope="session")
def desk_model(tmp_path_factory) -> DeskModel:
    """Desk-scale pipeline: 150/class corpus, AE 200 epochs, RNN 300 epochs."""
    root = tmp_path_factory.mktemp("acceptance")
    corpus_dir = root / "corpus"
    started = time.perf_counter()
    with threadpool_limits(1):
        corpus = gen_corpus(150, seed=DESK_SEED, out_dir=corpus_dir)
        samples = np.stack([c.clip.samples for c in corpus.clips])
        spectra = dsp.spectra(samples.reshape(-1, dsp.FRAME_LEN))
        ae_params, _ = ae_mod.train_ae(
            spectra, ae_mod.AETrainConfig(epochs=200, batch=128, seed=DESK_SEED))
        rnn_params, _ = rnn_mod.train_rnn(
            corpus, ae_params, rnn_mod.RNNTrainConfig(epochs=300, seed=DESK_SEED))
    elapsed = time.perf_counter() - started

    plan = make_split(corpus, DESK_SEED)
    by_id = {c.clip_id: c for c in corpus.clips}
    metrics = rnn_mod.evaluate(rnn_params, ae_params,
                               [by_id[cid] for cid in plan.test_ids])
    bundle_path = root / "desk.bsm"
    save_model(ModelBundle(ae=ae_params, rnn=rnn_params,
                           metadata={"seed": str(DESK_SEED)}), bundle_path)
    return DeskModel(corpus_dir=corpus_dir, corpus=corpus, ae=ae_params,
                     rnn=rnn_params, bundle_path=bundle_path,
                     train_seconds=elapsed, metrics=metrics)


def detect(model: DeskModel, spec: ScenarioSpec):
    clip, truth = gen_scenario(spec)
    events, alerts = [], []
    for item in run_detection(infer_stream(model.ae, model.rnn, dsp.frame_signal(clip))):
        (events if isinstance(item, BreathEvent) else alerts).append(item)
    return truth, events, alerts


def test_criterion_1_fft_matches_naive_dft():
    rng = np.random.default_rng(0)
    started = time.perf_counter()
    k = np.arange(1024)
    dft_matrix = np.exp(-2j * np.pi * np.outer(k, k) / 1024)  # naive O(n^2) oracle
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, 1024)
        mine = dsp.fft_radix2(x)
        ref = dft_matrix @ x
        worst = max(worst, float(np.max(np.abs(mine - ref)) / np.max(np.abs(ref))))
    elapsed = time.perf_counter() - started
    report("criterion-1 fft-oracle",
           worst <= 1e-6 and elapsed < 5.0,
           f"max relative error {worst:.2e} over 100 frames in {elapsed:.2f} s")


def test_criterion_2_gradient_fidelity():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_ae = 0.0
    for i in range(10):
        params = ae_mod.init_ae(100 + i)
        x = rng.uniform(0, 1, (1, 1024))
        grads, _ = ae_mod.ae_backward_batch(params, x)

        def loss(tensors, x=x):
            return ae_mod.batch_mse(ae_mod.AEParams.from_dict(tensors), x)

        worst_ae = max(worst_ae, grad_check(loss, params.to_dict(), grads,
                                            sample=20, rng=rng))
    worst_rnn = 0.0
    for i in range(10):
        params = rnn_mod.init_rnn(200 + i)
        codes = rng.uniform(-0.9, 0.9, (16, 50))
        target = rnn_mod.one_hot(rnn_mod.CLASSES[i % 3])
        grads, _ = rnn_mod._backward_codes(params, codes, target)

        def loss(tensors, codes=codes, target=target):
            p = rnn_mod.RNNParams.from_dict(tensors)
            _, scores = rnn_mod._forward_codes(p, codes)
            return rnn_mod.bce_loss(scores, target)

        worst_rnn = max(worst_rnn, grad_check(loss, params.to_dict(), grads,
                                              sample=40, rng=rng))
    elapsed = time.perf_counter() - started
    report("criterion-2 gradient-fidelity",
           worst_ae <= 1e-4 and worst_rnn <= 1e-4 and elapsed < 60.0,
           f"max rel err compressor {worst_ae:.2e}, classifier {worst_rnn:.2e} "
           f"in {elapsed:.1f} s")


def test_criterion_3_discrete_classification(desk_model):
    m = desk_model.metrics
    report("criterion-3 discrete-classification",
           m.accuracy >= 0.95 and m.macro_f1 >= 0.93
           and desk_model.train_seconds <= 600.0,
           f"held-out accuracy {m.accuracy:.4f}, macro F1 {m.macro_f1:.4f}, "
           f"desk training {desk_model.train_seconds:.0f} s (single core)")


def test_compressor_reconstruction_on_held_out_frames(desk_model):
    plan = make_split(desk_model.corpus, DESK_SEED)
    by_id = {c.clip_id: c for c in desk_model.corpus.clips}
    frames = np.stack([by_id[cid].clip.samples for cid in plan.test_ids])
    spectra = dsp.spectra(frames.reshape(-1, dsp.FRAME_LEN))
    mse = ae_mod.batch_mse(desk_model.ae, spectra)
    report("compressor held-out mse", mse <= 0.01,
           f"mean reconstruction mse {mse:.5f} on isolated test frames (cap 0.01)")


def test_criterion_4_continuous_detection(desk_model):
    spec = ScenarioSpec(kind="normal", duration=300.0, seed=3)
    started = time.perf_counter()
    truth, events, _ = detect(desk_model, spec)
    elapsed = time.perf_counter() - started
    raw = match_events(events, truth.onsets, tolerance=1.0, align=False)
    aligned = match_events(events, truth.onsets, tolerance=0.5, align=True)
    report("criterion-4 continuous-detection",
           raw.recall >= 0.90 and raw.false_positives == 0
           and aligned.recall >= 0.90 and aligned.false_positives == 0
           and elapsed <= 120.0,
           f"recall {raw.recall:.3f} (±1 s raw), {aligned.recall:.3f} "
           f"(±0.5 s lead-aligned), false positives {raw.false_positives}, "
           f"{len(truth.onsets)} breath onsets in {elapsed:.1f} s")


def test_criterion_5_arrest_latency(desk_model):
    latencies = []
    for seed in range(10):
        spec = ScenarioSpec(kind="arrest", duration=120.0, onset=60.0, seed=seed)
        truth, _, alerts = detect(desk_model, spec)
        last_breath = truth.onsets[-1][0]
        arrest_times = [a.time for a in alerts if a.kind == "arrest"]
        assert arrest_times, f"seed {seed}: no arrest alert"
        assert min(arrest_times) > last_breath, \
            f"seed {seed}: arrest alert before the last breath"
        latency = min(arrest_times) - last_breath
        assert latency <= 15.0, f"seed {seed}: latency {latency:.2f} s"
        post = [a for a in alerts if a.time > last_breath]
        assert post and post[0].kind == "arrest", \
            f"seed {seed}: first post-condition alert is {post[0].kind if post else None}"
        latencies.append(latency)
    report("criterion-5 arrest-latency", True,
           f"10/10 seeds, latency {min(latencies):.2f}-{max(latencies):.2f} s "
           f"after the last breath (cap 15 s)")


def test_criterion_6_decrement_latency(desk_model):
    latencies = []
    for seed in range(10):
        spec = ScenarioSpec(kind="decrement", duration=150.0, onset=60.0, seed=seed)
        _, _, alerts = detect(desk_model, spec)
        trend_in_window = [a.time for a in alerts
                           if a.kind == "trend" and spec.onset < a.time <= spec.onset + 60.0]
        assert trend_in_window, f"seed {seed}: no trend alert within 60 s of onset"
        arrest_times = [a.time for a in alerts if a.kind == "arrest"]
        assert not arrest_times or trend_in_window[0] < min(arrest_times), \
            f"seed {seed}: arrest alert preceded the trend alert"
        post = [a for a in alerts if a.time > spec.onset]
        assert post and post[0].kind == "trend", \
            f"seed {seed}: first post-onset alert is {post[0].kind}"
        latencies.append(trend_in_window[0] - spec.onset)
    report("criterion-6 decrement-latency", True,
           f"10/10 seeds, trend alert {min(latencies):.1f}-{max(latencies):.1f} s "
           f"after onset (cap 60 s), always before any arrest alert")


def test_criterion_7_statistics_oracle():
    rng = np.random.default_rng(2)
    worst_t = worst_slope = worst_q = 0.0
    for _ in range(1000):
        n = int(rng.integers(8, 40))
        y = rng.uniform(0.5, 5.0, n) + rng.uniform(-0.05, 0.05) * np.arange(n)
        b1, t = ols_slope_t(y)
        ref = scipy_stats.linregress(np.arange(n), y)
        worst_slope = max(worst_slope, abs(b1 - ref.slope))
        if ref.stderr > 0 and math.isfinite(t):
            worst_t = max(worst_t, abs(t - ref.slope / ref.stderr))
    for _ in range(1000):
        p = float(rng.uniform(0.55, 0.999))
        df = int(rng.integers(1, 1000))
        worst_q = max(worst_q, abs(t_quantile(p, df) - scipy_stats.t.ppf(p, df)))
    report("criterion-7 statistics-oracle",
           worst_slope <= 1e-6 and worst_t <= 1e-6 and worst_q <= 1e-6,
           f"slope err {worst_slope:.2e}, t err {worst_t:.2e}, "
           f"quantile err {worst_q:.2e} over 1000 cases each")


def test_criterion_8_determinism(desk_model, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BREATHSENTINEL_SEED", raising=False)

    def run_twice(argv_builder, reader):
        blobs = []
        for tag in ("one", "two"):
            argv = argv_builder(tmp_path / tag)
            assert cli.main(argv) in (0, 2)
            blobs.append(reader(tmp_path / tag))
        return blobs[0] == blobs[1]

    def corpus_bytes(base):
        return sorted(p.read_bytes() for p in base.rglob("*.wav"))

    same_corpus = run_twice(
        lambda base: ["synth", "corpus", "--out", str(base), "--per-class", "12",
                      "--seed", "5"],
        corpus_bytes)

    small_corpus = tmp_path / "one"
    same_ae = run_twice(
        lambda base: ["train-ae", "--corpus", str(small_corpus), "--out",
                      str(base / "m.bsm"), "--epochs", "2", "--seed", "5"],
        lambda base: (base / "m.bsm").read_bytes())

    ae_model = tmp_path / "one" / "m.bsm"
    same_rnn = run_twice(
        lambda base: ["train-rnn", "--corpus", str(desk_model.corpus_dir), "--model",
                      str(ae_model), "--out", str(base / "r.bsm"), "--epochs", "2",
                      "--seed", "5"],
        lambda base: (base / "r.bsm").read_bytes())

    same_report = run_twice(
        lambda base: ["simulate", "--model", str(desk_model.bundle_path), "--scenario",
                      "arrest", "--duration", "90", "--onset", "45", "--seed", "5",
                      "--report", str(base / "rep.csv")],
        lambda base: (base / "rep.csv").read_bytes())

    wav = tmp_path / "monitor.wav"
    clip, _ = gen_scenario(ScenarioSpec(kind="normal", duration=30.0, onset=15.0, seed=6))
    dsp.write_wav(wav, clip.samples)
    monitor_outputs = []
    for _ in range(2):
        capsys.readouterr()
        assert cli.main(["monitor", "--model", str(desk_model.bundle_path),
                         "--input", str(wav)]) == 0
        monitor_outputs.append(capsys.readouterr().out)
    same_monitor = monitor_outputs[0] == monitor_outputs[1] and monitor_outputs[0]

    eval_outputs = []
    for _ in range(2):
        capsys.readouterr()
        assert cli.main(["eval", "--model", str(desk_model.bundle_path),
                         "--corpus", str(desk_model.corpus_dir)]) == 0
        eval_outputs.append(capsys.readouterr().out)
    same_eval = eval_outputs[0] == eval_outputs[1]

    report("criterion-8 determinism",
           bool(same_corpus and same_ae and same_rnn and same_report
                and same_monitor and same_eval),
           "byte-identical outputs for synth/train-ae/train-rnn/simulate/monitor/eval")


def test_criterion_9_monitor_throughput(desk_model, tmp_path, capsys):
    wav = tmp_path / "minute.wav"
    clip, _ = gen_scenario(ScenarioSpec(kind="normal", duration=60.0, onset=30.0, seed=8))
    dsp.write_wav(wav, clip.samples)
    with threadpool_limits(1):
        started = time.perf_counter()
        assert cli.main(["monitor", "--model", str(desk_model.bundle_path),
                         "--input", str(wav)]) == 0
        elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    events = [line for line in out.splitlines() if line.count(",") == 1]
    report("criterion-9 monitor-throughput",
           elapsed <= 30.0 and len(events) >= 20,
           f"60 s of audio in {elapsed:.1f} s "
           f"({60.0 / elapsed:.1f}x realtime, single core), {len(events)} events")


def test_simulate_cli_reports_arrest_and_exits_2(desk_model, tmp_path):
    report_path = tmp_path / "arrest.csv"
    code = cli.main(["simulate", "--model", str(desk_model.bundle_path),
                     "--scenario", "arrest", "--seed", "1",
                     "--report", str(report_path)])
    text = report_path.read_text()
    assert code == 2
    assert "alert,arrest," in text
    assert "false_positives,0" in text


def test_paper_scale_epochs_accepted_by_config():
    cfg = RunConfig(rnn_epochs=20000, ae_epochs=2000)
    cfg.validate()  # supported in config; never run in the acceptance suite
