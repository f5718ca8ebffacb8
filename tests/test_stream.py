import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breathsentinel import cli, dsp, rnn
from breathsentinel.autoencoder import AEParams, encode, init_ae
from breathsentinel.config import RunConfig
from breathsentinel.errors import OutOfOrderPrediction
from breathsentinel.model_io import load_model
from breathsentinel.rnn import RNNParams, init_rnn
from breathsentinel.stream import (
    BreathEvent,
    Debouncer,
    PredictionFrame,
    infer_stream,
    match_events,
)
from breathsentinel.synthgen import ScenarioSpec, gen_scenario

CFG = RunConfig()
ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "perfbench" / "fixture" / "desk_model.bsm"


def default_debouncer():
    return Debouncer(CFG.confidence, CFG.run_length, CFG.refractory)


def debounce(predictions):
    """The events a debouncer with the default settings emits for `predictions`."""
    debouncer = default_debouncer()
    events = (debouncer.push(pred) for pred in predictions)
    return [event for event in events if event is not None]


def frames_for(seconds, seed=None):
    n = int(seconds * dsp.SAMPLE_RATE)
    if seed is None:
        samples = np.zeros(n)
    else:
        samples = np.random.default_rng(seed).uniform(-0.5, 0.5, n)
    return dsp.frame_signal(dsp.AudioClip(samples=samples))


def preds(*specs):
    """specs: (label, confidence) tuples laid out every 0.125 s from t=2.0."""
    return [PredictionFrame(end_time=2.0 + 0.125 * i, label=label, confidence=conf)
            for i, (label, conf) in enumerate(specs)]


# --- inference cadence ---

def test_two_seconds_give_one_prediction():
    out = list(infer_stream(init_ae(0), init_rnn(0), frames_for(2.0)))
    assert len(out) == 1
    assert out[0].end_time == 2.0


def test_four_seconds_give_17_predictions():
    out = list(infer_stream(init_ae(0), init_rnn(0), frames_for(4.0, seed=1)))
    assert len(out) == 17
    diffs = np.diff([p.end_time for p in out])
    assert np.allclose(diffs, 0.125)


def test_stationary_input_gives_identical_predictions():
    out = list(infer_stream(init_ae(1), init_rnn(1), frames_for(5.0)))
    assert len(out) == 25
    assert len({(p.label, round(p.confidence, 12)) for p in out}) == 1


def test_shorter_than_window_gives_nothing():
    out = list(infer_stream(init_ae(0), init_rnn(0), frames_for(1.875)))
    assert out == []


def test_model_errors_carry_stream_position():
    from breathsentinel.errors import NonFiniteActivation

    ae = init_ae(0)
    ae.enc_w1[0, 0] = float("nan")  # corrupt after construction-time checks
    with pytest.raises(NonFiniteActivation, match="stream position 0.000"):
        list(infer_stream(ae, init_rnn(0), frames_for(2.0)))


def test_non_finite_recurrent_weight_fails_at_the_first_window():
    from breathsentinel.errors import NonFiniteActivation

    params = init_rnn(0)
    params.w_hh[2, 5] = float("nan")  # corrupt after construction-time checks
    with pytest.raises(NonFiniteActivation, match="stream position 1.875"):
        list(infer_stream(init_ae(0), params, frames_for(3.0, seed=3)))


def test_infer_stream_pulls_one_frame_per_step():
    pulled = []

    def source():
        for frame in frames_for(3.0, seed=2):
            pulled.append(frame)
            yield frame

    predictions = infer_stream(init_ae(0), init_rnn(0), source())
    assert pulled == []
    next(predictions)
    assert len(pulled) == 16
    next(predictions)
    assert len(pulled) == 17


# --- float32 inference against the float64 oracle ---

def per_frame_chain(ae, params, frames):
    """infer_stream's per-frame chain, in the dtype of the weights given.

    With the float64 weights of a bundle it is the oracle; with their
    float32 copies it is what infer_stream runs. Returns the (n, 50) codes
    and the (n - 15, 3) scores.
    """
    states = np.zeros((rnn.WINDOW_FRAMES, params.hidden), dtype=params.w_hh.dtype)
    codes, scores = [], []
    for index, samples in enumerate(frames):
        code = encode(ae, dsp.normalize_spectrum(dsp.dfft_magnitude(samples)))
        codes.append(code)
        if index + 1 < rnn.WINDOW_FRAMES:
            rnn.advance(params, states, code)
        else:
            scores.append(rnn.rnn_forward(params, states, code))
    return np.array(codes), np.array(scores)


@pytest.fixture(scope="module")
def fixture_night():
    """The committed fixture model and the frames of the seed-11 300 s normal night."""
    clip, _ = gen_scenario(ScenarioSpec(kind="normal", duration=300.0, seed=11))
    return load_model(FIXTURE), list(dsp.frame_signal(clip))


def test_float32_stream_stays_within_1e5_of_the_float64_chain(fixture_night):
    bundle, frames = fixture_night
    codes64, scores64 = per_frame_chain(bundle.ae, bundle.rnn, frames)
    codes32, scores32 = per_frame_chain(bundle.ae.astype(np.float32),
                                        bundle.rnn.astype(np.float32), frames)
    assert codes32.dtype == scores32.dtype == np.float32
    assert codes64.dtype == scores64.dtype == np.float64
    assert np.max(np.abs(codes32 - codes64)) < 1e-5
    assert np.max(np.abs(scores32 - scores64)) < 1e-5
    assert np.array_equal(scores32.argmax(axis=1), scores64.argmax(axis=1))
    streamed = list(infer_stream(bundle.ae, bundle.rnn, iter(frames)))
    assert [(p.label, p.confidence) for p in streamed] == [rnn.classify(s) for s in scores32]


def test_infer_stream_leaves_the_callers_weights_float64_and_unmodified():
    ae, params = init_ae(2), init_rnn(2)
    before = {name: (arr, arr.copy()) for p in (ae, params) for name, arr in p.to_dict().items()}
    list(infer_stream(ae, params, frames_for(3.0, seed=4)))
    after = {name: arr for p in (ae, params) for name, arr in p.to_dict().items()}
    for name, (arr, copy) in before.items():
        assert after[name] is arr and arr.dtype == np.float64, name
        assert np.array_equal(arr, copy), name


@pytest.mark.parametrize("name", ["enc_w1", "w_hh"])
def test_a_weight_outside_the_float32_range_fails_with_the_stream_position(name):
    from breathsentinel.errors import NonFiniteActivation

    ae, params = init_ae(0).to_dict(), init_rnn(0).to_dict()
    (ae if name in ae else params)[name][1, 2] = -1e39  # finite in float64, infinite in float32
    expected = f"stream position 0.000 s: weight {name} .* outside the float32 range"
    with pytest.raises(NonFiniteActivation, match=expected):
        list(infer_stream(AEParams.from_dict(ae), RNNParams.from_dict(params),
                          frames_for(3.0, seed=3)))


# monitor's stdout, then the sha256 of every confidence it streamed, in full precision
THREADS_SCRIPT = """
import hashlib, sys
from breathsentinel import cli, dsp
from breathsentinel.model_io import load_model
from breathsentinel.stream import infer_stream
model, wav = sys.argv[1:]
assert cli.main(["monitor", "--model", model, "--input", wav]) == 0
bundle = load_model(model)
with open(wav, "rb") as f:
    streamed = infer_stream(bundle.ae, bundle.rnn, dsp.wav_frames(f, wav))
    print(hashlib.sha256(repr([(p.label, p.confidence) for p in streamed]).encode()).hexdigest())
"""


def test_monitor_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    wav = tmp_path / "night.wav"
    assert cli.main(["synth", "scenario", "--kind", "normal", "--duration", "60", "--seed", "11",
                     "--out", str(wav), "--truth", str(tmp_path / "truth.csv")]) == 0
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", THREADS_SCRIPT, str(FIXTURE), str(wav)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        outputs.append(done.stdout)
    assert outputs[0].count(",inhale\n") > 5
    assert outputs[0] == outputs[1]


# --- debouncing ---

def test_two_confident_predictions_do_not_fire():
    events = list(debounce(iter(preds(("inhale", 0.995), ("inhale", 0.995),
                                      ("unknown", 0.999)))))
    assert events == []


def test_three_confident_predictions_fire_once():
    events = list(debounce(iter(preds(("inhale", 0.995), ("inhale", 0.995),
                                      ("inhale", 0.995)))))
    assert len(events) == 1
    assert events[0] == BreathEvent(time=0.0, kind="inhale")  # 2.0 - window


def test_eight_confident_predictions_still_fire_once():
    events = list(debounce(iter(preds(*[("inhale", 0.999)] * 8))))
    assert len(events) == 1


def test_confidence_drop_resets_run():
    events = list(debounce(iter(preds(("inhale", 0.995), ("inhale", 0.98),
                                      ("inhale", 0.995), ("inhale", 0.995)))))
    assert events == []  # run restarted at the third prediction, length 2


def test_label_change_starts_new_run():
    sequence = [("inhale", 0.995)] * 3 + [("exhale", 0.995)] * 3
    events = list(debounce(iter(preds(*sequence))))
    assert [e.kind for e in events] == ["inhale", "exhale"]


def test_unknown_never_fires():
    events = list(debounce(iter(preds(*[("unknown", 0.9999)] * 10))))
    assert events == []


def test_refractory_suppresses_same_kind_repeat():
    # two separated confident runs of the same kind, second 0.875 s after first
    sequence = [("inhale", 0.999)] * 3 + [("unknown", 0.5)] * 4 + [("inhale", 0.999)] * 3
    events = list(debounce(iter(preds(*sequence))))
    assert len(events) == 1
    # push the second run beyond the refractory window: both fire
    sequence = [("inhale", 0.999)] * 3 + [("unknown", 0.5)] * 6 + [("inhale", 0.999)] * 3
    events = list(debounce(iter(preds(*sequence))))
    assert len(events) == 2
    assert events[1].time - events[0].time >= 1.0


def test_out_of_order_prediction_rejected():
    debouncer = default_debouncer()
    debouncer.push(PredictionFrame(end_time=2.0, label="unknown", confidence=0.5))
    with pytest.raises(OutOfOrderPrediction):
        debouncer.push(PredictionFrame(end_time=2.0, label="unknown", confidence=0.5))


def test_event_times_strictly_increase():
    sequence = ([("inhale", 0.995)] * 4 + [("exhale", 0.995)] * 4) * 5
    events = list(debounce(iter(preds(*sequence))))
    times = [e.time for e in events]
    assert times == sorted(times)
    assert len(set(times)) == len(times)


label_strategy = st.sampled_from(["inhale", "exhale", "unknown"])
conf_strategy = st.floats(min_value=0.01, max_value=0.9899)


@settings(max_examples=40)
@given(st.lists(st.tuples(label_strategy, conf_strategy), min_size=1, max_size=60))
def test_no_events_below_threshold(sequence):
    assert list(debounce(iter(preds(*sequence)))) == []


@settings(max_examples=40)
@given(st.lists(st.tuples(label_strategy,
                          st.floats(min_value=0.5, max_value=0.9999)),
                min_size=1, max_size=80))
def test_event_count_bounded_by_runs(sequence):
    events = list(debounce(iter(preds(*sequence))))
    qualifying = [(lbl, conf >= 0.99 and lbl != "unknown") for lbl, conf in sequence]
    runs = 0
    prev = None
    for lbl, ok in qualifying:
        if ok and (prev is None or lbl != prev):
            runs += 1
        prev = lbl if ok else None
    assert len(events) <= runs <= len(sequence)


# --- ground-truth matching ---

def test_match_events_perfect_alignment():
    truth = [(2.0, "inhale"), (3.1, "exhale"), (4.5, "inhale")]
    events = [BreathEvent(t, k) for t, k in truth]
    report = match_events(events, truth, tolerance=0.5)
    assert report.recall == 1.0
    assert report.false_positives == 0
    assert report.median_lead == 0.0


def test_match_events_constant_lead_removed():
    truth = [(float(t), "inhale") for t in range(2, 30, 3)]
    events = [BreathEvent(t - 0.8, k) for t, k in truth]  # systematic early anchor
    aligned = match_events(events, truth, tolerance=0.5, align=True)
    assert aligned.recall == 1.0
    assert aligned.median_lead == pytest.approx(0.8)
    raw = match_events(events, truth, tolerance=0.5, align=False)
    assert raw.recall == 0.0


def test_match_events_counts_false_positive():
    truth = [(2.0, "inhale"), (5.0, "inhale")]
    events = [BreathEvent(2.0, "inhale"), BreathEvent(3.5, "inhale"),
              BreathEvent(5.0, "inhale")]
    report = match_events(events, truth, tolerance=0.4, align=False)
    assert report.matched == 2
    assert report.false_positives == 1


def test_match_events_kind_sensitive():
    truth = [(2.0, "inhale")]
    events = [BreathEvent(2.0, "exhale")]
    report = match_events(events, truth, tolerance=1.0)
    assert report.matched == 0
    assert report.false_positives == 1
