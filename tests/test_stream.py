import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breathsentinel import dsp
from breathsentinel.autoencoder import init_ae
from breathsentinel.errors import OutOfOrderPrediction
from breathsentinel.rnn import init_rnn
from breathsentinel.stream import (
    BreathEvent,
    Debouncer,
    PredictionFrame,
    debounce,
    infer_stream,
    match_events,
)


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
    debouncer = Debouncer()
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
