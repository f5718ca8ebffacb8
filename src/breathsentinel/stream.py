"""Sliding-window inference over continuous audio plus event debouncing.

A new classifier window is evaluated every 1/8 second (hop = one frame)
once 16 frames have arrived, so every breath is fully covered by at least
one window. Raw window predictions are noisy around onsets; the debouncer
turns them into single, timestamped breath events and owns their time
base. A frame source that is too short raises EmptyClip at the first
pull, outside the stream-position wrapper.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from statistics import median
from typing import Iterable, Iterator

import numpy as np

from . import dsp, rnn
from .autoencoder import AEParams, encode
from .errors import BreathSentinelError, NonFiniteActivation, OutOfOrderPrediction

WINDOW_SECONDS = rnn.WINDOW_FRAMES * dsp.FRAME_SECONDS  # 2.0


@dataclass(frozen=True)
class PredictionFrame:
    """classify() output for one window, stamped with the window end time."""

    end_time: float
    label: str
    confidence: float


@dataclass(frozen=True)
class BreathEvent:
    """One debounced breath, anchored at the onset of its accepting window."""

    time: float
    kind: str


def infer_stream(ae: AEParams, params: rnn.RNNParams,
                 frames: Iterable[np.ndarray]) -> Iterator[PredictionFrame]:
    """DFFT, normalize, and encode each (1024,) frame; classify every full window.

    Pulls one frame per step and keeps no codes: the hidden states of the
    16 windows in flight move forward together with each new code
    (rnn.advance), and the window completed at that step is scored.
    Emits one PredictionFrame per incoming frame after the 15-frame
    warmup: 2.000 s of audio yields exactly one prediction, 4.000 s yields
    17. Errors from the DSP or model layers are re-raised with the stream
    position attached.

    The encoder and classifier run in float32 on copies of the weights
    made once per call; `ae` and `params` stay float64 and unchanged. The
    FFT and normalisation stay float64, and each spectrum is cast to
    float32 in `encode`. A weight outside the float32 range raises
    NonFiniteActivation at position 0.
    """
    try:
        ae, params = ae.astype(np.float32), params.astype(np.float32)
    except NonFiniteActivation as exc:
        raise _at_position(exc, 0.0) from exc
    states = np.zeros((rnn.WINDOW_FRAMES, params.hidden), dtype=np.float32)
    for index, samples in enumerate(frames):
        start_time = index * dsp.FRAME_SECONDS
        try:
            code = encode(ae, dsp.normalize_spectrum(dsp.dfft_magnitude(samples)))
            if index + 1 < rnn.WINDOW_FRAMES:
                rnn.advance(params, states, code)
            else:
                end_time = start_time + dsp.FRAME_SECONDS
                label, confidence = rnn.classify(rnn.rnn_forward(params, states, code))
                yield PredictionFrame(end_time=end_time, label=label, confidence=confidence)
        except BreathSentinelError as exc:
            raise _at_position(exc, start_time) from exc


def _at_position(exc: BreathSentinelError, seconds: float) -> BreathSentinelError:
    """The same error type, its message prefixed with the stream position."""
    return type(exc)(f"at stream position {seconds:.3f} s: {exc}")


class Debouncer:
    """Collapse runs of confident same-label predictions into single events.

    A run is a maximal streak of consecutive predictions that share one
    breath label (inhale or exhale) and all reach the confidence
    threshold; a label change or a confidence drop ends it. Once a run
    reaches `run_length` members it emits exactly one event, timestamped
    at the onset of the run's first window (first end_time minus the 2 s
    window span). A per-kind refractory interval then suppresses
    same-kind events that follow too closely, so one sustained breath
    cannot double-count.

    Event times are the time base downstream. An event trails the
    prediction that confirms it by `lag`, the window span plus the run-up
    (2.25 s at the defaults); a clock read from predictions, such as the
    arrest test's, subtracts `lag`, or every gap inflates by that much.
    """

    def __init__(self, confidence: float, run_length: int, refractory: float):
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        if run_length < 1:
            raise ValueError(f"run_length must be >= 1, got {run_length}")
        self.confidence = confidence
        self.run_length = run_length
        self.refractory = refractory
        self.lag = WINDOW_SECONDS + (run_length - 1) * dsp.FRAME_SECONDS
        self._last_time: float | None = None
        self._run_label: str | None = None
        self._run_len = 0
        self._run_first_end = 0.0
        self._last_event: dict[str, float] = {}

    def push(self, pred: PredictionFrame) -> BreathEvent | None:
        if self._last_time is not None and pred.end_time <= self._last_time:
            raise OutOfOrderPrediction(
                f"prediction at {pred.end_time} s after one at {self._last_time} s")
        self._last_time = pred.end_time

        if pred.label not in dsp.BREATH_KINDS or pred.confidence < self.confidence:
            self._run_label = None
            self._run_len = 0
            return None
        if pred.label != self._run_label:
            self._run_label = pred.label
            self._run_len = 1
            self._run_first_end = pred.end_time
        else:
            self._run_len += 1

        # a run grows by one per prediction, so it reaches run_length exactly once
        if self._run_len == self.run_length:
            event_time = self._run_first_end - WINDOW_SECONDS
            last = self._last_event.get(pred.label)
            if last is None or event_time - last >= self.refractory:
                self._last_event[pred.label] = event_time
                return BreathEvent(time=event_time, kind=pred.label)
        return None


@dataclass(frozen=True)
class MatchReport:
    """Result of aligning detected events against ground-truth onsets."""

    truth_count: int
    event_count: int
    matched: int
    false_positives: int
    recall: float
    median_lead: float  # truth time minus event time, median over all events


def match_events(events: list[BreathEvent], truth_onsets, tolerance: float,
                 align: bool = True) -> MatchReport:
    """Greedy per-kind matching of events to ground-truth onsets.

    Events are anchored at accepting-window onsets, which lead the placed
    breath onsets by a near-constant amount (a consequence of the
    anchoring convention, not of detection quality). With align=True that
    per-kind median lead is removed before tolerance matching, so the
    tolerance measures per-breath timing jitter. Each event and each
    truth onset is used at most once; unmatched events are false
    positives.
    """
    truth_count = len(truth_onsets)
    event_count = len(events)
    matched = 0
    leads: list[float] = []
    for kind in dsp.BREATH_KINDS:
        truths = sorted(t for t, k in truth_onsets if k == kind)
        times = sorted(e.time for e in events if e.kind == kind)
        if not times or not truths:
            continue
        deltas = []
        for et in times:
            # the nearest truth neighbours et; on a tie the left one, as min() picks the first
            i = bisect_left(truths, et)
            deltas.append(min((t - et for t in truths[max(i - 1, 0):i + 1]), key=abs))
        leads.extend(deltas)
        lead = median(deltas) if align else 0.0
        i = j = 0
        while i < len(truths) and j < len(times):
            diff = (times[j] + lead) - truths[i]
            if abs(diff) <= tolerance:
                matched += 1
                i += 1
                j += 1
            elif diff < -tolerance:
                j += 1
            else:
                i += 1
    recall = matched / truth_count if truth_count else 0.0
    return MatchReport(
        truth_count=truth_count, event_count=event_count, matched=matched,
        false_positives=event_count - matched, recall=recall,
        median_lead=float(median(leads)) if leads else 0.0,
    )
