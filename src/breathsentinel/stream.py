"""Sliding-window inference over continuous audio plus event debouncing.

A new classifier window is evaluated every 1/8 second (hop = one frame)
once 16 frames have arrived, so every breath is fully covered by at least
one window. Raw window predictions are noisy around onsets; the debouncer
turns them into single, timestamped breath events.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Iterable, Iterator

import numpy as np

from . import dsp, rnn
from .autoencoder import AEParams, encode
from .errors import BreathSentinelError, OutOfOrderPrediction

BREATH_KINDS = ("inhale", "exhale")

CONFIDENCE_DEFAULT = 0.99
RUN_LENGTH_DEFAULT = 3
REFRACTORY_DEFAULT = 1.0
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

    Pulls one frame per step and keeps only the last 16 latent codes.
    Emits one PredictionFrame per incoming frame after the 15-frame
    warmup: 2.000 s of audio yields exactly one prediction, 4.000 s yields
    17. Errors from the DSP or model layers are re-raised with the stream
    position attached.
    """
    window = np.zeros((rnn.WINDOW_FRAMES, rnn.INPUT_DIM))
    for index, samples in enumerate(frames):
        start_time = index * dsp.FRAME_SECONDS
        try:
            window[:-1] = window[1:]
            window[-1] = encode(ae, dsp.normalize_spectrum(dsp.dfft_magnitude(samples)))
            if index + 1 >= rnn.WINDOW_FRAMES:
                end_time = start_time + dsp.FRAME_SECONDS
                label, confidence = rnn.classify(rnn.rnn_forward(params, window))
                yield PredictionFrame(end_time=end_time, label=label, confidence=confidence)
        except BreathSentinelError as exc:
            raise type(exc)(f"at stream position {start_time:.3f} s: {exc}") from exc


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
    """

    def __init__(self, confidence: float = CONFIDENCE_DEFAULT,
                 run_length: int = RUN_LENGTH_DEFAULT,
                 refractory: float = REFRACTORY_DEFAULT,
                 window_seconds: float = WINDOW_SECONDS):
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        if run_length < 1:
            raise ValueError(f"run_length must be >= 1, got {run_length}")
        self.confidence = confidence
        self.run_length = run_length
        self.refractory = refractory
        self.window_seconds = window_seconds
        self._last_time: float | None = None
        self._run_label: str | None = None
        self._run_len = 0
        self._run_first_end = 0.0
        self._run_emitted = False
        self._last_event: dict[str, float] = {}

    def _reset_run(self) -> None:
        self._run_label = None
        self._run_len = 0
        self._run_emitted = False

    def push(self, pred: PredictionFrame) -> BreathEvent | None:
        if self._last_time is not None and pred.end_time <= self._last_time:
            raise OutOfOrderPrediction(
                f"prediction at {pred.end_time} s after one at {self._last_time} s")
        self._last_time = pred.end_time

        if pred.label not in BREATH_KINDS or pred.confidence < self.confidence:
            self._reset_run()
            return None
        if pred.label != self._run_label:
            self._run_label = pred.label
            self._run_len = 1
            self._run_first_end = pred.end_time
            self._run_emitted = False
        else:
            self._run_len += 1

        if self._run_len >= self.run_length and not self._run_emitted:
            self._run_emitted = True
            event_time = self._run_first_end - self.window_seconds
            last = self._last_event.get(pred.label)
            if last is None or event_time - last >= self.refractory:
                self._last_event[pred.label] = event_time
                return BreathEvent(time=event_time, kind=pred.label)
        return None


def debounce(predictions: Iterable[PredictionFrame],
             confidence: float = CONFIDENCE_DEFAULT,
             run_length: int = RUN_LENGTH_DEFAULT,
             refractory: float = REFRACTORY_DEFAULT) -> Iterator[BreathEvent]:
    """Generator form of the Debouncer state machine."""
    debouncer = Debouncer(confidence=confidence, run_length=run_length, refractory=refractory)
    for pred in predictions:
        event = debouncer.push(pred)
        if event is not None:
            yield event


@dataclass(frozen=True)
class MatchReport:
    """Result of aligning detected events against ground-truth onsets."""

    truth_count: int
    event_count: int
    matched: int
    false_positives: int
    recall: float
    median_lead: float  # truth time minus event time, median over all events


def match_events(events: list[BreathEvent], truth_onsets, tolerance: float = 1.0,
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
    for kind in BREATH_KINDS:
        truths = sorted(t for t, k in truth_onsets if k == kind)
        times = sorted(e.time for e in events if e.kind == kind)
        if not times or not truths:
            continue
        deltas = []
        for et in times:
            nearest = min(truths, key=lambda t: abs(t - et))
            deltas.append(nearest - et)
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
