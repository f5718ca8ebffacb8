"""Breath-interval statistics and the two alarm tests.

Arrest detection: the time since the last breath is compared against the
upper limit of a confidence interval over acceptable individual gaps,
built from the infant's own recent intervals. Trend detection: a one-sided
t-test for a positive regression slope of interval duration on breath
index, which catches gradual slowing long before any single gap looks
alarming. Both tests adapt to the monitored subject instead of using a
fixed threshold. Both thresholds use Student-t quantiles, bisected on the
closed-form CDF for integer degrees of freedom, so no statistics library
is needed. Every time here is in the event time base that
stream.Debouncer keeps.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .config import TREND_MIN_INTERVALS, RunConfig
from .errors import DomainError, NonMonotonicTime
from .stream import BreathEvent, Debouncer, PredictionFrame

ARREST_MIN_INTERVALS = 5
ARREST_FLOOR_SECONDS = 0.5


@dataclass(frozen=True)
class Alert:
    """One raised alarm; the statistic exceeded the threshold at `time`."""

    kind: str  # arrest | trend
    time: float
    statistic: float
    threshold: float


class IntervalSeries:
    """Ring buffer of the most recent inhale-to-inhale durations.

    Inhale events append a new interval (gap since the previous inhale)
    and exhale events only refresh the last-breath clock; both feed the
    arrest test, but the trend test runs on full breath cycles only.

    `mean` and `sd` (sample sd, ddof=1) describe the buffered intervals.
    They change only when an interval is appended, so they are computed
    there rather than on every arrest tick; `sd` is NaN below 2 intervals.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._intervals: deque[float] = deque(maxlen=capacity)
        self.last_breath_time: float | None = None
        self._last_inhale: float | None = None
        self.mean = math.nan
        self.sd = math.nan

    def __len__(self) -> int:
        return len(self._intervals)

    def intervals(self) -> np.ndarray:
        return np.asarray(self._intervals, dtype=np.float64)

    def push_event(self, event: BreathEvent) -> None:
        if self.last_breath_time is not None and event.time <= self.last_breath_time:
            raise NonMonotonicTime(
                f"event at {event.time} s does not advance past {self.last_breath_time} s")
        if event.kind == "inhale":
            if self._last_inhale is not None:
                self._intervals.append(event.time - self._last_inhale)
                xs = self.intervals()
                self.mean = float(xs.mean())
                if xs.size > 1:
                    self.sd = float(xs.std(ddof=1))
            self._last_inhale = event.time
        self.last_breath_time = event.time


def _t_cdf(t: float, df: int) -> float:
    """P(T <= t) for Student's t with an integer df >= 1.

    Abramowitz & Stegun, Handbook of Mathematical Functions, 26.7.3-26.7.4:
    with theta = atan(t / sqrt(df)), 2P - 1 is (2/pi)(theta + sin cos S)
    for odd df and sin S for even df. S is a finite sum whose first term is
    1 and each next term the last times cos^2 * k / (k + 1), for k = 2, 4,
    ... (odd df) or 1, 3, ... (even df) up to df - 3; at df = 1 it is empty.
    """
    theta = math.atan(t / math.sqrt(df))
    sin, cos = math.sin(theta), math.cos(theta)
    term, total = 1.0, 0.0
    for k in range(1 + df % 2, df, 2):
        total += term
        term *= cos * cos * k / (k + 1)
    if df % 2:
        return 0.5 + (theta + sin * cos * total) / math.pi
    return 0.5 + 0.5 * sin * total


# A run asks for two p values (arrest and trend) with df below the config's
# interval_window cap of 200, so at most 398 pairs: this bound never evicts.
@functools.lru_cache(maxsize=512)
def t_quantile(p: float, df: int) -> float:
    """Upper quantile of Student's t, found by bisection on the CDF.

    Valid for p in (0.5, 1) and integer df >= 1; absolute error at most 1e-6.
    Memoized per (p, df): the alarms ask for the same few pairs on every
    tick. A call outside the domain raises every time, since exceptions
    are not cached; `t_quantile.__wrapped__` is the uncached bisection.
    """
    if not 0.5 < p < 1.0:
        raise DomainError(f"p must be in (0.5, 1), got {p}")
    if not (isinstance(df, (int, np.integer)) and df >= 1):
        raise DomainError(f"df must be an integer >= 1, got {df}")
    lo, hi = 0.0, 1.0
    while _t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e15:
            raise DomainError(f"quantile search failed for p={p}, df={df}")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if _t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ols_slope_t(y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y against its index, and the slope t-statistic.

    t = b1 / SE(b1) with SE(b1) = sqrt(SSE / (n - 2)) / sqrt(Sxx). A
    zero-residual fit has SE = 0; the statistic is then +/-inf in the
    direction of the slope (0 for a flat line), which is what makes the
    perfect-line convention in slope_check fall out naturally.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if n < 3:
        raise DomainError(f"need at least 3 points for a slope t-statistic, got {n}")
    x = np.arange(n, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.sum(xc * xc))
    b1 = float(np.sum(xc * yc)) / sxx
    sse = float(np.sum((yc - b1 * xc) ** 2))
    se = math.sqrt(sse / (n - 2)) / math.sqrt(sxx)
    if se == 0.0:
        t = math.inf if b1 > 0 else (-math.inf if b1 < 0 else 0.0)
    else:
        t = b1 / se
    return b1, t


def arrest_check(series: IntervalSeries, now: float, ci_level: float) -> Alert | None:
    """Alarm when the time since the last breath exceeds the tolerance bound.

    The bound is mean + t_{(1+ci)/2, n-1} * sd over the buffered
    intervals (the upper limit of a two-sided interval over acceptable
    individual gaps, using the sample sd), floored at mean + 0.5 s so a
    near-constant rhythm cannot arm a hair trigger. Unarmed until 5
    intervals exist. Monotone in `now`: once it alerts, any later call on
    the same series alerts too.
    """
    n = len(series)
    if n < ARREST_MIN_INTERVALS:
        return None
    quantile = t_quantile(0.5 + ci_level / 2.0, n - 1)
    mean = series.mean
    bound = max(mean + quantile * series.sd, mean + ARREST_FLOOR_SECONDS)
    elapsed = now - series.last_breath_time
    if elapsed > bound:
        return Alert(kind="arrest", time=now, statistic=elapsed, threshold=bound)
    return None


def slope_check(series: IntervalSeries, alpha: float) -> Alert | None:
    """One-sided t-test for a positive trend in the buffered intervals.

    Lengthening intervals are the dangerous direction, so only a positive
    slope can alarm; a perfect positive line (zero residual) alarms by
    convention. Needs at least 8 intervals.
    """
    xs = series.intervals()
    if xs.size < TREND_MIN_INTERVALS:
        return None
    b1, t = ols_slope_t(xs)
    threshold = t_quantile(1.0 - alpha, int(xs.size) - 2)
    if t > threshold:
        return Alert(kind="trend", time=series.last_breath_time, statistic=t, threshold=threshold)
    return None


def run_detection(predictions: Iterable[PredictionFrame],
                  cfg: RunConfig) -> Iterator[BreathEvent | Alert]:
    """Full detection chain: predictions -> debounced events -> alarms.

    The debouncer reads `confidence`, `run_length` and `refractory` from
    `cfg`, the interval buffer `interval_window`, the arrest test
    `ci_level` and the trend test `trend_alpha`.

    Yields BreathEvent and Alert objects in detection order, every
    timestamp in the debouncer's event time base: the arrest clock is
    each prediction's end time less `Debouncer.lag`.

    Alarms are edge-triggered episodes: a kind fires when its statistic
    crosses the threshold and stays silent until the condition clears
    again, so one sustained condition yields exactly one alert. The
    arrest test ticks on every prediction (every 1/8 s); the trend test
    runs after each new interval.
    """
    debouncer = Debouncer(cfg.confidence, cfg.run_length, cfg.refractory)
    series = IntervalSeries(cfg.interval_window)
    trend_armed = arrest_armed = True
    for pred in predictions:
        event = debouncer.push(pred)
        if event is not None:
            series.push_event(event)
            yield event
            if event.kind == "inhale":
                alert = slope_check(series, cfg.trend_alpha)
                if alert is not None and trend_armed:
                    yield alert
                trend_armed = alert is None
        alert = arrest_check(series, pred.end_time - debouncer.lag, cfg.ci_level)
        if alert is not None and arrest_armed:
            yield alert
        arrest_armed = alert is None
