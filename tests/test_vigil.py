import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from breathsentinel.config import RunConfig
from breathsentinel.errors import DomainError, NonMonotonicTime
from breathsentinel.stream import WINDOW_SECONDS, BreathEvent, Debouncer, PredictionFrame
from breathsentinel.vigil import (
    Alert,
    IntervalSeries,
    _t_cdf,
    arrest_check,
    ols_slope_t,
    run_detection,
    slope_check,
    t_quantile,
)

CFG = RunConfig()


def series_from_intervals(intervals, start=0.0):
    series = IntervalSeries(CFG.interval_window)
    t = start
    series.push_event(BreathEvent(time=t, kind="inhale"))
    for gap in intervals:
        t += gap
        series.push_event(BreathEvent(time=t, kind="inhale"))
    return series


# --- interval bookkeeping ---

def test_intervals_from_regular_inhales():
    series = series_from_intervals([2.5, 2.5])
    assert np.allclose(series.intervals(), [2.5, 2.5])
    assert series.last_breath_time == 5.0


def test_ring_buffer_keeps_latest_20():
    series = series_from_intervals([2.5] * 24)
    assert len(series) == 20


def test_exhale_updates_clock_but_not_intervals():
    series = IntervalSeries(CFG.interval_window)
    series.push_event(BreathEvent(time=1.0, kind="inhale"))
    series.push_event(BreathEvent(time=2.1, kind="exhale"))
    assert len(series) == 0
    assert series.last_breath_time == 2.1
    series.push_event(BreathEvent(time=3.5, kind="inhale"))
    assert np.allclose(series.intervals(), [2.5])  # inhale-to-inhale


def test_non_monotonic_event_rejected():
    series = IntervalSeries(CFG.interval_window)
    series.push_event(BreathEvent(time=2.0, kind="inhale"))
    with pytest.raises(NonMonotonicTime):
        series.push_event(BreathEvent(time=2.0, kind="exhale"))


# --- t quantile ---

def test_t_quantile_reference_values():
    assert t_quantile(0.95, 10) == pytest.approx(1.8125, abs=2e-4)
    assert t_quantile(0.90, 19) == pytest.approx(1.3277, abs=2e-4)


def test_t_quantile_large_df_approaches_normal():
    assert t_quantile(0.95, 100000) == pytest.approx(1.6449, abs=1e-3)


def test_t_quantile_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = rng.uniform(0.55, 0.995)
        df = int(rng.integers(1, 500))
        assert t_quantile(p, df) == pytest.approx(stats.t.ppf(p, df), abs=1e-6)


def test_t_quantile_domain_errors():
    for _ in range(2):  # the memoized function must not cache a failure
        with pytest.raises(DomainError):
            t_quantile(0.4, 10)
        with pytest.raises(DomainError):
            t_quantile(1.0, 10)
        with pytest.raises(DomainError):
            t_quantile(0.9, 0)
        with pytest.raises(DomainError):
            t_quantile(0.9, 2.5)


def test_t_cdf_matches_scipy_for_integer_df():
    ts = np.concatenate([np.linspace(0.0, 5.0, 21), np.linspace(6.0, 50.0, 12)])
    for df in range(1, 1001):
        cdf = np.array([_t_cdf(float(t), df) for t in ts])
        assert np.max(np.abs(cdf - stats.t.cdf(ts, df))) <= 1e-12, df


def test_t_cdf_closed_forms_at_one_and_two_df():
    for t in (0.0, 0.01, 0.5, 1.0, 3.0, 12.0, 1e4):
        assert _t_cdf(t, 1) == pytest.approx(0.5 + math.atan(t) / math.pi, abs=1e-15)
        assert _t_cdf(t, 2) == pytest.approx(0.5 + t / (2.0 * math.sqrt(2.0 + t * t)), abs=1e-15)


def test_memoized_t_quantile_is_bit_equal_to_bisection():
    rng = np.random.default_rng(3)
    pairs = [(p, df) for p in (0.90, 0.95) for df in range(1, 200)]
    pairs += [(float(rng.uniform(0.51, 0.999)), int(rng.integers(1, 1000))) for _ in range(300)]
    for p, df in pairs:
        expected = t_quantile.__wrapped__(p, df)
        assert t_quantile(p, df) == expected
        assert t_quantile(p, df) == expected  # second call is served from the cache


# --- arrest test ---

def test_arrest_unarmed_below_five_intervals():
    series = series_from_intervals([2.5] * 4)  # n = 4
    assert arrest_check(series, now=series.last_breath_time + 1000.0, ci_level=CFG.ci_level) is None


def test_arrest_constant_rhythm_uses_floor_bound():
    series = series_from_intervals([2.5] * 10)
    # sd = 0 so the bound is the floor: mean + 0.5 = 3.0
    last = series.last_breath_time
    assert arrest_check(series, now=last + 3.0, ci_level=CFG.ci_level) is None
    alert = arrest_check(series, now=last + 3.1, ci_level=CFG.ci_level)
    assert alert is not None
    assert alert.kind == "arrest"
    assert alert.threshold == pytest.approx(3.0)
    assert alert.statistic == pytest.approx(3.1)


def test_arrest_spread_bound_with_known_statistics():
    rng = np.random.default_rng(1)
    intervals = rng.normal(2.5, 0.3, 20)
    series = series_from_intervals(intervals)
    mean = float(np.mean(series.intervals()))
    sd = float(np.std(series.intervals(), ddof=1))
    expected_bound = max(mean + t_quantile(0.90, 19) * sd, mean + 0.5)
    assert arrest_check(series, now=series.last_breath_time + expected_bound - 0.01, ci_level=CFG.ci_level) is None
    alert = arrest_check(series, now=series.last_breath_time + expected_bound + 0.01, ci_level=CFG.ci_level)
    assert alert is not None
    assert alert.threshold == pytest.approx(expected_bound, abs=1e-9)


def test_arrest_no_alert_within_bound_example():
    # mean 2.5, sd 0.3, n 20: spread limit 2.5 + 1.328 * 0.3 = 2.898;
    # elapsed 2.7 stays quiet
    base = np.array([2.2, 2.8] * 10)
    scale = 0.3 / np.std(base, ddof=1)
    intervals = 2.5 + (base - base.mean()) * scale
    series = series_from_intervals(intervals)
    assert float(np.std(series.intervals(), ddof=1)) == pytest.approx(0.3)
    assert arrest_check(series, now=series.last_breath_time + 2.7, ci_level=CFG.ci_level) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_arrest_is_monotone_in_elapsed_time(seed):
    rng = np.random.default_rng(seed)
    series = series_from_intervals(rng.uniform(1.5, 3.5, 12))
    last = series.last_breath_time
    fired_at = None
    for step in range(80):
        now = last + 0.25 * step
        alert = arrest_check(series, now=now, ci_level=CFG.ci_level)
        if fired_at is not None:
            assert alert is not None  # once armed and exceeded, stays exceeded
        if alert is not None and fired_at is None:
            fired_at = now


# --- trend test ---

def test_constant_intervals_never_trend():
    series = series_from_intervals([2.5] * 12)
    assert slope_check(series, CFG.trend_alpha) is None


def test_exact_positive_line_alerts_by_convention():
    # 0.5 steps are exactly representable, so the fit has zero residual
    series = series_from_intervals(np.arange(2.5, 7.5, 0.5))
    alert = slope_check(series, CFG.trend_alpha)
    assert alert is not None
    assert alert.kind == "trend"
    assert math.isinf(alert.statistic)


def test_near_exact_line_also_alerts():
    series = series_from_intervals(np.arange(2.5, 3.5, 0.1))  # tiny float residue
    alert = slope_check(series, CFG.trend_alpha)
    assert alert is not None
    assert alert.statistic > alert.threshold


def test_below_minimum_points_stays_quiet():
    series = series_from_intervals(np.arange(2.5, 3.2, 0.1)[:7])
    assert slope_check(series, CFG.trend_alpha) is None


def test_noisy_slope_matches_reference_regression():
    rng = np.random.default_rng(42)
    y = 2.5 + 0.04 * np.arange(15) + rng.normal(0, 0.05, 15)
    series = series_from_intervals(y)
    b1, t = ols_slope_t(series.intervals())
    ref = stats.linregress(np.arange(15), series.intervals())
    assert b1 == pytest.approx(ref.slope, abs=1e-12)
    assert t == pytest.approx(ref.slope / ref.stderr, abs=1e-6)
    alert = slope_check(series, CFG.trend_alpha)
    threshold = t_quantile(0.95, 13)
    assert (alert is not None) == (t > threshold)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.1, max_value=50.0))
def test_t_statistic_scale_invariant(seed, scale):
    rng = np.random.default_rng(seed)
    y = rng.uniform(1.0, 4.0, 12)
    b1, t = ols_slope_t(y)
    b1_scaled, t_scaled = ols_slope_t(y * scale)
    assert b1_scaled == pytest.approx(b1 * scale, rel=1e-9)
    if math.isfinite(t):
        assert t_scaled == pytest.approx(t, rel=1e-6, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_slope_t_matches_scipy_on_random_series(seed):
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.5, 5.0, int(rng.integers(8, 21)))
    b1, t = ols_slope_t(y)
    ref = stats.linregress(np.arange(y.size), y)
    assert b1 == pytest.approx(ref.slope, abs=1e-9)
    if ref.stderr > 0:
        assert t == pytest.approx(ref.slope / ref.stderr, abs=1e-6)



# --- chance rate of the trend alarm ---

NIGHTS = 40
NIGHT_SECONDS = 8 * 3600
NORMAL_PERIOD = 2.5
NORMAL_JITTER_SD = 0.1


def test_trend_alarm_chance_rate_over_forty_normal_nights():
    # Inhales on a 2.5 s grid, each jittered on its own as synthgen places
    # breaths: no trend at all, so every trend alert is a chance alert. The
    # edge rule is run_detection's: an alert is raised only after a check
    # that found nothing. 19 alerts in 320 h is 0.059 per hour.
    per_night = []
    for night in range(NIGHTS):
        n = int(NIGHT_SECONDS / NORMAL_PERIOD)
        jitter = np.random.default_rng([night]).normal(0.0, NORMAL_JITTER_SD, n)
        series = IntervalSeries(CFG.interval_window)
        armed, raised = True, 0
        for time in (np.arange(n) * NORMAL_PERIOD + jitter).tolist():
            series.push_event(BreathEvent(time=time, kind="inhale"))
            alert = slope_check(series, CFG.trend_alpha)
            raised += alert is not None and armed
            armed = alert is None
        per_night.append(raised)
    assert sum(per_night) == 19
    assert sum(raised > 0 for raised in per_night) == 13


# --- combined detection driver ---

def test_run_detection_latches_arrest_once():
    preds = []
    t = 2.0
    # regular confident inhales every 2.5 s for 30 s, then silence
    while t < 30.0:
        phase = (t - 2.0) % 2.5
        label = "inhale" if phase < 0.375 else "unknown"
        preds.append(PredictionFrame(end_time=t, label=label, confidence=0.999))
        t += 0.125
    while t < 60.0:
        preds.append(PredictionFrame(end_time=t, label="unknown", confidence=0.999))
        t += 0.125
    out = list(run_detection(iter(preds), CFG))
    alerts = [o for o in out if getattr(o, "kind", "") == "arrest"]
    assert len(alerts) == 1
    events = [o for o in out if isinstance(o, BreathEvent)]
    assert len(events) >= 8
    assert alerts[0].time > events[-1].time
    # the alarm waited at least the tolerance bound past the last event
    assert alerts[0].time - events[-1].time >= alerts[0].threshold


def _breath_predictions(breaths, end):
    """Prediction stream with a confident inhale run at each breath time and
    an exhale run 1 s after it, every 1/8 s from 2 s up to `end`."""
    labels = {}
    for b in breaths:
        for k in range(4):
            labels.setdefault(round((b + 2.0) * 8) + k, "inhale")
            labels.setdefault(round((b + 3.0) * 8) + k, "exhale")
    return [PredictionFrame(end_time=i / 8, label=labels.get(i, "unknown"), confidence=0.999)
            for i in range(16, round(end * 8))]


def _reference_detection(predictions, interval_window, ci_level, trend_alpha):
    """run_detection with every statistic recomputed from the buffer on each tick."""
    quantile = t_quantile.__wrapped__
    debouncer = Debouncer(CFG.confidence, CFG.run_length, CFG.refractory)
    series = IntervalSeries(capacity=interval_window)
    lag = WINDOW_SECONDS + 2 * 0.125
    armed = {"arrest": True, "trend": True}
    out = []
    for pred in predictions:
        event = debouncer.push(pred)
        if event is not None:
            series.push_event(event)
            out.append(event)
            xs = series.intervals()
            if event.kind == "inhale":
                alert = None
                if xs.size >= 8:
                    _, t = ols_slope_t(xs)
                    threshold = quantile(1.0 - trend_alpha, xs.size - 2)
                    if t > threshold:
                        alert = Alert("trend", series.last_breath_time, t, threshold)
                if alert is not None and armed["trend"]:
                    armed["trend"] = False
                    out.append(alert)
                elif alert is None:
                    armed["trend"] = True
        xs = series.intervals()
        alert = None
        if xs.size >= 5:
            mean = float(xs.mean())
            sd = float(xs.std(ddof=1))
            bound = max(mean + quantile(0.5 + ci_level / 2.0, xs.size - 1) * sd, mean + 0.5)
            now = pred.end_time - lag
            if now - series.last_breath_time > bound:
                alert = Alert("arrest", now, now - series.last_breath_time, bound)
        if alert is not None and armed["arrest"]:
            armed["arrest"] = False
            out.append(alert)
        elif alert is None:
            armed["arrest"] = True
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.sampled_from(["steady", "arrest", "slowing", "gasps"]),
       st.floats(min_value=2.0, max_value=4.0),
       st.integers(min_value=5, max_value=20),
       st.sampled_from([0.8, 0.9, 0.95]),
       st.sampled_from([0.05, 0.1]))
def test_run_detection_matches_per_tick_reference(seed, mode, period, interval_window,
                                                  ci_level, trend_alpha):
    rng = np.random.default_rng(seed)
    breaths, t = [], 0.5
    for i in range(int(rng.integers(10, 30))):
        gap = period + rng.normal(0.0, 0.2)
        if mode == "slowing" and i >= 8:
            gap += 0.25 * (i - 7)
        if mode == "gasps" and rng.random() < 0.2:
            gap *= 3.0
        t += max(gap, 2.0)
        breaths.append(t)
    end = breaths[-1] + (40.0 if mode == "arrest" else 5.0)
    preds = _breath_predictions(breaths, end)
    kwargs = dict(interval_window=interval_window, ci_level=ci_level, trend_alpha=trend_alpha)
    got = list(run_detection(iter(preds), RunConfig(**kwargs)))
    assert got == _reference_detection(preds, **kwargs)
    if mode == "arrest":
        assert any(isinstance(o, Alert) and o.kind == "arrest" for o in got)
