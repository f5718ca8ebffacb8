"""Oracles, readers and data the tests share; nothing in the package calls them."""

from __future__ import annotations

import math

import numpy as np

from breathsentinel.errors import BreathSentinelError, ShapeMismatch
from breathsentinel.synthgen import GroundTruth, gen_corpus


class NonFiniteLoss(BreathSentinelError):
    """Loss evaluated to NaN or infinity during gradient checking."""


def grad_check(loss_fn, params: dict[str, np.ndarray], analytic: dict[str, np.ndarray],
               h: float = 1e-5, sample: int | None = None, rng=None) -> float:
    """Max relative disagreement between analytic and central-difference gradients.

    loss_fn is called with the params dict; coordinates are perturbed in
    place one at a time, numeric = (f(p+h) - f(p-h)) / 2h, and the error is
    |a - n| / max(1, |a|, |n|). With `sample` set, only that many randomly
    chosen coordinates per tensor are probed; full-size networks are far too
    large for an exhaustive sweep.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if set(params) != set(analytic):
        raise ShapeMismatch(
            f"parameter names differ: params={sorted(params)}, analytic={sorted(analytic)}"
        )
    worst = 0.0
    for name in sorted(params):
        arr = params[name]
        a_arr = analytic[name]
        if arr.shape != a_arr.shape:
            raise ShapeMismatch(f"{name}: params {arr.shape}, analytic {a_arr.shape}")
        if sample is None or sample >= arr.size:
            coords = range(arr.size)
        else:
            coords = rng.choice(arr.size, size=sample, replace=False)
        for i in coords:
            idx = np.unravel_index(i, arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            hi = float(loss_fn(params))
            arr[idx] = orig - h
            lo = float(loss_fn(params))
            arr[idx] = orig
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise NonFiniteLoss(f"{name}{list(idx)}: loss not finite at perturbed point")
            numeric = (hi - lo) / (2.0 * h)
            analytic_value = float(a_arr[idx])
            err = abs(analytic_value - numeric) / max(1.0, abs(analytic_value), abs(numeric))
            worst = max(worst, err)
    return worst


def truth_from_csv(text: str) -> GroundTruth:
    """The GroundTruth a `time_s,kind` CSV (GroundTruth.to_csv) holds."""
    rows = []
    for line in text.strip().splitlines()[1:]:
        t, k = line.split(",")
        rows.append((float(t), k))
    return GroundTruth(onsets=tuple(rows))


def write_desk_corpus(root) -> None:
    """The tests' desk corpus: 140 clips per class at seed 1234, big enough for split plans."""
    gen_corpus(140, seed=1234, out_dir=root)
