"""Network parameters, Adagrad updates and global-norm gradient clipping.

Each network's parameters are a `Params` dataclass whose fields are its
tensors. Parameters and gradients travel as name -> array dicts in field
order, so one optimizer serves both networks.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteActivation, ShapeMismatch

EPSILON = 1e-8  # keeps the first steps finite where an accumulator is still zero


class Params:
    """A network's tensors, one float64 array per dataclass field.

    A subclass is a dataclass that declares the fields and `shapes()`, the
    shape each field must have. Construction makes every field a contiguous float64 array
    and raises ValueError for a wrong shape or a non-finite value. Training,
    evaluation and bundles use float64 only; `astype` makes the reduced-precision
    copy that streaming inference runs on.
    """

    def shapes(self) -> dict[str, tuple[int, ...]]:
        raise NotImplementedError

    def __post_init__(self):
        for field in dataclasses.fields(self):
            setattr(self, field.name,
                    np.ascontiguousarray(getattr(self, field.name), dtype=np.float64))
        for name, shape in self.shapes().items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")

    def astype(self, dtype):
        """A copy with every tensor cast to `dtype`, for forward passes; self is unchanged.

        The copy skips construction, so it keeps `dtype`. A finite value that the
        cast makes infinite (outside the float32 range, say) raises
        NonFiniteActivation; a NaN or infinity already present is copied as it
        is, for the forward pass's own checks to find.
        """
        cast = copy.copy(self)
        for name, arr in self.to_dict().items():
            with np.errstate(over="ignore"):
                narrow = np.ascontiguousarray(arr, dtype=dtype)
            overflow = np.isinf(narrow) & np.isfinite(arr)
            if overflow.any():
                largest = float(np.max(np.abs(arr[overflow])))
                raise NonFiniteActivation(f"weight {name} has a value of magnitude {largest:.3g}, "
                                          f"outside the {np.dtype(dtype).name} range")
            setattr(cast, name, narrow)
        return cast

    def to_dict(self) -> dict[str, np.ndarray]:
        """Name -> array view of the live parameter tensors (shared, not copied), in field order."""
        return {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, tensors: dict[str, np.ndarray]):
        return cls(**{field.name: tensors[field.name] for field in dataclasses.fields(cls)})


@dataclass
class AdagradState:
    """Per-parameter squared-gradient accumulators and the step size.

    Accumulators only ever grow, which is what damps the effective step
    over time.
    """

    accumulators: dict[str, np.ndarray]
    learning_rate: float

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], learning_rate: float) -> "AdagradState":
        if learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        return cls({k: np.zeros_like(v) for k, v in params.items()}, learning_rate)


def adagrad_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                 state: AdagradState) -> None:
    """One Adagrad update, in place: G += g*g; p -= lr * g / (sqrt(G) + EPSILON)."""
    if set(params) != set(grads) or set(params) != set(state.accumulators):
        raise ShapeMismatch(
            f"parameter names differ: params={sorted(params)}, grads={sorted(grads)}, "
            f"accumulators={sorted(state.accumulators)}"
        )
    for name, p in params.items():
        g = grads[name]
        acc = state.accumulators[name]
        if g.shape != p.shape or acc.shape != p.shape:
            raise ShapeMismatch(
                f"{name}: params {p.shape}, grads {g.shape}, accumulators {acc.shape}"
            )
        acc += g * g
        p -= state.learning_rate * g / (np.sqrt(acc) + EPSILON)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most max_norm.

    Returns the pre-clip norm.
    """
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total
