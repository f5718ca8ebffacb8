import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breathsentinel import autoencoder, rnn
from breathsentinel.errors import ShapeMismatch
from breathsentinel.model_io import TENSOR_ORDER
from breathsentinel.optim import AdagradState, adagrad_step, clip_gradients
from helpers import NonFiniteLoss, grad_check


def _state(params, lr):
    return AdagradState.for_params(params, learning_rate=lr)


def test_zero_gradient_changes_nothing():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    grads = {"w": np.zeros(3)}
    state = _state(params, 0.1)
    adagrad_step(params, grads, state)
    assert np.array_equal(params["w"], [1.0, -2.0, 3.0])
    assert not state.accumulators["w"].any()


def test_hand_computed_update():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([2.0])}
    state = _state(params, 0.1)
    adagrad_step(params, grads, state)
    assert state.accumulators["w"][0] == pytest.approx(4.0)
    assert params["w"][0] == pytest.approx(0.9, abs=1e-8)


def test_second_equal_gradient_step_is_smaller():
    params = {"w": np.array([1.0])}
    state = _state(params, 0.1)
    adagrad_step(params, {"w": np.array([2.0])}, state)
    first = abs(1.0 - params["w"][0])
    before = params["w"][0]
    adagrad_step(params, {"w": np.array([2.0])}, state)
    second = abs(before - params["w"][0])
    assert second < first


def test_accumulators_never_decrease():
    rng = np.random.default_rng(3)
    params = {"w": rng.standard_normal(8)}
    state = _state(params, 0.05)
    prev = state.accumulators["w"].copy()
    for _ in range(20):
        adagrad_step(params, {"w": rng.standard_normal(8)}, state)
        assert np.all(state.accumulators["w"] >= prev)
        prev = state.accumulators["w"].copy()


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=-10, max_value=10,
                          allow_nan=False).filter(lambda g: abs(g) > 1e-6),
                min_size=3, max_size=3))
def test_update_opposes_gradient_sign(gs):
    params = {"w": np.zeros(3)}
    grads = {"w": np.array(gs)}
    state = _state(params, 0.01)
    adagrad_step(params, grads, state)
    assert np.all(np.sign(params["w"]) == -np.sign(grads["w"]))


def test_shape_mismatch_rejected():
    params = {"w": np.zeros(3)}
    state = _state(params, 0.1)
    with pytest.raises(ShapeMismatch):
        adagrad_step(params, {"w": np.zeros(4)}, state)
    with pytest.raises(ShapeMismatch):
        adagrad_step(params, {"v": np.zeros(3)}, state)


def test_clip_gradients_caps_global_norm():
    grads = {"a": np.array([3.0, 4.0]), "b": np.array([0.0])}
    pre = clip_gradients(grads, 1.0)
    assert pre == pytest.approx(5.0)
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert total == pytest.approx(1.0)
    # under the cap: untouched
    grads = {"a": np.array([0.3])}
    clip_gradients(grads, 1.0)
    assert grads["a"][0] == pytest.approx(0.3)


# --- gradient checking ---

def _quadratic(params):
    return float(np.sum(params["theta"] ** 2))


def test_grad_check_exact_for_quadratic():
    params = {"theta": np.array([3.0])}
    analytic = {"theta": np.array([6.0])}
    assert grad_check(_quadratic, params, analytic) <= 1e-8


def test_grad_check_flags_doubled_gradient():
    params = {"theta": np.array([3.0])}
    analytic = {"theta": np.array([12.0])}  # deliberately doubled
    err = grad_check(_quadratic, params, analytic)
    assert err == pytest.approx(0.5, abs=1e-6)


def test_grad_check_restores_params():
    params = {"theta": np.array([3.0, -1.0])}
    analytic = {"theta": np.array([6.0, -2.0])}
    grad_check(_quadratic, params, analytic)
    assert np.array_equal(params["theta"], [3.0, -1.0])


def test_grad_check_non_finite_loss():
    def bad_loss(params):
        return float("nan")

    with pytest.raises(NonFiniteLoss):
        grad_check(bad_loss, {"theta": np.array([1.0])}, {"theta": np.array([0.0])})


def test_grad_check_sampled_subset():
    params = {"theta": np.arange(1, 101, dtype=np.float64)}
    analytic = {"theta": 2.0 * params["theta"]}
    err = grad_check(_quadratic, params, analytic, sample=10,
                     rng=np.random.default_rng(9))
    assert err <= 1e-7


# --- network parameters ---

NETWORKS = [(autoencoder.AEParams, "ae", autoencoder.init_ae),
            (rnn.RNNParams, "rnn", rnn.init_rnn)]


@pytest.mark.parametrize("cls, prefix, init", NETWORKS)
def test_params_follow_the_stored_tensor_order(cls, prefix, init):
    # to_dict, from_dict, the optimizer and the .bsm tensor order all walk the fields
    names = tuple(field.name for field in dataclasses.fields(cls))
    assert tuple(name.split(".")[1] for name in TENSOR_ORDER
                 if name.startswith(prefix + ".")) == names
    params = init(0)
    tensors = params.to_dict()
    assert tuple(tensors) == names
    assert all(tensors[name] is getattr(params, name) for name in names)
    assert cls.from_dict(tensors).to_dict().keys() == tensors.keys()


@pytest.mark.parametrize("cls, prefix, init", NETWORKS)
def test_params_hold_contiguous_finite_float64_tensors_of_their_shapes(cls, prefix, init):
    tensors = {name: np.asfortranarray(arr.astype(np.float32))
               for name, arr in init(0).to_dict().items()}
    for name, arr in cls.from_dict(tensors).to_dict().items():
        assert arr.dtype == np.float64 and arr.flags.c_contiguous, name
    for name in tensors:
        bad = dict(tensors, **{name: np.append(tensors[name], 0.0)})
        with pytest.raises(ValueError, match="must have shape"):  # w_hh sets the hidden size
            cls.from_dict(bad)
        bad = dict(tensors, **{name: np.full_like(tensors[name], np.nan)})
        with pytest.raises(ValueError, match=f"{name} contains non-finite"):
            cls.from_dict(bad)
