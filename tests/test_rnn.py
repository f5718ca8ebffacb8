import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breathsentinel import rnn
from breathsentinel.autoencoder import init_ae
from breathsentinel.errors import EmptyEvalSet
from breathsentinel.optim import grad_check


def random_window(seed=0):
    return np.random.default_rng(seed).uniform(-0.9, 0.9, (16, 50))


def zeroed_params(seed=0):
    params = rnn.init_rnn(seed)
    return rnn.RNNParams.from_dict({k: np.zeros_like(v) for k, v in params.to_dict().items()})


def oracle_forward(params, codes):
    """Step-by-step recurrence with per-element sums, no batched matmul."""
    h = np.zeros(params.hidden)
    for t in range(codes.shape[0]):
        nxt = np.empty(params.hidden)
        for j in range(params.hidden):
            acc = params.b_h[j]
            acc += float(np.sum(codes[t] * params.w_xh[:, j]))
            acc += float(np.sum(h * params.w_hh[:, j]))
            nxt[j] = math.tanh(acc)
        h = nxt
    out = np.empty(3)
    for c in range(3):
        z = params.b_y[c] + float(np.sum(h * params.w_hy[:, c]))
        out[c] = 1.0 / (1.0 + math.exp(-z))
    return out


# --- types ---

def test_params_pin_hidden_and_output_sizes():
    params = rnn.init_rnn(0)
    assert params.hidden == 75
    assert params.w_hy.shape == (75, 3)
    with pytest.raises(ValueError):
        rnn.RNNParams(w_xh=np.zeros((50, 75)), w_hh=np.zeros((75, 75)),
                      b_h=np.zeros(75), w_hy=np.zeros((75, 4)), b_y=np.zeros(4))


# --- forward ---

def test_zero_params_give_half_scores():
    assert np.allclose(rnn.rnn_forward(zeroed_params(), random_window(1)), 0.5)


def test_zero_input_with_zero_wxh_ignores_input():
    params = rnn.init_rnn(3)
    tensors = params.to_dict()
    tensors["w_xh"] = np.zeros_like(tensors["w_xh"])
    params = rnn.RNNParams.from_dict(tensors)
    a = rnn.rnn_forward(params, random_window(10))
    b = rnn.rnn_forward(params, random_window(11))
    assert np.array_equal(a, b)  # only the bias chain matters


def test_forward_matches_recurrence_oracle():
    params = rnn.init_rnn(4)
    window = random_window(5)
    mine = rnn.rnn_forward(params, window)
    expected = oracle_forward(params, window)
    assert np.max(np.abs(mine - expected)) < 1e-6


def test_hidden_state_stays_bounded():
    params = rnn.init_rnn(6)
    tensors = params.to_dict()
    tensors["w_hh"] = tensors["w_hh"] * 50.0  # would explode without tanh
    params = rnn.RNNParams.from_dict(tensors)
    h, scores = rnn._forward_codes(params, np.random.default_rng(0).uniform(-1, 1, (16, 50)))
    assert np.all(np.abs(h) <= 1.0)
    assert np.isfinite(scores).all()


# --- classify ---

def test_classify_examples():
    assert rnn.classify(np.array([0.995, 0.30, 0.20])) == ("inhale", 0.995)
    assert rnn.classify(np.array([0.1, 0.2, 0.98])) == ("unknown", 0.98)


def test_classify_tie_breaks_by_class_order():
    label, conf = rnn.classify(np.array([0.4, 0.4, 0.4]))
    assert (label, conf) == ("inhale", 0.4)


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=3, max_size=3),
       st.floats(min_value=0.1, max_value=3.0))
def test_classify_invariant_under_monotone_transform(scores, power):
    base = np.array(scores)
    label_a, _ = rnn.classify(base)
    label_b, _ = rnn.classify(base ** power)  # strictly monotone on (0,1)
    assert label_a == label_b


# --- gradients ---

def test_output_gradient_zero_when_scores_equal_target():
    params = rnn.init_rnn(7)
    codes = np.random.default_rng(8).uniform(-0.9, 0.9, (16, 50))
    _, scores = rnn._forward_codes(params, codes)
    grads, _ = rnn._backward_codes(params, codes, scores)  # soft target == scores
    for g in grads.values():
        assert np.max(np.abs(g)) < 1e-12


def test_bptt_matches_finite_differences():
    params = rnn.init_rnn(9)
    window = random_window(10)
    target = rnn.one_hot("exhale")
    grads, _ = rnn._backward_codes(params, window, target)

    def loss(tensors):
        p = rnn.RNNParams.from_dict(tensors)
        _, scores = rnn._forward_codes(p, window)
        return rnn.bce_loss(scores, target)

    err = grad_check(loss, params.to_dict(), grads, sample=12,
                     rng=np.random.default_rng(1))
    assert err <= 1e-4


def test_recurrent_gradient_nonzero_for_time_varying_input():
    params = rnn.init_rnn(11)
    codes = np.random.default_rng(12).uniform(-0.9, 0.9, (16, 50))
    grads, _ = rnn._backward_codes(params, codes, rnn.one_hot("inhale"))
    assert np.max(np.abs(grads["w_hh"])) > 0


# --- metrics ---

def test_perfect_predictions_score_one():
    labels = ["inhale", "exhale", "unknown"] * 4
    m = rnn._metrics_from_predictions(labels, labels)
    assert m.accuracy == 1.0
    assert m.macro_f1 == 1.0
    assert np.array_equal(np.diag(m.confusion), [4, 4, 4])
    assert m.confusion.sum() == 12


def test_always_unknown_on_balanced_set_scores_one_third():
    labels = ["inhale", "exhale", "unknown"] * 5
    m = rnn._metrics_from_predictions(labels, ["unknown"] * 15)
    assert m.accuracy == pytest.approx(1 / 3)
    assert m.f1["inhale"] == 0.0


def test_evaluate_refuses_empty_set():
    with pytest.raises(EmptyEvalSet):
        rnn.evaluate(rnn.init_rnn(0), init_ae(0), [])


# --- training plumbing ---

def test_train_zero_epochs_returns_initialized(desk_corpus):
    ae = init_ae(2)
    params, trace = rnn.train_rnn(desk_corpus, ae, rnn.RNNTrainConfig(epochs=0, seed=2))
    reference = rnn.init_rnn(2)
    for name in rnn.TENSOR_NAMES:
        assert np.array_equal(getattr(params, name), getattr(reference, name))
    assert trace == []


def test_validation_draw_changes_between_epochs(desk_corpus):
    from breathsentinel.corpus import make_split
    plan = make_split(desk_corpus, 5)
    v0, t0 = plan.epoch_draw(0)
    v1, t1 = plan.epoch_draw(1)
    assert v0 != v1
    assert set(v0).isdisjoint(t0) and set(v1).isdisjoint(t1)


def test_short_training_is_deterministic(desk_corpus):
    ae = init_ae(3)
    cfg = rnn.RNNTrainConfig(epochs=2, seed=3)
    p1, t1 = rnn.train_rnn(desk_corpus, ae, cfg)
    p2, t2 = rnn.train_rnn(desk_corpus, ae, cfg)
    assert t1 == t2
    for name in rnn.TENSOR_NAMES:
        assert np.array_equal(getattr(p1, name), getattr(p2, name))
