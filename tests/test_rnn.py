import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from breathsentinel import rnn
from breathsentinel.autoencoder import init_ae
from breathsentinel.config import RunConfig
from breathsentinel.corpus import CLIP_BLOCK, make_split
from breathsentinel.errors import EmptyEvalSet
from helpers import grad_check


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

def window_scores(params, window):
    return rnn._forward_codes(params, window)[1]


def test_zero_params_give_half_scores():
    assert np.allclose(window_scores(zeroed_params(), random_window(1)), 0.5)


def test_zero_input_with_zero_wxh_ignores_input():
    params = rnn.init_rnn(3)
    tensors = params.to_dict()
    tensors["w_xh"] = np.zeros_like(tensors["w_xh"])
    params = rnn.RNNParams.from_dict(tensors)
    a = window_scores(params, random_window(10))
    b = window_scores(params, random_window(11))
    assert np.array_equal(a, b)  # only the bias chain matters


def test_forward_matches_recurrence_oracle():
    params = rnn.init_rnn(4)
    window = random_window(5)
    mine = window_scores(params, window)
    expected = oracle_forward(params, window)
    assert np.max(np.abs(mine - expected)) < 1e-6


@pytest.mark.parametrize("hidden", [75, 7])
def test_windows_in_flight_match_the_per_window_recurrence(hidden):
    params = rnn.init_rnn(8, hidden)
    codes = np.random.default_rng(hidden).uniform(-1.0, 1.0, (200, 50))
    states = np.zeros((rnn.WINDOW_FRAMES, hidden))
    for code in codes[:rnn.WINDOW_FRAMES - 1]:
        assert rnn.advance(params, states, code) is states
    for end in range(rnn.WINDOW_FRAMES, codes.shape[0] + 1):
        scores = rnn.rnn_forward(params, states, codes[end - 1])
        expected = window_scores(params, codes[end - rnn.WINDOW_FRAMES:end])
        assert np.max(np.abs(scores - expected)) < 1e-12, end


@pytest.mark.parametrize("hidden", [75, 7])
def test_batched_windows_match_row_by_row_calls(hidden):
    params = rnn.init_rnn(12, hidden)
    windows = np.random.default_rng(hidden).uniform(-1.0, 1.0, (200, 16, 50))
    h, scores = rnn._forward_codes(params, windows)
    assert h.shape == (17, 200, hidden) and scores.shape == (200, 3)
    for i, window in enumerate(windows):
        h_i, scores_i = rnn._forward_codes(params, window)
        assert np.max(np.abs(h[:, i] - h_i)) < 1e-12, i
        assert np.max(np.abs(scores[i] - scores_i)) < 1e-12, i
        assert np.argmax(scores[i]) == np.argmax(scores_i), i


def test_evaluate_matches_a_per_clip_loop(desk_corpus):
    params, ae = rnn.init_rnn(13), init_ae(13)
    rows = np.random.default_rng(14).choice(len(desk_corpus), size=30, replace=False)
    labels = desk_corpus.labels[rows]
    predicted = []
    for clip in desk_corpus.clips(rows):
        codes = rnn._encode_samples(ae, clip[np.newaxis])[0]
        predicted.append(int(np.argmax(rnn._forward_codes(params, codes)[1])))
    confusion = np.zeros((3, 3), dtype=np.int64)
    for truth, pred in zip(labels, predicted):
        confusion[truth, pred] += 1
    m = rnn.evaluate(params, ae, desk_corpus, rows)
    assert np.array_equal(m.confusion, confusion)
    assert m.accuracy == np.trace(confusion) / 30


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
    transformed = base ** power  # monotone on (0,1)
    # rounding can merge two close scores into a tie, never reorder them
    assume(len(set(transformed.tolist())) == len(set(scores)))
    label_a, _ = rnn.classify(base)
    label_b, _ = rnn.classify(transformed)
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
    target = rnn.one_hot(1)
    grads, _ = rnn._backward_codes(params, window, target)

    def loss(tensors):
        p = rnn.RNNParams.from_dict(tensors)
        _, scores = rnn._forward_codes(p, window)
        return rnn.bce_loss(scores, target)

    err = grad_check(loss, params.to_dict(), grads, sample=12,
                     rng=np.random.default_rng(1))
    assert err <= 1e-4


def outer_product_bptt(params, codes, target):
    """BPTT with the weight gradients summed as one outer product per step."""
    h, scores = rnn._forward_codes(params, codes)
    loss = rnn.bce_loss(scores, target)
    dlogits = scores - target
    grads = {"w_xh": np.zeros_like(params.w_xh), "w_hh": np.zeros_like(params.w_hh),
             "b_h": np.zeros_like(params.b_h), "w_hy": np.outer(h[-1], dlogits),
             "b_y": dlogits.copy()}
    dh = params.w_hy @ dlogits
    for t in range(codes.shape[0] - 1, -1, -1):
        draw = dh * (1.0 - h[t + 1] * h[t + 1])
        grads["b_h"] += draw
        grads["w_xh"] += np.outer(codes[t], draw)
        grads["w_hh"] += np.outer(h[t], draw)
        dh = params.w_hh @ draw
    return grads, loss


@pytest.mark.parametrize("hidden", [50, 75, 100])
def test_bptt_matches_the_outer_product_oracle(hidden):
    rng = np.random.default_rng(hidden)
    for i in range(12):
        params = rnn.init_rnn(hidden + i, hidden)
        codes = rng.uniform(-1.0, 1.0, (16, 50))
        target = rnn.one_hot(i % 3)
        grads, loss = rnn._backward_codes(params, codes, target)
        expected, expected_loss = outer_product_bptt(params, codes, target)
        assert loss == expected_loss, i
        assert grads.keys() == expected.keys()
        for name, g in expected.items():
            assert grads[name].shape == g.shape, name
            assert np.max(np.abs(grads[name] - g)) <= 1e-13, (i, name)


def test_recurrent_gradient_nonzero_for_time_varying_input():
    params = rnn.init_rnn(11)
    codes = np.random.default_rng(12).uniform(-0.9, 0.9, (16, 50))
    grads, _ = rnn._backward_codes(params, codes, rnn.one_hot(0))
    assert np.max(np.abs(grads["w_hh"])) > 0


# --- metrics ---

def test_perfect_predictions_score_one():
    labels = np.array([0, 1, 2] * 4)
    m = rnn._metrics_from_predictions(labels, labels)
    assert m.accuracy == 1.0
    assert m.macro_f1 == 1.0
    assert np.array_equal(np.diag(m.confusion), [4, 4, 4])
    assert m.confusion.sum() == 12


def test_always_unknown_on_balanced_set_scores_one_third():
    labels = np.array([0, 1, 2] * 5)
    m = rnn._metrics_from_predictions(labels, np.full(15, 2))
    assert m.accuracy == pytest.approx(1 / 3)
    assert m.f1["inhale"] == 0.0


def test_class_absent_from_truth_and_predictions_scores_zero_f1():
    labels = np.array([0, 1, 0, 1])
    m = rnn._metrics_from_predictions(labels, np.array([0, 1, 1, 1]))
    assert m.f1 == {"inhale": pytest.approx(2 / 3), "exhale": pytest.approx(0.8), "unknown": 0.0}
    assert m.macro_f1 == pytest.approx((2 / 3 + 0.8) / 3)
    assert m.confusion.tolist() == [[1, 1, 0], [0, 2, 0], [0, 0, 0]]


def test_evaluate_refuses_empty_set(desk_corpus):
    with pytest.raises(EmptyEvalSet):
        rnn.evaluate(rnn.init_rnn(0), init_ae(0), desk_corpus, np.zeros(0, dtype=np.intp))


# --- training plumbing ---

def test_train_zero_epochs_returns_initialized(desk_corpus):
    ae = init_ae(2)
    params, trace = rnn.train_rnn(desk_corpus, ae, RunConfig(rnn_epochs=0, seed=2))
    reference = rnn.init_rnn(2)
    for name, tensor in params.to_dict().items():
        assert np.array_equal(tensor, getattr(reference, name))
    assert trace == []


def test_validation_draw_changes_between_epochs(desk_corpus):
    from breathsentinel.corpus import CLIP_BLOCK, make_split
    plan = make_split(desk_corpus, 5)
    v0, t0 = plan.epoch_draw(0)
    v1, t1 = plan.epoch_draw(1)
    assert not np.array_equal(v0, v1)
    assert set(v0).isdisjoint(t0) and set(v1).isdisjoint(t1)


def test_short_training_is_deterministic(desk_corpus):
    ae = init_ae(3)
    cfg = RunConfig(rnn_epochs=2, seed=3)
    p1, t1 = rnn.train_rnn(desk_corpus, ae, cfg)
    p2, t2 = rnn.train_rnn(desk_corpus, ae, cfg)
    assert t1 == t2
    for name, tensor in p1.to_dict().items():
        assert np.array_equal(tensor, getattr(p2, name))


@pytest.mark.parametrize("noise_aug", [True, False])
def test_each_epoch_encodes_its_training_then_validation_rows_in_blocks(desk_corpus,
                                                                       monkeypatch, noise_aug):
    def key(samples):
        return hashlib.sha256(samples.tobytes()).digest()

    rows = range(len(desk_corpus))
    row_of = {key(clip): row for row, clip in zip(rows, desk_corpus.clips(rows))}
    assert len(row_of) == len(desk_corpus)
    calls = []  # one list per _encode_samples call: the corpus row of each clip, None if augmented
    encode = rnn._encode_samples

    def recording(ae, clips):
        assert clips.dtype == np.float64 and len(clips) <= CLIP_BLOCK
        calls.append([row_of.get(key(clip)) for clip in clips])
        return encode(ae, clips)

    monkeypatch.setattr(rnn, "_encode_samples", recording)
    epochs = 3
    cfg = RunConfig(seed=5, rnn_epochs=epochs, noise_aug=noise_aug)
    rnn.train_rnn(desk_corpus, init_ae(0), cfg)

    expected = []
    for epoch in range(epochs):
        val, train = make_split(desk_corpus, 5).epoch_draw(epoch)
        train = [None] * len(train) if noise_aug else train.tolist()
        for block_rows in (train, val.tolist()):  # training clips, then validation clips plain
            expected += [block_rows[start:start + CLIP_BLOCK]
                         for start in range(0, len(block_rows), CLIP_BLOCK)]
    assert calls == expected
