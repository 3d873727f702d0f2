import math
import re
from dataclasses import replace

import numpy as np
import pytest

from windforecast import ann
from windforecast.ann import (
    MlpModel,
    TrainConfig,
    TrainHistory,
    gradient_check,
    history_to_csv,
    init_network,
    predict,
    train,
)
from windforecast.dataset import (
    DesignMatrix,
    FeatureSet,
    MinMaxScaler,
    SyntheticConfig,
    fit_scaler,
    generate_synthetic,
    select_features,
)
from windforecast.errors import (
    DimensionMismatch,
    InvalidArchitecture,
    InvalidConfig,
    NonFiniteLoss,
)
from windforecast.harness import from_json, to_json


def dm(rows, target, names=None):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[0] == 1 and len(np.ravel(target)) > 1:
        rows = rows.T
    if names is None:
        names = tuple(f"x{i+1}" for i in range(rows.shape[1]))
    return DesignMatrix(rows=rows, target=np.asarray(target, dtype=np.float64), feature_names=names)


def narrow_net(w, b, target_scale=1.0):
    """Four-hidden-layer chain of single neurons with hand-picked parameters."""
    return MlpModel(
        layer_sizes=(1, 1, 1, 1, 1, 1),
        activations=("relu", "relu", "sigmoid", "sigmoid", "identity"),
        weights=tuple(np.array([[wi]]) for wi in w),
        biases=tuple(np.array([bi]) for bi in b),
        input_scaler=None,
        target_scale=target_scale,
    )


# -- init ---------------------------------------------------------------------

def test_init_deterministic():
    a = init_network(2, seed=99)
    b = init_network(2, seed=99)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = init_network(2, seed=100)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_shapes_chain():
    model = init_network(3, hidden=(64, 32, 16, 8), seed=0)
    assert [w.shape for w in model.weights] == [(64, 3), (32, 64), (16, 32), (8, 16), (1, 8)]
    assert [b.shape for b in model.biases] == [(64,), (32,), (16,), (8,), (1,)]


def test_init_zero_biases_and_fan_in_bounds():
    model = init_network(2, seed=7)
    for b in model.biases:
        assert np.all(b == 0.0)
    for w, fan_in in zip(model.weights, model.layer_sizes[:-1]):
        assert np.max(np.abs(w)) <= 1.0 / math.sqrt(fan_in)


def test_init_architecture_validation():
    with pytest.raises(InvalidArchitecture):
        init_network(4, seed=0)
    with pytest.raises(InvalidArchitecture):
        init_network(1, hidden=(8, 8, 8), seed=0)
    with pytest.raises(InvalidArchitecture):
        init_network(1, hidden=(8, 0, 8, 8), seed=0)


def test_model_invariants():
    good = init_network(1, seed=0)
    with pytest.raises(InvalidArchitecture):
        MlpModel(
            layer_sizes=good.layer_sizes,
            activations=("relu",) * 5,  # output must be identity
            weights=good.weights,
            biases=good.biases,
        )
    with pytest.raises(InvalidArchitecture):
        MlpModel(
            layer_sizes=(1, 8, 8, 8, 8, 2),  # output width must be 1
            activations=good.activations,
            weights=good.weights,
            biases=good.biases,
        )
    with pytest.raises(InvalidArchitecture, match="input scaler has 2 features"):
        replace(good, input_scaler=MinMaxScaler(mins=[0.0, 0.0], maxs=[25.0, 360.0]))


@pytest.mark.parametrize("target_scale", [math.nan, math.inf, 0.0, -1.0, True, "2"])
def test_model_rejects_bad_target_scale(target_scale):
    with pytest.raises(InvalidArchitecture, match="target_scale"):
        narrow_net(w=[0.0] * 5, b=[0.0] * 5, target_scale=target_scale)


def test_model_stores_target_scale_as_a_float():
    net = narrow_net(w=[0.0] * 5, b=[0.0] * 5, target_scale=np.int64(2))
    assert type(net.target_scale) is float and net.target_scale == 2.0


# -- forward ------------------------------------------------------------------

def test_sigmoid_of_zero_is_half():
    # zero weights push zeros through the ReLU stack; both sigmoid layers
    # then emit 0.5 before the (zero-weight) output layer
    net = narrow_net(w=[0.0] * 5, b=[0.0] * 5)
    _, outputs = ann._forward_pass(net.weights, net.biases, net.activations, np.array([[3.0]]))
    assert outputs[3][0, 0] == 0.5
    assert outputs[4][0, 0] == 0.5
    assert predict(net, dm([3.0], [0.0]))[0] == 0.0


def test_relu_layer_with_negative_preactivations_is_zero():
    net = narrow_net(w=[1.0, 1.0, 0.0, 0.0, 0.0], b=[-5.0, 0.0, 0.0, 0.0, 0.0])
    zs, outputs = ann._forward_pass(net.weights, net.biases, net.activations, np.array([[2.0]]))
    assert zs[0][0, 0] == -3.0
    assert outputs[1][0, 0] == 0.0


def test_forward_matches_hand_computed_chain():
    w = [0.8, -1.2, 0.5, 2.0, -0.7]
    b = [0.1, 0.3, -0.2, 0.05, 0.4]
    ts = 500.0
    net = narrow_net(w, b, target_scale=ts)

    def by_hand(x):
        a1 = max(0.0, w[0] * x + b[0])
        a2 = max(0.0, w[1] * a1 + b[1])
        a3 = 1.0 / (1.0 + math.exp(-(w[2] * a2 + b[2])))
        a4 = 1.0 / (1.0 + math.exp(-(w[3] * a3 + b[3])))
        return (w[4] * a4 + b[4]) * ts

    for x in (0.0, 0.37, 1.0):
        assert predict(net, dm([x], [0.0]))[0] == pytest.approx(by_hand(x), rel=1e-12)


def test_forward_dimension_mismatch():
    net = init_network(2, seed=0)
    with pytest.raises(DimensionMismatch):
        predict(net, dm([1.0, 2.0, 3.0], [0.0]))
    with pytest.raises(DimensionMismatch):
        predict(net, dm(np.ones((4, 1)), np.zeros(4)))


def test_gradient_check_and_train_reject_wrong_width():
    net = init_network(2, seed=0)
    three_columns = dm(np.ones((4, 3)), np.zeros(4))
    with pytest.raises(DimensionMismatch, match="model expects 2 features, got 3"):
        gradient_check(net, three_columns)
    with pytest.raises(DimensionMismatch, match="model expects 2 features, got 3"):
        train(net, three_columns, TrainConfig(batch_size=4))


def test_one_row_predict_agrees_with_its_row_of_a_batch():
    net = init_network(2, seed=21)
    m = dm(np.random.default_rng(0).uniform(0, 1, (5, 2)), np.zeros(5))
    batch = predict(net, m)
    for i in range(5):
        assert predict(net, dm(m.rows[i], [0.0]))[0] == pytest.approx(batch[i], rel=1e-14)


def test_inference_is_pinned():
    d = generate_synthetic(SyntheticConfig(n_samples=300, seed=12))
    m = select_features(d, FeatureSet.SPEED_DIRECTION)
    trained, _ = train(init_network(2, seed=8), m, TrainConfig(epochs=2, seed=8), target_scale=d.rated_power)
    five = dm(m.rows[:5], m.target[:5], m.feature_names)
    # a 1-row and a 5-row batch may round differently in BLAS, so each has its own literals
    assert [float(p).hex() for p in predict(trained, five)] == [
        "0x1.b8b8a5a84f97ap+9", "0x1.b6051cb70927bp+9", "0x1.b4e0a450934ccp+9",
        "0x1.b6eb8cb639113p+9", "0x1.b36f17cd31aa5p+9",
    ]
    assert [float(predict(trained, dm(row, [0.0]))[0]).hex() for row in five.rows] == [
        "0x1.b8b8a5a84f979p+9", "0x1.b6051cb70927bp+9", "0x1.b4e0a450934cbp+9",
        "0x1.b6eb8cb639112p+9", "0x1.b36f17cd31aa5p+9",
    ]


def test_sigmoid_layers_stay_in_open_unit_interval():
    net = init_network(3, seed=5)
    x = np.random.default_rng(1).uniform(0.0, 1.0, (64, 3))
    _, outputs = ann._forward_pass(net.weights, net.biases, net.activations, x)
    for layer in (3, 4):  # the two sigmoid layers
        assert np.all(outputs[layer] > 0.0)
        assert np.all(outputs[layer] < 1.0)


# -- train --------------------------------------------------------------------

def test_toy_line_learnable():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, 200)
    m = dm(x, 2.0 * x)
    net = init_network(1, seed=3)
    cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=0.01, seed=4)
    _, history = train(net, m, cfg)
    assert len(history.losses) == 50
    assert history.losses[-1] < 0.01 * history.losses[0]


def test_train_config_validation():
    with pytest.raises(InvalidConfig):
        TrainConfig(epochs=0)
    with pytest.raises(InvalidConfig):
        TrainConfig(batch_size=0)
    with pytest.raises(InvalidConfig):
        TrainConfig(learning_rate=0.0)
    for learning_rate in (float("inf"), float("nan"), "x", True):
        message = f"^learning_rate must be finite and > 0, got {re.escape(repr(learning_rate))}$"
        with pytest.raises(InvalidConfig, match=message):
            TrainConfig(learning_rate=learning_rate)
    with pytest.raises(InvalidConfig):
        TrainConfig(optimizer="rmsprop")
    assert TrainConfig(optimizer="Adam").optimizer == "adam"


@pytest.mark.parametrize("field", ["epochs", "batch_size", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
def test_train_config_refuses_a_count_that_is_not_an_integer(field, value):
    with pytest.raises(InvalidConfig, match=f"{field} must be an integer"):
        TrainConfig(**{field: value})


def test_train_config_takes_a_numpy_integer_as_an_int():
    cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(16))
    assert (cfg.epochs, cfg.batch_size) == (3, 16)
    assert type(cfg.epochs) is int and type(cfg.batch_size) is int


def test_train_deterministic():
    d = generate_synthetic(SyntheticConfig(n_samples=400, seed=10))
    m = select_features(d, FeatureSet.SPEED_ONLY)
    cfg = TrainConfig(epochs=3, seed=5)
    net = init_network(1, seed=6)
    m1, h1 = train(net, m, cfg, target_scale=d.rated_power)
    m2, h2 = train(net, m, cfg, target_scale=d.rated_power)
    assert h1.losses == h2.losses
    for wa, wb in zip(m1.weights, m2.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(m1.biases, m2.biases):
        assert np.array_equal(ba, bb)


def test_train_leaves_input_model_untouched():
    d = generate_synthetic(SyntheticConfig(n_samples=200, seed=11))
    m = select_features(d, FeatureSet.SPEED_ONLY)
    net = init_network(1, seed=2)
    before = [w.copy() for w in net.weights]
    trained, _ = train(net, m, TrainConfig(epochs=2, seed=1), target_scale=d.rated_power)
    for w_orig, w_now in zip(before, net.weights):
        assert np.array_equal(w_orig, w_now)
    assert trained is not net
    assert trained.input_scaler is not None
    assert trained.target_scale == d.rated_power


def test_train_batch_size_exceeds_rows():
    m = dm(np.linspace(0, 1, 8), np.linspace(0, 1, 8))
    with pytest.raises(InvalidConfig):
        train(init_network(1, seed=0), m, TrainConfig(batch_size=16))


@pytest.mark.parametrize("target_scale", [0.0, math.nan, math.inf, -1.0, True, "2"])
def test_train_rejects_bad_target_scale_before_first_epoch(monkeypatch, target_scale):
    steps = []
    monkeypatch.setattr(ann, "_loss_and_grads", lambda *args: steps.append(args))
    m = dm(np.linspace(0, 1, 8), np.linspace(0, 1, 8))
    with pytest.raises(InvalidConfig, match="target_scale must be finite and > 0"):
        train(init_network(1, seed=0), m, TrainConfig(batch_size=4), target_scale=target_scale)
    assert steps == []


def test_train_divergence_raises_non_finite_loss():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, 200)
    m = dm(x, 2.0 * x)
    cfg = TrainConfig(epochs=5, learning_rate=1e20, optimizer="sgd", seed=0)
    with np.errstate(all="ignore"):  # overflow on the way to divergence is the point
        with pytest.raises(NonFiniteLoss) as exc:
            train(init_network(1, seed=1), m, cfg)
    assert exc.value.learning_rate == 1e20


def test_training_loss_mostly_nonincreasing(synthetic_5k):
    m = select_features(synthetic_5k, FeatureSet.SPEED_ONLY)
    net = init_network(1, seed=0)
    _, history = train(net, m, TrainConfig(epochs=10, seed=0), target_scale=synthetic_5k.rated_power)
    drops = sum(1 for a, b in zip(history.losses, history.losses[1:]) if b <= a)
    assert drops / (len(history.losses) - 1) >= 0.8


# The per-array training loop and masked sigmoid that the flat-buffer engine
# replaced, kept as the reference it must match bit for bit.

def masked_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


REFERENCE_ACTIVATIONS = {
    "relu": (ann._relu, ann._relu_grad),
    "sigmoid": (masked_sigmoid, ann._sigmoid_grad),
    "identity": (ann._identity, ann._identity_grad),
}


def reference_loss_and_grads(weights, biases, activations, x, y):
    zs, outputs, a = [], [x], x
    for w, b, name in zip(weights, biases, activations):
        z = a @ w.T + b
        a = REFERENCE_ACTIVATIONS[name][0](z)
        zs.append(z)
        outputs.append(a)
    resid = outputs[-1][:, 0] - y
    n = x.shape[0]
    delta = (2.0 / n) * resid[:, np.newaxis]
    grads_w, grads_b = [None] * len(weights), [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        dz = delta * REFERENCE_ACTIVATIONS[activations[l]][1](zs[l], outputs[l + 1])
        grads_w[l] = dz.T @ outputs[l]
        grads_b[l] = dz.sum(axis=0)
        if l > 0:
            delta = dz @ weights[l]
    return float(resid @ resid) / n, grads_w, grads_b


def reference_train(model, m, cfg, target_scale):
    x = fit_scaler(m).transform_array(m.rows)
    y = m.target / target_scale
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    b1, b2, eps, lr = ann.ADAM_BETA1, ann.ADAM_BETA2, ann.ADAM_EPS, cfg.learning_rate
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    losses, step = [], 0
    for _ in range(cfg.epochs):
        order = rng.permutation(m.n)
        sse = 0.0
        for start in range(0, m.n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, gw, gb = reference_loss_and_grads(weights, biases, model.activations, x[idx], y[idx])
            sse += loss * len(idx)
            if cfg.optimizer == "adam":
                step += 1
                c1, c2 = 1.0 - b1**step, 1.0 - b2**step
                for l in range(len(weights)):
                    m_w[l] = b1 * m_w[l] + (1 - b1) * gw[l]
                    v_w[l] = b2 * v_w[l] + (1 - b2) * gw[l] ** 2
                    weights[l] -= lr * (m_w[l] / c1) / (np.sqrt(v_w[l] / c2) + eps)
                    m_b[l] = b1 * m_b[l] + (1 - b1) * gb[l]
                    v_b[l] = b2 * v_b[l] + (1 - b2) * gb[l] ** 2
                    biases[l] -= lr * (m_b[l] / c1) / (np.sqrt(v_b[l] / c2) + eps)
            else:
                for l in range(len(weights)):
                    weights[l] -= lr * gw[l]
                    biases[l] -= lr * gb[l]
        losses.append(sse / m.n)
    return weights, biases, losses


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize(
    "fs", [FeatureSet.SPEED_ONLY, FeatureSet.SPEED_DIRECTION, FeatureSet.SPEED_DIRECTION_TEMPERATURE]
)
def test_train_matches_per_array_reference_bit_for_bit(fs, optimizer):
    d = generate_synthetic(SyntheticConfig(n_samples=203, seed=14))  # 6 batches of 32 + 11
    m = select_features(d, fs)
    net = init_network(m.k, seed=15)
    cfg = TrainConfig(epochs=3, batch_size=32, learning_rate=0.01, seed=16, optimizer=optimizer)
    trained, history = train(net, m, cfg, target_scale=d.rated_power)
    weights, biases, losses = reference_train(net, m, cfg, d.rated_power)
    assert list(history.losses) == losses
    for got, want in zip(trained.weights + trained.biases, weights + biases):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_stack_matches_single_networks_bit_for_bit(monkeypatch, optimizer):
    # 6 batches of 32 + 11: BLAS rounds an 11-row product with a strided
    # 1-column operand differently, so the last batch checks layer 0's layout
    d = generate_synthetic(SyntheticConfig(n_samples=203, seed=14))
    mats = [select_features(d, fs) for fs in FeatureSet]
    nets = [init_network(m.k, seed=15) for m in mats]
    cfg = TrainConfig(epochs=3, batch_size=32, learning_rate=0.01, seed=16, optimizer=optimizer)
    steps = []  # per call: each network's padding-is-zero flag and its gradients at its own width
    loss_and_grads = ann._loss_and_grads

    def recording(weights, biases, activations, widths, x, y, grads_w, grads_b):
        losses = loss_and_grads(weights, biases, activations, widths, x, y, grads_w, grads_b)
        steps.append([
            (
                not np.any(weights[0][i, :, k:]),
                [grads_w[0][i, :, :k].copy(), *(g[i].copy() for g in grads_w[1:] + grads_b)],
            )
            for i, k in enumerate(widths)
        ])
        return losses

    monkeypatch.setattr(ann, "_loss_and_grads", recording)
    alone = [train(net, m, cfg) for net, m in zip(nets, mats)]
    alone_steps = [step for (step,) in steps]
    steps.clear()
    stacked = ann.train_stack(nets, mats, cfg)

    # rounding differences in a gradient can vanish in the update, so every
    # step's gradient is compared, not only the trained weights
    for t, step in enumerate(steps):
        for i, (padding_zero, grads) in enumerate(step):
            assert padding_zero
            _, want = alone_steps[i * len(steps) + t]
            for got_grad, want_grad in zip(grads, want, strict=True):
                assert np.array_equal(got_grad, want_grad), (i, t)
    for (got, got_history), (want, want_history) in zip(stacked, alone, strict=True):
        assert got_history.losses == want_history.losses
        assert got.target_scale == want.target_scale
        got_arrays = (*got.weights, *got.biases, got.input_scaler.mins, got.input_scaler.maxs)
        want_arrays = (*want.weights, *want.biases, want.input_scaler.mins, want.input_scaler.maxs)
        for got_array, want_array in zip(got_arrays, want_arrays, strict=True):
            assert np.array_equal(got_array, want_array)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_stack_divergence_fails_only_its_own_network(monkeypatch, optimizer):
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, 200)
    m = dm(x, 2.0 * x)
    calm = init_network(1, seed=1)
    wild = replace(calm, weights=tuple(w * 1e160 for w in calm.weights))
    cfg = TrainConfig(epochs=2, seed=0, optimizer=optimizer)
    alone, alone_history = train(calm, m, cfg)
    with np.errstate(all="ignore"):  # overflow on the way to divergence is the point
        first, failed, last = ann.train_stack([calm, wild, calm], [m, m, m], cfg)
    assert type(failed) is NonFiniteLoss and failed.epoch == 1
    for got, history in (first, last):
        assert history.losses == alone_history.losses
        for got_array, want_array in zip(got.weights + got.biases, alone.weights + alone.biases, strict=True):
            assert np.array_equal(got_array, want_array)

    # once every network has failed, training stops at that step
    steps = []
    loss_and_grads = ann._loss_and_grads
    monkeypatch.setattr(ann, "_loss_and_grads", lambda *a: steps.append(1) or loss_and_grads(*a))
    with np.errstate(all="ignore"):
        results = ann.train_stack([wild, wild], [m, m], cfg)
    assert [(type(r), r.epoch) for r in results] == [(NonFiniteLoss, 1)] * 2
    assert len(steps) == 1


def test_stack_validation():
    d = generate_synthetic(SyntheticConfig(n_samples=64, seed=1))
    m1 = select_features(d, FeatureSet.SPEED_ONLY)
    m3 = select_features(d, FeatureSet.SPEED_DIRECTION_TEMPERATURE)
    cfg = TrainConfig(epochs=1)
    with pytest.raises(InvalidConfig, match="share the training row count"):
        ann.train_stack([init_network(1), init_network(1)], [m1, dm(m1.rows[:40], m1.target[:40])], cfg)
    with pytest.raises(InvalidConfig, match="one training matrix per network"):
        ann.train_stack([init_network(1)], [m1, m1], cfg)
    with pytest.raises(DimensionMismatch):
        ann.train_stack([init_network(1), init_network(1)], [m1, m3], cfg)
    with pytest.raises(InvalidArchitecture, match="share hidden widths"):
        ann.train_stack([init_network(1), init_network(3, hidden=(8, 8, 8, 8))], [m1, m3], cfg)


def test_sigmoid_matches_masked_reference_bit_for_bit():
    edges = [0.0, -0.0, 1e-320, -1e-320, 710.0, -710.0, 745.0, -745.0, np.inf, -np.inf]
    rng = np.random.default_rng(17)
    samples = [rng.normal(0.0, scale, 1000) for scale in (0.1, 1.0, 10.0, 100.0, 800.0)]
    z = np.concatenate([edges, *samples])
    got, want = ann._sigmoid(z), masked_sigmoid(z)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isnan(ann._sigmoid(np.array([np.nan, 1.0]))[0])


# -- gradient check -----------------------------------------------------------

def test_gradient_check_fresh_networks():
    d = generate_synthetic(SyntheticConfig(n_samples=32, seed=3))
    for dim, fs in ((1, FeatureSet.SPEED_ONLY), (2, FeatureSet.SPEED_DIRECTION), (3, FeatureSet.SPEED_DIRECTION_TEMPERATURE)):
        sample = select_features(d, fs)
        err = gradient_check(init_network(dim, seed=dim), sample)
        assert err < 1e-4


def test_gradient_check_zero_weight_network():
    net = narrow_net(w=[0.0] * 5, b=[0.0] * 5)
    sample = dm(np.linspace(0.0, 1.0, 8), np.linspace(0.0, 1.0, 8))
    err = gradient_check(net, sample)
    assert math.isfinite(err)
    assert err < 1e-4


def test_gradient_check_detects_corrupted_backward_pass(monkeypatch):
    sig_fn, sig_grad = ann.ACTIVATIONS["sigmoid"]
    monkeypatch.setitem(ann.ACTIVATIONS, "sigmoid", (sig_fn, lambda z, a: -sig_grad(z, a)))
    d = generate_synthetic(SyntheticConfig(n_samples=16, seed=9))
    sample = select_features(d, FeatureSet.SPEED_ONLY)
    err = gradient_check(init_network(1, seed=4), sample)
    assert err > 1e-2


def test_gradient_check_detects_nan_backward_pass(monkeypatch):
    sig_fn, sig_grad = ann.ACTIVATIONS["sigmoid"]
    monkeypatch.setitem(ann.ACTIVATIONS, "sigmoid", (sig_fn, lambda z, a: np.full_like(z, np.nan)))
    d = generate_synthetic(SyntheticConfig(n_samples=16, seed=9))
    sample = select_features(d, FeatureSet.SPEED_ONLY)
    err = gradient_check(init_network(1, seed=4), sample)
    assert err == math.inf


def test_gradient_check_sample_size_limit():
    sample = dm(np.linspace(0.0, 1.0, 40), np.zeros(40))
    with pytest.raises(InvalidConfig):
        gradient_check(init_network(1, seed=0), sample)


# -- serialization ------------------------------------------------------------

def test_mlp_roundtrip_bit_for_bit():
    d = generate_synthetic(SyntheticConfig(n_samples=300, seed=12))
    m = select_features(d, FeatureSet.SPEED_DIRECTION)
    trained, _ = train(init_network(2, seed=8), m, TrainConfig(epochs=2, seed=8), target_scale=d.rated_power)
    clone = from_json(to_json(trained))
    assert np.array_equal(predict(clone, m), predict(trained, m))
    assert clone.layer_sizes == trained.layer_sizes
    assert clone.activations == trained.activations
    assert clone.target_scale == trained.target_scale


def test_history_csv_format():
    history = TrainHistory(losses=(0.5, 0.25))
    text = history_to_csv(history)
    assert text == "epoch,loss\n1,0.5\n2,0.25\n"
