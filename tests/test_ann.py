import math

import numpy as np
import pytest

from windforecast import ann
from windforecast.ann import (
    MlpModel,
    TrainConfig,
    TrainHistory,
    forward,
    from_json,
    gradient_check,
    history_to_csv,
    init_network,
    predict,
    to_json,
    train,
)
from windforecast.dataset import (
    DesignMatrix,
    FeatureSet,
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


@pytest.mark.parametrize("target_scale", [math.nan, math.inf, 0.0, -1.0])
def test_model_rejects_bad_target_scale(target_scale):
    with pytest.raises(InvalidArchitecture, match="target_scale"):
        narrow_net(w=[0.0] * 5, b=[0.0] * 5, target_scale=target_scale)


# -- forward ------------------------------------------------------------------

def test_sigmoid_of_zero_is_half():
    # zero weights push zeros through the ReLU stack; both sigmoid layers
    # then emit 0.5 before the (zero-weight) output layer
    net = narrow_net(w=[0.0] * 5, b=[0.0] * 5)
    _, outputs = ann._forward_pass(net.weights, net.biases, net.activations, np.array([[3.0]]))
    assert outputs[3][0, 0] == 0.5
    assert outputs[4][0, 0] == 0.5
    assert forward(net, [3.0]) == 0.0


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
        assert forward(net, [x]) == pytest.approx(by_hand(x), rel=1e-12)


def test_forward_dimension_mismatch():
    net = init_network(2, seed=0)
    with pytest.raises(DimensionMismatch):
        forward(net, [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        predict(net, dm(np.ones((4, 1)), np.zeros(4)))


def test_forward_agrees_with_predict():
    net = init_network(2, seed=21)
    m = dm(np.random.default_rng(0).uniform(0, 1, (5, 2)), np.zeros(5))
    batch = predict(net, m)
    for i in range(5):
        assert forward(net, m.rows[i]) == pytest.approx(batch[i], rel=1e-14)


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
    with pytest.raises(InvalidConfig):
        TrainConfig(optimizer="rmsprop")
    assert TrainConfig(optimizer="Adam").optimizer == "adam"


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


def test_sigmoid_matches_masked_reference_bit_for_bit():
    edges = [0.0, -0.0, 1e-320, -1e-320, 710.0, -710.0, 745.0, -745.0, np.inf, -np.inf]
    rng = np.random.default_rng(17)
    samples = [rng.normal(0.0, scale, 1000) for scale in (0.1, 1.0, 10.0, 100.0, 800.0)]
    z = np.concatenate([edges, *samples])
    got, want = ann._sigmoid(z), masked_sigmoid(z)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isnan(ann._sigmoid(np.array([np.nan, 1.0]))[0])


def test_history_invariant():
    with pytest.raises(InvalidConfig):
        TrainHistory(losses=(1.0, 0.5), epoch_seconds=(0.1,))


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
    history = TrainHistory(losses=(0.5, 0.25), epoch_seconds=(0.1, 0.1))
    text = history_to_csv(history)
    assert text == "epoch,loss\n1,0.5\n2,0.25\n"
