"""Feed-forward neural network with four hidden layers, trained from scratch.

Each neuron applies its activation to a weighted input sum plus bias; layers
are dense. Inputs are min-max scaled and the kW target is divided by
``target_scale`` during training, so the loss is MSE on [0, 1]-ish values
while predictions come back in kW.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .dataset import DesignMatrix, MinMaxScaler, fit_scaler
from .errors import (
    DimensionMismatch,
    InvalidArchitecture,
    InvalidConfig,
    MalformedModel,
    NonFiniteLoss,
)

HIDDEN_LAYERS = 4
DEFAULT_HIDDEN = (64, 32, 16, 8)
# ReLU first for gradient flow, sigmoid late to mirror the power-curve
# plateau, identity output for an unbounded kW regression head.
DEFAULT_ACTIVATIONS = ("relu", "relu", "sigmoid", "sigmoid", "identity")

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_grad(z, a):
    return (z > 0.0).astype(np.float64)


def _sigmoid(z):
    # Overflow-free: with e = exp(-|z|), sigmoid is 1/(1+e) for z >= 0 and
    # e/(1+e) for z < 0; max(e, sign(z)) picks that numerator (e <= 1, and
    # e == 1 at z == 0) and carries NaN through, without splitting the batch.
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.sign(z)
    np.maximum(out, e, out=out)
    e += 1.0
    out /= e
    return out


def _sigmoid_grad(z, a):
    return a * (1.0 - a)


def _identity(z):
    return z


def _identity_grad(z, a):
    return np.ones_like(z)


ACTIVATIONS = {
    "relu": (_relu, _relu_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
    "identity": (_identity, _identity_grad),
}


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch training hyperparameters; 20 epochs is the tuned default."""

    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        object.__setattr__(self, "optimizer", str(self.optimizer).lower())
        if self.epochs < 1:
            raise InvalidConfig("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise InvalidConfig("learning_rate must be > 0")
        if self.optimizer not in ("sgd", "adam"):
            raise InvalidConfig(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch mean training loss (scaled MSE) and wall time in seconds."""

    losses: tuple[float, ...]
    epoch_seconds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "losses", tuple(float(x) for x in self.losses))
        object.__setattr__(self, "epoch_seconds", tuple(float(x) for x in self.epoch_seconds))
        if len(self.losses) != len(self.epoch_seconds):
            raise InvalidConfig("losses and epoch_seconds must have equal length")


def _frozen_params(arrays) -> tuple[np.ndarray, ...]:
    out = []
    for a in arrays:
        a = np.array(a, dtype=np.float64)
        a.setflags(write=False)
        out.append(a)
    return tuple(out)


@dataclass(frozen=True)
class MlpModel:
    """Immutable network state: shapes, activations, parameters, scaling.

    ``layer_sizes`` is (input_dim, h1, h2, h3, h4, 1); ``weights[l]`` has
    shape (out, in). A freshly initialized model has no input scaler and
    target_scale 1.0; training fills both in.
    """

    layer_sizes: tuple[int, ...]
    activations: tuple[str, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    input_scaler: MinMaxScaler | None = None
    target_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        object.__setattr__(self, "activations", tuple(self.activations))
        object.__setattr__(self, "weights", _frozen_params(self.weights))
        object.__setattr__(self, "biases", _frozen_params(self.biases))
        sizes = self.layer_sizes
        if len(sizes) != HIDDEN_LAYERS + 2:
            raise InvalidArchitecture(f"expected {HIDDEN_LAYERS} hidden layers, sizes={sizes}")
        if any(s < 1 for s in sizes):
            raise InvalidArchitecture("all layer widths must be >= 1")
        if sizes[-1] != 1:
            raise InvalidArchitecture("output layer must have width 1")
        if len(self.activations) != len(sizes) - 1:
            raise InvalidArchitecture("need one activation per non-input layer")
        if self.activations[-1] != "identity":
            raise InvalidArchitecture("output activation must be identity")
        for name in self.activations:
            if name not in ACTIVATIONS:
                raise InvalidArchitecture(f"unknown activation {name!r}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise InvalidArchitecture("need one weight matrix and bias vector per layer")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[l + 1], sizes[l]):
                raise InvalidArchitecture(
                    f"layer {l} weights have shape {w.shape}, expected {(sizes[l + 1], sizes[l])}"
                )
            if b.shape != (sizes[l + 1],):
                raise InvalidArchitecture(f"layer {l} bias has shape {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise InvalidArchitecture(f"layer {l} has non-finite parameters")
        if not (np.isfinite(self.target_scale) and self.target_scale > 0):
            raise InvalidArchitecture(f"target_scale must be finite and > 0, got {self.target_scale}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]


def init_network(
    input_dim: int,
    hidden: tuple[int, int, int, int] = DEFAULT_HIDDEN,
    seed: int = 0,
    activations: tuple[str, ...] = DEFAULT_ACTIVATIONS,
) -> MlpModel:
    """Seeded fan-in-scaled uniform initialisation, zero biases.

    Weights of a layer with fan_in inputs are drawn from
    U(-1/sqrt(fan_in), 1/sqrt(fan_in)) using PCG64, layer by layer, so the
    same seed always reproduces the same parameters.
    """
    if input_dim not in (1, 2, 3):
        raise InvalidArchitecture(f"input_dim must be 1, 2 or 3, got {input_dim}")
    if len(hidden) != HIDDEN_LAYERS:
        raise InvalidArchitecture(f"expected {HIDDEN_LAYERS} hidden widths, got {len(hidden)}")
    if any(h < 1 for h in hidden):
        raise InvalidArchitecture(f"all hidden widths must be >= 1, got {hidden}")
    sizes = (input_dim, *hidden, 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        layer_sizes=sizes,
        activations=tuple(activations),
        weights=tuple(weights),
        biases=tuple(biases),
    )


def _forward_pass(weights, biases, activations, x: np.ndarray):
    """All pre-activations and activations for a (n, k) scaled input batch."""
    zs, outputs = [], [x]
    a = x
    for w, b, name in zip(weights, biases, activations):
        z = a @ w.T + b
        a = ACTIVATIONS[name][0](z)
        zs.append(z)
        outputs.append(a)
    return zs, outputs


def _scaled_inputs(model: MlpModel, m: DesignMatrix) -> np.ndarray:
    if m.k != model.input_dim:
        raise DimensionMismatch(f"model expects {model.input_dim} features, got {m.k}")
    if model.input_scaler is not None:
        return model.input_scaler.transform_array(m.rows)
    return np.asarray(m.rows, dtype=np.float64)


def forward(model: MlpModel, x) -> float:
    """Network output in kW for one feature vector (scaler applied internally)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != model.input_dim:
        raise DimensionMismatch(f"model expects {model.input_dim} features, got {x.shape[0]}")
    if model.input_scaler is not None:
        x = model.input_scaler.transform_array(x)
    _, outputs = _forward_pass(model.weights, model.biases, model.activations, x[np.newaxis, :])
    return float(outputs[-1][0, 0]) * model.target_scale


def predict(model: MlpModel, m: DesignMatrix) -> np.ndarray:
    """Network output in kW for every row of a design matrix."""
    x = _scaled_inputs(model, m)
    _, outputs = _forward_pass(model.weights, model.biases, model.activations, x)
    return outputs[-1][:, 0] * model.target_scale


def _layer_views(flat: np.ndarray, sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into one flat parameter-shaped buffer.

    Layer l holds its (out, in) weights row-major, then its out biases, so
    an update written to ``flat`` reaches every layer at once.
    """
    weights, biases = [], []
    start = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        stop = start + fan_out * fan_in
        weights.append(flat[start:stop].reshape(fan_out, fan_in))
        biases.append(flat[stop : stop + fan_out])
        start = stop + fan_out
    return weights, biases


def _flat_params(model: MlpModel) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """A flat copy of the model's parameters, with its per-layer views."""
    sizes = model.layer_sizes
    flat = np.empty(sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:])))
    weights, biases = _layer_views(flat, sizes)
    for view, value in zip(weights + biases, model.weights + model.biases):
        view[...] = value
    return flat, weights, biases


def _loss_and_grads(weights, biases, activations, x, y, grads_w, grads_b) -> float:
    """Mean squared error over the batch; writes its parameter gradients
    into ``grads_w`` and ``grads_b`` in place."""
    zs, outputs = _forward_pass(weights, biases, activations, x)
    resid = outputs[-1][:, 0] - y
    n = x.shape[0]
    loss = float(resid @ resid) / n
    delta = (2.0 / n) * resid[:, np.newaxis]
    for l in range(len(weights) - 1, -1, -1):
        dz = delta * ACTIVATIONS[activations[l]][1](zs[l], outputs[l + 1])
        np.matmul(dz.T, outputs[l], out=grads_w[l])
        dz.sum(axis=0, out=grads_b[l])
        if l > 0:
            delta = dz @ weights[l]
    return loss


def train(
    model: MlpModel,
    train_matrix: DesignMatrix,
    cfg: TrainConfig,
    target_scale: float | None = None,
) -> tuple[MlpModel, TrainHistory]:
    """Mini-batch gradient descent on scaled MSE; returns a new model.

    The input scaler is fit on ``train_matrix`` here, so training data never
    leaks evaluation statistics. Batches are drawn by a PCG64 shuffle each
    epoch; with a fixed (data, seed, config) the result is identical across
    runs. ``target_scale`` defaults to the maximum training target (the
    plant's rated power is the conventional choice).
    """
    if train_matrix.n < cfg.batch_size:
        raise InvalidConfig(
            f"batch_size {cfg.batch_size} exceeds training rows {train_matrix.n}"
        )
    scaler = fit_scaler(train_matrix)
    x = scaler.transform_array(train_matrix.rows)
    if target_scale is None:
        peak = float(np.max(np.abs(train_matrix.target)))
        target_scale = peak if peak > 0 else 1.0
    y = train_matrix.target / target_scale

    theta, weights, biases = _flat_params(model)
    grad = np.empty_like(theta)
    grads_w, grads_b = _layer_views(grad, model.layer_sizes)
    adam = cfg.optimizer == "adam"
    if adam:
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        step = 0

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = train_matrix.n
    lr = cfg.learning_rate
    losses, epoch_seconds = [], []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        x_epoch, y_epoch = x[order], y[order]
        sse = 0.0
        for start in range(0, n, cfg.batch_size):
            stop = min(start + cfg.batch_size, n)
            batch_loss = _loss_and_grads(
                weights, biases, model.activations,
                x_epoch[start:stop], y_epoch[start:stop], grads_w, grads_b,
            )
            if not np.isfinite(batch_loss):
                raise NonFiniteLoss(epoch + 1, lr)
            sse += batch_loss * (stop - start)
            if adam:
                step += 1
                c1 = 1.0 - ADAM_BETA1**step
                c2 = 1.0 - ADAM_BETA2**step
                m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
                v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad**2
                # lr*(m/c1), not (lr/c1)*m: folding the scalars changes the rounding
                theta -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            else:
                theta -= lr * grad
        losses.append(sse / n)
        epoch_seconds.append(time.perf_counter() - t0)

    trained = MlpModel(
        layer_sizes=model.layer_sizes,
        activations=model.activations,
        weights=tuple(weights),
        biases=tuple(biases),
        input_scaler=scaler,
        target_scale=float(target_scale),
    )
    return trained, TrainHistory(losses=tuple(losses), epoch_seconds=tuple(epoch_seconds))


def _relu_signs(zs, activations) -> np.ndarray:
    masks = [zs[l] > 0.0 for l, name in enumerate(activations) if name == "relu"]
    if not masks:
        return np.zeros(0, dtype=bool)
    return np.concatenate([m.ravel() for m in masks])


def gradient_check(model: MlpModel, sample: DesignMatrix, step: float = 1e-5) -> float:
    """Worst relative disagreement between analytic and numeric gradients.

    Central differences with the given step on scaled inputs, against the
    backpropagated gradient, over every weight and bias. A parameter whose
    +/-step evaluations land on different sides of a ReLU kink has no valid
    finite difference and is skipped. Gradients below 1e-5 in magnitude are
    compared at that absolute scale. Any non-finite analytic or numeric
    gradient makes the result ``inf``.
    """
    if sample.n > 32:
        raise InvalidConfig(f"gradient check sample must have <= 32 rows, got {sample.n}")
    scaler = model.input_scaler if model.input_scaler is not None else fit_scaler(sample)
    x = scaler.transform_array(sample.rows)
    if model.target_scale != 1.0 or model.input_scaler is not None:
        target_scale = model.target_scale
    else:
        peak = float(np.max(np.abs(sample.target)))
        target_scale = peak if peak > 0 else 1.0
    y = sample.target / target_scale

    theta, weights, biases = _flat_params(model)
    grad = np.empty_like(theta)
    _loss_and_grads(weights, biases, model.activations, x, y, *_layer_views(grad, model.layer_sizes))
    if not np.all(np.isfinite(grad)):
        return float("inf")

    def loss_and_signs():
        zs, outputs = _forward_pass(weights, biases, model.activations, x)
        resid = outputs[-1][:, 0] - y
        return float(resid @ resid) / x.shape[0], _relu_signs(zs, model.activations)

    worst = 0.0
    for i in range(theta.size):
        original = theta[i]
        theta[i] = original + step
        up, signs_up = loss_and_signs()
        theta[i] = original - step
        down, signs_down = loss_and_signs()
        theta[i] = original
        if not np.array_equal(signs_up, signs_down):
            continue  # kink crossed: finite difference undefined here
        numeric = (up - down) / (2.0 * step)
        if not np.isfinite(numeric):
            return float("inf")
        analytic = grad[i]
        denom = max(abs(analytic), abs(numeric), 1e-5)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


# -- serialization ------------------------------------------------------------

_MLP_SCHEMA = "windforecast.model.mlp.v1"


def to_json(model: MlpModel) -> str:
    """Versioned JSON with per-layer flattened parameters."""
    doc = {
        "schema": _MLP_SCHEMA,
        "layer_sizes": list(model.layer_sizes),
        "activations": list(model.activations),
        "weights": [w.ravel().tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "input_scaler": None
        if model.input_scaler is None
        else {"mins": model.input_scaler.mins.tolist(), "maxs": model.input_scaler.maxs.tolist()},
        "target_scale": model.target_scale,
    }
    return json.dumps(doc, indent=2)


def from_json(text: str) -> MlpModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedModel(f"model document is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedModel(f"model document must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != _MLP_SCHEMA:
        raise MalformedModel(f"unknown model schema {doc.get('schema')!r}")
    try:
        sizes = tuple(doc["layer_sizes"])
        weights = tuple(
            np.asarray(flat, dtype=np.float64).reshape(sizes[l + 1], sizes[l])
            for l, flat in enumerate(doc["weights"])
        )
        scaler = doc["input_scaler"]
        return MlpModel(
            layer_sizes=sizes,
            activations=tuple(doc["activations"]),
            weights=weights,
            biases=tuple(np.asarray(b, dtype=np.float64) for b in doc["biases"]),
            input_scaler=None if scaler is None else MinMaxScaler(mins=scaler["mins"], maxs=scaler["maxs"]),
            target_scale=float(doc["target_scale"]),
        )
    except KeyError as exc:
        raise MalformedModel(f"{_MLP_SCHEMA} document has no {exc} key") from None
    except (IndexError, TypeError, ValueError, InvalidArchitecture) as exc:
        raise MalformedModel(f"{_MLP_SCHEMA} document has a malformed value: {exc}") from None


def history_to_csv(history: TrainHistory) -> str:
    """Loss curve as CSV with 1-based epoch numbers."""
    lines = ["epoch,loss"]
    lines.extend(f"{i},{loss!r}" for i, loss in enumerate(history.losses, start=1))
    return "\n".join(lines) + "\n"
