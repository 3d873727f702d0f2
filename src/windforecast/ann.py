"""Feed-forward neural network with four hidden layers, trained from scratch.

Each neuron applies its activation to a weighted input sum plus bias; layers
are dense. Inputs are min-max scaled and the kW target is divided by
``target_scale`` during training, so the loss is MSE on [0, 1]-ish values
while predictions come back in kW.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DesignMatrix, MinMaxScaler, _checked_reals, fit_scaler
from .dataset import _by_constructor, _csv_text, _integer, _is_int, _real, _reals, _rng, _shown, _tuple
from .errors import (
    DimensionMismatch,
    InvalidArchitecture,
    InvalidConfig,
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

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        object.__setattr__(self, "learning_rate", _real("learning_rate", self.learning_rate, 0))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch mean training loss (scaled MSE)."""

    losses: tuple[float, ...]

    def __post_init__(self):
        losses = _checked_reals("losses", self.losses, finite=False)
        if losses.ndim != 1:
            raise InvalidConfig(f"losses must be 1-D, got shape {losses.shape}")
        object.__setattr__(self, "losses", tuple(losses.tolist()))


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

    __reduce__ = _by_constructor

    def __post_init__(self):
        sizes = _tuple("layer_sizes", self.layer_sizes, InvalidArchitecture)
        if not all(map(_is_int, sizes)):
            raise InvalidArchitecture(f"layer widths must be integers, got {_shown(self.layer_sizes)}")
        object.__setattr__(self, "layer_sizes", tuple(map(int, sizes)))
        object.__setattr__(self, "activations", _tuple("activations", self.activations, InvalidArchitecture))
        for name in ("weights", "biases"):
            layers = enumerate(_tuple(name, getattr(self, name), InvalidArchitecture))
            arrays = [_reals(f"layer {l} {name}", a, InvalidArchitecture) for l, a in layers]
            object.__setattr__(self, name, tuple(arrays))
        sizes = self.layer_sizes
        if len(sizes) != HIDDEN_LAYERS + 2:
            raise InvalidArchitecture(f"expected {HIDDEN_LAYERS} hidden layers, sizes={_shown(sizes)}")
        if any(s < 1 for s in sizes):
            raise InvalidArchitecture("all layer widths must be >= 1")
        if sizes[-1] != 1:
            raise InvalidArchitecture("output layer must have width 1")
        if len(self.activations) != len(sizes) - 1:
            raise InvalidArchitecture("need one activation per non-input layer")
        # an activation is a name, so no list or array is hashed or compared as one
        if not (isinstance(self.activations[-1], str) and self.activations[-1] == "identity"):
            raise InvalidArchitecture("output activation must be identity")
        for name in self.activations:
            if not (isinstance(name, str) and name in ACTIVATIONS):
                raise InvalidArchitecture(f"unknown activation {_shown(name)}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise InvalidArchitecture("need one weight matrix and bias vector per layer")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[l + 1], sizes[l]):
                raise InvalidArchitecture(
                    f"layer {l} weights have shape {w.shape}, expected {(sizes[l + 1], sizes[l])}"
                )
            if b.shape != (sizes[l + 1],):
                raise InvalidArchitecture(f"layer {l} bias has shape {b.shape}")
        target_scale = _real("target_scale", self.target_scale, 0, InvalidArchitecture)
        object.__setattr__(self, "target_scale", target_scale)
        scaler = self.input_scaler
        if not (scaler is None or isinstance(scaler, MinMaxScaler)):
            raise InvalidArchitecture(f"input_scaler must be a MinMaxScaler or None, got {type(scaler).__name__}")
        width = sizes[0] if scaler is None else len(scaler.mins)
        if width != sizes[0]:
            raise InvalidArchitecture(f"input scaler has {width} features, the network {sizes[0]}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]


def init_network(
    input_dim: int, hidden: tuple[int, int, int, int] = DEFAULT_HIDDEN, seed: int = 0
) -> MlpModel:
    """Seeded fan-in-scaled uniform initialisation, zero biases.

    Weights of a layer with fan_in inputs are drawn from
    U(-1/sqrt(fan_in), 1/sqrt(fan_in)) using PCG64, layer by layer, so the
    same seed always reproduces the same parameters.
    """
    if not (_is_int(input_dim) and input_dim in (1, 2, 3)):
        raise InvalidArchitecture(f"input_dim must be 1, 2 or 3, got {_shown(input_dim)}")
    widths = _tuple("hidden", hidden, InvalidArchitecture)
    if len(widths) != HIDDEN_LAYERS:
        raise InvalidArchitecture(f"expected {HIDDEN_LAYERS} hidden widths, got {len(widths)}")
    if not all(_is_int(h) and h >= 1 for h in widths):
        raise InvalidArchitecture(f"all hidden widths must be integers >= 1, got {_shown(hidden)}")
    sizes = (input_dim, *widths, 1)
    rng = _rng(_integer("seed", seed, 0))
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        layer_sizes=sizes,
        activations=DEFAULT_ACTIVATIONS,
        weights=tuple(weights),
        biases=tuple(biases),
    )


def _forward_pass(weights, biases, activations, x: np.ndarray):
    """All pre-activations and activations for a (n, k) scaled input batch.

    With (s, out, in) weights, (s, out) biases and an (s, n, k) batch it runs a
    stack of s networks, each on its own slice.
    """
    zs, outputs = [], [x]
    a = x
    for w, b, name in zip(weights, biases, activations):
        z = a @ w.swapaxes(-1, -2) + b[..., np.newaxis, :]
        a = ACTIVATIONS[name][0](z)
        zs.append(z)
        outputs.append(a)
    return zs, outputs


def predict(model: MlpModel, m: DesignMatrix) -> np.ndarray:
    """Network output in kW for every row of a design matrix: the one inference path."""
    if m.k != model.input_dim:
        raise DimensionMismatch(f"model expects {model.input_dim} features, got {m.k}")
    x = m.rows if model.input_scaler is None else model.input_scaler.transform_array(m.rows)
    _, outputs = _forward_pass(model.weights, model.biases, model.activations, x)
    return outputs[-1][:, 0] * model.target_scale


def _layer_views(flat: np.ndarray, sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into one stacked (s, P) flat buffer.

    Row i holds network i: layer l's (out, in) weights row-major, then its out
    biases, so the views have shapes (s, out, in) and (s, out), and an update
    written to ``flat`` reaches every layer of every network at once.
    """
    s = flat.shape[0]
    weights, biases = [], []
    start = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        stop = start + fan_out * fan_in
        weights.append(flat[:, start:stop].reshape(s, fan_out, fan_in))
        biases.append(flat[:, stop : stop + fan_out])
        start = stop + fan_out
    return weights, biases


def _stack_params(models) -> tuple[np.ndarray, tuple[int, ...], list[np.ndarray], list[np.ndarray]]:
    """A flat (s, P) copy of the networks' parameters: the buffer, its layer
    sizes and its per-layer views.

    The networks may differ only in input width. Layer 0 is as wide as the
    widest network, and a narrower network's extra weight columns are 0.
    """
    first = models[0]
    for model in models[1:]:
        if model.layer_sizes[1:] != first.layer_sizes[1:] or model.activations != first.activations:
            raise InvalidArchitecture("networks in a stack must share hidden widths and activations")
    sizes = (max(model.input_dim for model in models), *first.layer_sizes[1:])
    flat = np.zeros((len(models), sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))))
    weights, biases = _layer_views(flat, sizes)
    for i, model in enumerate(models):
        weights[0][i, :, : model.input_dim] = model.weights[0]
        for view, value in zip(weights[1:] + biases, model.weights[1:] + model.biases):
            view[i] = value
    return flat, sizes, weights, biases


def _peak_scale(target: np.ndarray) -> float:
    """An untrained network's target scale in ``gradient_check``: the largest absolute target, or 1.0
    when every target is 0."""
    peak = float(np.max(np.abs(target)))
    return peak if peak > 0 else 1.0


def _loss_and_grads(weights, biases, activations, widths, x, y, grads_w, grads_b) -> np.ndarray:
    """Each stacked network's mean squared error over the batch; writes their
    parameter gradients into ``grads_w`` and ``grads_b`` in place.

    ``x`` is the (s, n, k) zero-padded batch and ``widths`` each network's own
    input width. Layer 0's weight gradient is taken on a contiguous copy of
    the network's own columns, as training it alone would: BLAS rounds a
    padded product, or a strided 1-column one, differently. The padded
    columns are never written.
    """
    zs, outputs = _forward_pass(weights, biases, activations, x)
    resid = outputs[-1][:, :, 0] - y
    n = x.shape[1]
    losses = np.array([float(r @ r) for r in resid]) / n
    delta = (2.0 / n) * resid[:, :, np.newaxis]
    for l in range(len(weights) - 1, -1, -1):
        dz = delta * ACTIVATIONS[activations[l]][1](zs[l], outputs[l + 1])
        dz.sum(axis=1, out=grads_b[l])
        if l > 0:
            np.matmul(dz.swapaxes(1, 2), outputs[l], out=grads_w[l])
            delta = dz @ weights[l]
        else:
            for i, k in enumerate(widths):
                np.matmul(dz[i].T, np.ascontiguousarray(x[i, :, :k]), out=grads_w[0][i, :, :k])
    return losses


def train(
    model: MlpModel, train_matrix: DesignMatrix, cfg: TrainConfig, target_scale: float
) -> tuple[MlpModel, TrainHistory]:
    """Mini-batch Adam on scaled MSE; returns a new model.

    The input scaler is fit on ``train_matrix`` here, so training data never
    leaks evaluation statistics. Every target is divided by ``target_scale``,
    a finite number > 0 (the plant's rated power in every command). Batches
    are drawn by a PCG64 shuffle each epoch; with a fixed (data, seed, config)
    the result is identical across runs. This is a stack of one (see
    ``train_stack``), so a diverging network raises its ``NonFiniteLoss``.
    """
    (fit,) = train_stack([model], [train_matrix], cfg, target_scale)
    if isinstance(fit, NonFiniteLoss):
        raise fit
    return fit


def train_stack(
    models, train_matrices, cfg: TrainConfig, target_scale: float
) -> list[tuple[MlpModel, TrainHistory] | NonFiniteLoss]:
    """Train networks ``models[i]`` on ``train_matrices[i]`` as one stack.

    The matrices must have the same row count, so every network draws the
    same mini-batches; each mini-batch step then makes one set of numpy calls
    for the whole stack. Every target is divided by the one ``target_scale``, a
    finite number > 0. Inputs are zero-padded to the widest network. Each
    result equals ``train`` of that network alone, bit for bit: the networks
    share no arithmetic, and their padded weight columns start at 0 and get a
    gradient of exactly 0, so Adam keeps them at 0. A network whose loss
    turns non-finite fails alone: its result is a ``NonFiniteLoss``, and zeroing
    its parameters and optimizer state keeps it finite. Training ends once all fail.
    """
    if not models or len(models) != len(train_matrices):
        raise InvalidConfig(
            f"need one training matrix per network, got {len(train_matrices)} for {len(models)}"
        )
    n = train_matrices[0].n
    if any(m.n != n for m in train_matrices):
        raise InvalidConfig("networks in a stack must share the training row count")
    for model, m in zip(models, train_matrices):
        if m.k != model.input_dim:
            raise DimensionMismatch(f"model expects {model.input_dim} features, got {m.k}")
    if n < cfg.batch_size:
        raise InvalidConfig(f"batch_size {cfg.batch_size} exceeds training rows {n}")
    scalers = [fit_scaler(m) for m in train_matrices]
    target_scale = _real("target_scale", target_scale, 0)

    theta, sizes, weights, biases = _stack_params(models)
    x = np.zeros((len(models), n, sizes[0]))
    for i, (scaler, m) in enumerate(zip(scalers, train_matrices)):
        x[i, :, : m.k] = scaler.transform_array(m.rows)
    y = np.stack([m.target / target_scale for m in train_matrices])
    widths = [model.input_dim for model in models]
    activations = models[0].activations

    grad = np.zeros_like(theta)
    grads_w, grads_b = _layer_views(grad, sizes)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = 0

    rng = _rng(cfg.seed)
    lr = cfg.learning_rate
    losses = []
    failed_at = np.zeros(len(models), dtype=int)  # the epoch a network diverged in; 0 while it trains
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        x_epoch, y_epoch = x[:, order], y[:, order]
        sse = np.zeros(len(models))
        for start in range(0, n, cfg.batch_size):
            stop = min(start + cfg.batch_size, n)
            batch_loss = _loss_and_grads(
                weights, biases, activations, widths,
                x_epoch[:, start:stop], y_epoch[:, start:stop], grads_w, grads_b,
            )
            diverged = ~np.isfinite(batch_loss)
            if diverged.any():
                for state in (theta, grad, m, v):
                    state[diverged] = 0.0
                failed_at[diverged & (failed_at == 0)] = epoch + 1
                if failed_at.all():
                    return [NonFiniteLoss(e, lr) for e in failed_at.tolist()]
            sse += batch_loss * (stop - start)
            step += 1
            c1 = 1.0 - ADAM_BETA1**step
            c2 = 1.0 - ADAM_BETA2**step
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad**2
            # lr*(m/c1), not (lr/c1)*m: folding the scalars changes the rounding
            theta -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        losses.append(sse / n)

    return [
        NonFiniteLoss(int(failed_at[i]), lr) if failed_at[i] else (
            MlpModel(
                layer_sizes=model.layer_sizes,
                activations=model.activations,
                weights=(weights[0][i, :, : model.input_dim], *(w[i] for w in weights[1:])),
                biases=tuple(b[i] for b in biases),
                input_scaler=scalers[i],
                target_scale=target_scale,
            ),
            TrainHistory(losses=tuple(epoch_losses[i] for epoch_losses in losses)),
        )
        for i, model in enumerate(models)
    ]


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
    if sample.k != model.input_dim:
        raise DimensionMismatch(f"model expects {model.input_dim} features, got {sample.k}")
    scaler = model.input_scaler if model.input_scaler is not None else fit_scaler(sample)
    x = scaler.transform_array(sample.rows)[np.newaxis]
    trained = model.target_scale != 1.0 or model.input_scaler is not None
    y = sample.target / (model.target_scale if trained else _peak_scale(sample.target))

    flat, sizes, weights, biases = _stack_params([model])
    flat_grad = np.zeros_like(flat)
    _loss_and_grads(
        weights, biases, model.activations, [model.input_dim], x, y[np.newaxis],
        *_layer_views(flat_grad, sizes),
    )
    theta, grad = flat[0], flat_grad[0]
    if not np.all(np.isfinite(grad)):
        return float("inf")

    def loss_and_signs():
        zs, outputs = _forward_pass(weights, biases, model.activations, x)
        resid = outputs[-1][0, :, 0] - y
        signs = [z > 0.0 for z, name in zip(zs, model.activations) if name == "relu"]
        return float(resid @ resid) / sample.n, signs

    worst = 0.0
    for i in range(theta.size):
        original = theta[i]
        theta[i] = original + step
        up, signs_up = loss_and_signs()
        theta[i] = original - step
        down, signs_down = loss_and_signs()
        theta[i] = original
        if not all(map(np.array_equal, signs_up, signs_down)):
            continue  # kink crossed: finite difference undefined here
        numeric = (up - down) / (2.0 * step)
        if not np.isfinite(numeric):
            return float("inf")
        analytic = grad[i]
        denom = max(abs(analytic), abs(numeric), 1e-5)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def history_to_csv(history: TrainHistory) -> str:
    """Loss curve as CSV with 1-based epoch numbers."""
    return _csv_text(("epoch", "loss"), enumerate(history.losses, start=1))
