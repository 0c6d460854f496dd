"""Dense-network numerical kernel: forward/backward passes, losses,
gradient reversal, optimizers, and a finite-difference gradient checker.

Plain numpy, float64 end to end.  Arrays follow the (batch, features)
convention.  Every backward pass is an exact analytic derivative of its
forward map; the test suite cross-checks them against central finite
differences.  ``adam_step`` updates parameters and moments in place through
ufunc ``out=`` calls on scratch arrays held by its ``AdamState``, so the update
allocates no temporaries; a model that keeps its parameters in one flat
vector passes it as a one-entry mapping and pays one set of ufunc calls per
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

ACTIVATIONS = ("tanh", "relu", "linear")


class DivergenceError(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)
    activation: str = "linear"

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]


@dataclass
class DenseCache:
    """What dense_backward needs from the matching forward call."""

    x: np.ndarray    # layer input
    pre: np.ndarray  # pre-activation W x + b
    out: np.ndarray  # activated output


def init_dense(n_in: int, n_out: int, activation: str,
               rng: np.random.Generator, scale: float | None = None) -> DenseLayer:
    """New layer with weights ~ uniform(-bound, bound), zero bias.

    bound defaults to 1/sqrt(n_in); pass ``scale`` to override (small
    scales keep ReLU pre-activations away from the kink for gradient
    checking).
    """
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    bound = 1.0 / np.sqrt(n_in) if scale is None else float(scale)
    weights = rng.uniform(-bound, bound, size=(n_out, n_in))
    return DenseLayer(weights, np.zeros(n_out), activation)


def _as_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a (batch, features) array with batch >= 1, got shape {x.shape}")
    return x


def dense_forward(layer: DenseLayer, x: np.ndarray) -> tuple[np.ndarray, DenseCache]:
    x = _as_batch(x)
    if x.shape[1] != layer.n_in:
        raise ValueError(f"input has {x.shape[1]} features, layer expects {layer.n_in}")
    pre = x @ layer.weights.T + layer.bias
    if layer.activation == "tanh":
        out = np.tanh(pre)
    elif layer.activation == "relu":
        out = np.maximum(pre, 0.0)
    else:
        out = pre
    return out, DenseCache(x=x, pre=pre, out=out)


def dense_backward(layer: DenseLayer, cache: DenseCache, upstream: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (input_grad, weight_grad, bias_grad) for the layer map."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != cache.pre.shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} != layer output shape {cache.pre.shape}")
    if layer.activation == "tanh":
        dpre = upstream * (1.0 - cache.out ** 2)
    elif layer.activation == "relu":
        # subgradient 0 at exactly-zero pre-activations
        dpre = upstream * (cache.pre > 0.0)
    else:
        dpre = upstream
    weight_grad = dpre.T @ cache.x
    bias_grad = dpre.sum(axis=0)
    input_grad = dpre @ layer.weights
    return input_grad, weight_grad, bias_grad


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    logits = _as_batch(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray
                          ) -> tuple[float, np.ndarray]:
    """Mean negative log softmax probability of the labels (natural log).

    Returns (loss, gradient w.r.t. logits).  The gradient is
    (softmax - one_hot) / batch, matching the mean reduction.
    """
    logits = _as_batch(logits)
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise ValueError(f"labels shape {labels.shape} != (batch,) = ({logits.shape[0]},)")
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(n), labels].mean())
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all batch * features entries.

    Returns (loss, gradient w.r.t. pred) with grad = 2 (pred - target) / size.
    """
    pred = _as_batch(pred)
    target = _as_batch(target)
    if pred.shape != target.shape:
        raise ValueError(f"pred shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    loss = float((diff ** 2).mean())
    return loss, 2.0 * diff / diff.size


def grl_backward(upstream: np.ndarray, lam: float) -> np.ndarray:
    """Gradient reversal layer backward pass: -lam * upstream."""
    if not np.isfinite(lam) or lam < 0:
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    return -lam * np.asarray(upstream, dtype=np.float64)


Params = dict[str, np.ndarray]


def _check_finite_grads(grads: Params) -> None:
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"divergence detected: non-finite gradient for {name!r}")


@dataclass
class AdamState:
    """Step count, first and second moments, and two scratch arrays per
    parameter for the in-place update."""

    t: int
    m: Params
    v: Params
    scratch: dict[str, tuple[np.ndarray, np.ndarray]]

    @classmethod
    def for_params(cls, params: Params) -> "AdamState":
        return cls(t=0,
                   m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()},
                   scratch={k: (np.empty_like(p), np.empty_like(p))
                            for k, p in params.items()})


def adam_step(params: Params, grads: Params, state: AdamState,
              lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One Adam update with bias correction, in place on ``params``.

    Per element this is

        m = beta1 m + (1 - beta1) g
        v = beta2 v + ((1 - beta2) g) g
        p = p - (lr (m / (1 - beta1^t))) / (sqrt(v / (1 - beta2^t)) + eps)

    evaluated in exactly that operation order, through in-place ufunc calls
    on the state's scratch arrays, so the update allocates no arrays.
    """
    if lr < 0 or not (0.0 <= beta1 < 1.0) or not (0.0 <= beta2 < 1.0) or eps <= 0:
        raise ValueError(f"bad Adam hyperparameters lr={lr}, beta1={beta1}, "
                         f"beta2={beta2}, eps={eps}")
    _check_finite_grads(grads)
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        step, denom = state.scratch[name]
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=step)
        m += step
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=step)
        step *= g
        v += step
        np.divide(v, 1.0 - beta2 ** t, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        np.divide(m, 1.0 - beta1 ** t, out=step)
        step *= lr
        step /= denom
        p -= step


def sgd_step(params: Params, grads: Params, lr: float) -> None:
    """Plain gradient-descent update, in place on ``params``."""
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    _check_finite_grads(grads)
    for name, p in params.items():
        p -= lr * grads[name]


LossAndGradsFn = Callable[[], tuple[float, Params]]


def finite_difference_check(loss_and_grads: LossAndGradsFn, params: Params,
                            eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_and_grads`` evaluates the scalar objective at the current
    parameter values and returns (loss, analytic gradients); perturbed
    evaluations only use the loss.  Parameters are perturbed in place and
    restored.  Relative error uses max(|analytic|, |numeric|, 1e-8) as the
    denominator.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    _, analytic = loss_and_grads()
    worst = 0.0
    for name, p in params.items():
        flat = p.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            loss_plus, _ = loss_and_grads()
            flat[i] = orig - eps
            loss_minus, _ = loss_and_grads()
            flat[i] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            rel = abs(grad_flat[i] - numeric) / max(abs(grad_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
