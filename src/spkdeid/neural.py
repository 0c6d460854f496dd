"""Dense-network numerical kernel: forward/backward passes, losses,
gradient reversal, optimizers, and a finite-difference gradient checker
over a flat parameter vector.

Plain numpy, float64 end to end.  Arrays follow the (batch, features)
convention.  Every backward pass is an exact analytic derivative of its
forward map; the test suite cross-checks them against central finite
differences.

Gradients exist only where a backward pass runs, and no layer holds them:
``dense_backward`` writes a layer's weight and bias gradients into two
arrays that the caller passes in, and skips the input gradient when
nothing reads it.  The AAN passes views of one flat gradient vector, laid
out as its flat parameter vector (``aan.AanModel.flat``), so it is trained
by one ``adam_step`` on two flat arrays and checked by
``central_differences`` on slices of the same two.
``adam_step`` updates the parameters and moments in place through ufunc
``out=`` calls on its ``AdamState``'s step array and on the spent gradient,
which it overwrites with the denominator, so the update allocates nothing;
as ``sgd_step`` does, it leaves a gradient that the next backward pass
rewrites.
For a pass without gradients, ``cross_entropy_and_accuracy`` gives each
row's loss and top-1 hit, working on the logits in place, so it holds
nothing of their size beyond the logits themselves; a caller that takes the
means over a whole split can run the split in blocks of rows.
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


def as_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a (batch, features) array with batch >= 1, got shape {x.shape}")
    return x


def dense_forward(layer: DenseLayer, x: np.ndarray) -> tuple[np.ndarray, DenseCache]:
    x = as_batch(x)
    if x.shape[1] != layer.n_in:
        raise ValueError(f"input has {x.shape[1]} features, layer expects {layer.n_in}")
    pre = x @ layer.weights.T
    pre += layer.bias
    if layer.activation == "tanh":
        out = np.tanh(pre)
    elif layer.activation == "relu":
        out = np.maximum(pre, 0.0)
    else:
        out = pre
    return out, DenseCache(x=x, pre=pre, out=out)


def dense_backward(layer: DenseLayer, cache: DenseCache, upstream: np.ndarray,
                   weight_grad: np.ndarray, bias_grad: np.ndarray,
                   input_grad: bool = True) -> np.ndarray | None:
    """Backward pass of the layer map: writes the weight and bias gradients
    into ``weight_grad`` and ``bias_grad``, shaped like the layer's weights
    and bias, and returns the input gradient, or None without computing it
    when ``input_grad`` is false."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != cache.pre.shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} != layer output shape {cache.pre.shape}")
    if layer.activation == "tanh":
        dpre = np.square(cache.out)
        np.subtract(1.0, dpre, out=dpre)
        dpre *= upstream
    elif layer.activation == "relu":
        # subgradient 0 at exactly-zero pre-activations
        dpre = upstream * (cache.pre > 0.0)
    else:
        dpre = upstream
    np.matmul(dpre.T, cache.x, out=weight_grad)
    dpre.sum(axis=0, out=bias_grad)
    return dpre @ layer.weights if input_grad else None


def check_labels(labels: np.ndarray, batch: int, k: int) -> np.ndarray:
    """``labels`` as an array, checked to be ``batch`` class indices in [0, k)."""
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} != (batch,) = ({batch},)")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    return labels


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray
                          ) -> tuple[float, np.ndarray]:
    """Mean negative log softmax probability of the labels (natural log).

    Returns (loss, gradient w.r.t. logits).  The gradient is
    (softmax - one_hot) / batch, matching the mean reduction.
    """
    logits = as_batch(logits)
    labels = check_labels(labels, *logits.shape)
    n = logits.shape[0]
    rows = np.arange(n)
    # one (batch, classes) buffer: shifted logits, log-probabilities, gradient
    grad = logits - logits.max(axis=1, keepdims=True)
    grad -= np.log(np.exp(grad).sum(axis=1, keepdims=True))
    loss = float(-grad[rows, labels].mean())
    np.exp(grad, out=grad)
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


def cross_entropy_and_accuracy(logits: np.ndarray, labels: np.ndarray, check: bool = True
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (softmax cross-entropy, top-1 hit) of float64 logits, in place.

    ``logits`` is overwritten: the caller hands over an array it no longer
    needs, and no other array of its size is allocated.  Each row's loss has
    the bits of ``-log_probs[row, label]`` in ``softmax_cross_entropy``: the
    shifted label logit minus the log of the row's exp-sum, negated, so the
    negated mean of the negated losses has the bits of its loss.  The argmax
    is taken first, so ties go to the lowest index as in
    ``logits.argmax(axis=1)``.  ``check=False`` skips the label check, for a
    caller that has checked the labels of a whole split once.
    """
    logits = as_batch(logits)
    if check:
        labels = check_labels(labels, *logits.shape)
    hits = logits.argmax(axis=1) == labels
    logits -= logits.max(axis=1, keepdims=True)
    losses = logits[np.arange(logits.shape[0]), labels]
    np.exp(logits, out=logits)
    losses -= np.log(logits.sum(axis=1))
    return np.negative(losses, out=losses), hits


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all batch * features entries.

    Returns (loss, gradient w.r.t. pred) with grad = 2 (pred - target) / size.
    """
    pred = as_batch(pred)
    target = as_batch(target)
    if pred.shape != target.shape:
        raise ValueError(f"pred shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    loss = float((diff ** 2).mean())
    return loss, 2.0 * diff / diff.size


def check_lam(lam: float) -> None:
    """Reject a gradient-reversal weight that is not finite and >= 0."""
    if not np.isfinite(lam) or lam < 0:
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")


def grl_backward(upstream: np.ndarray, lam: float) -> np.ndarray:
    """Gradient reversal layer backward pass: -lam * upstream."""
    check_lam(lam)
    return -lam * np.asarray(upstream, dtype=np.float64)


@dataclass
class AdamState:
    """Step count, first and second moments, and a scratch array for the
    in-place update's step, each shaped like the parameters."""

    t: int
    m: np.ndarray
    v: np.ndarray
    step: np.ndarray

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(t=0, m=np.zeros_like(params), v=np.zeros_like(params),
                   step=np.empty_like(params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One Adam update with bias correction, in place on ``params``.

    Per element this is

        m = beta1 m + (1 - beta1) g
        v = beta2 v + ((1 - beta2) g) g
        p = p - (lr (m / (1 - beta1^t))) / (sqrt(v / (1 - beta2^t)) + eps)

    evaluated in exactly that operation order, through in-place ufunc calls
    on the state's step array and on ``grads``, so the update allocates no
    arrays.  The denominator is written into ``grads`` after its last read
    (``step *= grads``), so ``grads`` is left holding the denominator.

    A non-finite denominator, from a NaN or inf gradient or from a square
    that overflowed (which would otherwise freeze its parameter), raises
    ``DivergenceError`` with ``params`` untouched; the moments and the step
    count are undefined after it.
    """
    if lr < 0 or not (0.0 <= beta1 < 1.0) or not (0.0 <= beta2 < 1.0) or eps <= 0:
        raise ValueError(f"bad Adam hyperparameters lr={lr}, beta1={beta1}, "
                         f"beta2={beta2}, eps={eps}")
    state.t += 1
    t = state.t
    m, v, step, denom = state.m, state.v, state.step, grads
    m *= beta1
    np.multiply(grads, 1.0 - beta1, out=step)
    m += step
    v *= beta2
    np.multiply(grads, 1.0 - beta2, out=step)
    step *= grads  # the last read of grads, which denom overwrites from here
    v += step
    np.divide(v, 1.0 - beta2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    if not np.all(np.isfinite(denom)):
        raise DivergenceError("divergence detected: a gradient or its square is not finite")
    np.divide(m, 1.0 - beta1 ** t, out=step)
    step *= lr
    step /= denom
    params -= step


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """Plain gradient-descent update, in place on ``params``.

    The step ``lr * grads`` is written into ``grads``, which is overwritten,
    and then subtracted, so the update allocates nothing.
    """
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    if not np.all(np.isfinite(grads)):
        raise DivergenceError("divergence detected: non-finite gradient")
    grads *= lr
    params -= grads


def central_differences(loss_and_grad: Callable[[], tuple[float, np.ndarray]],
                        params: np.ndarray, eps: float
                        ) -> tuple[float, np.ndarray, np.ndarray]:
    """(loss, analytic gradient, central-difference gradient) at ``params``.

    ``params`` is a 1-d writable view of the parameters, perturbed in place
    one element at a time and restored.  ``loss_and_grad`` evaluates the
    scalar objective at the current parameter values and returns (loss,
    analytic gradient shaped like ``params``); the gradient is copied before
    any perturbed evaluation, which only uses the loss, so it may be a view
    of a buffer that the next call overwrites.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    loss, grad = loss_and_grad()
    analytic = np.array(grad, dtype=np.float64)
    numeric = np.empty_like(analytic)
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + eps
        loss_plus, _ = loss_and_grad()
        params[i] = orig - eps
        loss_minus, _ = loss_and_grad()
        params[i] = orig
        numeric[i] = (loss_plus - loss_minus) / (2.0 * eps)
    return float(loss), analytic, numeric


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max over entries of |a - n| / max(|a|, |n|, 1e-8); 0 for no entries."""
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / scale).max(initial=0.0))


# The roundoff term of a central difference's error model: each loss
# evaluation is off by about c * u * |L| (u the unit roundoff), so the
# difference quotient is off by about c * u * |L| / eps.  Over gradcheck
# seeds 0-199, correct AAN gradients needed c <= 2.3 with no relative
# tolerance and c <= 0.93 with gradcheck's default one.
ROUNDOFF_FACTOR = 16.0


def tolerance_ratio(loss: float, analytic: np.ndarray, numeric: np.ndarray,
                    eps: float, rtol: float) -> float:
    """Max over entries of |a - n| / (rtol * max(|a|, |n|) + atol), with
    atol = ROUNDOFF_FACTOR * u * |loss| / eps: above 1 where some entry is
    off by more than the relative tolerance plus the difference's roundoff.
    An exact entry reads 0, any other entry with a zero tolerance inf."""
    atol = ROUNDOFF_FACTOR * np.finfo(np.float64).eps / 2 * abs(loss) / eps
    error = np.abs(analytic - numeric)
    tolerance = rtol * np.maximum(np.abs(analytic), np.abs(numeric)) + atol
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(error == 0.0, 0.0, error / tolerance)
    return float(ratio.max(initial=0.0))
