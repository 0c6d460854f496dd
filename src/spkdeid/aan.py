"""Autoencoder-adversarial network (AAN) for embedding anonymization.

An encoder-decoder autoencoder reconstructs the input embedding while
three adversarial branches (gender, accent, speaker) classify the latent
code.  Each branch is trained to minimize its cross-entropy; the encoder
receives the branch gradients through a gradient reversal layer scaled by
-lam, so it simultaneously maximizes them.  The decoder only sees the
reconstruction loss.

Checkpoint byte layout (little endian throughout):

    bytes 0..3    magic b"AAN1"
    u32           format version (currently 1)
    u32 x 7       input_dim, hidden, latent, branch_hidden,
                  n_genders, n_accents, n_speakers
    f64           lam
    f64 x ...     the bytes of ``AanModel.flat``

The layer shapes are written once, in ``layer_table``, in checkpoint order:
encoder, decoder, gender head, accent head, speaker head.  A model is its
dims, ``lam`` and one float64 vector, ``AanModel.flat``, holding per layer
the weights (C order) then the bias; the layers are views into it, filled
by ``build_aan`` from the RNG or by ``load_model`` from the file.  Training
updates, snapshots, restores and checkpoints it with one vector operation
each.  No model holds gradients: ``aan_loss_and_grads`` writes them into a
target that the caller passes in, an ``AanModel`` built on a gradient vector
and so laid out like ``flat``, which ``train`` and ``aan_gradient_check``
build once per call.  Each layer list is one contiguous slice of ``flat``,
and the gradient check perturbs that slice and reads the same slice of the
gradient vector.  Parameter names ("enc0.w", ...) exist only in
``parameters()``.

Training computes only what it reads: the encoder's input gradient is never
computed.  It holds six parameter-sized vectors: ``flat``, the gradient,
Adam's two moments, one Adam scratch array (Adam's denominator overwrites the
spent gradient vector, which the next backward pass rewrites in full) and
one best-checkpoint buffer, copied into at each new best epoch.  SGD builds
no Adam state and writes its step into the spent gradient, so it holds
three.  The per-epoch validation pass (``evaluate_model``) keeps no backward
caches, runs the split in blocks of rows (``_BLOCK_ELEMENTS``) and computes
each head's per-row losses and hits in place on a block's logits.  Its peak
is about one block's outputs plus the (rows, input_dim) squared errors.
``train`` alone judges a run: it returns a complete, finite history or raises.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Corpus
from .neural import (
    AdamState,
    DenseLayer,
    DivergenceError,
    adam_step,
    as_batch,
    central_differences,
    check_labels,
    check_lam,
    cross_entropy_and_accuracy,
    dense_backward,
    dense_forward,
    grl_backward,
    init_dense,
    max_relative_error,
    mse_loss,
    sgd_step,
    softmax_cross_entropy,
)

CHECKPOINT_MAGIC = b"AAN1"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4s8Id")  # magic, version, 7 dims, lam
CHECKPOINT_HEADER_SIZE = _HEADER.size

# Forward passes over many rows (the validation pass here, anonymization)
# run in blocks of rows sized so that a block's largest temporary holds
# about this many float64 values (1 MB), whatever the number of rows.
_BLOCK_ELEMENTS = 1 << 17

# A run whose best valid reconstruction loss exceeds this many times the
# loss of predicting the train mean for every valid row has exploded.  The
# desk, bench, demo and sweep runs end at 0.01 to 0.96 times that loss, a
# 60-epoch desk run at lr 300 at 729 times, and 20-epoch desk runs at lr 10,
# 1e3 and 1e150 at 1.2, 9e3 and 9e297 times, still finite.
EXPLODED_RATIO = 1e2


@dataclass(frozen=True)
class AanDims:
    """Architecture descriptor: widths and adversarial class counts."""

    input_dim: int
    hidden: int
    latent: int
    branch_hidden: int
    n_genders: int
    n_accents: int
    n_speakers: int

    def validate(self) -> None:
        for name, value in vars(self).items():
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"dims.{name} must be a positive integer, got {value!r}")


# Sizing for a VoxCeleb-1-scale run: 512-dim x-vectors, 1251 speakers,
# 2 genders, 30 accents.
VOXCELEB_DIMS = AanDims(input_dim=512, hidden=512, latent=512, branch_hidden=128,
                        n_genders=2, n_accents=30, n_speakers=1251)


def desk_dims(corpus: Corpus, hidden: int = 128, latent: int = 8,
              branch_hidden: int = 64) -> AanDims:
    """Architecture sized for a small synthetic corpus.

    The tight default latent keeps the encoder from smuggling per-speaker
    detail past the adversarial branches.
    """
    return AanDims(input_dim=corpus.dim, hidden=hidden, latent=latent,
                   branch_hidden=branch_hidden,
                   n_genders=len(corpus.gender_vocab),
                   n_accents=len(corpus.accent_vocab),
                   n_speakers=len(corpus.speaker_vocab))


# Layer-list attribute and parameter-name prefix of each group, in
# checkpoint order.
GROUPS = (("encoder", "enc"), ("decoder", "dec"), ("gender_head", "gender"),
          ("accent_head", "accent"), ("speaker_head", "speaker"))


def layer_table(d: AanDims) -> list[tuple[str, int, int, str]]:
    """(layer list, n_in, n_out, activation) of every layer, in checkpoint order.

    Encoder: input -> hidden (tanh) -> latent (tanh).
    Decoder: latent -> hidden (tanh) -> input (linear, unbounded outputs).
    Each branch head: latent -> branch_hidden (relu) -> class logits.
    """
    table = [("encoder", d.input_dim, d.hidden, "tanh"),
             ("encoder", d.hidden, d.latent, "tanh"),
             ("decoder", d.latent, d.hidden, "tanh"),
             ("decoder", d.hidden, d.input_dim, "linear")]
    for attr, n_classes in (("gender_head", d.n_genders), ("accent_head", d.n_accents),
                            ("speaker_head", d.n_speakers)):
        table += [(attr, d.latent, d.branch_hidden, "relu"),
                  (attr, d.branch_hidden, n_classes, "linear")]
    return table


class AanModel:
    """The dims, ``lam`` and ``flat``; the layer lists (``encoder``, ...,
    ``speaker_head``) are views into ``flat``, laid out by ``layer_table``."""

    def __init__(self, dims: AanDims, lam: float, flat: np.ndarray):
        self.dims = dims
        self.lam = lam
        self.flat = flat
        for attr, _ in GROUPS:
            setattr(self, attr, [])
        offset = 0
        for attr, n_in, n_out, activation in layer_table(dims):
            bias = offset + n_in * n_out
            getattr(self, attr).append(DenseLayer(flat[offset:bias].reshape(n_out, n_in),
                                                  flat[bias:bias + n_out], activation))
            offset = bias + n_out

    def layers(self) -> list[DenseLayer]:
        """Every layer, in checkpoint order."""
        return [layer for attr, _ in GROUPS for layer in getattr(self, attr)]

    def parameters(self) -> dict[str, np.ndarray]:
        """Name ("enc0.w", ...) -> view into ``flat``, in checkpoint order."""
        return {f"{prefix}{i}.{kind}": array for attr, prefix in GROUPS
                for i, layer in enumerate(getattr(self, attr))
                for kind, array in (("w", layer.weights), ("b", layer.bias))}

    def snapshot(self) -> np.ndarray:
        """A copy of ``flat``."""
        return self.flat.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        self.flat[...] = snapshot


def build_aan(dims: AanDims, lam: float, seed: int,
              init_scale: float | None = None) -> AanModel:
    """Build an AAN (``layer_table``) with fresh parameters, deterministic
    under seed: one ``init_dense`` draw per layer, in checkpoint order."""
    dims.validate()
    check_lam(lam)
    rng = np.random.default_rng(seed)
    layers = [init_dense(n_in, n_out, activation, rng, init_scale)
              for _, n_in, n_out, activation in layer_table(dims)]
    return AanModel(dims, float(lam), np.concatenate(
        [a.ravel() for layer in layers for a in (layer.weights, layer.bias)]))


@dataclass
class AanOutput:
    reconstruction: np.ndarray
    latent: np.ndarray
    gender_logits: np.ndarray
    accent_logits: np.ndarray
    speaker_logits: np.ndarray


def _chain(layers: list[DenseLayer], x: np.ndarray, caches: list | None = None
           ) -> np.ndarray:
    """Forward through a layer chain.  Each layer's backward cache is
    appended to ``caches`` when given, and dropped once the next layer has
    run when not."""
    for layer in layers:
        x, cache = dense_forward(layer, x)
        if caches is not None:
            caches.append(cache)
    return x


def _chain_backward(model: AanModel, grad: AanModel, caches: dict, attr: str,
                    upstream: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
    """Backward through the layer list ``attr`` of ``model``; each layer's
    gradients land in the same layer of ``grad``.  Returns the chain's input
    gradient, or None when ``input_grad`` is false."""
    layers, grads, chain_caches = getattr(model, attr), getattr(grad, attr), caches[attr]
    for i in range(len(layers) - 1, -1, -1):
        upstream = dense_backward(layers[i], chain_caches[i], upstream, grads[i].weights,
                                  grads[i].bias, input_grad=input_grad or i > 0)
    return upstream


def aan_forward(model: AanModel, x: np.ndarray) -> AanOutput:
    """All five outputs, keeping no backward caches."""
    latent = _chain(model.encoder, np.asarray(x, dtype=np.float64))
    return AanOutput(_chain(model.decoder, latent), latent,
                     _chain(model.gender_head, latent), _chain(model.accent_head, latent),
                     _chain(model.speaker_head, latent))


@dataclass
class LossBreakdown:
    """Per-objective loss terms for one batch (all mean-reduced, >= 0)."""

    recon: float
    gender: float
    accent: float
    speaker: float


def aan_loss_and_grads(model: AanModel, grad: AanModel, x: np.ndarray,
                       gender_labels: np.ndarray, accent_labels: np.ndarray,
                       speaker_labels: np.ndarray) -> LossBreakdown:
    """Losses, with the gradients realizing the adversarial min-max split
    written into ``grad``, an ``AanModel`` with the model's dims whose
    ``flat`` is the gradient vector, laid out like ``model.flat``.

    Heads get the gradient of their own cross-entropy; the decoder gets the
    reconstruction gradient; the encoder gets the reconstruction gradient
    plus each branch's latent gradient reversed and scaled by -lam, i.e.
    exactly the gradient of recon_loss - lam * (sum of branch losses).
    The encoder's input gradient is never computed.
    """
    x = np.asarray(x, dtype=np.float64)
    caches = {attr: [] for attr, _ in GROUPS}
    latent = _chain(model.encoder, x, caches["encoder"])
    recon = _chain(model.decoder, latent, caches["decoder"])
    # gradient reversal is the identity at forward time
    gender_logits = _chain(model.gender_head, latent, caches["gender_head"])
    accent_logits = _chain(model.accent_head, latent, caches["accent_head"])
    speaker_logits = _chain(model.speaker_head, latent, caches["speaker_head"])
    recon_loss, d_recon = mse_loss(recon, x)
    gender_loss, d_gender = softmax_cross_entropy(gender_logits, gender_labels)
    accent_loss, d_accent = softmax_cross_entropy(accent_logits, accent_labels)
    speaker_loss, d_speaker = softmax_cross_entropy(speaker_logits, speaker_labels)
    breakdown = LossBreakdown(recon_loss, gender_loss, accent_loss, speaker_loss)
    if not np.isfinite([recon_loss, gender_loss, accent_loss, speaker_loss]).all():
        raise DivergenceError(f"divergence detected: non-finite loss {breakdown}")

    d_latent = _chain_backward(model, grad, caches, "decoder", d_recon)
    for attr, upstream in (("gender_head", d_gender), ("accent_head", d_accent),
                           ("speaker_head", d_speaker)):
        d_branch_latent = _chain_backward(model, grad, caches, attr, upstream)
        d_latent += grl_backward(d_branch_latent, model.lam)
    _chain_backward(model, grad, caches, "encoder", d_latent, input_grad=False)
    return breakdown


@dataclass
class TrainConfig:
    """Training hyperparameters; lam is copied onto the model at train time.

    The default learning rate is deliberately above the usual Adam 1e-3:
    at desk scale the extra step noise keeps the adversarial game out of a
    pursuit regime where the branches are fooled without any information
    being removed.
    """

    lam: float = 8.0
    epochs: int = 3000
    batch_size: int = 32
    lr: float = 5e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    optimizer: str = "adam"  # or "sgd"
    shuffle: bool = True
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        check_lam(self.lam)
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")


@dataclass
class EpochStats:
    """One history row: epoch means on train, full-pass stats on valid."""

    epoch: int
    train: LossBreakdown
    valid: LossBreakdown
    valid_gender_acc: float
    valid_accent_acc: float
    valid_speaker_acc: float


def evaluate_model(model: AanModel, x: np.ndarray, gender_labels: np.ndarray,
                   accent_labels: np.ndarray, speaker_labels: np.ndarray
                   ) -> tuple[LossBreakdown, tuple[float, float, float]]:
    """Full-pass losses and head accuracies, no gradients.

    The rows run through ``aan_forward`` in blocks sized so that a block's
    widest output holds about ``_BLOCK_ELEMENTS`` values.  Each block's
    squared reconstruction errors, and each head's per-row losses and hits
    (computed in place on its logits), land in buffers as long as the split,
    and each mean is taken once over the whole split.  So the peak is about
    one block's outputs plus the squared errors, whatever the number of
    speakers.  A split of one block has the bits of ``mse_loss`` and
    ``softmax_cross_entropy`` losses and ``argmax`` accuracies; over several
    blocks, a gemm's last bits may depend on the block's row count.
    """
    x = as_batch(x)
    d = model.dims
    labels = [check_labels(y, len(x), k) for y, k in
              ((gender_labels, d.n_genders), (accent_labels, d.n_accents),
               (speaker_labels, d.n_speakers))]
    squared = np.empty((len(x), d.input_dim))
    losses = np.empty((3, len(x)))
    hits = np.empty((3, len(x)), dtype=bool)
    block = max(1, _BLOCK_ELEMENTS // max(vars(d).values()))
    for start in range(0, len(x), block):
        rows = slice(start, start + block)
        output = aan_forward(model, x[rows])
        np.subtract(output.reconstruction, x[rows], out=squared[rows])
        np.square(squared[rows], out=squared[rows])
        for i, logits in enumerate((output.gender_logits, output.accent_logits,
                                    output.speaker_logits)):
            losses[i, rows], hits[i, rows] = cross_entropy_and_accuracy(
                logits, labels[i][rows], check=False)
        del output, logits  # so that no two blocks' logits are alive at once
    # negated back and forth, so the mean has the bits of softmax_cross_entropy's
    # loss, the sign of an all-zero mean included
    return (LossBreakdown(float(squared.mean()),
                          *(float(-np.negative(row).mean()) for row in losses)),
            tuple(float(row.mean()) for row in hits))


def _corpus_tensors(corpus: Corpus, dims: AanDims):
    x = corpus.matrix()
    g, a, s = corpus.label_indices()
    if x.shape[1] != dims.input_dim:
        raise ValueError(f"corpus dim {x.shape[1]} != model input_dim {dims.input_dim}")
    for name, labels, count in (("gender", g, dims.n_genders),
                                ("accent", a, dims.n_accents),
                                ("speaker", s, dims.n_speakers)):
        if labels.max() >= count:
            raise ValueError(f"corpus {name} label index {labels.max()} out of range "
                             f"for model with {count} classes")
    return x, g, a, s


# Divergence is caught by the explicit finite checks on losses and gradients,
# so numpy's overflow and invalid-value warnings along the way are noise.
@np.errstate(over="ignore", invalid="ignore")
def train(model: AanModel, train_corpus: Corpus, valid_corpus: Corpus,
          config: TrainConfig) -> tuple[AanModel, list[EpochStats]]:
    """Minibatch adversarial training, deterministic under config.seed.

    Returns the model restored to its best-validation-reconstruction
    checkpoint plus every epoch's history, all finite.  A non-finite train or
    valid loss or step, or an exploded run (``EXPLODED_RATIO``), raises
    ``DivergenceError`` and leaves the model at the failing step's parameters;
    a valid split with no spread around the train mean raises ``ValueError``.

    Its working set is six parameter-sized vectors: the parameters, the
    gradient, Adam's m and v, one Adam scratch array (the denominator is
    the spent gradient vector) and the best checkpoint, which each new best
    epoch overwrites in place.  Under SGD it is three: the parameters, the
    gradient (which also takes the step) and the best checkpoint.
    """
    config.validate()
    for name in ("speaker", "gender", "accent"):
        if getattr(train_corpus, f"{name}_vocab") != getattr(valid_corpus, f"{name}_vocab"):
            raise ValueError(f"train and valid corpora must share vocabularies: "
                             f"their {name} vocabularies differ")
    model.lam = float(config.lam)
    x_train, g_train, a_train, s_train = _corpus_tensors(train_corpus, model.dims)
    x_valid, g_valid, a_valid, s_valid = _corpus_tensors(valid_corpus, model.dims)
    mean_loss = float(((x_valid - x_train.mean(axis=0)) ** 2).mean())
    if mean_loss == 0.0:
        raise ValueError("the valid split has no spread around the train mean, so a run's "
                         "reconstruction loss cannot be judged; no checkpoint written")
    run = f"lambda={config.lam:g}, lr={config.lr:g}"

    grad = AanModel(model.dims, model.lam, np.empty_like(model.flat))
    # every step's backward pass rewrites all of grad.flat, so Adam's
    # denominator and SGD's step can overwrite it
    if config.optimizer == "adam":
        adam_state = AdamState.for_params(model.flat)
    rng = np.random.default_rng(config.seed)
    n = x_train.shape[0]

    best_recon = np.inf
    best_snapshot = model.snapshot()
    history: list[EpochStats] = []

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        sums = np.zeros(4)
        seen = 0
        try:
            for start in range(0, n, config.batch_size):
                idx = order[start:start + config.batch_size]
                breakdown = aan_loss_and_grads(
                    model, grad, x_train[idx], g_train[idx], a_train[idx], s_train[idx])
                if config.optimizer == "adam":
                    adam_step(model.flat, grad.flat, adam_state, lr=config.lr,
                              beta1=config.beta1, beta2=config.beta2, eps=config.eps)
                else:
                    sgd_step(model.flat, grad.flat, config.lr)
                sums += len(idx) * np.array([breakdown.recon, breakdown.gender,
                                             breakdown.accent, breakdown.speaker])
                seen += len(idx)
            train_mean = LossBreakdown(*(float(v) for v in sums / seen))
            valid_mean, accs = evaluate_model(model, x_valid, g_valid, a_valid, s_valid)
            if not np.isfinite([*vars(train_mean).values(), *vars(valid_mean).values()]).all():
                raise DivergenceError("divergence detected: non-finite epoch loss")
        except DivergenceError as exc:
            raise DivergenceError(f"training diverged in epoch {epoch} ({run}); "
                                  f"no checkpoint written") from exc
        history.append(EpochStats(epoch, train_mean, valid_mean, *accs))
        if valid_mean.recon < best_recon:
            best_recon = valid_mean.recon
            np.copyto(best_snapshot, model.flat)

    if best_recon > EXPLODED_RATIO * mean_loss:
        raise DivergenceError(f"training exploded ({run}): best valid recon loss {best_recon:.4g} "
                              f"is {best_recon / mean_loss:.3g} times the {mean_loss:.4g} of "
                              f"predicting the train mean; no checkpoint written")
    model.restore(best_snapshot)
    return model, history


def save_model(model: AanModel, path: str | Path) -> None:
    """Write the checkpoint (byte layout in the module docstring)."""
    with Path(path).open("wb") as fh:
        fh.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                              *vars(model.dims).values(), model.lam))
        fh.write(model.flat.astype("<f8", copy=False))


def load_model(path: str | Path) -> AanModel:
    """Read a checkpoint; round-trips save_model bit-exactly.

    The header fields, ``lam`` and the file size that the dims imply are
    checked before the parameter vector is allocated; the parameters are
    then read straight into it, and the layers are views of it.  A
    non-finite parameter is an error too.  Every error names the path.
    """
    with Path(path).open("rb") as fh:
        header = fh.read(CHECKPOINT_HEADER_SIZE)
        if header[:4] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad magic {header[:4]!r}, not an AAN checkpoint")
        if len(header) < CHECKPOINT_HEADER_SIZE:
            raise ValueError(f"{path}: truncated checkpoint header, {len(header)} bytes "
                             f"of {CHECKPOINT_HEADER_SIZE}")
        _, version, *dims_fields, lam = _HEADER.unpack(header)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        dims = AanDims(*dims_fields)
        try:
            dims.validate()
            check_lam(lam)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        count = sum((n_in + 1) * n_out for _, n_in, n_out, _ in layer_table(dims))
        size, expected = os.fstat(fh.fileno()).st_size, CHECKPOINT_HEADER_SIZE + 8 * count
        if size < expected:
            raise ValueError(f"{path}: truncated checkpoint, {size} bytes where "
                             f"its header implies {expected}")
        if size > expected:
            raise ValueError(f"{path}: {size - expected} trailing bytes, corrupt checkpoint")
        flat = np.empty(count, dtype="<f8")
        if fh.readinto(flat) != flat.nbytes:
            raise ValueError(f"{path}: truncated checkpoint, changed while read")
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: non-finite parameter values, corrupt checkpoint")
    return AanModel(dims, lam, flat.astype(np.float64, copy=False))


# The gradient check's perturbation, and the batch sampler's smallest ReLU
# pre-activation magnitude and number of draws.  A perturbation of eps moves
# a pre-activation by at most about eps (a bias), so 10x eps is margin enough.
GRADCHECK_EPS = 1e-5
GRADCHECK_MARGIN = 1e-4
GRADCHECK_MAX_TRIES = 2000


def sample_gradcheck_batch(model: AanModel, batch_size: int, seed: int):
    """Random (x, gender, accent, speaker) batch safe for finite differences.

    Redraws until every ReLU pre-activation is at least ``GRADCHECK_MARGIN``
    from zero, so no central difference straddles the kink, and no ReLU unit
    is dead across the whole batch, whose exactly-zero analytic gradient
    would meet a numeric estimate of pure roundoff.  Deterministic under seed.
    """
    rng = np.random.default_rng(seed)
    d = model.dims
    for _ in range(GRADCHECK_MAX_TRIES):
        x = rng.standard_normal((batch_size, d.input_dim))
        caches = []
        latent = _chain(model.encoder, x, caches)
        for attr, _ in GROUPS[1:]:
            _chain(getattr(model, attr), latent, caches)
        relu_pre = [cache.pre for layer, cache in zip(model.layers(), caches)
                    if layer.activation == "relu"]
        if (min(np.abs(pre).min() for pre in relu_pre) >= GRADCHECK_MARGIN
                and all((pre > 0).any(axis=0).all() for pre in relu_pre)):
            gender = rng.integers(0, d.n_genders, size=batch_size)
            accent = rng.integers(0, d.n_accents, size=batch_size)
            speaker = rng.integers(0, d.n_speakers, size=batch_size)
            return x, gender, accent, speaker
    raise ValueError(f"could not sample a batch with ReLU margin >= {GRADCHECK_MARGIN} "
                     f"in {GRADCHECK_MAX_TRIES} tries")


def aan_gradient_differences(model: AanModel, x: np.ndarray, gender_labels: np.ndarray,
                             accent_labels: np.ndarray, speaker_labels: np.ndarray
                             ) -> dict[str, tuple[float, np.ndarray, np.ndarray]]:
    """Central differences of each parameter group's own objective.

    Encoder parameters are checked against recon_loss - lam * (sum of
    branch losses), the decoder against recon_loss, each head against its
    own cross-entropy.  A group is one contiguous slice of ``flat``
    (``layer_table`` order); the analytic side is the same slice of the
    gradient vector that ``aan_loss_and_grads`` writes.
    Returns (objective, analytic, numeric) per group, in ``GROUPS`` order.
    """
    objectives = {"encoder": lambda b: b.recon - model.lam * (b.gender + b.accent + b.speaker),
                  "decoder": lambda b: b.recon, "gender_head": lambda b: b.gender,
                  "accent_head": lambda b: b.accent, "speaker_head": lambda b: b.speaker}
    grad = AanModel(model.dims, model.lam, np.empty_like(model.flat))
    results = {}
    stop = 0
    for attr, _ in GROUPS:
        start = stop
        stop += sum((n_in + 1) * n_out for group, n_in, n_out, _ in layer_table(model.dims)
                    if group == attr)

        def loss_and_grad(objective=objectives[attr], group=slice(start, stop)):
            losses = aan_loss_and_grads(model, grad, x, gender_labels, accent_labels,
                                        speaker_labels)
            return objective(losses), grad.flat[group]

        results[attr] = central_differences(loss_and_grad, model.flat[start:stop],
                                            GRADCHECK_EPS)
    return results


def aan_gradient_check(model: AanModel, x: np.ndarray, gender_labels: np.ndarray,
                       accent_labels: np.ndarray, speaker_labels: np.ndarray
                       ) -> dict[str, float]:
    """The max relative error per group of ``aan_gradient_differences``."""
    return {group: max_relative_error(analytic, numeric) for group, (_, analytic, numeric)
            in aan_gradient_differences(model, x, gender_labels, accent_labels,
                                        speaker_labels).items()}
