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

All parameters live in one contiguous float64 vector, ``AanModel.flat``, in
checkpoint order: encoder layers, decoder layers, gender head, accent head,
speaker head; per layer the weights (C order) then the bias.  Each layer's
``weights`` and ``bias`` are views into it, so training updates, snapshots,
restores and checkpoints the whole model with one vector operation each.

Training computes only what it reads.  Each step's backward pass writes the
weight and bias gradients straight into views of one flat gradient vector
laid out like ``flat`` (no per-layer gradient arrays, no packing copy), and
the encoder's input gradient is never computed.  The per-epoch validation
pass (``evaluate_model``) keeps no backward caches and computes each head's
loss and accuracy in place on its logits, so beside the forward outputs it
holds no further array of the logits' size; with 1251 speakers the speaker
logits dominate, and its peak is about one (rows, n_speakers) matrix.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Corpus
from .neural import (
    AdamState,
    DenseLayer,
    DivergenceError,
    Params,
    adam_step,
    cross_entropy_and_accuracy,
    dense_backward,
    dense_forward,
    finite_difference_check,
    grl_backward,
    init_dense,
    mse_loss,
    sgd_step,
    softmax_cross_entropy,
)

CHECKPOINT_MAGIC = b"AAN1"
CHECKPOINT_VERSION = 1
# magic, version, 7 dims, lam
CHECKPOINT_HEADER_SIZE = 4 + 4 + 7 * 4 + 8


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
        for name in ("input_dim", "hidden", "latent", "branch_hidden",
                     "n_genders", "n_accents", "n_speakers"):
            value = getattr(self, name)
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


def _layer_params(prefix: str, layers: list[DenseLayer]) -> Params:
    params: Params = {}
    for i, layer in enumerate(layers):
        params[f"{prefix}{i}.w"] = layer.weights
        params[f"{prefix}{i}.b"] = layer.bias
    return params


class AanModel:
    """Holds all trainable parameters plus the architecture descriptor.

    The constructor copies the layers' arrays into one float64 vector,
    ``flat``, in checkpoint order and rebinds every layer's ``weights`` and
    ``bias`` to a view into it.
    """

    def __init__(self, encoder: list[DenseLayer], decoder: list[DenseLayer],
                 gender_head: list[DenseLayer], accent_head: list[DenseLayer],
                 speaker_head: list[DenseLayer], lam: float, dims: AanDims):
        self.encoder = encoder
        self.decoder = decoder
        self.gender_head = gender_head
        self.accent_head = accent_head
        self.speaker_head = speaker_head
        self.lam = lam
        self.dims = dims
        params = self.parameters()
        self.flat = np.concatenate([p.ravel() for p in params.values()], dtype=np.float64)
        # (name, start, stop, shape) of each parameter's slice of ``flat``
        self._layout = []
        offset = 0
        for name, p in params.items():
            self._layout.append((name, offset, offset + p.size, p.shape))
            offset += p.size
        views = self._views(self.flat)
        for prefix, layers in self.groups().items():
            for i, layer in enumerate(layers):
                layer.weights = views[f"{prefix}{i}.w"]
                layer.bias = views[f"{prefix}{i}.b"]

    def groups(self) -> dict[str, list[DenseLayer]]:
        """Parameter-name prefix -> layer list, in checkpoint order."""
        return {prefix: getattr(self, attr) for attr, prefix in GROUPS}

    def parameters(self) -> Params:
        """Name -> view into ``flat``, in checkpoint order."""
        params: Params = {}
        for prefix, layers in self.groups().items():
            params.update(_layer_params(prefix, layers))
        return params

    def group_params(self, group: str) -> Params:
        """The parameters of one layer list ("encoder", ..., "speaker_head")."""
        return _layer_params(dict(GROUPS)[group], getattr(self, group))

    def _views(self, buffer: np.ndarray) -> Params:
        """Name -> view into ``buffer``, laid out like ``flat``."""
        return {name: buffer[start:stop].reshape(shape)
                for name, start, stop, shape in self._layout}

    def pack(self, arrays: Params, out: np.ndarray) -> None:
        """Copy a name -> array mapping into ``out`` in checkpoint order."""
        np.concatenate([arrays[name].ravel() for name, *_ in self._layout], out=out)

    def snapshot(self) -> Params:
        """Name -> view into one copy of ``flat``."""
        return self._views(self.flat.copy())

    def restore(self, snapshot: Params) -> None:
        self.pack(snapshot, self.flat)


def build_aan(dims: AanDims, lam: float, seed: int,
              init_scale: float | None = None) -> AanModel:
    """Build an AAN with fresh parameters, deterministic under seed.

    Encoder: input -> hidden (tanh) -> latent (tanh).
    Decoder: latent -> hidden (tanh) -> input (linear, unbounded outputs).
    Each branch head: latent -> branch_hidden (relu) -> class logits.
    """
    dims.validate()
    if not np.isfinite(lam) or lam < 0:
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    rng = np.random.default_rng(seed)
    encoder = [init_dense(dims.input_dim, dims.hidden, "tanh", rng, init_scale),
               init_dense(dims.hidden, dims.latent, "tanh", rng, init_scale)]
    decoder = [init_dense(dims.latent, dims.hidden, "tanh", rng, init_scale),
               init_dense(dims.hidden, dims.input_dim, "linear", rng, init_scale)]

    def head(n_classes: int) -> list[DenseLayer]:
        return [init_dense(dims.latent, dims.branch_hidden, "relu", rng, init_scale),
                init_dense(dims.branch_hidden, n_classes, "linear", rng, init_scale)]

    return AanModel(encoder, decoder, head(dims.n_genders), head(dims.n_accents),
                    head(dims.n_speakers), float(lam), dims)


@dataclass
class AanOutput:
    reconstruction: np.ndarray
    latent: np.ndarray
    gender_logits: np.ndarray
    accent_logits: np.ndarray
    speaker_logits: np.ndarray


def _chain_forward(layers: list[DenseLayer], x: np.ndarray):
    caches = []
    out = x
    for layer in layers:
        out, cache = dense_forward(layer, out)
        caches.append(cache)
    return out, caches


def _chain_backward(layers: list[DenseLayer], caches, upstream: np.ndarray,
                    prefix: str, grads: Params, input_grad: bool = True):
    """Backward through a layer chain, gradients stored under their names.

    An array already in ``grads`` under a parameter's name receives that
    gradient in place; missing names get fresh arrays.  Returns the chain's
    input gradient, or None when ``input_grad`` is false.
    """
    for i in range(len(layers) - 1, -1, -1):
        w, b = f"{prefix}{i}.w", f"{prefix}{i}.b"
        upstream, grads[w], grads[b] = dense_backward(
            layers[i], caches[i], upstream, grads.get(w), grads.get(b),
            input_grad=input_grad or i > 0)
    return upstream


def _forward_cached(model: AanModel, x: np.ndarray):
    latent, enc_caches = _chain_forward(model.encoder, x)
    recon, dec_caches = _chain_forward(model.decoder, latent)
    # gradient reversal is the identity at forward time
    gender_logits, g_caches = _chain_forward(model.gender_head, latent)
    accent_logits, a_caches = _chain_forward(model.accent_head, latent)
    speaker_logits, s_caches = _chain_forward(model.speaker_head, latent)
    output = AanOutput(recon, latent, gender_logits, accent_logits, speaker_logits)
    caches = {"enc": enc_caches, "dec": dec_caches,
              "gender": g_caches, "accent": a_caches, "speaker": s_caches}
    return output, caches


def aan_forward(model: AanModel, x: np.ndarray) -> AanOutput:
    """All five outputs, keeping no backward caches: each layer's cache is
    dropped as soon as the next layer has run."""

    def chain(layers: list[DenseLayer], out: np.ndarray) -> np.ndarray:
        for layer in layers:
            out, _ = dense_forward(layer, out)
        return out

    latent = chain(model.encoder, np.asarray(x, dtype=np.float64))
    return AanOutput(chain(model.decoder, latent), latent,
                     chain(model.gender_head, latent), chain(model.accent_head, latent),
                     chain(model.speaker_head, latent))


@dataclass
class LossBreakdown:
    """Per-objective loss terms for one batch (all mean-reduced, >= 0)."""

    recon: float
    gender: float
    accent: float
    speaker: float

    def is_finite(self) -> bool:
        return bool(np.isfinite([self.recon, self.gender, self.accent,
                                 self.speaker]).all())


def aan_loss_and_grads(model: AanModel, x: np.ndarray,
                       gender_labels: np.ndarray, accent_labels: np.ndarray,
                       speaker_labels: np.ndarray, out: np.ndarray | None = None
                       ) -> tuple[LossBreakdown, Params]:
    """Losses plus gradients realizing the adversarial min-max split.

    Heads get the gradient of their own cross-entropy; the decoder gets the
    reconstruction gradient; the encoder gets the reconstruction gradient
    plus each branch's latent gradient reversed and scaled by -lam, i.e.
    exactly the gradient of recon_loss - lam * (sum of branch losses).

    With ``out``, a vector laid out like ``model.flat``, the gradients are
    written into it and the returned mapping holds views of it; without,
    every call returns fresh arrays.  The encoder's input gradient is never
    computed.
    """
    x = np.asarray(x, dtype=np.float64)
    output, caches = _forward_cached(model, x)
    recon_loss, d_recon = mse_loss(output.reconstruction, x)
    gender_loss, d_gender = softmax_cross_entropy(output.gender_logits, gender_labels)
    accent_loss, d_accent = softmax_cross_entropy(output.accent_logits, accent_labels)
    speaker_loss, d_speaker = softmax_cross_entropy(output.speaker_logits, speaker_labels)
    breakdown = LossBreakdown(recon_loss, gender_loss, accent_loss, speaker_loss)
    if not breakdown.is_finite():
        raise DivergenceError(f"divergence detected: non-finite loss {breakdown}")

    grads: Params = {} if out is None else model._views(out)
    groups = model.groups()
    d_latent = _chain_backward(model.decoder, caches["dec"], d_recon, "dec", grads)
    for branch, upstream in (("gender", d_gender), ("accent", d_accent),
                             ("speaker", d_speaker)):
        head = groups[branch]
        d_branch_latent = _chain_backward(head, caches[branch], upstream, branch, grads)
        d_latent += grl_backward(d_branch_latent, model.lam)
    _chain_backward(model.encoder, caches["enc"], d_latent, "enc", grads,
                    input_grad=False)
    return breakdown, grads


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
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")
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

    Each head's loss and accuracy are computed in place on its logits, so
    besides the forward outputs the pass holds no array of the logits' size:
    its peak is about one (rows, n_speakers) matrix.  The values have the
    bits of ``softmax_cross_entropy`` losses and ``argmax`` accuracies.
    """
    output = aan_forward(model, x)
    recon_loss, _ = mse_loss(output.reconstruction, x)
    gender_loss, gender_acc = cross_entropy_and_accuracy(output.gender_logits, gender_labels)
    accent_loss, accent_acc = cross_entropy_and_accuracy(output.accent_logits, accent_labels)
    speaker_loss, speaker_acc = cross_entropy_and_accuracy(output.speaker_logits,
                                                           speaker_labels)
    return (LossBreakdown(recon_loss, gender_loss, accent_loss, speaker_loss),
            (gender_acc, accent_acc, speaker_acc))


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
    checkpoint plus the per-epoch history.  A non-finite loss aborts the
    run and returns the last good checkpoint with the history so far.
    """
    config.validate()
    model.lam = float(config.lam)
    x_train, g_train, a_train, s_train = _corpus_tensors(train_corpus, model.dims)
    x_valid, g_valid, a_valid, s_valid = _corpus_tensors(valid_corpus, model.dims)

    # the optimizer sees the whole model as one flat entry; each step's
    # gradients are written straight into the flat gradient buffer
    params = {"flat": model.flat}
    grads = {"flat": np.empty_like(model.flat)}
    adam_state = AdamState.for_params(params)
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
                breakdown, _ = aan_loss_and_grads(
                    model, x_train[idx], g_train[idx], a_train[idx], s_train[idx],
                    out=grads["flat"])
                if config.optimizer == "adam":
                    adam_step(params, grads, adam_state, lr=config.lr,
                              beta1=config.beta1, beta2=config.beta2, eps=config.eps)
                else:
                    sgd_step(params, grads, config.lr)
                sums += len(idx) * np.array([breakdown.recon, breakdown.gender,
                                             breakdown.accent, breakdown.speaker])
                seen += len(idx)
        except DivergenceError:
            model.restore(best_snapshot)
            return model, history
        train_mean = LossBreakdown(*(float(v) for v in sums / seen))
        valid_mean, accs = evaluate_model(model, x_valid, g_valid, a_valid, s_valid)
        history.append(EpochStats(epoch, train_mean, valid_mean, *accs))
        if valid_mean.recon < best_recon:
            best_recon = valid_mean.recon
            best_snapshot = model.snapshot()

    model.restore(best_snapshot)
    return model, history


def save_model(model: AanModel, path: str | Path) -> None:
    """Write the checkpoint (byte layout in the module docstring)."""
    d = model.dims
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    blob += struct.pack("<7I", d.input_dim, d.hidden, d.latent, d.branch_hidden,
                        d.n_genders, d.n_accents, d.n_speakers)
    blob += struct.pack("<d", model.lam)
    blob += model.flat.astype("<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def _checkpoint_size(d: AanDims) -> int:
    """Bytes in a checkpoint of this architecture (header plus parameters)."""
    layers = [(d.input_dim, d.hidden), (d.hidden, d.latent),
              (d.latent, d.hidden), (d.hidden, d.input_dim)]
    for n_classes in (d.n_genders, d.n_accents, d.n_speakers):
        layers += [(d.latent, d.branch_hidden), (d.branch_hidden, n_classes)]
    return CHECKPOINT_HEADER_SIZE + 8 * sum((n_in + 1) * n_out for n_in, n_out in layers)


def load_model(path: str | Path) -> AanModel:
    """Read a checkpoint; round-trips save_model bit-exactly.

    The header is validated, and the file size checked against the size
    its dims imply, before any parameter array is allocated.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}, not an AAN checkpoint")
    if len(raw) < CHECKPOINT_HEADER_SIZE:
        raise ValueError(f"{path}: truncated checkpoint header, {len(raw)} bytes "
                         f"of {CHECKPOINT_HEADER_SIZE}")
    version, *dims_fields = struct.unpack_from("<8I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (lam,) = struct.unpack_from("<d", raw, 36)
    dims = AanDims(*dims_fields)
    try:
        dims.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    expected = _checkpoint_size(dims)
    if len(raw) < expected:
        raise ValueError(f"{path}: truncated checkpoint, {len(raw)} bytes where "
                         f"its header implies {expected}")
    if len(raw) > expected:
        raise ValueError(f"{path}: {len(raw) - expected} trailing bytes, corrupt checkpoint")
    try:
        model = build_aan(dims, lam, seed=0)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    model.flat[...] = np.frombuffer(raw, dtype="<f8", offset=CHECKPOINT_HEADER_SIZE)
    return model


def relu_margin(model: AanModel, x: np.ndarray) -> tuple[float, bool]:
    """(smallest |pre-activation|, all-units-alive flag) over ReLU layers.

    Central differences straddle the ReLU kink when a pre-activation lies
    within the perturbation window, and a unit that is dead for the whole
    batch has an exactly-zero analytic weight gradient whose numeric
    estimate is pure roundoff noise; gradient checks want a margin well
    above eps and no fully-dead units.
    """
    _, caches = _forward_cached(model, np.asarray(x, dtype=np.float64))
    margin = np.inf
    all_alive = True
    for group, layers in model.groups().items():
        for i, layer in enumerate(layers):
            if layer.activation == "relu":
                pre = caches[group][i].pre
                margin = min(margin, float(np.abs(pre).min()))
                all_alive = all_alive and bool((pre > 0).any(axis=0).all())
    return margin, all_alive


def sample_gradcheck_batch(model: AanModel, batch_size: int, seed: int,
                           margin: float = 1e-4, max_tries: int = 2000):
    """Random (x, gender, accent, speaker) batch safe for finite differences.

    Redraws until every ReLU pre-activation is at least ``margin`` from
    zero (a perturbation of size eps moves a pre-activation by at most
    about eps, the layer's own bias, so 10x the checking eps is enough)
    and no ReLU unit is dead across the whole batch.  Deterministic under
    seed.
    """
    rng = np.random.default_rng(seed)
    d = model.dims
    for _ in range(max_tries):
        x = rng.standard_normal((batch_size, d.input_dim))
        worst, all_alive = relu_margin(model, x)
        if worst >= margin and all_alive:
            gender = rng.integers(0, d.n_genders, size=batch_size)
            accent = rng.integers(0, d.n_accents, size=batch_size)
            speaker = rng.integers(0, d.n_speakers, size=batch_size)
            return x, gender, accent, speaker
    raise ValueError(f"could not sample a batch with ReLU margin >= {margin} "
                     f"in {max_tries} tries")


def aan_gradient_check(model: AanModel, x: np.ndarray, gender_labels: np.ndarray,
                       accent_labels: np.ndarray, speaker_labels: np.ndarray,
                       eps: float = 1e-5) -> dict[str, float]:
    """Central-difference check of each parameter group's own objective.

    Encoder parameters are checked against recon_loss - lam * (sum of
    branch losses), the decoder against recon_loss, each head against its
    own cross-entropy; the analytic side comes from aan_loss_and_grads.
    Returns the max relative error per group.
    """
    lam = model.lam

    def objective_for(group: str):
        def loss_and_grads():
            breakdown, grads = aan_loss_and_grads(
                model, x, gender_labels, accent_labels, speaker_labels)
            if group == "encoder":
                loss = breakdown.recon - lam * (breakdown.gender + breakdown.accent
                                                + breakdown.speaker)
            elif group == "decoder":
                loss = breakdown.recon
            else:
                loss = getattr(breakdown, group.removesuffix("_head"))
            return loss, grads
        return loss_and_grads

    results = {}
    for group in ("encoder", "decoder", "gender_head", "accent_head", "speaker_head"):
        results[group] = finite_difference_check(
            objective_for(group), model.group_params(group), eps=eps)
    return results
