"""Embedding anonymization pipelines.

Four methods:

  identity            pass-through (the "original" condition)
  baseline_farthest   replace the embedding by the mean of the top_k pool
                      vectors farthest from it in cosine distance
  aan1                reconstruct the embedding through a trained AAN
  aan2                baseline_farthest first, then aan1 on the result

Every method maps an (N, dim) matrix to an (N, dim) matrix, row by row,
through ``AnonymizationMethod.apply``, and ``anonymize_corpus`` preserves
ids and labels.  ``baseline_anonymize`` takes only matrices too: there are
no per-vector forms, and a single vector is a one-row matrix.  The AAN
methods only run the model forward, so a model loaded to anonymize holds
no gradient storage.

BLAS is called one query at a time: one pool gemv and one norm per query,
and one one-row encoder+decoder pass per reconstruction.  A multi-row
matmul sums in a different order, so the last bits of a row would depend
on how many rows shared the call; one call per row makes every output
row independent of N and of its neighbours.  The elementwise work (the
cosine division, the top_k selection and the gather-mean) runs over
blocks of queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aan import AanModel
from .dataset import Corpus
from .neural import DivergenceError, dense_forward

METHOD_KINDS = ("identity", "baseline_farthest", "aan1", "aan2")

# Queries per block are sized so the block's similarities, and its gathered
# pool vectors, hold about this many float64 values (1 MB), whatever N is.
_BLOCK_ELEMENTS = 1 << 17


@dataclass
class PseudoPool:
    """Candidate vectors for pseudo-embedding construction.

    The row norms and the zero-norm flag are computed once, at
    construction, so ``vectors`` is read-only afterwards.
    """

    vectors: np.ndarray  # (n, dim)
    norms: np.ndarray = field(init=False, repr=False)  # (n,)
    has_zero_norm: bool = field(init=False, repr=False)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1:
            raise ValueError(f"pool must be a nonempty (n, dim) array, got shape "
                             f"{self.vectors.shape}")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("pool contains non-finite vectors")
        self.norms = np.linalg.norm(self.vectors, axis=1)
        self.has_zero_norm = bool(np.any(self.norms == 0.0))

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def baseline_anonymize(pool: PseudoPool, x: np.ndarray, top_k: int) -> np.ndarray:
    """Per row of ``x``, the mean of the ``top_k`` pool vectors farthest from
    it (cosine).

    ``x`` is an (N, dim) matrix of queries and the result is (N, dim).
    Ranking is by ascending cosine similarity, ties broken by pool index;
    scaling a query by any c > 0 leaves its selection and output unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != pool.dim:
        raise ValueError(f"x has shape {x.shape}, expected an (N, dim) matrix with the "
                         f"pool dim {pool.dim}")
    if not 1 <= top_k <= len(pool):
        raise ValueError(f"top_k must be in [1, {len(pool)}], got {top_k}")
    if pool.has_zero_norm:
        raise ValueError("degenerate vector: zero norm, cosine distance undefined")
    out = np.empty_like(x)
    block = max(1, _BLOCK_ELEMENTS // max(len(pool), top_k * pool.dim))
    for start in range(0, len(x), block):
        queries = x[start:start + block]
        query_norms = np.array([np.linalg.norm(q) for q in queries])
        if np.any(query_norms == 0.0):
            raise ValueError("degenerate vector: zero norm, cosine distance undefined")
        sims = np.stack([pool.vectors @ q for q in queries])
        sims /= pool.norms * query_norms[:, None]
        if not np.all(np.isfinite(sims)):
            raise ValueError("degenerate vector: non-finite cosine similarity")
        # averaging in pool index order keeps the output independent of the
        # rank order within the selected set
        out[start:start + block] = pool.vectors[_farthest(sims, top_k)].mean(axis=1)
    return out


def _farthest(sims: np.ndarray, top_k: int) -> np.ndarray:
    """Per row of ``sims``, the indices of its ``top_k`` smallest entries, ascending.

    Exact and equal to ``np.sort(np.argsort(row, kind="stable")[:top_k])``:
    every entry below the k-th smallest value, then the lowest-index entries
    equal to it.  Only rows with more than top_k entries at or below that
    value pay for the tie-break.
    """
    kth = np.partition(sims, top_k - 1, axis=1)[:, top_k - 1, None]
    chosen = sims <= kth
    tied = np.flatnonzero(chosen.sum(axis=1) > top_k)
    below = sims[tied] < kth[tied]
    ties = sims[tied] == kth[tied]
    room = top_k - below.sum(axis=1, keepdims=True)
    chosen[tied] = below | (ties & (np.cumsum(ties, axis=1) <= room))
    return np.flatnonzero(chosen).reshape(len(sims), top_k) % sims.shape[1]


def _reconstruct(model: AanModel, x: np.ndarray) -> np.ndarray:
    """Encoder then decoder on each row of ``x``, one row per call.

    The branch heads are skipped: anonymization never reads their logits.
    """
    layers = model.encoder + model.decoder
    out = np.empty((len(x), model.dims.input_dim))
    for i in range(len(x)):
        row = x[i:i + 1]
        for layer in layers:
            row, _ = dense_forward(layer, row)
        out[i] = row[0]
    if not np.all(np.isfinite(out)):
        raise DivergenceError("divergence detected: non-finite reconstruction")
    return out


@dataclass
class AnonymizationMethod:
    """A method kind plus whatever parameters that kind needs."""

    kind: str
    model: AanModel | None = None
    pool: PseudoPool | None = None
    top_k: int = 10

    def validate(self) -> None:
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"kind must be one of {METHOD_KINDS}, got {self.kind!r}")
        if self.kind in ("aan1", "aan2") and self.model is None:
            raise ValueError(f"method {self.kind!r} requires a model")
        if self.kind in ("baseline_farthest", "aan2") and self.pool is None:
            raise ValueError(f"method {self.kind!r} requires a pool")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Map an (N, dim) matrix of embeddings to its (N, dim) anonymization."""
        self.validate()
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected an (N, dim) matrix, got shape {x.shape}")
        if self.kind in ("baseline_farthest", "aan2"):
            x = baseline_anonymize(self.pool, x, self.top_k)
        if self.kind in ("aan1", "aan2"):
            x = _reconstruct(self.model, x)
        return x


def anonymize_corpus(corpus: Corpus, method: AnonymizationMethod) -> Corpus:
    """Map every embedding through the method; ids, labels, order preserved.

    The identity method returns the corpus unchanged.
    """
    if method.kind == "identity":
        return corpus
    return corpus.with_vectors(method.apply(corpus.matrix()))
