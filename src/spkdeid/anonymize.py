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

The baseline's norms pass the guard trial scoring uses (``metrics._rescale``).
It ranks each block of queries with one gemm, whose sums run in another
order than a one-row product's, but the output depends only on the chosen
index set: a row whose choice a rounding bound settles takes it from the
gemm, and any other row is ranked again as a one-row call ranks it, with
one ``ddot`` for its norm, one pool gemv, and a stable argsort of its
exact similarities.  Beside the unit-norm pool and the output, a block
holds the gemm buffer, which every block reuses, the partitioned copy of
it until its k-th column is taken, and then one gather of the chosen pool
rows.  The reconstruction's outputs are values, so it stays one gemv per
row and layer, from numpy's C loop over stacked matmuls.  Either way every
output row is independent of N and of its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aan import _BLOCK_ELEMENTS, AanModel
from .dataset import Corpus
from .metrics import _check_norms, _rescale
from .neural import DivergenceError

# What each method kind needs: a pool, a model or both, in the order it applies them.
METHOD_NEEDS = {"identity": (), "baseline_farthest": ("pool",), "aan1": ("model",),
                "aan2": ("pool", "model")}
METHOD_KINDS = tuple(METHOD_NEEDS)


@dataclass
class PseudoPool:
    """Candidate vectors for pseudo-embedding construction.

    The row norms are computed once, at construction, so ``vectors`` is
    read-only afterwards.  ``rescaled`` is ``vectors`` with each row whose
    norm is out of range scaled into it (``metrics._rescale``), or
    ``vectors`` itself when no row is, and ``norms`` holds its row norms.
    """

    vectors: np.ndarray  # (n, dim)
    rescaled: np.ndarray = field(init=False, repr=False)  # (n, dim)
    norms: np.ndarray = field(init=False, repr=False)  # (n,)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1:
            raise ValueError(f"pool must be a nonempty (n, dim) array, got shape "
                             f"{self.vectors.shape}")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("pool contains non-finite vectors")
        self.rescaled, self.norms = _rescale(self.vectors,
                                             lambda rows: np.linalg.norm(rows, axis=1))

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
    scaling a query by any c > 0 under which its squared entries neither
    overflow nor underflow leaves its selection and output unchanged.  A
    finite row whose norm is out of range is ranked as its power-of-two
    rescaled copy (``metrics._rescale``); the output still averages the
    pool rows as given.  An all-zero row is refused as degenerate.

    Each block is ranked with one gemm.  A row takes its selection from it
    when exactly ``top_k`` gemm values lie within twice the rounding bound
    of the k-th smallest, and is ranked again from the exact similarities
    otherwise, so every row's output is that of its one-row call.

    The gemm writes into one (block, pool) buffer that every block reuses,
    and only the k-th column of its partitioned copy is kept, so beside that
    buffer a block holds the partitioned copy, then the gather of its chosen
    pool rows, (block, top_k, dim), never both.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != pool.dim:
        raise ValueError(f"x has shape {x.shape}, expected an (N, dim) matrix with the "
                         f"pool dim {pool.dim}")
    if not 1 <= top_k <= len(pool):
        raise ValueError(f"top_k must be in [1, {len(pool)}], got {top_k}")
    _check_norms(pool.norms)
    # A row's exact similarity to pool row v is s = fl(fl(x.v) / fl(|v|^ |x|^)),
    # |v|^ and |x|^ the computed norms; the gemm gives f = fl(x.fl(v / |v|^)),
    # about |x|^ s.  Each d-term dot product, in any summation order, is
    # within gamma_d |x||v| of its exact value, gamma_d = d u / (1 - d u),
    # u = 2**-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    # 3.1).  With one u each for v / |v|^, the norm product and the division,
    # |f / |x|^ - s| <= (2d + 3) u to first order; the norms, within
    # gamma_(d+2) of |x| and |v|, scale it by 1 + O(d u).  E = 4 (d + 3) u is
    # twice that plus 6 u, which covers the second-order terms for d < 2**26,
    # the rounding of kth + 2 E |x|^ and any underflow while all norms lie in
    # [2**-400, 2**400], as _rescale ensures, where nothing overflows.  Every
    # exact top_k member has f <= kth + 2 E |x|^, where kth is the k-th
    # smallest f, so a window of exactly top_k entries is the exact choice.
    slack = 2 * 4 * (pool.dim + 3) * 2.0 ** -53
    unit_pool = np.empty((pool.dim, len(pool)))
    np.divide(pool.rescaled.T, pool.norms, out=unit_pool)
    out = np.empty_like(x)
    block = max(1, _BLOCK_ELEMENTS // max(len(pool), top_k * pool.dim))
    gemm = np.empty((min(block, len(x)), len(pool)))
    for start in range(0, len(x), block):
        queries, query_norms = _rescale(x[start:start + block])
        _check_norms(query_norms)
        fast = np.matmul(queries, unit_pool, out=gemm[:len(queries)])
        # copy the k-th column so that the partitioned copy is freed here
        kth = np.partition(fast, top_k - 1, axis=1)[:, top_k - 1, None].copy()
        window = np.flatnonzero(fast <= kth + slack * query_norms[:, None])
        rows = window // len(pool)
        certified = (np.bincount(rows, minlength=len(queries)) == top_k) & (pool.dim < 2 ** 26)
        chosen = np.empty((len(queries), top_k), dtype=np.intp)
        chosen[certified] = (window[certified[rows]] % len(pool)).reshape(-1, top_k)
        exact = ~certified
        if exact.any():
            sims = (pool.rescaled @ queries[exact, :, None])[:, :, 0]
            sims /= pool.norms * query_norms[exact, None]
            chosen[exact] = _farthest(sims, top_k)
        # averaging in pool index order keeps the output independent of the
        # rank order within the selected set
        out[start:start + block] = pool.vectors[chosen].mean(axis=1)
    return out


def _farthest(sims: np.ndarray, top_k: int) -> np.ndarray:
    """Per row of ``sims``, the indices of its ``top_k`` smallest entries,
    ascending, lowest index first among equal values: a stable argsort's."""
    return np.sort(np.argsort(sims, axis=1, kind="stable")[:, :top_k], axis=1)


def _reconstruct(model: AanModel, x: np.ndarray) -> np.ndarray:
    """Encoder then decoder on each row of ``x``; the branch heads go unread."""
    if x.shape[1] != model.dims.input_dim:
        raise ValueError(f"input has {x.shape[1]} features, layer expects {model.dims.input_dim}")
    layers = model.encoder + model.decoder
    out = np.empty((len(x), model.dims.input_dim))
    block = max(1, _BLOCK_ELEMENTS // max(layer.n_out for layer in layers))
    for start in range(0, len(x), block):
        rows = x[start:start + block, None, :]
        for layer in layers:
            rows = rows @ layer.weights.T
            rows += layer.bias
            if layer.activation == "tanh":  # the rest are linear (layer_table)
                np.tanh(rows, out=rows)
        out[start:start + block] = rows[:, 0]
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
        for need in METHOD_NEEDS[self.kind]:
            if getattr(self, need) is None:
                raise ValueError(f"method {self.kind!r} requires a {need}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Map an (N, dim) matrix of embeddings to its (N, dim) anonymization."""
        self.validate()
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected an (N, dim) matrix, got shape {x.shape}")
        for need in METHOD_NEEDS[self.kind]:
            x = (baseline_anonymize(self.pool, x, self.top_k) if need == "pool"
                 else _reconstruct(self.model, x))
        return x


def anonymize_corpus(corpus: Corpus, method: AnonymizationMethod) -> Corpus:
    """Map every embedding through the method; ids, labels, order preserved.

    The identity method returns the corpus unchanged.
    """
    if method.kind == "identity":
        return corpus
    return corpus.with_vectors(method.apply(corpus.matrix()))
