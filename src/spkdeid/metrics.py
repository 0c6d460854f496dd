"""Verification-style privacy evaluation for embedding anonymizers.

Builds gender-partitioned enroll/trial lists, scores them with cosine
similarity against per-speaker mean enrollment models, and reports EER,
Cllr, and minCllr per condition cell, mirroring the usual
original/anonymized (o/a) enroll-trial condition matrix.  Linear attribute
probes measure residual speaker/gender/accent leakage.

A trial list (``TrialList``) is stored by column: index arrays for the
enrollment speaker, the trial utterance's row, ``is_target`` and the
gender, plus the name lists they index.  It is the only form of a trial
list; ``TrialList.from_rows`` builds one from (speaker, utterance,
is_target, gender) rows and ``columns`` gives them back.  Every per-trial
step below is an array operation:

  scores   one BLAS dot per score.  Each cosine's dot product, and each
           norm's ``v . v``, is one ``ddot`` call made by stacked
           ``np.matmul((n, 1, d), (n, d, 1))`` on rows gathered in blocks,
           the same kernel ``np.dot`` calls on two 1-d vectors, so a score
           has the bits of the per-pair formula.  Its norms pass the guard
           that the baseline's pool ranking uses too (``_rescale``).
  models   one ``mean(axis=1)`` per group of speakers with the same number
           of enrollment rows, bit-identical to each speaker's own
           ``mean(axis=0)``.
  PAV      exact: runs of equal labels are pooled, then every maximal
           non-increasing run of block means, until the means increase.
           The isotonic fit is unique and each fitted value is
           ``total / count`` of exact integers, so it has the bits of the
           one-block-at-a-time loop.

Conventions:

  EER      threshold sweep over the observed score set;
           FRR(t) = fraction of targets with score <  t,
           FAR(t) = fraction of nontargets with score >= t,
           EER = (FAR + FRR) / 2 at the threshold minimizing |FAR - FRR|,
           ties resolved toward the lower threshold.  No interpolation.
  Cllr     scores consumed as natural-log likelihood ratios:
           0.5 * [mean_tar log2(1 + e^-s) + mean_non log2(1 + e^s)].
           Raw cosine scores are uncalibrated, so Cllr can exceed 1.
  minCllr  Cllr after optimal monotone calibration: pool-adjacent-violators
           isotonic fit of the target posterior against score rank, with
           prior-odds correction for the target/nontarget count ratio and
           posterior clipping to [1e-12, 1 - 1e-12].

EER and minCllr are invariant under strictly increasing transforms of the
scores; Cllr is not (it reads the raw score values as LLRs).

Probes: ``probe_attack`` takes (train, test) corpus pairs for one attribute
and trains their probes as one stack, full batch, from one shared init.
``evaluate_conditions`` passes the original and the anonymized pair, so an
attribute costs one call.  Each epoch is one stacked matmul per direction,
reductions over the class axis and one Adam step over the stack's flat
parameter vector, in the operation order of ``dense_forward``,
``softmax_cross_entropy`` and ``dense_backward``; each probe comes out
bit-identical to one trained on its own.  The loss is never computed,
because nothing reads it.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .dataset import Corpus, csv_rows
from .neural import AdamState, DivergenceError, adam_step, init_dense

LOG2 = np.log(2.0)
POSTERIOR_CLIP = 1e-12


@dataclass(eq=False)
class TrialList:
    """Trials by column, row-aligned.

    Trial i enrolls ``speaker_names[speakers[i]]`` against utterance
    ``utterance_ids[rows[i]]``; ``genders[i]`` indexes ``gender_names``.
    Two trial lists are equal when their ``columns()`` are.
    """

    speaker_names: list[str]
    utterance_ids: list[str]
    gender_names: list[str]
    speakers: np.ndarray
    rows: np.ndarray
    is_target: np.ndarray
    genders: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "TrialList":
        """A trial list from (enroll speaker, utterance, is_target, gender)
        rows, each name list in first-seen order."""
        speaker_index: dict[str, int] = {}
        utterance_index: dict[str, int] = {}
        gender_index: dict[str, int] = {}
        speakers, utterances, is_target, genders = [], [], [], []
        for speaker, utterance, target, gender in rows:
            speakers.append(speaker_index.setdefault(speaker, len(speaker_index)))
            utterances.append(utterance_index.setdefault(utterance, len(utterance_index)))
            is_target.append(target)
            genders.append(gender_index.setdefault(gender, len(gender_index)))
        return cls(list(speaker_index), list(utterance_index), list(gender_index),
                   np.array(speakers, dtype=np.intp), np.array(utterances, dtype=np.intp),
                   np.array(is_target, dtype=bool), np.array(genders, dtype=np.intp))

    def __len__(self) -> int:
        return len(self.rows)

    def columns(self) -> tuple[list[str], list[str], list[bool], list[str]]:
        """Per-trial enrollment speaker, utterance, is_target and gender."""
        return ([self.speaker_names[i] for i in self.speakers.tolist()],
                [self.utterance_ids[i] for i in self.rows.tolist()],
                self.is_target.tolist(),
                [self.gender_names[i] for i in self.genders.tolist()])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrialList):
            return NotImplemented
        return self.columns() == other.columns()

    def take(self, index: np.ndarray) -> "TrialList":
        """The trials at ``index`` (a boolean mask or row indices), same names."""
        return dataclasses.replace(self, speakers=self.speakers[index], rows=self.rows[index],
                                   is_target=self.is_target[index],
                                   genders=self.genders[index])


@dataclass
class ScoredTrials:
    """Trials and their scores, row-aligned."""

    trials: TrialList
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.trials),):
            raise ValueError(f"{len(self.trials)} trials but {self.scores.shape} scores")

    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """(target scores, nontarget scores); both must be nonempty."""
        mask = self.trials.is_target
        tar, non = self.scores[mask], self.scores[~mask]
        if tar.size == 0 or non.size == 0:
            raise ValueError(f"need at least 1 target and 1 nontarget trial, got "
                             f"{tar.size} targets / {non.size} nontargets")
        return tar, non

    def for_gender(self, gender: str) -> "ScoredTrials":
        names = self.trials.gender_names
        keep = self.trials.genders == (names.index(gender) if gender in names else -1)
        return ScoredTrials(self.trials.take(keep), self.scores[keep])


def make_trials(enroll_corpus: Corpus, trial_corpus: Corpus,
                n_nontarget_per_target: int, seed: int) -> TrialList:
    """One target plus n same-gender nontarget trials per trial utterance.

    Nontarget enrollment speakers are sampled without replacement from the
    other speakers of the same gender, deterministically under seed: one
    ``rng.choice`` per trial utterance, in row order.  The trials of an
    utterance are its target, then its nontargets in draw order.
    """
    if enroll_corpus.speaker_vocab != trial_corpus.speaker_vocab \
            or enroll_corpus.gender_vocab != trial_corpus.gender_vocab:
        raise ValueError("enroll and trial corpora must share vocabularies")
    if n_nontarget_per_target < 0:
        raise ValueError(f"n_nontarget_per_target must be >= 0, got {n_nontarget_per_target}")
    speaker_names, gender_names = trial_corpus.names("speaker"), trial_corpus.names("gender")
    # each enrolled speaker's gender (-1: not enrolled); a gender's group is
    # its enrolled speakers in vocabulary (= name) order
    gender_of = np.full(len(speaker_names), -1, dtype=np.intp)
    gender_of[enroll_corpus.speakers] = enroll_corpus.genders
    enrolled = np.flatnonzero(gender_of >= 0)
    members = enrolled[np.argsort(gender_of[enrolled], kind="stable")]
    group_size = np.bincount(gender_of[enrolled], minlength=len(gender_names))
    group_start = np.cumsum(group_size) - group_size
    rank = np.zeros(len(speaker_names), dtype=np.intp)  # position in the own group
    rank[members] = np.arange(len(members)) - group_start[gender_of[members]]
    first_seen = np.unique(gender_of[enrolled], return_index=True)
    for gender in first_seen[0][np.argsort(first_seen[1])].tolist():
        if group_size[gender] < 2:
            raise ValueError(f"gender {gender_names[gender]!r} has {int(group_size[gender])} "
                             "enrolled speaker(s); need >= 2 for nontarget trials")

    speakers, genders = trial_corpus.speakers, trial_corpus.genders
    n = n_nontarget_per_target
    # candidates: the group without the trial speaker, whose slot j skips;
    # a speaker enrolled under another gender is in no slot (own = group size)
    in_group = gender_of[speakers] == genders
    own = np.where(in_group, rank[speakers], group_size[genders])
    available = group_size[genders] - in_group
    bad = (gender_of[speakers] < 0) | (n > available)
    if bad.any():
        i = int(bad.argmax())
        if gender_of[speakers[i]] < 0:
            raise ValueError(f"trial speaker {speaker_names[speakers[i]]!r} has no "
                             "enrollment utterances")
        raise ValueError(f"cannot sample {n} nontarget speakers for gender "
                         f"{gender_names[genders[i]]!r}: only {int(available[i])} available")

    rng = np.random.default_rng(seed)
    chosen = np.empty((len(speakers), n), dtype=np.intp)
    for i, count in enumerate(available.tolist()):
        chosen[i] = rng.choice(count, size=n, replace=False)
    nontargets = members[group_start[genders][:, None] + chosen + (chosen >= own[:, None])]
    per_utterance = 1 + n
    return TrialList(
        speaker_names, trial_corpus.utterance_ids, gender_names,
        speakers=np.column_stack([speakers, nontargets]).ravel(),
        rows=np.repeat(np.arange(len(speakers)), per_utterance),
        is_target=np.tile(np.arange(per_utterance) == 0, len(speakers)),
        genders=np.repeat(genders, per_utterance))


# values per gathered block of rows: 2**13 (64 KiB), small enough to stay in
# a per-core cache and below malloc's mmap threshold, and far below a full
# (trials, dim) gather
GATHER_BLOCK_VALUES = 1 << 13


def enroll_speaker_models(enroll_corpus: Corpus) -> dict[str, np.ndarray]:
    """Per-speaker arithmetic mean of the enrollment vectors, in order of
    each speaker's first row.

    Speakers with the same number of rows are averaged by one
    ``mean(axis=1)`` over their stacked (speakers, rows, dim) vectors,
    gathered in blocks of at most ``GATHER_BLOCK_VALUES`` values.
    """
    speakers = enroll_corpus.speakers
    order = np.argsort(speakers, kind="stable")
    starts = np.flatnonzero(np.diff(speakers[order], prepend=-1))
    counts = np.diff(starts, append=len(order))
    means = np.empty((len(starts), enroll_corpus.dim))
    for count in np.unique(counts).tolist():
        group = np.flatnonzero(counts == count)
        step = max(1, GATHER_BLOCK_VALUES // (count * enroll_corpus.dim))
        for first in range(0, len(group), step):
            part = group[first:first + step]
            rows = order[starts[part][:, None] + np.arange(count)]
            with np.errstate(over="ignore", invalid="ignore"):  # score_trials refuses it
                means[part] = enroll_corpus.vectors[rows].mean(axis=1)
    names = enroll_corpus.names("speaker")
    by_first_row = np.argsort(order[starts]).tolist()
    return {names[speakers[order[starts[i]]]]: means[i] for i in by_first_row}


def _row_dots(a: np.ndarray, b: np.ndarray, a_rows: np.ndarray,
              b_rows: np.ndarray) -> np.ndarray:
    """``np.dot(a[i], b[j])`` for each pair (i, j) of ``a_rows``, ``b_rows``.

    Rows are gathered in blocks; stacked (1, d) @ (d, 1) matmuls make one
    ``ddot`` call per pair, as ``np.dot`` does on two 1-d vectors.
    """
    out = np.empty(len(a_rows))
    block = max(1, GATHER_BLOCK_VALUES // a.shape[1])
    for start in range(0, len(a_rows), block):
        stop = start + block
        np.matmul(a[a_rows[start:stop], None, :], b[b_rows[start:stop], :, None],
                  out=out[start:stop, None, None])
    return out


# _rescale leaves a norm in [1 / _NORM_LIMIT, _NORM_LIMIT] alone: underflow in
# its squares is negligible there, and a product of two such norms is in range
_NORM_LIMIT = 2.0 ** 400


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's norm as ``np.linalg.norm`` computes a 1-d array's: the
    square root of the row's product with itself."""
    columns = rows[:, :, None]
    return np.sqrt(columns.transpose(0, 2, 1) @ columns)[:, 0, 0]


def _rescale(rows: np.ndarray, norm: Callable[[np.ndarray], np.ndarray] = _row_norms
             ) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` as cosines are computed on them, and their ``norm(rows)``.

    A finite, nonzero row whose norm is out of range (``_NORM_LIMIT``) is
    replaced by itself times 2**-e, e the ``np.frexp`` exponent of its
    largest |entry|, which puts the norm in [0.5, sqrt(dim)].  Scaling by a
    power of two is exact, save for entries 2**-1021 or more below the
    largest, far below any rounding of the norm, so its cosines are those of
    its direction.  ``rows`` itself is returned when no row is replaced; an
    all-zero or non-finite row is left to ``_check_norms``.
    """
    with np.errstate(over="ignore"):
        norms = norm(rows)
    index = np.flatnonzero((norms < 1 / _NORM_LIMIT) | (norms > _NORM_LIMIT))
    index = index[rows[index].any(axis=1) & np.isfinite(rows[index]).all(axis=1)]
    if len(index):
        _, exponents = np.frexp(np.abs(rows[index]).max(axis=1, keepdims=True))
        rows = rows.copy()
        rows[index] = np.ldexp(rows[index], -exponents)
        norms[index] = norm(rows[index])
    return rows, norms


def _check_norms(norms: np.ndarray, name: Callable[[int], str] | None = None) -> None:
    """Refuse a zero or non-finite norm, against which no cosine is defined;
    ``name(i)``, if given, names the vector of ``norms[i]`` in the message."""
    for problem, bad in (("zero", norms == 0.0), ("non-finite", ~np.isfinite(norms))):
        if bad.any():
            of = f" of {name(int(bad.argmax()))}" if name else ""
            raise ValueError(f"degenerate vector: {problem} norm{of}, cosine undefined")


def _lookup(names: list[str], index: dict[str, int]) -> np.ndarray:
    """Each name's position in ``index``, -1 where it has none."""
    return np.array([index.get(name, -1) for name in names], dtype=np.intp)


def score_trials(trials: TrialList, speaker_models: dict[str, np.ndarray],
                 trial_corpus: Corpus) -> ScoredTrials:
    """Cosine score of each trial utterance against its enrollment model.

    Each model and each trial vector is normed once and each trial takes
    one BLAS dot product, so each score has the bits of
    ``np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))``, on the
    power-of-two rescaled copy of a vector whose norm is out of range
    (``_rescale``).  A zero or non-finite norm, such as that of a mean that
    overflowed, is an error only if a trial uses it.
    """
    model_rows = _lookup(trials.speaker_names,
                         {speaker: i for i, speaker in enumerate(speaker_models)})[trials.speakers]
    vector_rows = _lookup(trials.utterance_ids,
                          {u: i for i, u in enumerate(trial_corpus.utterance_ids)})[trials.rows]
    missing = (model_rows < 0) | (vector_rows < 0)
    if missing.any():
        i = int(missing.argmax())
        if model_rows[i] < 0:
            raise ValueError("no enrollment model for speaker "
                             f"{trials.speaker_names[trials.speakers[i]]!r}")
        raise ValueError(f"trial utterance {trials.utterance_ids[trials.rows[i]]!r} "
                         "not in trial corpus")
    models = np.stack(list(speaker_models.values())) if speaker_models \
        else np.empty((0, trial_corpus.dim))
    models, model_norms = _rescale(models)
    vectors, vector_norms = _rescale(trial_corpus.vectors)
    model_norms, vector_norms = model_norms[model_rows], vector_norms[vector_rows]
    _check_norms(model_norms, lambda i: "the enrollment model of speaker "
                 f"{trials.speaker_names[trials.speakers[i]]!r}")
    _check_norms(vector_norms,
                 lambda i: f"trial utterance {trials.utterance_ids[trials.rows[i]]!r}")
    dots = _row_dots(models, vectors, model_rows, vector_rows)
    return ScoredTrials(trials, dots / (model_norms * vector_norms))


def _eer(tar: np.ndarray, non: np.ndarray) -> float:
    thresholds = np.unique(np.concatenate([tar, non]))
    tar_sorted = np.sort(tar)
    non_sorted = np.sort(non)
    # integer counts first so the rates match a direct counting oracle bit
    # for bit
    frr = np.searchsorted(tar_sorted, thresholds, side="left") / tar.size
    far = (non.size - np.searchsorted(non_sorted, thresholds, side="left")) / non.size
    i = int(np.argmin(np.abs(far - frr)))  # first minimum = lowest threshold
    return float((far[i] + frr[i]) / 2.0)


def compute_eer(scored: ScoredTrials) -> float:
    """Equal error rate as a fraction in [0, 1] (see module conventions)."""
    return _eer(*scored.split())


def _cllr(tar: np.ndarray, non: np.ndarray) -> float:
    # log2(1 + e^x) via logaddexp for numerical stability
    return float(0.5 * (np.logaddexp(0.0, -tar).mean()
                        + np.logaddexp(0.0, non).mean()) / LOG2)


def compute_cllr(scored: ScoredTrials) -> float:
    """Cllr in bits of the raw scores interpreted as natural-log LRs."""
    return _cllr(*scored.split())


def _pav_fit(y: np.ndarray) -> np.ndarray:
    """Isotonic (nondecreasing) least-squares fit of a 0/1 sequence.

    Pool-adjacent-violators with uniform weights on (total, count) blocks:
    runs of equal labels first, then every maximal run of non-increasing
    block means at once, until the means strictly increase; returns the
    fitted value per position.
    """
    labels = np.asarray(y, dtype=np.int64)
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    counts = np.diff(starts, append=labels.size)
    totals = counts * labels[starts]
    while True:
        # block i pools with block i + 1 when mean_i >= mean_i+1 (exact in int64)
        pools = totals[:-1] * counts[1:] >= totals[1:] * counts[:-1]
        if not pools.any():
            return np.repeat(totals / counts, counts)
        heads = np.flatnonzero(np.concatenate([[True], ~pools]))
        totals = np.add.reduceat(totals, heads)
        counts = np.add.reduceat(counts, heads)


def _min_cllr(tar: np.ndarray, non: np.ndarray) -> float:
    scores = np.concatenate([tar, non])
    is_target = np.concatenate([np.ones(tar.size, bool), np.zeros(non.size, bool)])
    order = np.argsort(scores, kind="stable")
    sorted_targets = is_target[order]
    posterior = np.clip(_pav_fit(sorted_targets), POSTERIOR_CLIP, 1.0 - POSTERIOR_CLIP)
    prior_log_odds = np.log(tar.size / non.size)
    llrs = np.log(posterior / (1.0 - posterior)) - prior_log_odds
    return _cllr(llrs[sorted_targets], llrs[~sorted_targets])


def compute_min_cllr(scored: ScoredTrials) -> float:
    """Cllr after optimal monotone (PAV) calibration of the scores.

    Invariant under strictly increasing transforms of the scores; equals
    Cllr of the best-calibrated LLRs, so compute_cllr >= compute_min_cllr.
    """
    return _min_cllr(*scored.split())


PROBE_ATTRIBUTES = ("speaker", "gender", "accent")


def probe_attack(pairs: list[tuple[Corpus, Corpus]], attribute: str, seed: int,
                 epochs: int = 400, lr: float = 0.05) -> list[float]:
    """Top-1 accuracy of a linear softmax probe for one attribute, per
    (train corpus, test corpus) pair.

    Each probe trains full-batch on its train corpus vectors, every one from
    the same init drawn under seed, and is scored on its test corpus.  The
    train corpora must agree in row count, dim and class count, because
    the probes train as one stack.  Higher accuracy means more residual
    attribute information in the embeddings.  A probe whose training
    diverges raises ``DivergenceError`` naming the attribute.
    """
    if attribute not in PROBE_ATTRIBUTES:
        raise ValueError(f"attribute must be one of {PROBE_ATTRIBUTES}, got {attribute!r}")
    vocab = f"{attribute}_vocab"
    for train_corpus, test_corpus in pairs:
        if getattr(test_corpus, vocab) != getattr(train_corpus, vocab):
            raise ValueError("train and test corpora must share vocabularies")
        if test_corpus.dim != train_corpus.dim:
            raise ValueError(f"test corpus dim {test_corpus.dim} != train corpus dim "
                             f"{train_corpus.dim}")
    for what, size in (("row count", len), ("dim", lambda corpus: corpus.dim),
                       ("class count", lambda corpus: len(getattr(corpus, vocab)))):
        values = [size(train_corpus) for train_corpus, _ in pairs]
        if len(set(values)) > 1:
            raise ValueError(f"probe pairs differ in {what}: {values}")
    n_classes = len(getattr(pairs[0][0], vocab))
    if n_classes < 2:
        raise ValueError(f"attribute {attribute!r} has {n_classes} class; probe needs >= 2")
    index = {"gender": 0, "accent": 1, "speaker": 2}[attribute]
    x = np.stack([train.matrix() for train, _ in pairs])
    labels = np.stack([train.label_indices()[index] for train, _ in pairs])
    try:
        weights, bias = _train_probe(x, labels, n_classes, seed, epochs, lr)
    except DivergenceError as exc:
        raise DivergenceError(f"the {attribute} probe diverged: {exc}") from exc
    accuracies = []
    for w, b, (_, test_corpus) in zip(weights, bias, pairs):
        logits = test_corpus.matrix() @ w.T
        logits += b
        accuracies.append(float((logits.argmax(axis=1)
                                 == test_corpus.label_indices()[index]).mean()))
    return accuracies


# adam_step refuses a non-finite step, so warnings on the way there are noise
@np.errstate(over="ignore", invalid="ignore")
def _train_probe(x: np.ndarray, labels: np.ndarray, n_classes: int, seed: int,
                 epochs: int, lr: float) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch Adam training of a stack of linear softmax layers.

    ``x`` is (s, n, d) and ``labels`` (s, n).  Every slice starts from one
    ``init_dense`` draw; returns the trained (s, k, d) weights and (s, k)
    biases.  Slice i holds ``k * d`` weights then ``k`` biases of one flat
    vector that Adam updates in one call, and its gradients land in the
    same places of one flat gradient vector.  Each epoch repeats the
    operations of ``dense_forward``, ``softmax_cross_entropy`` and
    ``dense_backward`` in their order, stacked, so each slice gets the bits
    of a probe trained on its own; the loss and the input gradient are not
    computed.
    """
    s, n, d = x.shape
    k = n_classes
    if labels.shape != (s, n) or labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must be an ({s}, {n}) array of classes in [0, {k})")
    layer = init_dense(d, k, "linear", np.random.default_rng(seed))
    params = np.tile(np.concatenate([layer.weights.ravel(), layer.bias]), s)
    grads = np.empty_like(params)

    def split(flat):  # (s, k, d) weights and (s, k) bias views of a flat vector
        rows = flat.reshape(s, k * d + k)
        return rows[:, :k * d].reshape(s, k, d), rows[:, k * d:]

    weights, bias = split(params)
    weight_grad, bias_grad = split(grads)
    one_hot = np.arange(s * n) * k + labels.ravel()
    z = np.empty((s, n, k))  # logits, then log-probabilities, then their gradient
    flat_z = z.reshape(-1)
    row = np.empty((s, n, 1))
    scratch = np.empty(z.size)
    by_class, exp_z = scratch.reshape(s, k, n), scratch.reshape(s, n, k)
    # each epoch's matmul and sum rewrite all of grads, so Adam's denominator
    # can overwrite it
    state = AdamState.for_params(params)
    for _ in range(epochs):
        np.matmul(x, weights.transpose(0, 2, 1), out=z)
        z += bias[:, None, :]
        # the row max, which is exact in any order, over a class-major copy:
        # numpy reduces a short last axis one row at a time
        np.copyto(by_class, z.transpose(0, 2, 1))
        by_class.max(axis=1, out=row.reshape(s, n))
        z -= row
        np.exp(z, out=exp_z)
        # on the last axis, as in softmax_cross_entropy: the same pairwise order
        exp_z.sum(axis=2, keepdims=True, out=row)
        np.log(row, out=row)
        z -= row
        np.exp(z, out=z)
        flat_z[one_hot] -= 1.0
        z /= n
        np.matmul(z.transpose(0, 2, 1), x, out=weight_grad)
        z.sum(axis=1, out=bias_grad)
        adam_step(params, grads, state, lr=lr)
    return weights, bias


def _column(header: str):
    """A report field whose text-table header is ``header``."""
    return dataclasses.field(metadata={"header": header})


@dataclass
class ReportRow:
    """One condition cell of the report.

    The fields are the report CSV's columns after ``row``, in order, each
    with its text-table header; the float fields are the numeric columns.
    """

    dataset: str = _column("dataset")
    eer_pct: float = _column("EER,%")
    min_cllr: float = _column("minCllr")
    cllr: float = _column("Cllr")
    enroll: str = _column("enroll")  # "o" or "a"
    trial: str = _column("trial")    # "o" or "a"
    gender: str = _column("gen")
    probe_speaker: float = _column("probe_spk")
    probe_gender: float = _column("probe_gen")
    probe_accent: float = _column("probe_acc")


@dataclass
class MetricsReport:
    rows: list[ReportRow]


CONDITIONS = (("o", "o"), ("o", "a"), ("a", "a"))


def evaluate_conditions(original: tuple[Corpus, Corpus, Corpus],
                        anonymized: tuple[Corpus, Corpus, Corpus],
                        trials: TrialList, seed: int,
                        dataset_tag: str = "synth") -> MetricsReport:
    """Score the o-o, o-a, and a-a condition cells per gender.

    ``original`` and ``anonymized`` are (probe train, enroll, trial) corpus
    triples; anonymization keeps ids and labels, so the same trial list
    (from make_trials on the original enroll and trial corpora) serves
    every condition and only the vectors behind each side change.  Probe
    columns report attribute leakage of the trial-side embeddings, so the
    o-o row carries the original-corpus probes and the anonymized rows the
    anonymized-corpus probes.
    """
    corpora = {"o": original, "a": anonymized}
    pairs = [(train, trial) for train, _, trial in corpora.values()]
    probes = {attribute: dict(zip(corpora, probe_attack(pairs, attribute, seed=seed + 1 + i)))
              for i, attribute in enumerate(PROBE_ATTRIBUTES)}

    models = {side: enroll_speaker_models(enroll) for side, (_, enroll, _) in corpora.items()}
    genders = sorted(original[2].gender_vocab)
    rows: list[ReportRow] = []
    for enroll_cond, trial_cond in CONDITIONS:
        scored = score_trials(trials, models[enroll_cond], corpora[trial_cond][2])
        for gender in genders:
            subset = scored.for_gender(gender)
            rows.append(ReportRow(
                dataset=dataset_tag,
                enroll=enroll_cond,
                trial=trial_cond,
                gender=gender,
                eer_pct=100.0 * compute_eer(subset),
                min_cllr=compute_min_cllr(subset),
                cllr=compute_cllr(subset),
                probe_speaker=probes["speaker"][trial_cond],
                probe_gender=probes["gender"][trial_cond],
                probe_accent=probes["accent"][trial_cond],
            ))
    return MetricsReport(rows)


# ---------------------------------------------------------------------------
# file formats

TRIAL_COLUMNS = ["enroll_speaker", "trial_utterance", "is_target", "gender"]


def write_trials(trials: TrialList, path: str | Path) -> None:
    """CSV: enroll_speaker,trial_utterance,is_target{0|1},gender."""
    speakers, utterances, is_target, genders = trials.columns()
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRIAL_COLUMNS)
        writer.writerows(zip(speakers, utterances, map(int, is_target), genders))


def read_trials(path: str | Path) -> TrialList:
    """Read a trial list; every error names the path."""
    with csv_rows(path) as reader:
        header = next(reader, None)
        if header != TRIAL_COLUMNS:
            raise ValueError(f"{path}: bad trial-list header {header}")

        def rows():
            for row in reader:
                if len(row) != 4 or row[2] not in ("0", "1"):
                    raise ValueError(f"{path}: line {reader.line_num}: bad trial row {row}")
                yield row[0], row[1], row[2] == "1", row[3]

        return TrialList.from_rows(rows())


REPORT_FIELDS = dataclasses.fields(ReportRow)
REPORT_COLUMNS = ["row"] + [f.name for f in REPORT_FIELDS]
REPORT_NUMERIC_COLUMNS = tuple(f.name for f in REPORT_FIELDS if f.type == "float")


def _report_cells(report: MetricsReport, number_format: str) -> list[list[str]]:
    """Each row's number, then its fields, numbers in ``number_format``."""
    return [[str(i)] + [format(value, number_format) if name in REPORT_NUMERIC_COLUMNS
                        else value for name, value in vars(r).items()]
            for i, r in enumerate(report.rows, start=1)]


def write_report_csv(report: MetricsReport, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(_report_cells(report, ".17g"))


def _report_number(path: str | Path, line: int, column: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}: line {line}: column {column}: expected a finite "
                         f"number, got {text!r}")
    return value


def read_report_csv(path: str | Path) -> MetricsReport:
    """Read a report CSV; every error names the path."""
    with csv_rows(path) as reader:
        header = next(reader, None)
        if header != REPORT_COLUMNS:
            raise ValueError(f"{path}: bad report header {header}")
        rows = []
        for row in reader:
            if len(row) != len(REPORT_COLUMNS):
                raise ValueError(f"{path}: line {reader.line_num}: bad report row")
            cells = dict(zip(REPORT_COLUMNS, row))
            for column in REPORT_NUMERIC_COLUMNS:
                cells[column] = _report_number(path, reader.line_num, column, cells[column])
            del cells["row"]
            rows.append(ReportRow(**cells))
    return MetricsReport(rows)


def format_report_table(report: MetricsReport) -> str:
    """Aligned plain-text table, one condition row per line."""
    header = ["#"] + [f.metadata["header"] for f in REPORT_FIELDS]
    body = _report_cells(report, ".3f")
    widths = [max(len(row[c]) for row in [header] + body) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in [header] + body]
    return "\n".join(lines) + "\n"
