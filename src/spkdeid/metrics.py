"""Verification-style privacy evaluation for embedding anonymizers.

Builds gender-partitioned enroll/trial lists, scores them with cosine
similarity against per-speaker mean enrollment models, and reports EER,
Cllr, and minCllr per condition cell, mirroring the usual
original/anonymized (o/a) enroll-trial condition matrix.  Linear attribute
probes measure residual speaker/gender/accent leakage.

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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .anonymize import AnonymizationMethod, anonymize_corpus
from .dataset import Corpus, csv_rows
from .neural import (
    AdamState,
    DenseLayer,
    adam_step,
    dense_backward,
    dense_forward,
    flatten,
    init_dense,
    softmax_cross_entropy,
)

LOG2 = np.log(2.0)
POSTERIOR_CLIP = 1e-12


@dataclass(frozen=True)
class Trial:
    enroll_speaker: str
    trial_utterance: str
    is_target: bool
    gender: str


@dataclass
class ScoredTrials:
    trials: list[Trial]
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.trials),):
            raise ValueError(f"{len(self.trials)} trials but {self.scores.shape} scores")

    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """(target scores, nontarget scores); both must be nonempty."""
        mask = np.array([t.is_target for t in self.trials], dtype=bool)
        tar, non = self.scores[mask], self.scores[~mask]
        if tar.size == 0 or non.size == 0:
            raise ValueError(f"need at least 1 target and 1 nontarget trial, got "
                             f"{tar.size} targets / {non.size} nontargets")
        return tar, non

    def for_gender(self, gender: str) -> "ScoredTrials":
        keep = [i for i, t in enumerate(self.trials) if t.gender == gender]
        return ScoredTrials([self.trials[i] for i in keep], self.scores[keep])


def make_trials(enroll_corpus: Corpus, trial_corpus: Corpus,
                n_nontarget_per_target: int, seed: int) -> list[Trial]:
    """One target plus n same-gender nontarget trials per trial utterance.

    Nontarget enrollment speakers are sampled without replacement from the
    other speakers of the same gender, deterministically under seed.
    """
    if enroll_corpus.speaker_vocab != trial_corpus.speaker_vocab \
            or enroll_corpus.gender_vocab != trial_corpus.gender_vocab:
        raise ValueError("enroll and trial corpora must share vocabularies")
    if n_nontarget_per_target < 0:
        raise ValueError(f"n_nontarget_per_target must be >= 0, got {n_nontarget_per_target}")
    speaker_names, gender_names = trial_corpus.names("speaker"), trial_corpus.names("gender")
    gender_of = dict(zip(enroll_corpus.speakers.tolist(), enroll_corpus.genders.tolist()))
    by_gender: dict[int, list[int]] = {}
    for speaker in sorted(gender_of):  # vocabulary index order is name order
        by_gender.setdefault(gender_of[speaker], []).append(speaker)
    for gender, speakers in by_gender.items():
        if len(speakers) < 2:
            raise ValueError(f"gender {gender_names[gender]!r} has {len(speakers)} enrolled "
                             "speaker(s); need >= 2 for nontarget trials")

    rng = np.random.default_rng(seed)
    trials: list[Trial] = []
    for utterance, speaker, gender in zip(trial_corpus.utterance_ids,
                                          trial_corpus.speakers.tolist(),
                                          trial_corpus.genders.tolist()):
        name, gender_name = speaker_names[speaker], gender_names[gender]
        if speaker not in gender_of:
            raise ValueError(f"trial speaker {name!r} has no enrollment utterances")
        trials.append(Trial(name, utterance, True, gender_name))
        # candidates: the group without the trial speaker, whose slot j skips
        group = by_gender.get(gender, [])
        own = group.index(speaker) if gender_of[speaker] == gender else len(group)
        available = len(group) - (own < len(group))
        if n_nontarget_per_target > available:
            raise ValueError(
                f"cannot sample {n_nontarget_per_target} nontarget speakers for gender "
                f"{gender_name!r}: only {available} available")
        chosen = rng.choice(available, size=n_nontarget_per_target, replace=False)
        trials += [Trial(speaker_names[group[j + (j >= own)]], utterance, False, gender_name)
                   for j in chosen.tolist()]
    return trials


def enroll_speaker_models(enroll_corpus: Corpus) -> dict[str, np.ndarray]:
    """Per-speaker arithmetic mean of the enrollment vectors, in order of
    each speaker's first row."""
    speakers = enroll_corpus.speakers
    order = np.argsort(speakers, kind="stable")
    starts = np.flatnonzero(np.diff(speakers[order], prepend=-1))
    groups = sorted(zip(order[starts].tolist(), np.split(order, starts[1:])))
    names = enroll_corpus.names("speaker")
    return {names[speakers[first]]: enroll_corpus.vectors[rows].mean(axis=0)
            for first, rows in groups}


def _norms(vectors) -> np.ndarray:
    # sqrt(v . v) is what np.linalg.norm computes for a 1-d array
    return np.array([np.sqrt(v.dot(v)) for v in vectors], dtype=np.float64)


def score_trials(trials: list[Trial], speaker_models: dict[str, np.ndarray],
                 trial_corpus: Corpus) -> ScoredTrials:
    """Cosine score of each trial utterance against its enrollment model.

    Each model and each trial vector is normed once and each trial takes
    one dot product, so each score has the bits of
    ``np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))``.  A
    zero-norm vector is an error only if a trial uses it.
    """
    model_index = {speaker: i for i, speaker in enumerate(speaker_models)}
    vector_index = {utterance: i for i, utterance in enumerate(trial_corpus.utterance_ids)}
    model_rows = np.empty(len(trials), dtype=np.intp)
    vector_rows = np.empty(len(trials), dtype=np.intp)
    for i, t in enumerate(trials):
        if t.enroll_speaker not in model_index:
            raise ValueError(f"no enrollment model for speaker {t.enroll_speaker!r}")
        if t.trial_utterance not in vector_index:
            raise ValueError(f"trial utterance {t.trial_utterance!r} not in trial corpus")
        model_rows[i] = model_index[t.enroll_speaker]
        vector_rows[i] = vector_index[t.trial_utterance]
    models = list(speaker_models.values())
    trial_vectors = trial_corpus.vectors
    model_norms = _norms(models)[model_rows]
    vector_norms = _norms(trial_vectors)[vector_rows]
    if (model_norms == 0.0).any() or (vector_norms == 0.0).any():
        raise ValueError("degenerate vector: zero norm, cosine score undefined")
    dots = np.fromiter((np.dot(models[m], trial_vectors[v])
                        for m, v in zip(model_rows.tolist(), vector_rows.tolist())),
                       dtype=np.float64, count=len(trials))
    return ScoredTrials(list(trials), dots / (model_norms * vector_norms))


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

    Classic pool-adjacent-violators with uniform weights; returns the
    fitted value per position.
    """
    # blocks of (total, count); merge while means decrease
    totals: list[float] = []
    counts: list[int] = []
    for value in y:
        totals.append(float(value))
        counts.append(1)
        while len(totals) > 1 and totals[-2] * counts[-1] >= totals[-1] * counts[-2]:
            totals[-2] += totals[-1]
            counts[-2] += counts[-1]
            del totals[-1], counts[-1]
    fitted = np.empty(y.size)
    pos = 0
    for total, count in zip(totals, counts):
        fitted[pos:pos + count] = total / count
        pos += count
    return fitted


def _min_cllr(tar: np.ndarray, non: np.ndarray) -> float:
    scores = np.concatenate([tar, non])
    is_target = np.concatenate([np.ones(tar.size, bool), np.zeros(non.size, bool)])
    order = np.argsort(scores, kind="stable")
    posterior = _pav_fit(is_target[order].astype(np.float64))
    posterior = np.clip(posterior, POSTERIOR_CLIP, 1.0 - POSTERIOR_CLIP)
    prior_log_odds = np.log(tar.size / non.size)
    llrs = np.log(posterior / (1.0 - posterior)) - prior_log_odds
    sorted_targets = is_target[order]
    return _cllr(llrs[sorted_targets], llrs[~sorted_targets])


def compute_min_cllr(scored: ScoredTrials) -> float:
    """Cllr after optimal monotone (PAV) calibration of the scores.

    Invariant under strictly increasing transforms of the scores; equals
    Cllr of the best-calibrated LLRs, so compute_cllr >= compute_min_cllr.
    """
    return _min_cllr(*scored.split())


PROBE_ATTRIBUTES = ("speaker", "gender", "accent")


def probe_attack(train_corpus: Corpus, test_corpus: Corpus, attribute: str,
                 seed: int, epochs: int = 400, lr: float = 0.05) -> float:
    """Top-1 accuracy of a linear softmax probe for one attribute.

    The probe trains full-batch on the train corpus vectors and is scored
    on the test corpus; deterministic under seed.  Higher accuracy means
    more residual attribute information in the embeddings.
    """
    if attribute not in PROBE_ATTRIBUTES:
        raise ValueError(f"attribute must be one of {PROBE_ATTRIBUTES}, got {attribute!r}")
    vocab = getattr(train_corpus, f"{attribute}_vocab")
    if getattr(test_corpus, f"{attribute}_vocab") != vocab:
        raise ValueError("train and test corpora must share vocabularies")
    n_classes = len(vocab)
    if n_classes < 2:
        raise ValueError(f"attribute {attribute!r} has {n_classes} class; probe needs >= 2")
    index = {"gender": 0, "accent": 1, "speaker": 2}[attribute]
    x_train = train_corpus.matrix()
    y_train = train_corpus.label_indices()[index]
    x_test = test_corpus.matrix()
    y_test = test_corpus.label_indices()[index]

    layer = _train_probe(x_train, y_train, n_classes, seed, epochs, lr)
    test_logits, _ = dense_forward(layer, x_test)
    return float((test_logits.argmax(axis=1) == y_test).mean())


def _train_probe(x: np.ndarray, labels: np.ndarray, n_classes: int, seed: int,
                 epochs: int, lr: float) -> DenseLayer:
    """Full-batch Adam training of a linear softmax layer.

    The weights and the bias live in one flat vector that Adam updates in
    one call, and each step's gradients land in one flat gradient vector
    (``flatten``); the input gradient is never computed.
    """
    layer = init_dense(x.shape[1], n_classes, "linear", np.random.default_rng(seed))
    params, grads = flatten([layer])
    state = AdamState.for_params(params)
    for _ in range(epochs):
        logits, cache = dense_forward(layer, x)
        _, d_logits = softmax_cross_entropy(logits, labels)
        dense_backward(layer, cache, d_logits, input_grad=False)
        adam_step(params, grads, state, lr=lr)
    return layer


@dataclass
class ReportRow:
    dataset: str
    enroll: str  # "o" or "a"
    trial: str   # "o" or "a"
    gender: str
    eer_pct: float
    min_cllr: float
    cllr: float
    probe_speaker: float
    probe_gender: float
    probe_accent: float


@dataclass
class MetricsReport:
    rows: list[ReportRow]


CONDITIONS = (("o", "o"), ("o", "a"), ("a", "a"))


def evaluate_conditions(train_corpus: Corpus, enroll_corpus: Corpus,
                        trial_corpus: Corpus, method: AnonymizationMethod,
                        n_nontarget_per_target: int, seed: int,
                        dataset_tag: str = "synth",
                        trials: list[Trial] | None = None) -> MetricsReport:
    """Score the o-o, o-a, and a-a condition cells per gender.

    The same trial list is reused across conditions (anonymization keeps
    ids and labels); only the vectors behind each side change.  Probe
    columns report attribute leakage of the trial-side embeddings, so the
    o-o row carries the original-corpus probes and the anonymized rows the
    anonymized-corpus probes.  ``trials``, when given, must be the list
    make_trials builds from these corpora and arguments; a caller that also
    writes the list out passes it to save building it twice.
    """
    method.validate()
    if trials is None:
        trials = make_trials(enroll_corpus, trial_corpus, n_nontarget_per_target, seed)
    corpora = {
        ("enroll", "o"): enroll_corpus,
        ("trial", "o"): trial_corpus,
        ("enroll", "a"): anonymize_corpus(enroll_corpus, method),
        ("trial", "a"): anonymize_corpus(trial_corpus, method),
    }
    probe_train = {"o": train_corpus, "a": anonymize_corpus(train_corpus, method)}
    probes: dict[str, dict[str, float]] = {}
    for condition in ("o", "a"):
        probes[condition] = {
            attribute: probe_attack(probe_train[condition],
                                    corpora[("trial", condition)], attribute,
                                    seed=seed + 1 + i)
            for i, attribute in enumerate(PROBE_ATTRIBUTES)
        }

    genders = sorted(trial_corpus.gender_vocab)
    rows: list[ReportRow] = []
    for enroll_cond, trial_cond in CONDITIONS:
        models = enroll_speaker_models(corpora[("enroll", enroll_cond)])
        scored = score_trials(trials, models, corpora[("trial", trial_cond)])
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
                probe_speaker=probes[trial_cond]["speaker"],
                probe_gender=probes[trial_cond]["gender"],
                probe_accent=probes[trial_cond]["accent"],
            ))
    return MetricsReport(rows)


# ---------------------------------------------------------------------------
# file formats

def write_trials(trials: list[Trial], path: str | Path) -> None:
    """CSV: enroll_speaker,trial_utterance,is_target{0|1},gender."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["enroll_speaker", "trial_utterance", "is_target", "gender"])
        for t in trials:
            writer.writerow([t.enroll_speaker, t.trial_utterance,
                             int(t.is_target), t.gender])


def read_trials(path: str | Path) -> list[Trial]:
    """Read a trial list; every error names the path."""
    with csv_rows(path) as reader:
        header = next(reader, None)
        if header != ["enroll_speaker", "trial_utterance", "is_target", "gender"]:
            raise ValueError(f"{path}: bad trial-list header {header}")
        trials = []
        for row in reader:
            if len(row) != 4 or row[2] not in ("0", "1"):
                raise ValueError(f"{path}: line {reader.line_num}: bad trial row {row}")
            trials.append(Trial(row[0], row[1], row[2] == "1", row[3]))
    return trials


REPORT_COLUMNS = ["row", "dataset", "eer_pct", "min_cllr", "cllr", "enroll",
                  "trial", "gender", "probe_speaker", "probe_gender", "probe_accent"]
REPORT_NUMERIC_COLUMNS = ("eer_pct", "min_cllr", "cllr", "probe_speaker",
                          "probe_gender", "probe_accent")


def write_report_csv(report: MetricsReport, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for i, r in enumerate(report.rows, start=1):
            writer.writerow([i, r.dataset, f"{r.eer_pct:.17g}", f"{r.min_cllr:.17g}",
                             f"{r.cllr:.17g}", r.enroll, r.trial, r.gender,
                             f"{r.probe_speaker:.17g}", f"{r.probe_gender:.17g}",
                             f"{r.probe_accent:.17g}"])


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
    header = ["#", "dataset", "EER,%", "minCllr", "Cllr", "enroll", "trial",
              "gen", "probe_spk", "probe_gen", "probe_acc"]
    body = [[str(i), r.dataset, f"{r.eer_pct:.3f}", f"{r.min_cllr:.3f}",
             f"{r.cllr:.3f}", r.enroll, r.trial, r.gender,
             f"{r.probe_speaker:.3f}", f"{r.probe_gender:.3f}",
             f"{r.probe_accent:.3f}"]
            for i, r in enumerate(report.rows, start=1)]
    widths = [max(len(row[c]) for row in [header] + body) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in [header] + body]
    return "\n".join(lines) + "\n"
