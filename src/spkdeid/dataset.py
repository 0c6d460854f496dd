"""Synthetic speaker-embedding corpora with speaker/gender/accent structure.

A corpus emulates the labelled layout of a speaker-recognition dataset:
every speaker has one gender and one accent, every utterance is one
D-dimensional embedding vector.  Vectors are composed additively as

    gender direction + accent direction + speaker offset + isotropic noise

so the relative scales control how separable each attribute is.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLIT_TAGS = ("train", "valid", "test", "unsplit")


@dataclass(frozen=True)
class AttributeStrength:
    """Scales of the per-attribute offset vectors, in embedding units."""

    speaker: float = 1.0
    gender: float = 1.0
    accent: float = 1.0


@dataclass(frozen=True)
class CorpusSpec:
    """Recipe for one synthetic corpus; a pure function of its seed.

    The default strengths put most embedding variance in gender and accent
    with a smaller per-speaker offset, which keeps the adversarial training
    of the anonymizer in a regime where speaker structure is cheap to
    suppress and the rest stays reconstructable.
    """

    n_speakers: int = 40
    n_genders: int = 2
    n_accents: int = 4
    utterances_per_speaker: int = 30
    dim: int = 64
    attribute_strength: AttributeStrength = AttributeStrength(
        speaker=0.6, gender=3.2, accent=3.7)
    noise_sigma: float = 0.3
    seed: int = 0

    def validate(self) -> None:
        for name in ("n_speakers", "n_genders", "n_accents",
                     "utterances_per_speaker", "dim"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.n_speakers < self.n_genders:
            raise ValueError(
                f"n_speakers must be >= n_genders, got {self.n_speakers} < {self.n_genders}")
        for name in ("speaker", "gender", "accent"):
            value = getattr(self.attribute_strength, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"attribute_strength.{name} must be finite and >= 0, got {value!r}")
        if not np.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(eq=False)
class Embedding:
    """One utterance: a vector plus its speaker-level labels."""

    utterance_id: str
    speaker_id: str
    gender: str
    accent: str
    vector: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Embedding):
            return NotImplemented
        return (self.utterance_id == other.utterance_id
                and self.speaker_id == other.speaker_id
                and self.gender == other.gender
                and self.accent == other.accent
                and np.array_equal(self.vector, other.vector))


@dataclass(eq=False)
class Corpus:
    """Ordered collection of embeddings with contiguous label vocabularies."""

    embeddings: list[Embedding]
    dim: int
    speaker_vocab: dict[str, int]
    gender_vocab: dict[str, int]
    accent_vocab: dict[str, int]
    split_tag: str = "unsplit"

    def __len__(self) -> int:
        return len(self.embeddings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.dim == other.dim
                and self.speaker_vocab == other.speaker_vocab
                and self.gender_vocab == other.gender_vocab
                and self.accent_vocab == other.accent_vocab
                and self.split_tag == other.split_tag
                and self.embeddings == other.embeddings)

    def matrix(self) -> np.ndarray:
        """All vectors stacked into an (N, dim) float64 array."""
        return np.stack([e.vector for e in self.embeddings])

    def label_indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(gender, accent, speaker) label index arrays aligned with rows."""
        g = np.array([self.gender_vocab[e.gender] for e in self.embeddings])
        a = np.array([self.accent_vocab[e.accent] for e in self.embeddings])
        s = np.array([self.speaker_vocab[e.speaker_id] for e in self.embeddings])
        return g, a, s

    def by_speaker(self) -> dict[str, list[Embedding]]:
        out: dict[str, list[Embedding]] = {}
        for e in self.embeddings:
            out.setdefault(e.speaker_id, []).append(e)
        return out

    def with_vectors(self, vectors: np.ndarray, split_tag: str | None = None) -> "Corpus":
        """Copy of this corpus with row i's vector replaced by vectors[i]."""
        if vectors.shape != (len(self.embeddings), self.dim):
            raise ValueError(
                f"vectors shape {vectors.shape} does not match corpus ({len(self)}, {self.dim})")
        embeddings = [
            Embedding(e.utterance_id, e.speaker_id, e.gender, e.accent,
                      np.array(vectors[i], dtype=np.float64))
            for i, e in enumerate(self.embeddings)
        ]
        return Corpus(embeddings, self.dim, dict(self.speaker_vocab),
                      dict(self.gender_vocab), dict(self.accent_vocab),
                      self.split_tag if split_tag is None else split_tag)


def _vocab(labels) -> dict[str, int]:
    # lexicographic order, indices contiguous from 0
    return {label: i for i, label in enumerate(sorted(set(labels)))}


def make_corpus(embeddings: list[Embedding], split_tag: str = "unsplit") -> Corpus:
    """Build a corpus from embeddings, validating invariants.

    Vocabularies are the lexicographically sorted sets of labels present,
    so a corpus is fully reconstructible from its rows alone.
    """
    if split_tag not in SPLIT_TAGS:
        raise ValueError(f"split_tag must be one of {SPLIT_TAGS}, got {split_tag!r}")
    if not embeddings:
        raise ValueError("empty corpus")
    dim = embeddings[0].vector.shape[0] if embeddings[0].vector.ndim == 1 else -1
    seen_ids: set[str] = set()
    speaker_attrs: dict[str, tuple[str, str]] = {}
    for e in embeddings:
        if e.vector.ndim != 1 or e.vector.shape[0] != dim:
            raise ValueError(
                f"utterance {e.utterance_id!r}: vector length {e.vector.shape} != corpus dim {dim}")
        if not np.all(np.isfinite(e.vector)):
            raise ValueError(f"utterance {e.utterance_id!r}: non-finite vector entries")
        if e.utterance_id in seen_ids:
            raise ValueError(f"duplicate utterance_id {e.utterance_id!r}")
        seen_ids.add(e.utterance_id)
        attrs = (e.gender, e.accent)
        prev = speaker_attrs.setdefault(e.speaker_id, attrs)
        if prev != attrs:
            raise ValueError(
                f"speaker {e.speaker_id!r} has conflicting gender/accent labels {prev} vs {attrs}")
    return Corpus(
        embeddings=list(embeddings),
        dim=dim,
        speaker_vocab=_vocab(e.speaker_id for e in embeddings),
        gender_vocab=_vocab(e.gender for e in embeddings),
        accent_vocab=_vocab(e.accent for e in embeddings),
        split_tag=split_tag,
    )


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Deterministically generate a corpus from its spec.

    Speakers are assigned to genders round-robin (balanced) and to accents
    uniformly at random under the seed (imbalanced, as in real metadata).
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    strength = spec.attribute_strength

    if spec.n_genders == 2:
        genders = ["f", "m"]
    else:
        genders = [f"g{i:02d}" for i in range(spec.n_genders)]
    accents = [f"a{i:02d}" for i in range(spec.n_accents)]
    speakers = [f"s{i:04d}" for i in range(spec.n_speakers)]

    gender_dirs = strength.gender * rng.standard_normal((spec.n_genders, spec.dim))
    accent_dirs = strength.accent * rng.standard_normal((spec.n_accents, spec.dim))
    accent_of = rng.integers(0, spec.n_accents, size=spec.n_speakers)
    speaker_offsets = strength.speaker * rng.standard_normal((spec.n_speakers, spec.dim))

    embeddings: list[Embedding] = []
    for i, speaker in enumerate(speakers):
        g = i % spec.n_genders
        a = int(accent_of[i])
        base = gender_dirs[g] + accent_dirs[a] + speaker_offsets[i]
        noise = spec.noise_sigma * rng.standard_normal(
            (spec.utterances_per_speaker, spec.dim))
        for j in range(spec.utterances_per_speaker):
            embeddings.append(Embedding(
                utterance_id=f"{speaker}-u{j:04d}",
                speaker_id=speaker,
                gender=genders[g],
                accent=accents[a],
                vector=base + noise[j],
            ))
    return make_corpus(embeddings)


def split_corpus(corpus: Corpus, n_heldout_per_speaker: int
                 ) -> tuple[Corpus, Corpus, Corpus]:
    """Split into (train, valid, test) by utterance_id order.

    Per speaker the last ``n_heldout_per_speaker`` utterances go to valid,
    the preceding ``n_heldout_per_speaker`` to test, the rest to train.
    Deterministic: no randomness, stable across platforms.  Vocabularies
    are copied unchanged (closed-set: all splits share all speakers).
    """
    if n_heldout_per_speaker < 0:
        raise ValueError(f"n_heldout_per_speaker must be >= 0, got {n_heldout_per_speaker}")
    valid_ids: set[str] = set()
    test_ids: set[str] = set()
    for speaker, utts in corpus.by_speaker().items():
        if len(utts) <= 2 * n_heldout_per_speaker:
            raise ValueError(
                f"speaker {speaker!r} has {len(utts)} utterances, needs more than "
                f"{2 * n_heldout_per_speaker} to hold out {n_heldout_per_speaker} per split")
        ordered = sorted(utts, key=lambda e: e.utterance_id)
        if n_heldout_per_speaker > 0:
            valid_ids.update(e.utterance_id for e in ordered[-n_heldout_per_speaker:])
            test_ids.update(e.utterance_id
                            for e in ordered[-2 * n_heldout_per_speaker:-n_heldout_per_speaker])

    def subset(ids_in: set[str] | None, tag: str) -> Corpus:
        if ids_in is None:  # complement of the two holdout sets
            rows = [e for e in corpus.embeddings
                    if e.utterance_id not in valid_ids and e.utterance_id not in test_ids]
        else:
            rows = [e for e in corpus.embeddings if e.utterance_id in ids_in]
        return Corpus(rows, corpus.dim, dict(corpus.speaker_vocab),
                      dict(corpus.gender_vocab), dict(corpus.accent_vocab), tag)

    return subset(None, "train"), subset(valid_ids, "valid"), subset(test_ids, "test")


# CSV layout: header `utterance_id,speaker_id,gender,accent,v0,...,v{D-1}`,
# one row per utterance in corpus order, floats printed with 17 significant
# digits so 64-bit values round-trip exactly.

def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus as CSV (see module layout note); raises on empty corpus."""
    if len(corpus.embeddings) == 0:
        raise ValueError("empty corpus")
    bad = ~np.isfinite(corpus.matrix()).all(axis=1)
    if bad.any():
        e = corpus.embeddings[int(bad.argmax())]
        raise ValueError(f"utterance {e.utterance_id!r}: non-finite vector entries")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["utterance_id", "speaker_id", "gender", "accent"]
                        + [f"v{i}" for i in range(corpus.dim)])
        for e in corpus.embeddings:
            writer.writerow([e.utterance_id, e.speaker_id, e.gender, e.accent]
                            + [f"{x:.17g}" for x in e.vector.tolist()])


def read_corpus(path: str | Path, split_tag: str = "unsplit") -> Corpus:
    """Read a corpus CSV; the file does not carry the split tag, pass it in."""
    path = Path(path)
    with path.open("r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty corpus") from None
        fixed = ["utterance_id", "speaker_id", "gender", "accent"]
        if header[:4] != fixed:
            raise ValueError(f"{path}: line 1: bad header, expected columns {fixed} first")
        dim = len(header) - 4
        if dim < 1 or header[4:] != [f"v{i}" for i in range(dim)]:
            raise ValueError(f"{path}: line 1: bad vector columns, expected v0..v{{D-1}}")
        embeddings: list[Embedding] = []
        for row in reader:
            line = reader.line_num
            if len(row) != 4 + dim:
                raise ValueError(
                    f"{path}: line {line}: expected {4 + dim} fields, got {len(row)}")
            try:
                vector = np.array([float(x) for x in row[4:]], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line}: bad float: {exc}") from None
            if not np.all(np.isfinite(vector)):
                raise ValueError(f"{path}: line {line}: non-finite vector entries")
            embeddings.append(Embedding(row[0], row[1], row[2], row[3], vector))
    if not embeddings:
        raise ValueError(f"{path}: empty corpus")
    return make_corpus(embeddings, split_tag=split_tag)
