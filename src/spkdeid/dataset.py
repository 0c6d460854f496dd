"""Synthetic speaker-embedding corpora with speaker/gender/accent structure.

A corpus emulates the labelled layout of a speaker-recognition dataset:
every speaker has one gender and one accent, every utterance is one
D-dimensional embedding vector.  Vectors are composed additively as

    gender direction + accent direction + speaker offset + isotropic noise

so the relative scales control how separable each attribute is.

A ``Corpus`` is stored by column: the utterance ids, one index array per
label (speaker, gender, accent) into that label's sorted vocabulary, and
one C-contiguous (N, dim) float64 matrix.  No per-row objects exist unless
a caller asks for ``Corpus.embeddings``.  The CSV writer formats each row
with one ``%`` operation.  The reader streams a file's lines.  A file in
the plain form, which the writer produces when no label needs quotes, has
its vectors parsed by numpy's C text reader in one call; any other file is
parsed row by row by a ``csv.reader`` and Python ``float``, with the same
result and the same errors.  Neither holds more than a row of text at a
time.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

SPLIT_TAGS = ("train", "valid", "test", "unsplit")
LABELS = ("speaker", "gender", "accent")


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


@dataclass(eq=False)
class Corpus:
    """Utterance ids, label index arrays and one vector matrix, row-aligned.

    Row i is utterance ``utterance_ids[i]``; ``speakers[i]`` indexes
    ``speaker_vocab`` (likewise genders and accents) and ``vectors[i]`` is
    its embedding.  A vocabulary maps the sorted labels to 0, 1, ...  The
    arrays are read-only views, handed out and shared without copying.
    """

    utterance_ids: list[str]
    speakers: np.ndarray
    genders: np.ndarray
    accents: np.ndarray
    vectors: np.ndarray
    speaker_vocab: dict[str, int]
    gender_vocab: dict[str, int]
    accent_vocab: dict[str, int]
    split_tag: str = "unsplit"

    def __post_init__(self):
        if self.split_tag not in SPLIT_TAGS:
            raise ValueError(f"split_tag must be one of {SPLIT_TAGS}, got {self.split_tag!r}")
        for name in ("speakers", "genders", "accents", "vectors"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            setattr(self, name, view)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.utterance_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.utterance_ids == other.utterance_ids and self.split_tag == other.split_tag
                and all(getattr(self, f"{label}_vocab") == getattr(other, f"{label}_vocab")
                        for label in LABELS)
                and all(np.array_equal(a, b) for a, b in
                        zip((self.vectors, *self.label_indices()),
                            (other.vectors, *other.label_indices()))))

    def matrix(self) -> np.ndarray:
        """The stored (N, dim) float64 matrix of all vectors."""
        return self.vectors

    def label_indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored (gender, accent, speaker) label index arrays."""
        return self.genders, self.accents, self.speakers

    def names(self, label: str) -> list[str]:
        """The vocabulary of ``label`` ("speaker", "gender" or "accent") in index order."""
        return list(getattr(self, f"{label}_vocab"))

    def _label_columns(self) -> list[list[str]]:
        """Per-row speaker, gender and accent labels."""
        return [[names[i] for i in index.tolist()] for names, index in
                zip(map(self.names, LABELS), (self.speakers, self.genders, self.accents))]

    @property
    def embeddings(self) -> list[Embedding]:
        """One ``Embedding`` per row, built on each access; vectors are row views."""
        return [Embedding(u, s, g, a, v) for u, s, g, a, v in
                zip(self.utterance_ids, *self._label_columns(), self.vectors)]

    def with_vectors(self, vectors: np.ndarray, split_tag: str | None = None) -> "Corpus":
        """This corpus's ids and labels (shared) with ``vectors`` (not copied) as its matrix."""
        if vectors.shape != (len(self), self.dim):
            raise ValueError(
                f"vectors shape {vectors.shape} does not match corpus ({len(self)}, {self.dim})")
        return dataclasses.replace(self, vectors=np.ascontiguousarray(vectors, dtype=np.float64),
                                   split_tag=self.split_tag if split_tag is None else split_tag)

    def _take(self, rows: np.ndarray, split_tag: str) -> "Corpus":
        return dataclasses.replace(
            self, utterance_ids=[self.utterance_ids[i] for i in rows.tolist()],
            speakers=self.speakers[rows], genders=self.genders[rows],
            accents=self.accents[rows], vectors=self.vectors[rows], split_tag=split_tag)


def _build(ids: list[str], labels: list[list[str]], vectors: np.ndarray, split_tag: str,
           where=lambda row: "") -> Corpus:
    """A corpus from its columns, after the checks ``make_corpus`` names.

    ``labels`` holds the per-row speaker, gender and accent labels;
    ``where(row)`` prefixes an error about that row.
    """
    bad = ~np.isfinite(vectors).all(axis=1)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"{where(i)}utterance {ids[i]!r}: non-finite vector entries")
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        i = next(i for i, u in enumerate(ids) if u in seen or seen.add(u))
        raise ValueError(f"{where(i)}duplicate utterance_id {ids[i]!r}")
    vocabs = [{label: i for i, label in enumerate(sorted(set(column)))} for column in labels]
    speakers, genders, accents = (np.array([vocab[x] for x in column], dtype=np.intp)
                                  for vocab, column in zip(vocabs, labels))
    first = np.unique(speakers, return_index=True)[1][speakers]  # each row's speaker's first row
    bad = (genders != genders[first]) | (accents != accents[first])
    if bad.any():
        i, j = int(bad.argmax()), first[bad.argmax()]
        raise ValueError(
            f"{where(i)}speaker {labels[0][i]!r} has conflicting gender/accent labels "
            f"{(labels[1][j], labels[2][j])} vs {(labels[1][i], labels[2][i])}")
    return Corpus(list(ids), speakers, genders, accents,
                  np.ascontiguousarray(vectors, dtype=np.float64), *vocabs, split_tag)


def make_corpus(embeddings: list[Embedding], split_tag: str = "unsplit") -> Corpus:
    """Build a corpus from embeddings, validating invariants.

    Every vector is finite and of one length, utterance ids are unique and
    each speaker has one gender and one accent.  Vocabularies are the
    lexicographically sorted sets of labels present, so a corpus is fully
    reconstructible from its rows alone.
    """
    if not embeddings:
        raise ValueError("empty corpus")
    dim = embeddings[0].vector.shape[0] if embeddings[0].vector.ndim == 1 else -1
    for e in embeddings:
        if e.vector.ndim != 1 or e.vector.shape[0] != dim:
            raise ValueError(
                f"utterance {e.utterance_id!r}: vector length {e.vector.shape} != corpus dim {dim}")
    return _build([e.utterance_id for e in embeddings],
                  [[e.speaker_id for e in embeddings], [e.gender for e in embeddings],
                   [e.accent for e in embeddings]],
                  np.array([e.vector for e in embeddings], dtype=np.float64), split_tag)


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
    gender_of = np.arange(spec.n_speakers) % spec.n_genders

    # one draw for all speakers has the bits of one draw per speaker in turn
    n_utts = spec.utterances_per_speaker
    vectors = rng.standard_normal((spec.n_speakers, n_utts, spec.dim))
    vectors *= spec.noise_sigma
    vectors += (gender_dirs[gender_of] + accent_dirs[accent_of] + speaker_offsets)[:, None]
    rows = [(speaker, genders[g], accents[a]) for speaker, g, a in
            zip(speakers, gender_of.tolist(), accent_of.tolist()) for _ in range(n_utts)]
    return _build([f"{speaker}-u{j:04d}" for speaker in speakers for j in range(n_utts)],
                  list(map(list, zip(*rows))), vectors.reshape(-1, spec.dim), "unsplit")


def split_corpus(corpus: Corpus, n_heldout_per_speaker: int
                 ) -> tuple[Corpus, Corpus, Corpus]:
    """Split into (train, valid, test) by utterance_id order.

    Per speaker the last ``n_heldout_per_speaker`` utterances go to valid,
    the preceding ``n_heldout_per_speaker`` to test, the rest to train.
    Deterministic: no randomness, stable across platforms.  Vocabularies
    are shared unchanged (closed-set: all splits share all speakers).
    """
    n, speakers, ids = n_heldout_per_speaker, corpus.speakers, corpus.utterance_ids
    if n < 0:
        raise ValueError(f"n_heldout_per_speaker must be >= 0, got {n}")
    counts = np.bincount(speakers, minlength=len(corpus.speaker_vocab))
    short = counts[speakers] <= 2 * n
    if short.any():
        speaker = speakers[short.argmax()]
        raise ValueError(
            f"speaker {corpus.names('speaker')[speaker]!r} has {counts[speaker]} utterances, "
            f"needs more than {2 * n} to hold out {n} per split")
    # each row's rank from the end of its speaker's rows in utterance_id order
    by_speaker = speakers.tolist()
    order = sorted(range(len(ids)), key=lambda i: (by_speaker[i], ids[i]))
    from_end = np.empty(len(ids), dtype=np.intp)
    from_end[order] = np.cumsum(counts)[speakers[order]] - np.arange(1, len(ids) + 1)
    part = np.minimum(from_end // n, 2) if n > 0 else np.full(len(ids), 2)
    return tuple(corpus._take(np.flatnonzero(part == code), tag)
                 for code, tag in ((2, "train"), (0, "valid"), (1, "test")))


# CSV layout: header `utterance_id,speaker_id,gender,accent,v0,...,v{D-1}`,
# one row per utterance in corpus order, floats printed with 17 significant
# digits so 64-bit values round-trip exactly.

FIXED_COLUMNS = ["utterance_id", "speaker_id", "gender", "accent"]
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _quoted(field: str) -> str:
    """``field`` quoted as ``csv.writer`` quotes it, and also when it holds a
    CR, which ``csv.writer`` leaves bare with a "\\n" terminator."""
    return '"' + field.replace('"', '""') + '"' if _NEEDS_QUOTES.search(field) else field


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus as CSV (see module layout note); raises on empty corpus.

    Each row is one ``%`` format; the ids and labels of a column that holds
    a comma, quote, CR or LF are quoted, so every corpus reads back.
    """
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    bad = ~np.isfinite(corpus.vectors).all(axis=1)
    if bad.any():
        raise ValueError(f"utterance {corpus.utterance_ids[int(bad.argmax())]!r}: "
                         "non-finite vector entries")
    columns = [list(map(_quoted, column)) if _NEEDS_QUOTES.search("".join(column)) else column
               for column in (corpus.utterance_ids, *corpus._label_columns())]
    row_format = "%s,%s,%s,%s," + ",".join(["%.17g"] * corpus.dim) + "\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(FIXED_COLUMNS + [f"v{i}" for i in range(corpus.dim)]) + "\n")
        for u, s, g, a, v in zip(*columns, corpus.vectors):
            fh.write(row_format % (u, s, g, a, *v.tolist()))


def read_corpus(path: str | Path, split_tag: str = "unsplit") -> Corpus:
    """Read a corpus CSV; the file does not carry the split tag, pass it in.

    A file in the plain form (see ``_read_plain``) has its vectors parsed by
    numpy; any other file, and every malformed one, is read again from the
    start by the ``csv.reader`` path, so both accept the same files with the
    same result.  Every error names the path, and the line when it is about
    one.
    """
    path = Path(path)
    parsed = _read_plain(path)
    if parsed is None:
        with csv_rows(path) as reader:
            parsed = _read_rows(path, reader)
    ids, labels, vectors, lines = parsed
    return _build(ids, labels, vectors, split_tag, lambda i: f"{path}: line {lines[i]}: ")


def decode_error(path: str | Path, exc: UnicodeDecodeError) -> ValueError:
    """A ValueError naming ``path`` and the line of its first byte that
    ``exc.encoding`` cannot decode.  A text stream counts ``exc.start`` from
    the start of a chunk, so the whole file is decoded again."""
    raw = Path(path).read_bytes()
    try:
        raw.decode(exc.encoding)
    except UnicodeDecodeError as whole:
        exc = whole
    line = raw[:exc.start].count(b"\n") + 1
    return ValueError(f"{path}: line {line}: not {exc.encoding} text")


@contextmanager
def csv_rows(path: str | Path):
    """A ``csv.reader`` over the text file ``path``.  A decode error or a
    ``csv.Error`` while it is read becomes a ValueError naming the path and
    the line."""
    with Path(path).open("r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise decode_error(path, exc) from None


# A row in the plain form: four labels without a comma, quote, CR, LF or
# NUL, then the vector fields, made only of digits, ".", "e", "E", "+", "-"
# and commas.  Over that alphabet numpy's parser accepts exactly the strings
# ``float`` accepts, with the same bits; outside it numpy reads some that
# ``float`` rejects ("31\x1c" as 31.0).
_LABEL = '([^,"\r\n\0]*),'
_PLAIN_ROW = re.compile(_LABEL * 4 + r"([0-9.eE+\-,]+)\n?")


def _read_plain(path: Path):
    """``_read_rows``' result for a file in the plain form, or None.

    The plain form is the exact header, then only plain rows, each shorter
    than ``csv.field_size_limit()``, with as many finite numbers as the
    header has vector columns: the form ``write_corpus`` writes for labels
    that need no quotes.  The csv reader splits such a row at its commas
    alone, so its labels are the regex groups; the vector fields of all
    rows are streamed into one ``np.loadtxt`` call.
    """
    limit = csv.field_size_limit()
    fixed: list[tuple[str, ...]] = []

    def tails(rows):
        for row in rows:
            match = len(row) < limit and _PLAIN_ROW.fullmatch(row)
            if not match:
                raise ValueError("not a plain row")
            fixed.append(match.group(1, 2, 3, 4))
            yield match[5]

    try:
        with path.open("r", newline="") as fh:
            header = fh.readline()
            dim = header.count(",") - 3
            columns = FIXED_COLUMNS + [f"v{i}" for i in range(dim)]
            if dim < 1 or header != ",".join(columns) + "\n":
                return None
            rows = tails(fh)
            first = next(rows, None)  # no rows: loadtxt would warn
            if first is None:
                return None
            vectors = np.loadtxt(chain([first], rows), dtype=np.float64, delimiter=",",
                                 comments=None, quotechar=None, ndmin=2)
    except (OSError, ValueError):  # also a bad number or field count, or undecodable bytes
        return None
    if vectors.shape != (len(fixed), dim) or not np.isfinite(vectors).all():
        return None
    ids, *labels = map(list, zip(*fixed))
    return ids, labels, vectors, range(2, len(ids) + 2)


def _read_rows(path: Path, reader):
    """(ids, labels, vectors, line of each row); the floats go into one buffer."""
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty corpus")
    if header[:4] != FIXED_COLUMNS:
        raise ValueError(f"{path}: line 1: bad header, expected columns {FIXED_COLUMNS} first")
    dim = len(header) - 4
    if dim < 1 or header[4:] != [f"v{i}" for i in range(dim)]:
        raise ValueError(f"{path}: line 1: bad vector columns, expected v0..v{{D-1}}")
    fixed, values, lines = [], array("d"), []
    for row in reader:
        line = reader.line_num
        if len(row) != 4 + dim:
            raise ValueError(f"{path}: line {line}: expected {4 + dim} fields, got {len(row)}")
        try:
            vector = list(map(float, islice(row, 4, None)))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: bad float: {exc}") from None
        # a finite sum rules out inf and nan entries in one pass
        if not math.isfinite(sum(vector)) and not all(map(math.isfinite, vector)):
            raise ValueError(f"{path}: line {line}: non-finite vector entries")
        values.extend(vector)
        fixed.append(row[:4])
        lines.append(line)
    if not fixed:
        raise ValueError(f"{path}: empty corpus")
    ids, *labels = map(list, zip(*fixed))
    return ids, labels, np.frombuffer(values, dtype=np.float64).reshape(-1, dim), lines
