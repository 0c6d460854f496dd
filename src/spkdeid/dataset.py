"""Synthetic speaker-embedding corpora with speaker/gender/accent structure.

A corpus emulates the labelled layout of a speaker-recognition dataset:
every speaker has one gender and one accent, every utterance is one
D-dimensional embedding vector.  Vectors are composed additively as

    gender direction + accent direction + speaker offset + isotropic noise

so the relative scales control how separable each attribute is.

A ``Corpus`` is stored by column: the utterance ids, one index array per
label (speaker, gender, accent) into that label's sorted vocabulary, and
one C-contiguous (N, dim) float64 matrix.  No per-row objects exist unless
a caller asks for ``Corpus.embeddings``.  The CSV writer prints each float
as ``"%.17g" % x`` does, so it reads back with the same bits.  It formats
blocks of rows in numpy by the exact integer arithmetic of a correctly
rounded conversion (Gay 1990; Adams 2019): the 53-bit significand times
5**q is a 128-bit product in two uint64 words, shifted and rounded half to
even, for 1e-11 <= |x| < 2**51; zero, subnormals and other magnitudes go
to ``%`` itself.  Next to a CSV whose labels need no quotes it also writes
a binary sidecar, ``<name>.csv.parsed``: the ids, labels and float64
matrix it had in memory, plus a sha256 over the CSV's bytes and the
sidecar.  The reader takes the columns from a sidecar whose size and digest
match the CSV beside it, without parsing the text.  Otherwise it parses the
file row by row with a ``csv.reader`` and Python ``float``.  Both give the
same result and the same errors, and neither holds more than a row of text
or a fixed-size buffer at a time.

The sha256 of a CSV's bytes that the writer takes while writing it, and the
one the sidecar check takes while reading it (also when the sidecar then
proves stale), are recorded with the file's device, inode, size and mtime
from the descriptor used.  ``sha256_file`` returns a recorded digest while
the file keeps that identity, and reads and hashes any other file;
``forget_file_digests`` empties the record.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import os
import re
import struct
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

    def with_vectors(self, vectors: np.ndarray) -> "Corpus":
        """This corpus's ids and labels (shared) with ``vectors`` (not copied) as its matrix."""
        if vectors.shape != (len(self), self.dim):
            raise ValueError(
                f"vectors shape {vectors.shape} does not match corpus ({len(self)}, {self.dim})")
        return dataclasses.replace(self, vectors=np.ascontiguousarray(vectors, dtype=np.float64))

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

    Each block of rows is formatted (``_format_rows``), written and hashed
    once; the ids and labels of a column that holds a comma, quote, CR or LF
    are quoted.  When no label is quoted and ``path`` is a regular file, the
    sidecar (see ``_write_sidecar``) is written too; a failure to write it
    is ignored.
    """
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    bad = ~np.isfinite(corpus.vectors).all(axis=1)
    if bad.any():
        raise ValueError(f"utterance {corpus.utterance_ids[int(bad.argmax())]!r}: "
                         "non-finite vector entries")
    path = Path(path)
    fields = [corpus.utterance_ids, *corpus._label_columns()]
    columns = [list(map(_quoted, column)) if _NEEDS_QUOTES.search("".join(column)) else column
               for column in fields]
    prefixes = map("{},{},{},{},".format, *columns)
    step = max(1, _BLOCK_VALUES // corpus.dim)
    digest = hashlib.sha256()
    size = 0
    with path.open("w", newline="") as fh:
        encoding = fh.encoding
        header = ",".join(FIXED_COLUMNS + [f"v{i}" for i in range(corpus.dim)]) + "\n"
        blocks = ("".join(chain(*zip(islice(prefixes, step),
                                     _format_rows(corpus.vectors[i:i + step]))))
                  for i in range(0, len(corpus), step))
        for block in chain([header], blocks):
            fh.write(block)
            data = block.encode(encoding)
            digest.update(data)
            size += len(data)
        fh.flush()
        _remember_digest(os.fstat(fh.fileno()), size, digest.hexdigest())
    text = "\n".join(chain(*fields))
    # a parse of the CSV gives the sidecar's labels: no label is quoted,
    # holds a NUL or is longer than the field limit a parse enforces
    if (columns == fields and "\0" not in text and path.is_file()
            and max(map(len, chain(*fields))) <= csv.field_size_limit()):
        _write_sidecar(path, digest, text.encode(encoding), corpus.vectors)


# The float formatter (see the module docstring).  For 1e-11 <= |x| < 2**51,
# x = M * 2**E with a 53-bit M and decimal exponent P in [-11, 15], so
# q = 16 - P is in [1, 27], 5**q < 2**63, M * 5**q < 2**116 and the shift
# -(E + q) is in [1, 62].  uint64 never meets int64: numpy makes that float64.
_BLOCK_VALUES = 4096
_POW5 = np.array([5 ** k for k in range(28)], dtype=np.uint64)
_U1, _U32, _U48, _U64, _LOW32 = (np.uint64(k) for k in (1, 32, 48, 64, 0xFFFF_FFFF))
_E4, _E8, _E16, _E17 = (np.uint64(10 ** k) for k in (4, 8, 16, 17))


def _scaled(M: np.ndarray, E: np.ndarray, P: np.ndarray):
    """floor(M * 2**E * 10**(16 - P)) from the 128-bit product M * 5**q in
    32-bit halves, and whether rounding it half to even adds one."""
    q = 16 - P
    shift = np.clip(-(E + q), 1, 63).astype(np.uint64)
    f = _POW5[q]
    m0, m1, f0, f1 = M & _LOW32, M >> _U32, f & _LOW32, f >> _U32
    low = m0 * f0
    mid = m1 * f0 + m0 * f1
    lo = low + (mid << _U32)
    hi = m1 * f1 + (mid >> _U32) + (lo < low)
    floor = (hi << (_U64 - shift)) | (lo >> shift)
    rest, half = lo & ((_U1 << shift) - _U1), _U1 << (shift - _U1)
    return floor, (rest > half) | ((rest == half) & ((floor & _U1) == _U1))


def _decimal(x: np.ndarray):
    """(D, P, ok): where ok, |x| to 17 digits is D * 10**(P - 16), 10**16 <= D < 10**17."""
    a = np.abs(x)
    m, e = np.frexp(a)
    M, E = (m * 2.0 ** 53).astype(np.uint64), e.astype(np.int64) - 53
    ok = (a >= 1e-11) & (a < 2.0 ** 51)
    P = np.floor(np.log10(np.where(ok, a, 1.0))).astype(np.int64).clip(-11, 15)
    D, up = _scaled(M, E, P)
    # log10 can miss P by one next to a power of ten; a D in range proves P
    fix = np.flatnonzero(ok & ((D < _E16) | (D >= _E17)))
    P[fix] = np.clip(P[fix] + np.where(D[fix] < _E16, -1, 1), -11, 15)
    D[fix], up[fix] = _scaled(M[fix], E[fix], P[fix])
    ok &= (D >= _E16) & (D < _E17)
    D = np.where(ok, D + up, _E16)
    carry = D == _E17
    return np.where(carry, _E16, D), P + carry, ok


# A value's text is in a 48-byte cell (six uint64 words): sign, "0.000", 17
# digits each with a point slot after it, "e-NN", separator.  The rest depends
# only on the key (P, sign, digits without trailing zeros), so a cell is its
# key's characters OR its raw digits (spread 4-digit groups); its text is its
# nonzero bytes, as unwritten characters and dropped zero digits are 0.
_QUADS = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
_DIGITS = (_QUADS.astype(np.uint64) << np.array([0, 16, 32, 48], dtype=np.uint64)).sum(axis=1)
_TRAILING_ZEROS = np.where(np.arange(10_000) == 0, 4, np.argmax(_QUADS[:, ::-1] != 0, axis=1))


def _cell_table():
    """The characters and text length of a cell for every key."""
    P = np.arange(-11, 16)[:, None, None, None]
    neg = np.arange(2)[:, None, None]
    n_digits = np.arange(1, 18)[:, None]
    col = np.arange(48)
    before = np.where(P >= 0, P + 1, np.where(P < -4, 1, 0))  # digits before the point
    zone = (P < 0) & (P >= -4) & (col >= 1) & (col <= 1 - P)  # "0." and -P - 1 zeros
    j = (col - 6) // 2  # digit j is in column 6 + 2j, its point slot after it
    digit = (col >= 6) & (col < 40) & (col % 2 == 0) & (j < np.maximum(n_digits, before))
    point = (col >= 7) & (col < 38) & (col % 2 == 1) & (j == before - 1) & (n_digits > before)
    exponent = (P < -4) & (col >= 40) & (col < 44)
    chars = np.select(
        [(col == 0) & (neg == 1), zone & (col == 2), zone | digit, point,
         exponent & (col == 40), exponent & (col == 41), exponent, col == 44],
        [ord("-"), ord("."), ord("0"), ord("."), ord("e"), ord("-"),
         np.where(col == 42, 48 + -P // 10, 48 + -P % 10), ord(",")], 0)
    chars = chars.astype(np.uint8).reshape(-1, 48)
    return chars.view("<u8"), np.count_nonzero(chars, axis=1)


_CELLS, _CELL_LENGTHS = _cell_table()


def _format_rows(block: np.ndarray) -> list[str]:
    """The rows of a 2-d float block as CSV lines, each float as ``"%.17g" %``
    writes it."""
    x = block.ravel()
    D, P, ok = _decimal(x)
    lead, rest = np.divmod(D, _E16)
    high, low = np.divmod(rest, _E8)
    groups = np.stack([*np.divmod(high, _E4), *np.divmod(low, _E4)]).astype(np.intp)
    zeros = 0
    for z in _TRAILING_ZEROS[groups]:
        zeros = np.where(z == 4, zeros + 4, z)
    key = ((P + 11) * 2 + np.signbit(x)) * 17 + 16 - zeros
    cells = _CELLS.take(key, axis=0)
    cells[:, 0] |= lead << _U48
    for k, g in enumerate(groups):
        cells[:, 1 + k] |= _DIGITS[g]
    lengths = _CELL_LENGTHS.take(key)
    chars = cells.view(np.uint8)
    chars.reshape(*block.shape, 48)[:, -1, 44] = ord("\n")
    for i in np.flatnonzero(~ok).tolist():
        text = b"%.17g" % x[i]
        chars[i, :44] = np.frombuffer(text.ljust(44, b"\0"), dtype=np.uint8)
        lengths[i] = len(text) + 1
    text = chars.tobytes().translate(None, b"\0").decode("ascii")
    ends = np.cumsum(lengths.reshape(block.shape).sum(axis=1)).tolist()
    return [text[begin:end] for begin, end in zip([0] + ends, ends)]


def read_corpus(path: str | Path, split_tag: str = "unsplit") -> Corpus:
    """Read a corpus CSV; the file does not carry the split tag, pass it in.

    A file with a matching sidecar (see ``_read_sidecar``) is not parsed;
    any other file is parsed by ``csv.reader`` and ``float``, and both give
    the same result.  Every error names the path, and the line when it is
    about one.  A read writes no file.
    """
    path = Path(path)
    parsed = _read_sidecar(path)
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


# The sidecar of a CSV that ``write_corpus`` wrote, ``<name>.csv.parsed``:
# a header (magic, version, rows N, dim D, text bytes T), then T bytes of
# text: the N ids and the 3N speaker, gender and accent labels, joined by
# "\n" and encoded as the CSV is; then the (N, D) matrix as little-endian
# float64; then the sha256 of the CSV's bytes followed by all of the above.
_SIDECAR = struct.Struct("<8sIQQQ")
_SIDECAR_MAGIC = b"SPKDCSV\0"
_SIDECAR_VERSION = 1
_DIGEST_BYTES = 32


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".parsed")


def _write_sidecar(path: Path, digest, text: bytes, vectors: np.ndarray) -> None:
    """Write the sidecar of ``path``; ``digest`` has hashed the CSV's bytes.

    A sidecar that cannot be written, or is left partial, fails the
    reader's size or digest check, so the CSV alone is the result.
    """
    vectors = np.ascontiguousarray(vectors, dtype="<f8")
    parts = [_SIDECAR.pack(_SIDECAR_MAGIC, _SIDECAR_VERSION, *vectors.shape, len(text)),
             text, vectors]
    for part in parts:
        digest.update(part)
    try:
        with _sidecar_path(path).open("wb") as fh:
            for part in parts + [digest.digest()]:
                fh.write(part)
    except OSError:
        pass


def _read_sidecar(path: Path):
    """``_read_rows``' result from the sidecar of ``path``, or None.

    The sidecar is used only when its size is the one its header implies
    and its digest matches the bytes of ``path`` as they are now; a missing,
    short, stale or corrupt sidecar gives None.  The text is split at "\\n"
    alone: ``str.splitlines`` also splits at characters an unquoted label
    may hold.  It is decoded with the encoding a parse of ``path`` would use,
    which opening ``path`` as text gives.
    """
    try:
        with _sidecar_path(path).open("rb") as side, path.open("r", newline="") as fh:
            header = side.read(_SIDECAR.size)
            if len(header) != _SIDECAR.size:
                return None
            magic, version, n, dim, text_bytes = _SIDECAR.unpack(header)
            if ((magic, version) != (_SIDECAR_MAGIC, _SIDECAR_VERSION)
                    or os.fstat(side.fileno()).st_size
                    != _SIDECAR.size + text_bytes + 8 * n * dim + _DIGEST_BYTES):
                return None
            text = side.read(text_bytes)
            vectors = np.empty((n, dim), dtype="<f8")
            side.readinto(vectors)
            stored = side.read(_DIGEST_BYTES)
            stat = os.fstat(fh.fileno())
            digest = hashlib.sha256()
            _remember_digest(stat, _hash_into(digest, fh.buffer), digest.hexdigest())
            for part in (header, text, vectors):
                digest.update(part)
            if digest.digest() != stored:
                return None
            fields = text.decode(fh.encoding).split("\n")
    except (OSError, ValueError):  # also text the reader's encoding cannot decode
        return None
    if len(fields) != 4 * n:
        return None
    ids, *labels = (fields[i * n:(i + 1) * n] for i in range(4))
    return ids, labels, vectors, range(2, n + 2)


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


# The sha256 of each CSV that ``write_corpus`` wrote or ``_read_sidecar``
# hashed, by the file's (device, inode) -> (size, mtime_ns, hex digest) as
# the descriptor it used showed them.  ``forget_file_digests`` empties it.
_DIGESTS: dict[tuple[int, int], tuple[int, int, str]] = {}


def _remember_digest(stat: os.stat_result, size: int, digest: str) -> None:
    """Record ``digest`` of the ``size`` bytes just hashed from the file
    that ``stat`` describes, unless that file holds another number of bytes
    (a device, a pipe, or a text encoding that writes a byte-order mark)."""
    if stat.st_size == size:
        _DIGESTS[stat.st_dev, stat.st_ino] = (size, stat.st_mtime_ns, digest)


def _hash_into(digest, raw) -> int:
    """Feed the rest of the binary stream ``raw`` to ``digest``; the number
    of bytes it read."""
    chunk = bytearray(1 << 18)
    total = 0
    while size := raw.readinto(chunk):
        digest.update(memoryview(chunk)[:size])
        total += size
    return total


def _hash_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        _hash_into(digest, fh)
    return digest.hexdigest()


def sha256_file(path: str | Path) -> str:
    """The sha256 hex digest of the file ``path``.

    It is the digest that ``write_corpus`` or ``read_corpus`` took of the
    file's bytes while the file keeps the device, inode, size and mtime it
    had then; any other file, or one changed since, is read and hashed.
    """
    stat = os.stat(path)
    recorded = _DIGESTS.get((stat.st_dev, stat.st_ino))
    if recorded is not None and recorded[:2] == (stat.st_size, stat.st_mtime_ns):
        return recorded[2]
    return _hash_file(path)


def forget_file_digests() -> None:
    """Empty the record of digests that ``sha256_file`` reuses."""
    _DIGESTS.clear()
