"""Pretrained word vectors, vocabulary, and dataset loading.

Embedding files are whitespace-separated text: one word per line followed by
its vector components.  Datasets are tab-separated: an integer label, a tab,
then the document text.  Word vectors are frozen; they never receive
gradients, and out-of-vocabulary tokens are scored through the all-zero
vector.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

OOV_ID = -1


@dataclass(frozen=True)
class Vocabulary:
    """Bijection between words and indices 0..len-1, plus a content hash.

    Frozen, with the words kept as a tuple, so the fingerprint is hashed
    once per vocabulary and cannot go stale.
    """

    words: tuple[str, ...]
    dim: int
    index: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        if not self.index:
            object.__setattr__(self, "index", {w: i for i, w in enumerate(self.words)})

    def __len__(self) -> int:
        return len(self.words)

    def lookup(self, word: str) -> int:
        return self.index.get(word, OOV_ID)

    @functools.cached_property
    def _digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.dim).encode("utf-8"))
        for w in self.words:
            h.update(b"\x00")
            h.update(w.encode("utf-8"))
        return h.hexdigest()

    def fingerprint(self) -> dict:
        return {"sha256": self._digest, "dim": self.dim}


@dataclass
class EmbeddingMatrix:
    """Frozen |V| x dim float64 matrix of word vectors."""

    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def rows(self, ids) -> np.ndarray:
        """Vectors of token ids (n,) -> (n, dim); OOV ids become zero rows."""
        ids = np.asarray(ids, dtype=np.intp)
        known = ids != OOV_ID
        out = np.zeros((len(ids), self.dim))
        out[known] = self.vectors[ids[known]]
        return out

    def doc_matrix(self, doc: "TokenizedDocument") -> np.ndarray:
        """Rows for each token; OOV tokens become zero rows."""
        return self.rows(doc.token_ids)


@dataclass
class TokenizedDocument:
    token_ids: list[int]
    raw_tokens: list[str]
    label: int | None = None
    doc_id: int = -1

    def __len__(self) -> int:
        return len(self.token_ids)


def normalize_rows(vectors: np.ndarray) -> np.ndarray:
    """Scale each nonzero row to unit Euclidean norm; zero rows stay zero."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return vectors / safe


def _parse_floats(text: str) -> np.ndarray | None:
    """The whitespace-separated numbers of text, or None if a field is not one."""
    try:
        return np.fromstring(text, sep=" ")
    except (ValueError, DeprecationWarning):  # older numpy only warns
        return None


def load_embeddings(path: str) -> tuple[Vocabulary, EmbeddingMatrix]:
    """Parse a text embedding file into a vocabulary and unit-normalized
    vector matrix (normalize_rows).

    The first data line fixes the dimension; later lines with a different
    component count are an error.  A first line of exactly two integers is a
    word2vec-style "count dim" header and is skipped; rows must then have
    dim components.  Later lines with more than dim fields after the word
    whose last dim fields are numbers hold a word with spaces in it (as in
    GloVe 840B); whitespace tokenisation never produces such a word, so they
    are skipped with one warning.  Duplicate words keep the first vector and
    log a warning.  Malformed and non-finite components are errors naming
    their line.
    """
    words: list[str] = []
    index: dict[str, int] = {}
    rows: list[np.ndarray] = []
    linenos: list[int] = []
    spaced: list[int] = []
    dim = None
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for lineno, line in enumerate(fh, start=1):
            parts = line.split(maxsplit=1)
            if not parts:
                continue
            word, rest = parts[0], parts[1] if len(parts) == 2 else ""
            if dim is None and word.isdigit() and rest.strip().isdigit():
                dim = int(rest)  # word2vec header: vocabulary size, dimension
                continue
            vec = _parse_floats(rest)
            if vec is None or (dim is not None and len(vec) != dim):
                fields = rest.split()
                if (dim is not None and len(fields) > dim
                        and _parse_floats(" ".join(fields[-dim:])) is not None):
                    spaced.append(lineno)
                    continue
                if vec is None:
                    bad = next((f for f in fields if _parse_floats(f) is None), rest.strip())
                    raise ValueError(f"{path}:{lineno}: word {word!r} has a malformed "
                                     f"vector component {bad!r}")
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} components, found {len(vec)}"
                )
            if dim is None:
                dim = len(vec)
                if dim == 0:
                    raise ValueError(f"{path}:{lineno}: word {word!r} has no vector components")
            if word in index:
                logger.warning("%s:%d: duplicate word %r, keeping first occurrence", path, lineno, word)
                continue
            index[word] = len(words)
            words.append(word)
            rows.append(vec)
            linenos.append(lineno)
    if spaced:
        logger.warning("%s: skipped %d lines whose word contains spaces, the first at line %d",
                       path, len(spaced), spaced[0])
    if not words:
        raise ValueError(f"{path}: no embedding rows found")
    matrix = np.vstack(rows)
    if not np.isfinite(matrix).all():
        row = int(np.argmin(np.isfinite(matrix).all(axis=1)))
        raise ValueError(f"{path}:{linenos[row]}: word {words[row]!r} has a non-finite "
                         f"vector component")
    matrix = normalize_rows(matrix)
    vocab = Vocabulary(words=words, dim=dim, index=index)
    return vocab, EmbeddingMatrix(vectors=matrix)


def tokenize_and_encode(
    text: str, vocab: Vocabulary, lowercase: bool = False,
    label: int | None = None, doc_id: int = -1,
) -> TokenizedDocument:
    """Whitespace-tokenize a document and map tokens to vocabulary ids."""
    if lowercase:
        text = text.lower()
    tokens = text.split()
    if not tokens:
        raise ValueError("empty document: no whitespace-separated tokens")
    ids = [vocab.lookup(tok) for tok in tokens]
    return TokenizedDocument(token_ids=ids, raw_tokens=tokens, label=label, doc_id=doc_id)


def read_dataset(path: str, vocab: Vocabulary, lowercase: bool = False) -> list[TokenizedDocument]:
    """Read a label<TAB>text dataset file.  Labels are non-negative ints."""
    docs: list[TokenizedDocument] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected label<TAB>text")
            raw_label, text = line.split("\t", 1)
            try:
                label = int(raw_label)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: label {raw_label!r} is not an integer") from None
            if label < 0:
                raise ValueError(f"{path}:{lineno}: label must be non-negative, got {label}")
            try:
                doc = tokenize_and_encode(text, vocab, lowercase=lowercase, label=label, doc_id=len(docs))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            docs.append(doc)
    if not docs:
        raise ValueError(f"{path}: dataset file contains no documents")
    return docs
