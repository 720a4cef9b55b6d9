"""Synthetic data and the small builders shared across the test suite.

The planted-trigram task: positive documents contain a fixed three-word
phrase at a random position, negatives contain the same words only out of
sequence.  A pattern set with length-3 patterns can solve it perfectly, so
it exercises training, interpretation, and the ablation harness end to end
at desk scale.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings

from sopa.embeddings import EmbeddingMatrix, TokenizedDocument, Vocabulary

# property tests run derandomized and database-free, so every run checks the
# same cases and writes nothing
PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

VOCAB_SIZE = 200
EMBED_DIM = 10
MIN_LEN = 8
MAX_LEN = 15


def word(i: int) -> str:
    return f"w{i:03d}"


def doc_of(ids, doc_id=-1) -> TokenizedDocument:
    """A document of the given token ids; no test reads its raw tokens."""
    return TokenizedDocument(token_ids=[int(i) for i in ids], raw_tokens=[""] * len(ids),
                             doc_id=doc_id)


def write_embeddings(path, words, vectors) -> None:
    lines = []
    for w, row in zip(words, vectors):
        lines.append(w + " " + " ".join(repr(float(x)) for x in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_dataset(path, rows) -> None:
    """rows: iterable of (label, list-of-token-strings)."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, tokens in rows:
            fh.write(f"{label}\t{' '.join(tokens)}\n")


def _contains(seq: list[int], sub: tuple[int, ...]) -> bool:
    k = len(sub)
    return any(tuple(seq[i:i + k]) == sub for i in range(len(seq) - k + 1))


def _sample_doc(rng, positive: bool, trigram: tuple[int, ...]) -> list[int]:
    n = int(rng.integers(MIN_LEN, MAX_LEN + 1))
    while True:
        ids = list(rng.integers(0, VOCAB_SIZE, size=n))
        if positive:
            pos = int(rng.integers(0, n - len(trigram) + 1))
            ids[pos:pos + len(trigram)] = trigram
            return ids
        if not _contains(ids, trigram):
            return ids


def build_planted_task(dirpath, seed: int = 123,
                       sizes: tuple[int, int, int] = (500, 200, 200)) -> dict:
    """Write embeddings + train/dev/test files; returns paths and the trigram.

    Each split holds the stated number of positive documents and as many
    negatives.  Vectors are unit-normalized on load.
    """
    rng = np.random.default_rng(seed)
    words = [word(i) for i in range(VOCAB_SIZE)]
    vectors = rng.normal(0.0, 1.0, size=(VOCAB_SIZE, EMBED_DIM))
    emb_path = str(dirpath / "embeddings.txt")
    write_embeddings(emb_path, words, vectors)

    trigram = tuple(int(i) for i in rng.choice(VOCAB_SIZE, size=3, replace=False))
    paths = {"embeddings": emb_path}
    for split, count in zip(("train", "dev", "test"), sizes):
        rows = []
        for label in (1, 0):
            for _ in range(count):
                ids = _sample_doc(rng, label == 1, trigram)
                rows.append((label, [word(i) for i in ids]))
        order = rng.permutation(len(rows))
        rows = [rows[i] for i in order]
        path = str(dirpath / f"{split}.tsv")
        write_dataset(path, rows)
        paths[split] = path
    paths["trigram_words"] = [word(i) for i in trigram]
    return paths


def write_micro_files(dirpath, seed=7, sizes=(30, 10, 10),
                      doc_len=(2, 6)) -> dict:
    """File-based variant of micro_task for driving the CLI.

    Documents stay short enough for the brute-force oracle bounds.
    """
    words = ["pos", "neg", "f0", "f1", "f2", "f3"]
    vectors = np.array([[1.0, 0.0], [-1.0, 0.0],
                        [0.1, 0.2], [-0.2, 0.1], [0.0, 0.3], [0.2, -0.1]])
    emb_path = str(dirpath / "embeddings.txt")
    write_embeddings(emb_path, words, vectors)
    rng = np.random.default_rng(seed)
    paths = {"embeddings": emb_path, "words": words}
    for split, count in zip(("train", "dev", "test"), sizes):
        rows = []
        for i in range(count):
            label = i % 2
            n = int(rng.integers(doc_len[0], doc_len[1] + 1))
            ids = [int(x) for x in rng.integers(2, 6, size=n)]
            ids[int(rng.integers(0, n))] = 0 if label == 1 else 1
            rows.append((label, [words[j] for j in ids]))
        path = str(dirpath / f"{split}.tsv")
        write_dataset(path, rows)
        paths[split] = path
    return paths


def micro_task(seed=0, n_train=24, n_dev=12):
    """Tiny in-memory separable task: label 1 iff the marker word appears."""
    words = ["pos", "neg", "f0", "f1", "f2", "f3"]
    vocab = Vocabulary(words=words, dim=2)
    vectors = np.array([[1.0, 0.0], [-1.0, 0.0],
                        [0.1, 0.2], [-0.2, 0.1], [0.0, 0.3], [0.2, -0.1]])
    emb = EmbeddingMatrix(vectors=vectors)
    rng = np.random.default_rng(seed)

    def make(count, start_id):
        docs = []
        for i in range(count):
            label = i % 2
            marker = 0 if label == 1 else 1
            ids = [int(x) for x in rng.integers(2, 6, size=3)]
            ids[int(rng.integers(0, 3))] = marker
            docs.append(TokenizedDocument(
                token_ids=ids, raw_tokens=[words[j] for j in ids],
                label=label, doc_id=start_id + i))
        return docs

    return vocab, emb, make(n_train, 0), make(n_dev, n_train)
