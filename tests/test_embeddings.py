"""Embedding file parsing, vocabulary lookups, and dataset reading."""

import numpy as np
import pytest

import sopa.embeddings
from sopa.embeddings import (OOV_ID, load_embeddings, normalize_rows,
                             read_dataset, tokenize_and_encode)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_embeddings_normalizes_rows(tmp_path):
    p = write(tmp_path / "emb.txt", "alpha 3.0 4.0\nbeta 0.5 0.5\n")
    vocab, emb = load_embeddings(p)
    assert vocab.dim == 2 and emb.dim == 2
    assert np.allclose(np.linalg.norm(emb.vectors, axis=1), 1.0)
    assert np.allclose(emb.vectors[0], [0.6, 0.8])


def test_load_embeddings_normalizes_through_normalize_rows(tmp_path):
    p = write(tmp_path / "emb.txt", "alpha 3.0 4.0\n")
    _, emb = load_embeddings(p)
    assert emb.vectors.tolist() == normalize_rows(np.array([[3.0, 4.0]])).tolist()


def test_duplicate_word_keeps_first(tmp_path):
    p = write(tmp_path / "emb.txt", "a 1.0 0.0\na 0.0 1.0\nb 0.0 1.0\n")
    vocab, emb = load_embeddings(p)
    assert vocab.lookup("a") == 0
    assert emb.vectors.tolist() == normalize_rows(np.array([[1.0, 0.0], [0.0, 1.0]])).tolist()
    assert len(vocab.words) == 2


def test_dimension_mismatch_reports_line(tmp_path):
    p = write(tmp_path / "emb.txt", "a 1.0 2.0\nb 1.0\n")
    with pytest.raises(ValueError, match=r"emb\.txt:2"):
        load_embeddings(p)


def test_word2vec_header_line_is_skipped(tmp_path):
    p = write(tmp_path / "emb.txt", "2 3\na 1.0 2.0 3.0\nb 4.0 5.0 6.0\n")
    vocab, emb = load_embeddings(p)
    assert vocab.words == ("a", "b")
    expect = normalize_rows(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    assert emb.vectors.tolist() == expect.tolist()


def test_word2vec_header_dim_must_match_rows(tmp_path):
    p = write(tmp_path / "emb.txt", "2 3\na 1.0 2.0\n")
    with pytest.raises(ValueError, match=r"emb\.txt:2: expected 3 components, found 2"):
        load_embeddings(p)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_component_reports_line(tmp_path, bad):
    p = write(tmp_path / "emb.txt", f"a 1.0 2.0\n\nb 0.5 {bad}\nc 1.0 1.0\n")
    with pytest.raises(ValueError, match=r"emb\.txt:3: word 'b' has a non-finite"):
        load_embeddings(p)


@pytest.mark.parametrize("bad", ["abc", "1.0.0", "1,5"])
def test_malformed_component_reports_line(tmp_path, bad):
    p = write(tmp_path / "emb.txt", f"a 1.0 2.0\nb 0.5 {bad}\nc 1.0 1.0\n")
    with pytest.raises(ValueError, match=rf"emb\.txt:2: word 'b' has a malformed vector "
                                         rf"component '{bad}'"):
        load_embeddings(p)
    # also where a bad field follows a full row of numbers
    p = write(tmp_path / "emb.txt", f"a 1.0 2.0\nb 0.5 1.0 {bad}\n")
    with pytest.raises(ValueError, match=r"emb\.txt:2: word 'b' has a malformed"):
        load_embeddings(p)


def test_lines_whose_word_contains_spaces_are_skipped(tmp_path, caplog):
    text = ("a 1.0 2.0\n"
            ". . . 0.5 0.5\n"
            "b 3.0 4.0\n"
            "at name@x.com 1.0 1.0\n"
            "c 5.0 6.0\n")
    p = write(tmp_path / "emb.txt", text)
    with caplog.at_level("WARNING", logger="sopa.embeddings"):
        vocab, emb = load_embeddings(p)
    assert vocab.words == ("a", "b", "c")
    expect = normalize_rows(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    assert emb.vectors.tolist() == expect.tolist()
    warned = [r.getMessage() for r in caplog.records]
    assert len(warned) == 1
    assert "skipped 2 lines whose word contains spaces, the first at line 2" in warned[0]


def test_other_component_count_mismatch_stays_an_error(tmp_path):
    # more fields than dim, but the last dim fields are not all numbers
    p = write(tmp_path / "emb.txt", "a 1.0 2.0\nb c 1.0 x\n")
    with pytest.raises(ValueError, match=r"emb\.txt:2: word 'b' has a malformed"):
        load_embeddings(p)
    # too few fields
    p = write(tmp_path / "emb.txt", "a 1.0 2.0 3.0\nb 1.0 2.0\n")
    with pytest.raises(ValueError, match=r"emb\.txt:2: expected 3 components, found 2"):
        load_embeddings(p)


def test_parse_matches_python_floats_bitwise(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(20, 3)) * 10.0 ** rng.integers(-300, 300, size=(20, 3))
    lines = [f"w{i} " + " ".join(repr(float(v)) if i % 2 else "%.6e" % v for v in row)
             for i, row in enumerate(values)]
    p = write(tmp_path / "emb.txt", "\n".join(lines) + "\n")
    # the parsed matrix itself: squaring components near 1e300 overflows the
    # row norms, which would hide most rows' bits behind the normalization
    monkeypatch.setattr(sopa.embeddings, "normalize_rows", lambda vectors: vectors)
    _, emb = load_embeddings(p)
    expect = np.array([[float(c) for c in line.split()[1:]] for line in lines])
    assert emb.vectors.tobytes() == expect.tobytes()


def test_empty_embedding_file_rejected(tmp_path):
    p = write(tmp_path / "emb.txt", "\n\n")
    with pytest.raises(ValueError, match="no embedding rows"):
        load_embeddings(p)


def test_word_without_components_rejected(tmp_path):
    p = write(tmp_path / "emb.txt", "lonely\n")
    with pytest.raises(ValueError, match="no vector components"):
        load_embeddings(p)


def test_lookup_and_oov(tmp_path):
    p = write(tmp_path / "emb.txt", "known 1.0 0.0\n")
    vocab, emb = load_embeddings(p)
    assert vocab.lookup("known") == 0
    assert vocab.lookup("unknown") == OOV_ID
    doc = tokenize_and_encode("known unknown known", vocab)
    mat = emb.doc_matrix(doc)
    assert mat.shape == (3, 2)
    assert mat[1].tolist() == [0.0, 0.0]  # OOV becomes the zero vector
    assert np.allclose(mat[0], emb.vectors[0])


def test_fingerprint_tracks_vocabulary_and_dim(tmp_path):
    a = write(tmp_path / "a.txt", "x 1.0 0.0\ny 0.0 1.0\n")
    b = write(tmp_path / "b.txt", "x 1.0 0.0\ny 0.0 1.0\n")
    c = write(tmp_path / "c.txt", "x 1.0 0.0\nz 0.0 1.0\n")
    d = write(tmp_path / "d.txt", "x 1.0 0.0 0.0\ny 0.0 1.0 0.0\n")
    fa = load_embeddings(a)[0].fingerprint()
    fb = load_embeddings(b)[0].fingerprint()
    fc = load_embeddings(c)[0].fingerprint()
    fd = load_embeddings(d)[0].fingerprint()
    assert fa == fb
    assert fa != fc  # different word list
    assert fa != fd  # different dimension
    assert fa["dim"] == 2 and isinstance(fa["sha256"], str)


def test_tokenize_lowercase_and_empty():
    class FakeVocab:
        def lookup(self, w):
            return {"abc": 0}.get(w, OOV_ID)

    doc = tokenize_and_encode("ABC", FakeVocab(), lowercase=True)
    assert doc.token_ids == [0] and doc.raw_tokens == ["abc"]
    with pytest.raises(ValueError, match="empty document"):
        tokenize_and_encode("   ", FakeVocab())


def test_read_dataset_happy_path(tmp_path):
    emb = write(tmp_path / "emb.txt", "hi 1.0 0.0\nthere 0.0 1.0\n")
    vocab, _ = load_embeddings(emb)
    data = write(tmp_path / "d.tsv", "1\thi there\n\n0\tthere hi hi\n")
    docs = read_dataset(data, vocab)
    assert [d.label for d in docs] == [1, 0]
    assert [d.doc_id for d in docs] == [0, 1]
    assert docs[1].raw_tokens == ["there", "hi", "hi"]
    assert docs[0].token_ids == [0, 1]
    assert len(docs[0]) == 2


def test_read_dataset_errors_carry_location(tmp_path):
    emb = write(tmp_path / "emb.txt", "hi 1.0 0.0\n")
    vocab, _ = load_embeddings(emb)
    missing_tab = write(tmp_path / "a.tsv", "1 hi\n")
    with pytest.raises(ValueError, match=r"a\.tsv:1.*label<TAB>text"):
        read_dataset(missing_tab, vocab)
    bad_label = write(tmp_path / "b.tsv", "pos\thi\n")
    with pytest.raises(ValueError, match=r"b\.tsv:1.*not an integer"):
        read_dataset(bad_label, vocab)
    negative = write(tmp_path / "c.tsv", "-1\thi\n")
    with pytest.raises(ValueError, match=r"c\.tsv:1.*non-negative"):
        read_dataset(negative, vocab)
    empty_text = write(tmp_path / "d.tsv", "1\t   \n")
    with pytest.raises(ValueError, match=r"d\.tsv:1"):
        read_dataset(empty_text, vocab)
    empty_file = write(tmp_path / "e.tsv", "\n")
    with pytest.raises(ValueError, match="no documents"):
        read_dataset(empty_file, vocab)


def test_read_dataset_lowercase_flag(tmp_path):
    emb = write(tmp_path / "emb.txt", "hi 1.0 0.0\n")
    vocab, _ = load_embeddings(emb)
    data = write(tmp_path / "d.tsv", "1\tHI\n")
    assert read_dataset(data, vocab)[0].token_ids == [OOV_ID]
    assert read_dataset(data, vocab, lowercase=True)[0].token_ids == [0]


def test_normalize_rows_keeps_zero_rows():
    out = normalize_rows(np.array([[3.0, 4.0], [0.0, 0.0]]))
    assert np.allclose(out[0], [0.6, 0.8])
    assert out[1].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("row", ["1e200 1.0", "1e-170 1e-170", "1e-160 1e-160"])
def test_load_embeddings_normalizes_rows_with_extreme_components(tmp_path, row):
    # each row's sum of squares overflows, vanishes or is subnormal
    _, emb = load_embeddings(write(tmp_path / "emb.txt", f"a {row}\n"))
    x, out = np.array(row.split(), dtype=float), emb.vectors[0]
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-15
    # the same direction; neither product overflows
    assert np.allclose(out * np.abs(x).max(), x * np.abs(out).max(), rtol=1e-15, atol=0.0)


def test_normalize_rows_divides_every_other_row_by_its_norm_bitwise():
    # rows whose sum of squares is a normal float, components near 1e+-150
    # included; the norm is numpy's reduction along axis 1 (a single row's
    # np.linalg.norm goes through dot and may round otherwise)
    rng = np.random.default_rng(3)
    scales = np.concatenate([10.0 ** rng.uniform(-150, 150, 200), [1e150, 1e-150]])
    x = rng.normal(size=(len(scales), 50)) * scales[:, None]
    expect = x / np.linalg.norm(x, axis=1, keepdims=True)
    assert normalize_rows(x).tobytes() == expect.tobytes()
