"""Tests for preprocessing, vocabulary, catalogs, and corpus I/O."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmtc.corpus import (
    DocumentRecord,
    LabelCatalog,
    Vocabulary,
    build_vocab,
    encode_documents,
    load_corpus_jsonl,
    load_encoded,
    preprocess,
    save_encoded,
    NUM_TOKEN,
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
)
from xmtc.errors import DataError
from xmtc.graph import build_cooccurrence
from xmtc.mask import build_mask_index

from oracles import reference_preprocess

# pieces of clinical-looking text: words, numbers, mixed tokens, placeholders,
# de-identification spans and letters outside ASCII
_TEXT_PIECES = st.one_of(
    st.text(alphabet="abcXYZ019 .,;:-/()\n\t", max_size=12),
    st.sampled_from(["<num>", "<NUM>", "[**", "**]", "[**Name 12**]", "[** 2110-4-1 **]",
                     "É", "ß", "İ", "éclair", "straße", "İzmir", "4kg", "3A", "007",
                     "K", "\u212a"]),
)


class TestPreprocess:
    def test_mixed_alphanumeric_and_punctuation(self):
        assert preprocess("Pt given 4kg dose, STABLE.") == ["pt", "given", "dose", "stable"]

    def test_empty(self):
        assert preprocess("") == []

    def test_truncation(self):
        tokens = preprocess(" ".join(["word"] * 5000), max_len=4000)
        assert len(tokens) == 4000

    def test_deid_spans_removed(self):
        text = "seen by [**First Name 123**] on [**2110-4-1**] for pain"
        assert preprocess(text) == ["seen", "by", "on", "for", "pain"]

    def test_pure_numbers_become_placeholder(self):
        assert preprocess("bp 120 over 80") == ["bp", NUM_TOKEN, "over", NUM_TOKEN]

    def test_idempotent(self):
        cases = [
            "Pt given 4kg dose, STABLE. bp 120/80 [**Name**]",
            "plain words only",
            "numbers 42 and mixed 3a tokens <num> already",
            "",
        ]
        for text in cases:
            once = preprocess(text)
            twice = preprocess(" ".join(once))
            assert twice == once, text

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_TEXT_PIECES, max_size=30).map("".join),
           st.sampled_from([1, 2, 5, 4000]))
    def test_matches_reference_tokenizer(self, text, max_len):
        assert preprocess(text, max_len=max_len) == reference_preprocess(text, max_len=max_len)


class TestVocabulary:
    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=1)
        assert vocab.token_to_id == {PAD_TOKEN: 0, UNK_TOKEN: 1, "a": 2, "b": 3}

    def test_min_count_drops_rare_tokens(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=2)
        assert "b" not in vocab
        assert vocab.encode(["b"]) == [UNK_ID]

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([], min_count=1)

    def test_byte_identical_saves(self, tmp_path):
        docs = [["gamma", "beta", "beta"], ["alpha", "alpha", "gamma"]]
        paths = []
        for name in ("one.txt", "two.txt"):
            path = tmp_path / name
            build_vocab(docs, min_count=1).save(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocab([["x", "y", "x"]], min_count=1)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.id_to_token == vocab.id_to_token

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.text(max_size=8),
                              st.sampled_from([PAD_TOKEN, UNK_TOKEN, "# config=ab", "x", ""])),
                    max_size=8))
    def test_fuzzed_file_loads_or_is_data_error(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vocab.txt"
            path.write_text("\n".join(lines) + "\n")
            try:
                vocab = Vocabulary.load(path)
            except DataError:
                return
        assert vocab.id_to_token[:2] == [PAD_TOKEN, UNK_TOKEN]
        assert len(vocab.token_to_id) == len(vocab)

    def test_specials_never_collide(self):
        # corpus text cannot produce "<pad>"/"<unk>" because preprocessing
        # strips angle brackets from everything except the <num> placeholder
        tokens = preprocess("a <pad> b <unk> c <num>")
        vocab = build_vocab([tokens], min_count=1)
        assert vocab.token_to_id[PAD_TOKEN] == PAD_ID
        assert vocab.token_to_id[UNK_TOKEN] == UNK_ID
        assert "pad" in vocab and "unk" in vocab and NUM_TOKEN in vocab


class TestLabelCatalog:
    def test_load_and_order(self, tmp_path):
        path = tmp_path / "catalog.tsv"
        path.write_text("c1\tfirst thing\nc2\tsecond thing\n")
        catalog = LabelCatalog.load_tsv(path)
        assert catalog.id_of("c2") == 1
        assert len(catalog) == 2

    def test_unknown_code(self, tmp_path):
        path = tmp_path / "catalog.tsv"
        path.write_text("c1\tdesc\n")
        catalog = LabelCatalog.load_tsv(path)
        with pytest.raises(DataError, match="missing"):
            catalog.id_of("missing")

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "catalog.tsv"
        path.write_text("justonecolumn\n")
        with pytest.raises(DataError, match="1"):
            LabelCatalog.load_tsv(path)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(
        st.text(max_size=10),
        st.builds("\t".join, st.lists(st.sampled_from(["c1", "c2", "", "a b", "#c"]),
                                       max_size=3)),
    ), max_size=8))
    def test_fuzzed_file_loads_or_is_data_error(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "catalog.tsv"
            path.write_text("\n".join(lines) + "\n")
            try:
                catalog = LabelCatalog.load_tsv(path)
            except DataError:
                return
        assert 0 < len(catalog) == len(catalog.code_to_id) == len(catalog.descriptors)


class TestCorpusIO:
    def _write_corpus(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        rows = [
            {"doc_id": "d1", "text": "alpha beta beta", "labels": ["c1"],
             "drg": ["D1"], "cpt": [], "drugs": ["RXx"]},
            {"doc_id": "d2", "text": "beta gamma", "labels": ["c1", "c2"]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return path

    def test_load_encode_roundtrip(self, tmp_path):
        corpus_path = self._write_corpus(tmp_path)
        raw = load_corpus_jsonl(corpus_path)
        catalog = LabelCatalog(["c1", "c2"], ["one", "two"])
        vocab = build_vocab([preprocess(d["text"]) for d in raw], min_count=1)
        records = encode_documents(raw, vocab, catalog)
        assert records[0].labels == {0}
        assert records[0].aux_codes["drugs"] == ("RXx",)
        assert records[1].aux_codes["drg"] == ()
        assert max(max(r.tokens) for r in records) < len(vocab)

        enc_path = tmp_path / "enc.jsonl"
        save_encoded(records, enc_path)
        loaded = load_encoded(enc_path, len(vocab), len(catalog))
        assert [r.doc_id for r in loaded] == ["d1", "d2"]
        assert loaded[1].labels == {0, 1}
        assert loaded[0].tokens == records[0].tokens

    def test_label_outside_catalog_is_ingestion_error(self, tmp_path):
        corpus_path = self._write_corpus(tmp_path)
        raw = load_corpus_jsonl(corpus_path)
        catalog = LabelCatalog(["c1"], ["one"])
        vocab = build_vocab([["alpha"]], min_count=1)
        with pytest.raises(DataError, match="c2"):
            encode_documents(raw, vocab, catalog)

    def test_repeated_raw_doc_id_is_data_error_naming_both_lines(self, tmp_path):
        path = self._write_corpus(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, lines[0]]) + "\n")
        with pytest.raises(DataError, match=r"docs\.jsonl:3: doc_id 'd1' repeats line 1"):
            load_corpus_jsonl(path)
        # ids are compared as ``encode_documents`` names them
        path.write_text('{"doc_id": 7, "text": "a"}\n\n{"doc_id": "7", "text": "b"}\n')
        with pytest.raises(DataError, match=r"docs\.jsonl:3: doc_id '7' repeats line 1"):
            load_corpus_jsonl(path)

    def test_repeated_encoded_doc_id_is_data_error_naming_both_lines(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        save_encoded([DocumentRecord(doc_id=d, tokens=[2], labels={0}) for d in ("d0", "d1")],
                     path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, lines[2]]) + "\n")
        with pytest.raises(DataError, match=r"enc\.jsonl:4: doc_id 'd1' repeats line 3"):
            load_encoded(path, vocab_size=4, num_labels=2)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "d1", "text": "ok"}\nnot json\n')
        with pytest.raises(DataError, match="2"):
            load_corpus_jsonl(path)

    @pytest.mark.parametrize("row", [
        "{bad json",
        '["d1", [2], [0]]',
        '{"doc_id": "d1", "labels": [0]}',
        '{"doc_id": "d1", "tokens": [2]}',
        '{"tokens": [2], "labels": [0]}',
        '{"doc_id": "d1", "tokens": [99999], "labels": [0]}',
        '{"doc_id": "d1", "tokens": [-5], "labels": [0]}',
        '{"doc_id": "d1", "tokens": [2.0], "labels": [0]}',
        '{"doc_id": "d1", "tokens": [2], "labels": [999]}',
        '{"doc_id": "d1", "tokens": [2], "labels": [-1]}',
    ])
    def test_malformed_encoded_row_is_data_error_with_line(self, tmp_path, row):
        path = tmp_path / "enc.jsonl"
        save_encoded([DocumentRecord(doc_id="d0", tokens=[2, 3], labels={1})], path)
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(DataError, match="enc.jsonl:3:"):
            load_encoded(path, vocab_size=4, num_labels=2)

    def test_malformed_encoded_header_is_data_error(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        path.write_text('{"format": "xmtc-enc\n')
        with pytest.raises(DataError, match="enc.jsonl:1:"):
            load_encoded(path, vocab_size=4, num_labels=2)

    @settings(max_examples=150, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
            st.sampled_from(["doc_id", "tokens", "labels", "drg", "cpt", "drugs"]),
            inner, max_size=6),
        max_leaves=8))
    def test_fuzzed_row_loads_in_range_or_is_data_error(self, row):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "enc.jsonl"
            save_encoded([], path)
            path.write_text(path.read_text() + json.dumps(row) + "\n")
            try:
                records = load_encoded(path, vocab_size=4, num_labels=2)
            except DataError:
                return
        (rec,) = records
        assert all(0 <= t < 4 for t in rec.tokens)
        assert rec.labels <= {0, 1}
        assert all(isinstance(c, str) for codes in rec.aux_codes.values() for c in codes)

    @pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\x85"])
    def test_line_break_inside_a_json_string_is_kept(self, tmp_path, brk):
        path = tmp_path / "docs.jsonl"
        row = {"doc_id": "d1", "text": f"alpha{brk}beta"}
        path.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
        assert load_corpus_jsonl(path) == [row]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(
        st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=10),
        st.recursive(
            st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
                st.sampled_from(["doc_id", "text", "labels", "drg", "cpt", "drugs"]),
                inner, max_size=6),
            max_leaves=8),
        st.fixed_dictionaries(
            {"doc_id": st.text(max_size=3), "text": st.text(max_size=12)},
            optional={key: st.lists(st.text(max_size=3), max_size=2)
                      for key in ("labels", "drg", "cpt", "drugs")}),
    ).map(lambda row: row if isinstance(row, str) else json.dumps(row, ensure_ascii=False)),
        max_size=6))
    def test_fuzzed_raw_corpus_loads_or_is_data_error(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "docs.jsonl"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                docs = load_corpus_jsonl(path)
            except DataError:
                return
        rows = [json.loads(line) for line in lines if line.strip()]
        assert json.dumps(docs) == json.dumps(rows)  # every row, as written
        for doc in docs:
            assert isinstance(doc["text"], str)
            for key in ("labels", "drg", "cpt", "drugs"):
                assert all(isinstance(v, str) for v in doc.get(key, []))

    def test_label_vector(self):
        doc = DocumentRecord(doc_id="d", tokens=[2, 3], labels={1, 3})
        np.testing.assert_array_equal(doc.label_vector(5), [0, 1, 0, 1, 0])

    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("count", [
        lambda docs: docs[0].label_vector(4),
        lambda docs: build_cooccurrence(docs, 4),
        lambda docs: build_mask_index(docs, 4),
    ], ids=["label_vector", "build_cooccurrence", "build_mask_index"])
    def test_label_id_outside_catalog_is_data_error(self, count, bad):
        """-1 would silently set the last entry; L would index past the end."""
        doc = DocumentRecord(doc_id="d7", tokens=[2], labels={1, bad})
        with pytest.raises(DataError, match=f"document d7: label id {bad} outside catalog"):
            count([doc])
