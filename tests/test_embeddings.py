"""Tests for skip-gram pretraining and embedding file I/O."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmtc.corpus import PAD_ID, build_vocab
from xmtc.embeddings import _subsample_pairs, load_embeddings, save_embeddings, train_skipgram
from xmtc.errors import DataError

from oracles import skipgram_add_at, skipgram_pairs_loop


def clique_corpus(rng, n_docs=120):
    """Two disjoint token cliques; tokens only co-occur within their clique."""
    cliques = [["aa", "bb", "cc", "dd"], ["pp", "qq", "rr", "ss"]]
    docs = []
    for _ in range(n_docs):
        members = cliques[int(rng.integers(0, 2))]
        docs.append([members[int(i)] for i in rng.integers(0, 4, size=12)])
    return docs, cliques


class TestSkipgram:
    def test_clique_structure_separates(self):
        rng = np.random.default_rng(0)
        docs, cliques = clique_corpus(rng)
        vocab = build_vocab(docs, min_count=1)
        mat = train_skipgram([vocab.encode(d) for d in docs], len(vocab),
                             dim=16, window=3, negatives=4, epochs=8, seed=1)

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        ids = [[vocab.token_to_id[t] for t in c] for c in cliques]
        intra, inter = [], []
        for group in ids:
            for i in group:
                for j in group:
                    if i < j:
                        intra.append(cosine(mat[i], mat[j]))
        for i in ids[0]:
            for j in ids[1]:
                inter.append(cosine(mat[i], mat[j]))
        assert np.mean(intra) > np.mean(inter)

    def test_zero_epochs_returns_init(self):
        docs = [[2, 3, 4], [3, 4, 5]]
        a = train_skipgram(docs, 6, dim=8, epochs=0, seed=9)
        b = train_skipgram(docs, 6, dim=8, epochs=0, seed=9)
        np.testing.assert_array_equal(a, b)
        # init is the seeded uniform draw, untouched by any update
        rng = np.random.default_rng(9)
        expect = (rng.random((6, 8)) - 0.5) / 8
        expect[PAD_ID] = 0.0
        np.testing.assert_array_equal(a, expect)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(2)
        docs, _ = clique_corpus(rng, n_docs=30)
        vocab = build_vocab(docs, min_count=1)
        enc = [vocab.encode(d) for d in docs]
        a = train_skipgram(enc, len(vocab), dim=12, epochs=3, seed=5)
        b = train_skipgram(enc, len(vocab), dim=12, epochs=3, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_row_norms_bounded(self):
        rng = np.random.default_rng(3)
        docs, _ = clique_corpus(rng, n_docs=60)
        vocab = build_vocab(docs, min_count=1)
        table = train_skipgram([vocab.encode(d) for d in docs], len(vocab),
                               dim=10, epochs=5, seed=0)
        norms = np.linalg.norm(table, axis=1)
        assert norms.max() <= 100.0

    def test_pad_row_zero(self):
        docs = [[2, 3, 2, 3]]
        table = train_skipgram(docs, 4, dim=6, epochs=2, seed=0)
        np.testing.assert_array_equal(table[PAD_ID], np.zeros(6))

    def test_matches_add_at_oracle_on_cliques(self):
        rng = np.random.default_rng(0)
        docs, _ = clique_corpus(rng)
        vocab = build_vocab(docs, min_count=1)
        enc = [vocab.encode(d) for d in docs]
        kwargs = dict(dim=16, window=3, negatives=4, epochs=5, seed=1)
        got = train_skipgram(enc, len(vocab), **kwargs)
        expect = skipgram_add_at(enc, len(vocab), **kwargs)
        assert np.abs(got - expect).max() <= 1e-12

    def test_matches_add_at_oracle_with_repeated_targets(self):
        # three real tokens and six negatives per pair: every pair draws some
        # token twice among its targets, so CSR rows hold repeated entries
        rng = np.random.default_rng(4)
        enc = [rng.integers(1, 4, size=int(rng.integers(2, 15))).tolist() for _ in range(20)]
        kwargs = dict(dim=5, window=4, negatives=6, epochs=3, seed=7)
        got = train_skipgram(enc, 4, **kwargs)
        expect = skipgram_add_at(enc, 4, **kwargs)
        assert np.abs(got - expect).max() <= 1e-12

    def test_pairs_match_loop_oracle(self):
        rng = np.random.default_rng(21)
        for case in range(300):
            tokens = rng.integers(2, 40, size=int(rng.integers(0, 80)))
            window = int(rng.integers(1, 7))
            fast_rng, loop_rng = np.random.default_rng(case), np.random.default_rng(case)
            got = _subsample_pairs(tokens, window, fast_rng)
            expect = skipgram_pairs_loop(tokens, window, loop_rng)
            for g, e in zip(got, expect):
                assert g.dtype == e.dtype
                np.testing.assert_array_equal(g, e)
            assert fast_rng.random() == loop_rng.random()  # same draws consumed


class TestEmbeddingIO:
    def _vocab(self):
        return build_vocab([["alpha", "beta", "gamma"]], min_count=1)

    def test_roundtrip(self, tmp_path):
        vocab = self._vocab()
        table = (np.random.default_rng(4).random((len(vocab), 8)) - 0.5) / 8
        table[PAD_ID] = 0.0
        path = tmp_path / "emb.txt"
        save_embeddings(table, vocab, path)
        loaded = load_embeddings(path, vocab, 8, seed=4)
        np.testing.assert_array_equal(loaded, table)

    def test_missing_token_gets_seeded_random_row(self, tmp_path):
        vocab = self._vocab()
        path = tmp_path / "emb.txt"
        dim = 4
        with open(path, "w") as fh:
            fh.write(f"2 {dim}\n")
            fh.write("alpha " + " ".join(["0.5"] * dim) + "\n")
            fh.write("beta " + " ".join(["0.25"] * dim) + "\n")
        a = load_embeddings(path, vocab, dim, seed=11)
        b = load_embeddings(path, vocab, dim, seed=11)
        gamma = vocab.token_to_id["gamma"]
        np.testing.assert_array_equal(a[gamma], b[gamma])
        assert not np.allclose(a[gamma], 0.5)
        np.testing.assert_array_equal(a[vocab.token_to_id["alpha"]], [0.5] * dim)

    def test_dimension_mismatch(self, tmp_path):
        vocab = self._vocab()
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nalpha 0.1 0.2 0.3\n")
        with pytest.raises(DataError, match="dimension"):
            load_embeddings(path, vocab, 100, seed=0)

    def test_malformed_line_reports_number(self, tmp_path):
        vocab = self._vocab()
        path = tmp_path / "emb.txt"
        path.write_text("1 100\nalpha 0.1 0.2\n")
        with pytest.raises(DataError, match="2"):
            load_embeddings(path, vocab, 100, seed=0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_is_data_error_with_line(self, tmp_path, value):
        vocab = self._vocab()
        path = tmp_path / "emb.txt"
        path.write_text(f"2 3\nalpha 0.1 0.2 0.3\nbeta 0.1 {value} 0.3\n")
        with pytest.raises(DataError, match="emb.txt:3:"):
            load_embeddings(path, vocab, 3, seed=0)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(
        st.text(max_size=12),
        st.builds(lambda v, d: f"{v} {d}", st.integers(-1, 5), st.integers(0, 4)),
        st.sampled_from(["2 ³", "² 3", "1 ٣"]),  # str.isdigit accepts all three
        st.builds(lambda tok, vals: " ".join([tok, *vals]),
                  st.sampled_from(["<pad>", "alpha", "beta", "zeta", ""]),
                  st.lists(st.sampled_from(["0.5", "-1", "nan", "x", "", "1e999"]),
                           max_size=4)),
    ), max_size=6))
    def test_fuzzed_file_loads_or_is_data_error(self, lines):
        vocab = self._vocab()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "emb.txt"
            path.write_text("\n".join(lines) + "\n")
            try:
                table = load_embeddings(path, vocab, 3, seed=0)
            except DataError:
                return
        assert table.shape == (len(vocab), 3)
        assert np.isfinite(table).all()

    def test_pad_forced_zero(self, tmp_path):
        vocab = self._vocab()
        path = tmp_path / "emb.txt"
        dim = 3
        with open(path, "w") as fh:
            fh.write(f"1 {dim}\n")
            fh.write("<pad> 9.0 9.0 9.0\n")
        table = load_embeddings(path, vocab, dim, seed=0)
        np.testing.assert_array_equal(table[PAD_ID], np.zeros(dim))
