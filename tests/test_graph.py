"""Tests for the co-occurrence graph and the label-side GCN."""

import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from xmtc.corpus import DocumentRecord, LabelCatalog, build_vocab
from xmtc import graph as graph_module
from xmtc.encoder import EncoderConfig
from xmtc.errors import DataError, ShapeError
from xmtc.graph import (
    GcnParams,
    build_cooccurrence,
    conditional_pairs,
    descriptor_average_matrix,
    gcn_forward,
    init_gcn_params,
    load_graph,
    save_graph,
)
from xmtc.model import model_from_artifacts
from xmtc.tensor import GradTape, Tensor, matmul, mul, spmm

from oracles import (
    conditional_prob_matrix,
    csr_propagation,
    dense_descriptor_matrix,
    dense_entries,
    dense_label_representations,
    dense_propagation,
    grad_check,
    graph_from_dense,
    tensor_sum,
)


def docs_from_label_sets(label_sets):
    return [
        DocumentRecord(doc_id=f"d{i}", tokens=[2], labels=set(labels))
        for i, labels in enumerate(label_sets)
    ]


class TestBuildCooccurrence:
    def test_hand_counted_probabilities(self):
        # docs {a,b}, {a,b}, {b}: P(b|a)=1, P(a|b)=2/3
        label_lists = [[0, 1], [0, 1], [1]]
        docs = docs_from_label_sets(label_lists)
        g = build_cooccurrence(docs, 2, lam=1.0)
        cond = dense_entries(conditional_pairs(label_lists, label_lists, 2), 2)
        np.testing.assert_allclose(cond[0, 1], 1.0)
        np.testing.assert_allclose(cond[1, 0], 2 / 3)
        assert g.adjacency[0, 1] == 1.0
        assert g.adjacency[1, 0] == 0.0

    def test_lower_threshold_flips_edge(self):
        docs = docs_from_label_sets([{0, 1}, {0, 1}, {1}])
        g = build_cooccurrence(docs, 2, lam=0.5)
        assert g.adjacency[1, 0] == 1.0

    def test_single_doc_identity_rows(self):
        g = build_cooccurrence(docs_from_label_sets([{0}]), 3, lam=1.0)
        np.testing.assert_array_equal(g.adjacency, np.eye(3))

    def test_matches_counting_oracle_on_random_corpora(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            num_labels = int(rng.integers(2, 8))
            n_docs = int(rng.integers(1, 25))
            label_sets = [
                set(rng.choice(num_labels, size=int(rng.integers(1, num_labels + 1)),
                               replace=False).tolist())
                for _ in range(n_docs)
            ]
            lam = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            docs = docs_from_label_sets(label_sets)
            g = build_cooccurrence(docs, num_labels, lam=lam)
            cond = conditional_prob_matrix(label_sets, num_labels)
            label_lists = [sorted(s) for s in label_sets]
            np.testing.assert_allclose(
                dense_entries(conditional_pairs(label_lists, label_lists, num_labels),
                              num_labels),
                cond, atol=1e-12)
            seen = np.array([any(i in s for s in label_sets) for i in range(num_labels)])
            expect = np.where(cond >= lam, 1.0, 0.0)
            expect[~seen] = 0.0
            np.fill_diagonal(expect, 1.0)
            np.testing.assert_array_equal(g.adjacency, expect)

    def test_lambda_one_edges_are_certified(self):
        """Every off-diagonal 1-entry at lam=1 has no counterexample doc."""
        rng = np.random.default_rng(13)
        label_sets = [
            set(rng.choice(6, size=int(rng.integers(1, 4)), replace=False).tolist())
            for _ in range(40)
        ]
        g = build_cooccurrence(docs_from_label_sets(label_sets), 6, lam=1.0)
        adjacency = g.adjacency
        for i in range(6):
            for j in range(6):
                if i != j and adjacency[i, j] == 1.0:
                    assert not any(i in s and j not in s for s in label_sets)

    def test_label_outside_catalog(self):
        with pytest.raises(DataError):
            build_cooccurrence(docs_from_label_sets([{5}]), 3)

    def test_pair_count_counts_upper_triangle(self):
        docs = docs_from_label_sets([{0, 1}, {0, 1}])
        g = build_cooccurrence(docs, 2, lam=1.0)
        assert g.pair_count == 1

    def test_save_load_roundtrip(self, tmp_path):
        docs = docs_from_label_sets([{0, 1}, {1, 2}, {2}])
        g = build_cooccurrence(docs, 3, lam=0.5)
        path = tmp_path / "graph.txt"
        save_graph(g, path)
        loaded = load_graph(path, 3)
        assert loaded.lam == 0.5
        assert loaded.pair_count == g.pair_count
        assert g.adjacency.dtype == loaded.adjacency.dtype == bool
        np.testing.assert_array_equal(loaded.adjacency, g.adjacency)

    @pytest.mark.parametrize("cut", [1, 2])
    def test_file_cut_short_in_its_last_row_is_data_error(self, tmp_path, cut):
        """Label 3's row is "3 0", "3 2", "3 3": every line of it is on or
        below the diagonal, so cutting it leaves the pair count right."""
        docs = docs_from_label_sets([{0, 1}, {1, 2}, {2, 3}, {3, 0}])
        g = build_cooccurrence(docs, 4, lam=0.5)
        path = tmp_path / "graph.txt"
        save_graph(g, path)
        lines = path.read_text().splitlines(keepends=True)
        assert lines[-3:] == ["3 0\n", "3 2\n", "3 3\n"]
        path.write_text("".join(lines[:-cut]))
        with pytest.raises(DataError, match=f"{path}: no diagonal line for label 3$"):
            load_graph(path, 4)

    @pytest.mark.parametrize("line", ["-1 0", "0 3", "0 x", "0 1 2"])
    def test_malformed_coordinate_is_data_error(self, tmp_path, line):
        # "-1 0" would index from the end and pass the pair-count check
        path = tmp_path / "graph.txt"
        path.write_text(f"# xmtc-graph v1\n3 1.0 0\n0 0\n{line}\n")
        with pytest.raises(DataError, match=f"{path}:4: "):
            load_graph(path, 3)

    @pytest.mark.parametrize("comment, line", [(True, 2), (False, 1)])
    def test_malformed_header_names_its_line(self, tmp_path, comment, line):
        path = tmp_path / "graph.txt"
        path.write_text(("# xmtc-graph v1\n" if comment else "") + "3 x 0\n0 0\n")
        with pytest.raises(DataError, match=f"{path}:{line}: malformed graph header"):
            load_graph(path, 3)

    @pytest.mark.parametrize("count", [2, 4, -1])
    def test_label_count_other_than_catalog_is_data_error(self, tmp_path, count):
        path = tmp_path / "graph.txt"
        path.write_text(f"# xmtc-graph v1\n{count} 1.0 0\n0 0\n")
        with pytest.raises(DataError, match=f"{count} labels"):
            load_graph(path, 3)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 50), st.data())
    def test_fuzzed_file_loads_or_is_data_error(self, num_labels, data):
        header = data.draw(st.one_of(
            st.text(max_size=12),
            st.builds(lambda n, lam, pairs: f"{n} {lam} {pairs}",
                      st.sampled_from([num_labels, num_labels + 1, -1, 0]),
                      st.sampled_from(["1.0", "0.5", "x"]), st.integers(-1, 4)),
        ))
        coords = data.draw(st.lists(st.one_of(
            st.text(max_size=6),
            st.builds(lambda i, j: f"{i} {j}", st.integers(-2, num_labels + 1),
                      st.integers(-2, num_labels + 1)),
        ), max_size=8))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.txt"
            path.write_text("\n".join(["# xmtc-graph v1", header, *coords]) + "\n")
            try:
                g = load_graph(path, num_labels)
            except DataError:
                return
        assert g.adjacency.shape == (num_labels, num_labels)
        assert g.pair_count == int(np.triu(g.adjacency, k=1).sum())


class TestLabelFeatures:
    def _setup(self):
        vocab = build_vocab([["red", "blue", "green", "mixy"]], min_count=1)
        catalog = LabelCatalog(
            ["l1", "l2", "l3"],
            ["red blue", "green", ""],
        )
        return vocab, catalog

    def test_two_token_descriptor_averages(self):
        vocab, catalog = self._setup()
        dim = 2
        table = Tensor(np.zeros((len(vocab), dim)))
        table.data[vocab.token_to_id["red"]] = [1.0, 0.0]
        table.data[vocab.token_to_id["blue"]] = [0.0, 1.0]
        features = spmm(descriptor_average_matrix(catalog, vocab), table)
        np.testing.assert_allclose(features.data[0], [0.5, 0.5])

    def test_single_token_descriptor_verbatim(self):
        vocab, catalog = self._setup()
        table = Tensor(np.arange(len(vocab) * 3, dtype=float).reshape(len(vocab), 3))
        features = spmm(descriptor_average_matrix(catalog, vocab), table)
        np.testing.assert_array_equal(
            features.data[1], table.data[vocab.token_to_id["green"]]
        )

    def test_empty_descriptor_zero_row_and_warning(self, caplog):
        vocab, catalog = self._setup()
        table = Tensor(np.ones((len(vocab), 2)))
        with caplog.at_level(logging.WARNING, logger="xmtc.graph"):
            features = spmm(descriptor_average_matrix(catalog, vocab), table)
        np.testing.assert_array_equal(features.data[2], [0.0, 0.0])
        assert any("l3" in rec.message for rec in caplog.records)

    def test_mean_matches_direct_oracle(self):
        rng = np.random.default_rng(21)
        tokens = ["aa", "bb", "cc", "dd", "ee"]
        vocab = build_vocab([tokens], min_count=1)
        catalog = LabelCatalog(["l1"], ["aa bb cc dd ee"])
        table = Tensor(rng.standard_normal((len(vocab), 4)))
        features = spmm(descriptor_average_matrix(catalog, vocab), table)
        direct = np.mean([table.data[vocab.token_to_id[t]] for t in tokens], axis=0)
        np.testing.assert_allclose(features.data[0], direct, atol=1e-12)

    def test_duplicate_tokens_weighted_per_occurrence(self):
        vocab = build_vocab([["aa", "bb"]], min_count=1)
        catalog = LabelCatalog(["l1"], ["aa aa bb"])
        s = descriptor_average_matrix(catalog, vocab)
        assert s[0, vocab.token_to_id["aa"]] == pytest.approx(2 / 3)
        assert s[0, vocab.token_to_id["bb"]] == pytest.approx(1 / 3)


class TestGcn:
    def test_identity_propagation(self):
        g = graph_from_dense(np.eye(3))
        v = Tensor(np.abs(np.random.default_rng(0).standard_normal((3, 4))))
        params = GcnParams(w1=Tensor(np.eye(4)), w2=Tensor(np.eye(4)))
        out = gcn_forward(g, v, params)
        np.testing.assert_allclose(out.data, v.data, atol=1e-12)

    def test_one_layer_path_graph_matches_dense_oracle(self):
        # 3-node path, both layers checked by direct arithmetic
        adj = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        g = graph_from_dense(adj, lam=0.0, pair_count=2)
        rng = np.random.default_rng(5)
        v = rng.standard_normal((3, 2))
        w1 = rng.standard_normal((2, 2))
        w2 = rng.standard_normal((2, 2))
        params = GcnParams(w1=Tensor(w1), w2=Tensor(w2))
        out = gcn_forward(g, Tensor(v), params)
        a_hat = csr_propagation(adj)
        h1 = np.maximum(a_hat @ v @ w1, 0.0)
        expect = a_hat @ h1 @ w2
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_self_loop_row_norm(self):
        adj = np.array([[1.0, 1.0], [0.0, 1.0]])
        norm = graph_from_dense(adj).propagation.toarray()
        np.testing.assert_allclose(norm.sum(axis=1), 1.0)
        np.testing.assert_allclose(norm[0], [2 / 3, 1 / 3])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = 5
            adj = (rng.random((n, n)) < 0.4).astype(float)
            np.fill_diagonal(adj, 1.0)
            v = rng.standard_normal((n, 3))
            params = init_gcn_params(3, rng)
            g = graph_from_dense(adj)
            base = gcn_forward(g, Tensor(v), params).data

            perm = rng.permutation(n)
            g_p = graph_from_dense(adj[np.ix_(perm, perm)])
            permuted = gcn_forward(g_p, Tensor(v[perm]), params).data
            np.testing.assert_allclose(permuted, base[perm], atol=1e-10)

    def test_gradients_through_both_layers_and_features(self):
        rng = np.random.default_rng(41)
        adj = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        g = graph_from_dense(adj, pair_count=2)
        table = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        s = np.abs(rng.standard_normal((3, 6)))
        params = init_gcn_params(3, rng)

        def op(tbl, w1, w2):
            feats = matmul(Tensor(s), tbl)
            return gcn_forward(g, feats, GcnParams(w1=w1, w2=w2))

        report = grad_check(op, [table, params.w1, params.w2], tol=1e-4)
        assert report.passed, report

    def test_feature_row_mismatch(self):
        g = graph_from_dense(np.eye(2))
        params = GcnParams(w1=Tensor(np.eye(3)), w2=Tensor(np.eye(3)))
        with pytest.raises(ShapeError):
            gcn_forward(g, Tensor(np.ones((5, 3))), params)


class TestPropagationCache:
    def _model(self, variant):
        catalog = LabelCatalog(["a", "b", "c"], ["alpha beta", "beta", "gamma"])
        vocab = build_vocab([["alpha", "beta", "gamma"]], min_count=1)
        adj = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        g = graph_from_dense(adj, pair_count=1)
        return model_from_artifacts(vocab, catalog, g, dim=4, variant=variant,
                                    encoder_config=EncoderConfig(kernel_size=3, rates=(1,)))

    def _count_calls(self, monkeypatch):
        calls = []
        real = graph_module.normalize_adjacency

        def counting(*edges):
            calls.append(1)
            return real(*edges)

        monkeypatch.setattr(graph_module, "normalize_adjacency", counting)
        return calls

    def test_label_side_normalizes_adjacency_once(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        m = self._model("full")
        assert len(calls) == 0  # built on first use, not with the model
        first = m.label_representations().data
        second = m.label_representations().data
        assert len(calls) == 1
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(m.graph.propagation.toarray(),
                                      csr_propagation(m.graph.adjacency).toarray())

    def test_no_label_feature_never_normalizes(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        m = self._model("no_label_feature")
        m.label_representations()
        assert len(calls) == 0


class TestSparseLabelSide:
    """The CSR label side against the dense construction it replaced."""

    def _catalog(self):
        vocab = build_vocab([["aa", "bb", "cc", "dd", "ee", "ff"]], min_count=1)
        catalog = LabelCatalog(
            [f"l{i}" for i in range(7)],
            ["aa aa bb", "", "cc", "dd ee ff aa", "zz aa", "bb bb bb", "ee ff"],
        )
        return vocab, catalog

    def _adjacency(self, n, seed):
        rng = np.random.default_rng(seed)
        adj = (rng.random((n, n)) < 0.3).astype(float)
        np.fill_diagonal(adj, 1.0)
        return adj

    def test_descriptor_matrix_equals_dense_construction(self):
        vocab, catalog = self._catalog()
        s = descriptor_average_matrix(catalog, vocab)
        assert sp.isspmatrix_csr(s)
        dense = dense_descriptor_matrix(catalog, vocab)
        assert np.array_equal(s.toarray(), dense)
        assert not dense[1].any()  # the empty descriptor's row

    def test_propagation_equals_dense_row_normalization(self):
        for seed in range(3):
            adj = self._adjacency(9, seed)
            if seed == 2:
                adj[4, 4] = 0.0  # a node without a stored self loop
            a_hat = graph_from_dense(adj).propagation
            assert sp.isspmatrix_csr(a_hat)
            assert np.array_equal(a_hat.toarray(), dense_propagation(adj))

    def test_bool_adjacency_propagation_bit_equal_to_float64(self):
        rng = np.random.default_rng(17)
        adj = rng.random((40, 40)) < 0.1
        np.fill_diagonal(adj, True)
        adj[[3, 21, 39]] = False  # labels whose rows are empty, self loop included
        got = graph_from_dense(adj).propagation
        ref = csr_propagation(adj.astype(np.float64))
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(ref, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part
        assert got.getrow(21).nnz == 1  # the self loop D^-1 (A + I) adds

    def test_label_representations_and_gradients_match_dense_oracle(self):
        vocab, catalog = self._catalog()
        g = graph_from_dense(self._adjacency(len(catalog), 11))
        m = model_from_artifacts(vocab, catalog, g, dim=5, seed=3,
                                 encoder_config=EncoderConfig(kernel_size=3, rates=(1,)))
        probe = Tensor(np.random.default_rng(4).standard_normal((len(catalog), 5)))
        params = (m.embedding, m.gcn.w1, m.gcn.w2)

        def run(label_side):
            m.params.zero_grads()
            with GradTape() as tape:
                out = label_side()
                tape.backward(tensor_sum(mul(out, probe)))
            return out.data, [p.grad.copy() for p in params]

        out, grads = run(m.label_representations)
        ref_out, ref_grads = run(lambda: dense_label_representations(m, catalog, vocab))
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        for got, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_many_labels_keep_sparse_operators(self):
        num_labels, num_words = 3000, 500
        words = ["w" + "".join("abcdefghij"[int(c)] for c in str(i)) for i in range(num_words)]
        vocab = build_vocab([words], min_count=1)
        descriptors = [f"{words[i % num_words]} {words[(7 * i + 3) % num_words]}"
                       for i in range(num_labels)]
        catalog = LabelCatalog([f"c{i}" for i in range(num_labels)], descriptors)
        adj = np.eye(num_labels)
        rng = np.random.default_rng(8)
        adj[rng.integers(0, num_labels, 2000), rng.integers(0, num_labels, 2000)] = 1.0
        edges = int(adj.sum() - np.trace(adj))
        g = graph_from_dense(adj)
        m = model_from_artifacts(vocab, catalog, g, dim=4,
                                 encoder_config=EncoderConfig(kernel_size=3, rates=(1,)))
        assert m.label_representations().shape == (num_labels, 4)
        distinct = sum(len(set(d.split())) for d in descriptors)
        assert sp.issparse(m.feature_matrix) and m.feature_matrix.nnz == distinct
        assert sp.issparse(g.propagation) and g.propagation.nnz == edges + num_labels


class TestEdgeList:
    """The graph keeps its edges only; its propagation and its dense view
    are those the dense [L, L] adjacency gave."""

    def _label_sets(self, seed, num_labels=30, n_docs=80):
        rng = np.random.default_rng(seed)
        return [set(rng.choice(num_labels, size=int(rng.integers(1, 6)), replace=False).tolist())
                for _ in range(n_docs)]

    def _graph(self, kind, tmp_path):
        if kind in ("built", "loaded"):
            g = build_cooccurrence(docs_from_label_sets(self._label_sets(5)), 30, lam=0.5)
            if kind == "loaded":
                save_graph(g, tmp_path / "graph.txt")
                g = load_graph(tmp_path / "graph.txt", 30)
            return g
        rng = np.random.default_rng(6)
        adj = rng.random((30, 30)) < 0.15
        adj[[4, 17]] = False  # rows with no entry at all
        np.fill_diagonal(adj, False)
        if kind == "dense_half_diagonal":
            adj[np.arange(0, 30, 2), np.arange(0, 30, 2)] = True
        return graph_from_dense(adj)

    @pytest.mark.parametrize("kind", ["built", "loaded", "dense_without_diagonal",
                                      "dense_half_diagonal"])
    def test_propagation_bytes_equal_to_csr_sum(self, tmp_path, kind):
        """A dense matrix with its diagonal is
        ``TestSparseLabelSide.test_bool_adjacency_propagation_bit_equal_to_float64``."""
        g = self._graph(kind, tmp_path)
        loops = np.count_nonzero(g.rows == g.cols)
        assert loops == {"dense_without_diagonal": 0, "dense_half_diagonal": 15}.get(kind, 30)
        got, ref = g.propagation, csr_propagation(g.adjacency)
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(ref, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part

    def test_edges_sorted_distinct_with_every_diagonal(self, tmp_path):
        g = self._graph("built", tmp_path)
        assert g.rows.dtype == g.cols.dtype == np.int64
        assert (np.diff(g.rows * g.num_labels + g.cols) > 0).all()
        assert np.array_equal(g.rows[g.rows == g.cols], np.arange(g.num_labels))

    def test_load_sorts_and_merges_repeated_lines(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# xmtc-graph v1\n3 1.0 1\n2 2\n0 1\n1 1\n0 0\n0 1\n")
        g = load_graph(path, 3)
        assert g.rows.tolist() == [0, 0, 1, 2] and g.cols.tolist() == [0, 1, 1, 2]

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_dense_view_and_its_edge_count(self, lam):
        """The view is the bool matrix the dense build made, and
        ``sum - trace`` over it (perfbench's ``graph.edges``) is the
        brute-force count of off-diagonal edges."""
        label_sets = self._label_sets(7, n_docs=25)
        g = build_cooccurrence(docs_from_label_sets(label_sets), 30, lam=lam)
        adjacency = g.adjacency
        assert adjacency.dtype == bool and adjacency.shape == (30, 30)
        cond = conditional_prob_matrix(label_sets, 30)
        seen = [any(i in s for s in label_sets) for i in range(30)]
        expect = np.eye(30, dtype=bool)
        brute = 0
        for i in range(30):
            for j in range(30):
                if seen[i] and cond[i, j] >= lam:
                    expect[i, j] = True
                    brute += i != j
        np.testing.assert_array_equal(adjacency, expect)
        assert brute > 0
        assert int(adjacency.sum() - np.trace(adjacency)) == brute
