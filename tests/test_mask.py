"""Tests for the auxiliary-knowledge candidate mask machinery."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmtc.corpus import DocumentRecord, LabelCatalog
from xmtc.errors import DataError, ShapeError
from xmtc.mask import (
    AuxMaskIndex,
    DocMask,
    apply_mask,
    build_mask_index,
    load_mask_index,
    make_doc_mask,
    mask_stats,
    save_mask_index,
)
from xmtc.tensor import GradTape, Tensor, tensor_sum

from oracles import dense_row, recount_aux_tables


def doc(doc_id, labels, drg=(), cpt=(), drugs=()):
    return DocumentRecord(
        doc_id=doc_id,
        tokens=[2],
        labels=set(labels),
        aux_codes={"drg": tuple(drg), "cpt": tuple(cpt), "drugs": tuple(drugs)},
    )


def random_docs(rng, n_docs=50, num_labels=8, codes=("A", "B", "C", "D")):
    docs = []
    for i in range(n_docs):
        labels = set(rng.choice(num_labels, size=int(rng.integers(1, 4)), replace=False).tolist())
        picks = {
            term: tuple(c for c in codes if rng.random() < 0.4)
            for term in ("drg", "cpt", "drugs")
        }
        docs.append(doc(f"d{i}", labels, **picks))
    return docs


class TestBuildMaskIndex:
    def test_always_cooccurring_label_included(self):
        docs = [doc("d1", {0}, drugs=["D"]), doc("d2", {0}, drugs=["D"])]
        index = build_mask_index(docs, 2, tau=0.005)
        cand = set(index.candidates("drugs", "D").tolist())
        assert 0 in cand and 1 not in cand

    def test_boundary_is_strict(self):
        # P(label 0 | code) = 1/200 = 0.005 exactly; strict > excludes it
        docs = [doc("d0", {0}, cpt=["C"])] + [doc(f"d{i}", {1}, cpt=["C"]) for i in range(1, 200)]
        index = build_mask_index(docs, 2, tau=0.005)
        cand = set(index.candidates("cpt", "C").tolist())
        assert dense_row(index.probs["cpt"]["C"], 2)[0] == pytest.approx(0.005)
        assert 0 not in cand
        assert 1 in cand

    def test_unseen_code_absent(self):
        index = build_mask_index([doc("d1", {0})], 1)
        assert index.candidates("drg", "nope") is None

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(77)
        docs = random_docs(rng)
        index = build_mask_index(docs, 8)
        recount = recount_aux_tables(docs, 8)
        for term in ("drg", "cpt", "drugs"):
            assert set(index.probs[term]) == set(recount.get(term, {}))
            for code, (pair, total) in recount.get(term, {}).items():
                np.testing.assert_allclose(dense_row(index.probs[term][code], 8), pair / total,
                                           atol=1e-15)

    def test_duplicate_codes_in_one_doc_count_once(self):
        # counting the repeat would give P(0 | X) = 2/3
        docs = [doc("d1", {0}, drg=["X", "X"]), doc("d2", set(), drg=["X"])]
        index = build_mask_index(docs, 1)
        assert dense_row(index.probs["drg"]["X"], 1)[0] == 1 / 2


class TestDocMask:
    def _index(self):
        docs = [
            doc("d1", {0, 1}, drg=["D1"]),
            doc("d2", {1, 2}, cpt=["C1"]),
        ]
        return build_mask_index(docs, 4, tau=0.1)

    def test_no_codes_empty_mask(self):
        index = self._index()
        m = make_doc_mask(doc("q", set()), index)
        assert m.labels == set()
        np.testing.assert_array_equal(m.vec, np.zeros(4))
        assert m.empty

    def test_union_across_terminologies(self):
        index = self._index()
        m = make_doc_mask(doc("q", set(), drg=["D1"], cpt=["C1"]), index)
        assert m.labels == {0, 1, 2}

    def test_unknown_code_skipped(self):
        index = self._index()
        m = make_doc_mask(doc("q", set(), drugs=["unknown"]), index)
        assert m.labels == set()


class TestApplyMask:
    def test_all_ones_is_identity(self):
        h = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
        out = apply_mask(h, DocMask.all_ones(4))
        np.testing.assert_array_equal(out.data, h.data)

    def test_all_zeros(self):
        h = Tensor(np.ones((4, 3)))
        out = apply_mask(h, DocMask(labels=set(), vec=np.zeros(4)))
        np.testing.assert_array_equal(out.data, np.zeros((4, 3)))

    def test_matches_rowwise_product(self):
        rng = np.random.default_rng(1)
        h = Tensor(rng.standard_normal((6, 5)))
        vec = (rng.random(6) < 0.5).astype(float)
        out = apply_mask(h, DocMask(labels=set(np.nonzero(vec)[0]), vec=vec))
        np.testing.assert_allclose(out.data, h.data * vec[:, None], atol=1e-15)

    def test_gradient_blocked_on_masked_rows(self):
        rng = np.random.default_rng(2)
        h = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        vec = np.array([1.0, 0.0, 1.0, 0.0])
        with GradTape() as tape:
            out = apply_mask(h, DocMask(labels={0, 2}, vec=vec))
            tape.backward(tensor_sum(out))
        np.testing.assert_array_equal(h.grad[1], np.zeros(3))
        np.testing.assert_array_equal(h.grad[3], np.zeros(3))
        np.testing.assert_array_equal(h.grad[0], np.ones(3))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            apply_mask(Tensor(np.ones((4, 2))), DocMask.all_ones(5))


class TestMaskStats:
    def _corpus(self):
        rng = np.random.default_rng(55)
        return random_docs(rng, n_docs=80)

    def test_recall_and_size_from_definition(self):
        docs = self._corpus() + [doc("bare", [0])]  # no codes: an empty mask
        index = build_mask_index(docs, 8, tau=0.2)
        stats = mask_stats(docs, [make_doc_mask(d, index) for d in docs])
        covered = total = empty = 0
        sizes = []
        for d in docs:
            m = make_doc_mask(d, index)
            sizes.append(len(m.labels))
            covered += len(d.labels & m.labels)
            total += len(d.labels)
            empty += not m.labels
        assert empty >= 1
        assert stats.recall_of_gold == pytest.approx(covered / total)
        assert stats.mean_mask_size == pytest.approx(np.mean(sizes))
        assert stats.mask_fraction == pytest.approx(np.mean(sizes) / 8)
        assert stats.empty_docs == empty

    def test_monotone_in_tau(self):
        docs = self._corpus()
        index = build_mask_index(docs, 8)
        taus = np.linspace(0.0, 1.0, 11)
        recalls, sizes = [], []
        for tau in taus:
            index.tau = float(tau)
            stats = mask_stats(docs, [make_doc_mask(d, index) for d in docs])
            recalls.append(stats.recall_of_gold)
            sizes.append(stats.mean_mask_size)
        assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(sizes, sizes[1:]))

    def test_tau_one_empties_masks(self):
        docs = self._corpus()
        index = build_mask_index(docs, 8, tau=1.0)
        stats = mask_stats(docs, [make_doc_mask(d, index) for d in docs])
        assert stats.mask_fraction <= 0.05

    def test_candidate_sets_nested_in_tau(self):
        docs = self._corpus()
        index = build_mask_index(docs, 8)
        for term in ("drg", "cpt", "drugs"):
            for code in index.probs[term]:
                index.tau = 0.2
                low = set(index.candidates(term, code).tolist())
                index.tau = 0.6
                high = set(index.candidates(term, code).tolist())
                assert high <= low


class TestMaskIndexIO:
    @pytest.mark.parametrize("header, stamp", [
        ("# xmtc-mask-index v1 config= tau=0.3", ""),
        ("# xmtc-mask-index v1 config=ab tau=0.3", "ab"),
    ])
    def test_stamp_is_read_from_the_header(self, tmp_path, header, stamp):
        path = tmp_path / "mask.tsv"
        path.write_text(header + "\n[drg]\n[cpt]\n[drugs]\n")
        assert load_mask_index(path, LabelCatalog(["c0"], ["x"]))[1] == stamp

    def test_roundtrip_and_rethresholding(self, tmp_path):
        rng = np.random.default_rng(66)
        docs = random_docs(rng, n_docs=40)
        catalog = LabelCatalog([f"c{i}" for i in range(8)], ["x"] * 8)
        index = build_mask_index(docs, 8, tau=0.3)
        path = tmp_path / "mask.tsv"
        save_mask_index(index, catalog, path, config_hash="dead")
        loaded, found = load_mask_index(path, catalog)
        assert found == "dead"
        assert loaded.tau == 0.3
        for term in ("drg", "cpt", "drugs"):
            assert set(loaded.probs[term]) == set(index.probs[term])
            for code in index.probs[term]:
                np.testing.assert_allclose(dense_row(loaded.probs[term][code], 8),
                                           dense_row(index.probs[term][code], 8), atol=1e-15)
        # re-threshold at load time without recounting
        relow, _ = load_mask_index(path, catalog)
        relow.tau = 0.0
        for term in ("drg", "cpt", "drugs"):
            for code in relow.probs[term]:
                assert (set(relow.candidates(term, code).tolist())
                        >= set(loaded.candidates(term, code).tolist()))

    @pytest.mark.parametrize("text, line", [
        ("# xmtc-mask-index v1 config=ab tau=abc\n[drg]\nD\tc0\t0.5\n", 1),
        ("# xmtc-mask-index v1 config=ab tau=0.1\n[drg]\nD\tc0\tmany\n", 3),
        ("# xmtc-mask-index v1 config=ab tau=0.1\n[drg]\nD\tc0\n", 3),
        ("# xmtc-mask-index v1 config=ab tau=0.1\n[drg]\nD\tc0\tnan\n", 3),
        ("# xmtc-mask-index v1 config=ab tau=0.1\n[cpt]\nC\tc0\t0.5\nD\tc0\t1.5\n", 4),
        ("# xmtc-mask-index v1 config=ab tau=0.1\n[drg]\nD\tc0\t-0.25\n", 3),
        ("# xmtc-mask-index v1 config=ab tau=nan\n[drg]\nD\tc0\t0.5\n", 1),
        ("# xmtc-mask-index v1 config=ab tau=1.5\n[drg]\nD\tc0\t0.5\n", 1),
        ("# xmtc-mask-index v1 config=ab tau=1.0\n[drg]\nD\tc0\t0.5\n", 1),
        ("# xmtc-mask-index v1 config=ab tau=-0.1\n[drg]\nD\tc0\t0.5\n", 1),
        ("# xmtc-mask-index v1 config=ab tau=inf\n[drg]\nD\tc0\t0.5\n", 1),
        ("# xmtc-mask-index v1 config=ab tau=0.1\n[drg]\nD\tc0\t0.5\nD\tzz\t0.5\n", 4),
        ("[drg]\nD\tc0\tmany\n", 2),
    ])
    def test_malformed_file_is_data_error_with_line(self, tmp_path, text, line):
        path = tmp_path / "mask.tsv"
        path.write_text(text)
        catalog = LabelCatalog(["c0"], ["x"])
        with pytest.raises(DataError, match=f"mask.tsv:{line}:"):
            load_mask_index(path, catalog)

    def test_index_without_entries_roundtrips(self, tmp_path):
        catalog = LabelCatalog(["c0"], ["x"])
        path = tmp_path / "mask.tsv"
        save_mask_index(build_mask_index([], 1, tau=0.2), catalog, path)
        loaded, _ = load_mask_index(path, catalog)
        assert loaded.tau == 0.2
        assert loaded.probs == {term: {} for term in ("drg", "cpt", "drugs")}

    @pytest.mark.parametrize("body, section", [
        ("", "drg"),
        ("[drg]\nD\tc0\t0.5\n[cpt]\n", "drugs"),
        ("[drugs]\n[drg]\n", "cpt"),
    ], ids=["header-only", "no-drugs", "no-cpt"])
    def test_missing_section_is_data_error(self, tmp_path, body, section):
        """``save_mask_index`` writes every section line, so a file without
        one was cut short or edited."""
        path = tmp_path / "mask.tsv"
        path.write_text("# xmtc-mask-index v1 config=ab tau=0.1\n" + body)
        with pytest.raises(DataError, match=rf"mask.tsv: no \[{section}\] section"):
            load_mask_index(path, LabelCatalog(["c0"], ["x"]))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fuzzed_file_loads_or_is_data_error(self, data):
        header = data.draw(st.one_of(
            st.text(max_size=12),
            st.builds("# xmtc-mask-index v1 config=ab tau={}".format,
                      st.floats().map(repr) | st.sampled_from(["0.1", "0", "1", "x", ""])),
        ))
        body = data.draw(st.lists(st.one_of(
            st.text(max_size=8),
            st.sampled_from(["[drg]", "[cpt]", "[drugs]", "[icd]", ""]),
            st.builds("{}\t{}\t{}".format, st.sampled_from(["D", "C", ""]),
                      st.sampled_from(["c0", "c1", "zz", ""]),
                      st.floats().map(repr) | st.sampled_from(["0.5", "1", "x"])),
        ), max_size=8))
        catalog = LabelCatalog(["c0", "c1"], ["x", "y"])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mask.tsv"
            path.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
            try:
                index, _ = load_mask_index(path, catalog)
            except DataError:
                return
        assert math.isfinite(index.tau) and 0.0 <= index.tau < 1.0
        for per_term in index.probs.values():
            for row in per_term.values():
                p = dense_row(row, 2)
                assert p.shape == (2,)
                assert ((p >= 0.0) & (p <= 1.0)).all()


class TestLeakageGuard:
    def test_eval_labels_never_read_during_build(self):
        """Graph and mask construction touch only the training split."""
        reads = {"count": 0}

        class TripwireDoc(DocumentRecord):
            @property
            def labels(self):
                reads["count"] += 1
                return self._labels

            @labels.setter
            def labels(self, value):
                self._labels = value

        train = [doc(f"t{i}", {i % 3}, drg=["D"]) for i in range(6)]
        evals = [
            TripwireDoc(doc_id=f"e{i}", tokens=[2], labels={0},
                        aux_codes={"drg": ("D",), "cpt": (), "drugs": ()})
            for i in range(4)
        ]
        from xmtc.graph import build_cooccurrence

        build_cooccurrence(train, 3, lam=1.0)
        index = build_mask_index(train, 3)
        assert reads["count"] == 0
        # evaluation-time mask creation may read aux codes but not labels
        for e in evals:
            make_doc_mask(e, index)
        assert reads["count"] == 0
