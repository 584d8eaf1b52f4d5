"""The set-up pair counter against a double loop, and the numpy set-up
counters against the CSR counting they replaced.

``graph.conditional_pairs`` gives P(column | row) of label pairs for the
co-occurrence graph and of (code, label) pairs for the mask index;
``oracles.csr_cooccurrence`` and ``oracles.csr_mask_tables`` count the same
corpora through sparse products.  Every count and every probability must be
equal, not merely close.
"""

from dataclasses import fields

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmtc.corpus import TERMINOLOGIES, DocumentRecord, LabelCatalog
from xmtc.graph import build_cooccurrence, conditional_pairs, load_graph, save_graph
from xmtc.mask import build_mask_index, load_mask_index, save_mask_index

from oracles import csr_cooccurrence, csr_mask_tables, dense_entries

LAMS = [1e-12, 0.25, 0.5, 2 / 3, 1.0, 1.5]


@st.composite
def corpora(draw):
    """(num_labels, documents): up to 8 labels and 25 documents; a document
    may have no labels, and a code may repeat within a document."""
    num_labels = draw(st.integers(1, 8))
    code = st.sampled_from(["a", "b", "c", "d"])
    docs = [
        DocumentRecord(doc_id=f"d{i}", tokens=[2], labels=labels,
                       aux_codes={t: tuple(draw(st.lists(code, max_size=4)))
                                  for t in TERMINOLOGIES})
        for i, labels in enumerate(draw(st.lists(
            st.sets(st.integers(0, num_labels - 1)), max_size=25)))
    ]
    return num_labels, docs


def no_docs():
    return 3, []


def unlabelled_docs():
    docs = [DocumentRecord(doc_id=f"d{i}", tokens=[2], labels=set(),
                           aux_codes={"drg": ("a",), "cpt": ("b", "b"), "drugs": ()})
            for i in range(3)]
    return 4, docs


def one_label():
    docs = [DocumentRecord(doc_id=f"d{i}", tokens=[2], labels=labels,
                           aux_codes={"drg": ("a",), "cpt": (), "drugs": ("c",)})
            for i, labels in enumerate([{0}, set(), {0}])]
    return 1, docs


def unseen_labels():
    docs = [DocumentRecord(doc_id=f"d{i}", tokens=[2], labels=labels,
                           aux_codes={"drg": ("a",), "cpt": ("b",), "drugs": ()})
            for i, labels in enumerate([{1, 4}, {4}, {1, 4, 6}])]
    return 8, docs


def repeated_and_unlabelled_codes():
    """A code listed twice in one record, and a code whose only record
    carries no labels."""
    docs = [DocumentRecord(doc_id=f"d{i}", tokens=[2], labels=labels,
                           aux_codes={"drg": codes, "cpt": (), "drugs": ()})
            for i, (labels, codes) in enumerate([({0}, ("x", "x")), (set(), ("x", "y"))])]
    return 2, docs


CASES = [no_docs(), unlabelled_docs(), one_label(), unseen_labels(),
         repeated_and_unlabelled_codes()]


def over_corpora(test):
    for corpus in CASES:
        for lam in (LAMS[0], LAMS[-1]):
            test = example(corpus=corpus, lam=lam)(test)
    return settings(max_examples=150, deadline=None)(
        given(corpus=corpora(), lam=st.sampled_from(LAMS))(test))


def over_corpora_alone(test):
    for corpus in CASES:
        test = example(corpus=corpus)(test)
    return settings(max_examples=150, deadline=None)(given(corpus=corpora())(test))


def assert_pairs_equal_double_loop(row_lists, col_lists, num_cols):
    rows, cols, p = conditional_pairs(row_lists, col_lists, num_cols)
    expect, docs_of = {}, {}
    for row_ids, col_ids in zip(row_lists, col_lists):
        for r in row_ids:
            docs_of[r] = docs_of.get(r, 0) + 1
            for c in col_ids:
                expect[r, c] = expect.get((r, c), 0) + 1
    assert rows.dtype == cols.dtype == np.int64
    assert p.dtype == np.float64
    assert list(zip(rows.tolist(), cols.tolist())) == sorted(expect)
    assert p.tolist() == [expect[r, c] / docs_of[r] for r, c in sorted(expect)]


@over_corpora_alone
def test_conditional_pairs_equals_double_loop(corpus):
    """Both uses of the counter: label x label for the graph, and each
    record's distinct codes x its labels for the mask index."""
    num_labels, docs = corpus
    label_lists = [doc.label_ids(num_labels) for doc in docs]
    assert_pairs_equal_double_loop(label_lists, label_lists, num_labels)
    for term in TERMINOLOGIES:
        row_of = {}
        code_rows = [[row_of.setdefault(code, len(row_of))
                      for code in dict.fromkeys(doc.aux_codes[term])] for doc in docs]
        assert_pairs_equal_double_loop(code_rows, label_lists, num_labels)


@over_corpora
def test_cooccurrence_equals_csr_count(corpus, lam):
    num_labels, docs = corpus
    g = build_cooccurrence(docs, num_labels, lam=lam)
    adj, cond, pair_count = csr_cooccurrence(docs, num_labels, lam=lam)
    label_lists = [doc.label_ids(num_labels) for doc in docs]
    rows, cols, values = conditional_pairs(label_lists, label_lists, num_labels)
    np.testing.assert_array_equal(g.adjacency, adj)
    np.testing.assert_array_equal(dense_entries((rows, cols, values), num_labels),
                                  cond.toarray())
    assert values.size == cond.nnz
    assert g.pair_count == pair_count


@over_corpora
def test_mask_index_equals_csr_count(corpus, lam):
    num_labels, docs = corpus
    index = build_mask_index(docs, num_labels, tau=lam)
    tables = csr_mask_tables(docs, num_labels)
    for term in TERMINOLOGIES:
        # a code seen only on records without labels has an empty CSR row
        # and no index row
        assert index.probs[term].keys() == {code for code, (ids, _) in tables[term].items()
                                            if ids.size}
        for code, (ids, prob) in tables[term].items():
            if not ids.size:
                assert index.candidates(term, code) is None
                continue
            got_ids, got_prob = index.probs[term][code]
            assert (np.diff(got_ids) > 0).all()
            assert got_prob.dtype == np.float64
            np.testing.assert_array_equal(got_ids, ids)
            np.testing.assert_array_equal(got_prob, prob)


def test_mask_index_file_is_unchanged(tmp_path):
    """The saved index is the same bytes as one written from the CSR rows."""
    rng = np.random.default_rng(15)
    num_labels = 12
    catalog = LabelCatalog([f"L{i}" for i in range(num_labels)], ["x"] * num_labels)
    docs = [DocumentRecord(doc_id=f"d{i}", tokens=[2],
                           labels=set(rng.choice(num_labels, size=int(rng.integers(0, 5)),
                                                 replace=False).tolist()),
                           aux_codes={t: tuple(rng.choice(list("abcdefg"), size=3).tolist())
                                      for t in TERMINOLOGIES})
            for i in range(60)]
    index = build_mask_index(docs, num_labels, tau=0.1)
    save_mask_index(index, catalog, tmp_path / "numpy.tsv", config_hash="c")
    index.probs = csr_mask_tables(docs, num_labels)
    save_mask_index(index, catalog, tmp_path / "csr.tsv", config_hash="c")
    assert (tmp_path / "numpy.tsv").read_bytes() == (tmp_path / "csr.tsv").read_bytes()


def assert_same(got, want):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_same(got[key], want[key])
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert np.asarray(got).dtype == np.asarray(want).dtype
        np.testing.assert_array_equal(got, want)


def test_loaded_artifacts_equal_built(tmp_path):
    """A saved and reloaded graph and mask index match the built ones in
    every field.  Some records carry no label, and codes "x" and "y" occur
    only on those, so neither has a row in the built index or the file."""
    rng = np.random.default_rng(16)
    num_labels = 12
    catalog = LabelCatalog([f"L{i}" for i in range(num_labels)], ["x"] * num_labels)
    docs = [DocumentRecord(doc_id=f"d{i}", tokens=[2],
                           labels=set(rng.choice(num_labels, size=int(rng.integers(0, 5)),
                                                 replace=False).tolist()),
                           aux_codes={t: tuple(rng.choice(list("abcdefg"), size=3).tolist())
                                      for t in TERMINOLOGIES})
            for i in range(60)]
    docs += [DocumentRecord(doc_id=f"u{i}", tokens=[2], labels=set(),
                            aux_codes={t: ("a", code) for t in TERMINOLOGIES})
             for i, code in enumerate("xyx")]
    assert any(not doc.labels for doc in docs[:60])
    graph = build_cooccurrence(docs, num_labels, lam=0.5)
    save_graph(graph, tmp_path / "graph.txt")
    index = build_mask_index(docs, num_labels, tau=0.1)
    assert not {"x", "y"} & set(index.probs["drg"])
    save_mask_index(index, catalog, tmp_path / "mask.tsv")
    for built, loaded in [(graph, load_graph(tmp_path / "graph.txt", num_labels)),
                          (index, load_mask_index(tmp_path / "mask.tsv", catalog)[0])]:
        assert [f.name for f in fields(loaded)] == [f.name for f in fields(built)]
        for f in fields(built):
            assert_same(getattr(loaded, f.name), getattr(built, f.name))
