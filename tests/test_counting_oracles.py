"""The numpy set-up counters against the CSR counting they replaced.

``build_cooccurrence`` and ``build_mask_index`` count label pairs and
(code, label) pairs with ``np.unique``; ``oracles.csr_cooccurrence`` and
``oracles.csr_mask_tables`` count the same corpora through sparse products.
Every count and every probability must be equal, not merely close.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmtc.corpus import TERMINOLOGIES, DocumentRecord, LabelCatalog
from xmtc.graph import build_cooccurrence
from xmtc.mask import build_mask_index, save_mask_index

from oracles import csr_cooccurrence, csr_mask_tables

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


CASES = [no_docs(), unlabelled_docs(), one_label(), unseen_labels()]


def over_corpora(test):
    for corpus in CASES:
        for lam in (LAMS[0], LAMS[-1]):
            test = example(corpus=corpus, lam=lam)(test)
    return settings(max_examples=150, deadline=None)(
        given(corpus=corpora(), lam=st.sampled_from(LAMS))(test))


@over_corpora
def test_cooccurrence_equals_csr_count(corpus, lam):
    num_labels, docs = corpus
    g = build_cooccurrence(docs, num_labels, lam=lam)
    adj, cond, pair_count = csr_cooccurrence(docs, num_labels, lam=lam)
    np.testing.assert_array_equal(g.adjacency, adj)
    np.testing.assert_array_equal(g.cond_prob.toarray(), cond.toarray())
    assert g.cond_prob.nnz == cond.nnz
    assert g.pair_count == pair_count


@over_corpora
def test_mask_index_equals_csr_count(corpus, lam):
    num_labels, docs = corpus
    index = build_mask_index(docs, num_labels, tau=lam)
    tables, code_counts = csr_mask_tables(docs, num_labels)
    assert index.code_counts == code_counts
    for term in TERMINOLOGIES:
        assert index.probs[term].keys() == tables[term].keys() == index.pair_counts[term].keys()
        for code, (ids, count, prob) in tables[term].items():
            got_ids, got_count = index.pair_counts[term][code]
            prob_ids, got_prob = index.probs[term][code]
            assert (np.diff(got_ids) > 0).all()
            assert got_count.dtype == got_prob.dtype == np.float64
            np.testing.assert_array_equal(got_ids, ids)
            np.testing.assert_array_equal(prob_ids, ids)
            np.testing.assert_array_equal(got_count, count)
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
    tables, _ = csr_mask_tables(docs, num_labels)
    index.probs = {term: {code: (ids, prob) for code, (ids, _, prob) in per_term.items()}
                   for term, per_term in tables.items()}
    save_mask_index(index, catalog, tmp_path / "csr.tsv", config_hash="c")
    assert (tmp_path / "numpy.tsv").read_bytes() == (tmp_path / "csr.tsv").read_bytes()
