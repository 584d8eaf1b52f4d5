"""``tensor.Csr`` products and ``tensor.row_sums`` against scipy, bit for bit.

scipy is the oracle here: its CSR product forms row i as ``+0.0 +
data[a0] * x[indices[a0]] + ...`` in entry order, and its product with a
CSR's transpose (CSC) adds column j's entries by ascending row.  The
engine's numpy kernel must give the same bits (``tobytes()``) for repeated
columns, empty and one-entry rows, rows longer than a gather block, d = 1,
-0.0 anywhere, and inf or NaN in rows of ``x`` that an output row never
reads, which must leave that row finite.  The two constant operators,
the descriptor average S and the propagation Â, must hold scipy's
``indptr``, ``indices`` and ``data``.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from xmtc.corpus import LabelCatalog, build_vocab
from xmtc.graph import descriptor_average_matrix
from xmtc.tensor import Csr, row_sums

from oracles import (csr_from_scipy, csr_propagation, graph_from_dense, scipy_csr,
                     scipy_descriptor_matrix, scipy_row_sums)

_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e100]),
)


@st.composite
def matrices(draw, max_rows=9, max_cols=9, max_entries=40):
    """A scipy CSR with repeated columns, empty rows and entries of any
    sign, zeros of both signs included, kept in the drawn order."""
    m = draw(st.integers(1, max_rows))
    k = draw(st.integers(1, max_cols))
    entries = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, k - 1), _VALUES),
                            max_size=max_entries))
    entries.sort(key=lambda e: e[0])  # stable: a row keeps its entries' drawn order
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    data = np.array([e[2] for e in entries], dtype=np.float64)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
    return sp.csr_matrix((data, cols, indptr), shape=(m, k))


def dense(draw, n, d):
    return np.array(draw(st.lists(_VALUES, min_size=n * d, max_size=n * d)),
                    dtype=np.float64).reshape(n, d)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestProduct:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_product_and_transpose_have_scipy_bits(self, data):
        s = data.draw(matrices())
        assert s.nnz == s.indices.size  # repeated columns stay unsummed
        d = data.draw(st.sampled_from([1, 2, 3, 5]))
        ours = csr_from_scipy(s)
        x = dense(data.draw, s.shape[1], d)
        g = dense(data.draw, s.shape[0], d)
        assert same_bits(ours @ x, s @ x)
        assert same_bits(ours.T @ g, s.T @ g)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_unread_inf_and_nan_leave_a_row_finite(self, data):
        s = data.draw(matrices())
        i = data.draw(st.integers(0, s.shape[0] - 1))
        d = data.draw(st.sampled_from([1, 3]))
        x = dense(data.draw, s.shape[1], d)
        unread = np.setdiff1d(np.arange(s.shape[1]), s.indices[s.indptr[i]:s.indptr[i + 1]])
        x[unread] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        with np.errstate(invalid="ignore"):  # other rows may read 0 * inf or inf - inf
            out = csr_from_scipy(s) @ x
        assert np.isfinite(out[i]).all()
        assert same_bits(out, s @ x)

    @pytest.mark.parametrize("d", [1, 2, 100])
    def test_long_rows_and_columns(self, d):
        """A row of 2,180 entries (the many-labels workload has a token in
        2,180 descriptors, so a row of S's transpose that long) and a row of
        2,049, past a power of two, among empty and one-entry rows; at d =
        100 each long row takes several gather blocks."""
        rng = np.random.default_rng(d)
        k = 5000
        parts = [sp.csr_matrix((rng.standard_normal(n), rng.choice(k, n), [0, n]), shape=(1, k))
                 for n in (2180, 0, 1, 2049, 1, 0, 7)]
        s = sp.vstack(parts, format="csr")
        ours = csr_from_scipy(s)
        x, g = rng.standard_normal((k, d)), rng.standard_normal((s.shape[0], d))
        x[rng.random(x.shape) < 0.1] = -0.0
        assert same_bits(ours @ x, s @ x)
        assert same_bits(ours.T @ g, s.T @ g)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    def test_negative_zero_terms_sum_to_positive_zero(self, n, d):
        """Rows of n terms that are all -0.0 (one row alone, and beside a
        second row of one width): scipy starts each sum at +0.0, so the
        sum is +0.0 whatever path the row's block takes."""
        for rows in (1, 2):
            s = sp.csr_matrix((np.ones(rows * n), np.tile(np.arange(n), rows),
                               np.arange(rows + 1) * n), shape=(rows, n))
            x = np.full((n, d), -0.0)
            assert same_bits(csr_from_scipy(s) @ x, s @ x)
            assert not np.signbit(csr_from_scipy(s) @ x).any()

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_padded_row_reading_an_inf_stays_infinite(self, value):
        """A row of 9 to 15 entries is padded up to a width of 10 to 16;
        its padding must add +0.0, not 0 * inf, which would turn the row's
        inf into NaN."""
        for n in range(9, 16):
            s = sp.csr_matrix((np.linspace(0.5, 2.0, n), np.arange(n), [0, n]), shape=(1, n))
            x = np.ones((n, 2))
            x[0] = value
            out = csr_from_scipy(s) @ x
            assert same_bits(out, s @ x) and np.isinf(out).all(), n

    def test_many_rows_span_several_blocks(self):
        rng = np.random.default_rng(3)
        s = sp.random(3000, 800, density=0.003, format="csr", random_state=4)
        ours = csr_from_scipy(s)
        x, g = rng.standard_normal((800, 100)), rng.standard_normal((3000, 100))
        assert same_bits(ours @ x, s @ x)
        assert same_bits(ours.T @ g, s.T @ g)

    def test_empty_matrix_and_zero_width(self):
        s = sp.csr_matrix((4, 3))
        ours = csr_from_scipy(s)
        assert same_bits(ours @ np.ones((3, 2)), s @ np.ones((3, 2)))
        assert same_bits(ours.T @ np.ones((4, 2)), s.T @ np.ones((4, 2)))
        s = sp.random(4, 3, density=0.5, format="csr", random_state=0)
        assert (csr_from_scipy(s) @ np.ones((3, 0))).shape == (4, 0)

    def test_transpose_is_built_once(self):
        ours = csr_from_scipy(sp.random(4, 3, density=0.5, format="csr", random_state=0))
        assert ours.T is ours.T


class TestRowSums:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_row_sums_have_scipy_bits(self, data):
        n = data.draw(st.integers(0, 30))
        ids = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        d = data.draw(st.sampled_from([1, 2, 4]))
        if data.draw(st.booleans()):  # skip-gram's second update: rows and weights
            v = data.draw(st.integers(1, 8))
            rows = data.draw(st.lists(st.integers(0, v - 1), min_size=n, max_size=n))
            weights = dense(data.draw, n, 1).reshape(-1)
            values = dense(data.draw, v, d)
        else:
            rows = weights = None
            values = dense(data.draw, n, d)
        uniq, sums = row_sums(ids, values, rows=rows, weights=weights)
        ref_ids, ref = scipy_row_sums(ids, values, rows=rows, weights=weights)
        assert np.array_equal(uniq, ref_ids)
        assert same_bits(sums, ref)

    def test_skipgram_sized_update(self):
        """P = 1,500 pairs of 1 + 5 targets drawn from a skewed vocabulary,
        as in one document's second skip-gram update."""
        rng = np.random.default_rng(7)
        tgt = np.minimum(rng.zipf(1.3, size=(1500, 6)), 400)
        err = rng.standard_normal((1500, 6))
        vc = rng.standard_normal((1500, 100))
        rows = np.repeat(np.arange(1500), 6)
        uniq, sums = row_sums(tgt, vc, rows=rows, weights=err)
        ref_ids, ref = scipy_row_sums(tgt, vc, rows=rows, weights=err)
        assert np.array_equal(uniq, ref_ids) and same_bits(sums, ref)


class TestConstructions:
    def _parts_equal(self, got, ref):
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(ref, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part
        assert got.shape == ref.shape

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "zz"]), max_size=9)
                    .map(" ".join), min_size=1, max_size=8))
    def test_descriptor_matrix_is_scipys(self, descriptors):
        """Repeated tokens, out-of-vocabulary ones (``zz``) and empty
        descriptors included."""
        vocab = build_vocab([["aa", "bb", "cc", "dd"]], min_count=1)
        catalog = LabelCatalog([f"l{i}" for i in range(len(descriptors))], descriptors)
        self._parts_equal(descriptor_average_matrix(catalog, vocab),
                          scipy_descriptor_matrix(catalog, vocab))

    def test_repeated_token_sums_in_order(self):
        """Seven occurrences of one token among nine: scipy adds 1/9 seven
        times, which is not 7/9."""
        vocab = build_vocab([["aa", "bb"]], min_count=1)
        catalog = LabelCatalog(["l0"], ["aa aa aa aa aa aa aa bb bb"])
        got = descriptor_average_matrix(catalog, vocab)
        self._parts_equal(got, scipy_descriptor_matrix(catalog, vocab))
        assert scipy_csr(got)[0, vocab.token_to_id["aa"]] != 7 / 9

    @pytest.mark.parametrize("seed", range(4))
    def test_propagation_is_scipys(self, seed):
        rng = np.random.default_rng(seed)
        adj = rng.random((25, 25)) < 0.2
        adj[rng.integers(0, 25, 3)] = False  # rows with no entry at all
        self._parts_equal(graph_from_dense(adj).propagation,
                          csr_propagation(adj.astype(np.float64)))


def test_product_of_a_record_built_without_data_is_unit_weighted():
    ours = Csr([0, 2, 3], [1, 1, 0], None, (2, 2))
    x = np.array([[1.5, -0.0], [2.0, -0.0]])
    ref = sp.csr_matrix((np.ones(3), [1, 1, 0], [0, 2, 3]), shape=(2, 2)) @ x
    assert same_bits(ours @ x, ref)
