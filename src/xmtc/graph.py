"""Label co-occurrence graph and the two-layer graph convolution over it.

The graph is directed: edge (i -> j) exists when the conditional probability
P(label j | label i), estimated on the training split, reaches the
binarization threshold.  Node features are descriptor-averaged word
embeddings, so gradients can flow from the label representations back into
the shared embedding table.

At paper scale (thousands of labels) the label statistics and operators are
almost all zeros, so they are kept sparse.  ``conditional_pairs`` gives
P(column | row) over the (row, column) pairs that occur, for the label
graph here, for the auxiliary-code tables of ``mask`` and for the
generator's rejection pass in ``synth``; the probabilities are numpy arrays
over those pairs.  The graph keeps only its edges, as two int64 arrays in
the order ``save_graph`` writes them, and no build, save, load or
propagation makes an [L, L] array (a dense one would take 81 MB at
L = 9,000).  The descriptor average and the propagation matrix are CSR.
``scipy.sparse`` is imported where a CSR is built, so building and saving
a graph loads no scipy.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .corpus import DocumentRecord, LabelCatalog, Vocabulary, preprocess
from .errors import DataError, ShapeError, read_text
from .tensor import Tensor, matmul, relu, spmm

if TYPE_CHECKING:
    import scipy.sparse as sp

logger = logging.getLogger(__name__)


@dataclass
class CooccurrenceGraph:
    """Binary label-label adjacency as its edge list.

    Edge k runs from label ``rows[k]`` to label ``cols[k]``.  The int64
    arrays name each edge once, sorted by row, then column, which is the
    order ``save_graph`` writes them; a built or loaded graph holds every
    diagonal entry.
    """

    num_labels: int
    rows: np.ndarray  # [E] int64
    cols: np.ndarray  # [E] int64
    lam: float
    pair_count: int  # edges strictly above the diagonal

    @property
    def adjacency(self) -> np.ndarray:
        """The edges as a dense bool [L, L] matrix, made anew on each read
        (L² bytes).  It exists only for perfbench's traced edge counter,
        which reads it with ``np.trace``, until ROADMAP item 10 removes
        that pin; nothing in src reads it."""
        adj = np.zeros((self.num_labels, self.num_labels), dtype=bool)
        adj[self.rows, self.cols] = True
        return adj

    @functools.cached_property
    def propagation(self) -> sp.csr_matrix:
        """The GCN's propagation matrix, computed on first use and kept, so
        the edges must not change after the first forward pass."""
        return normalize_adjacency(self.num_labels, self.rows, self.cols)


def conditional_pairs(row_lists, col_lists,
                      num_cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(column | row) of each distinct (row id, column id) pair that occurs:
    the number of documents that hold both, divided by the number that hold
    the row id.  Returns (rows, cols, p), with int64 ids and float64
    probabilities, sorted by row, then column.

    Document k holds the ids in ``row_lists[k]`` and ``col_lists[k]``; each
    list must hold distinct ids, and column ids must lie in [0, num_cols).
    """
    n_rows = np.array([len(ids) for ids in row_lists], dtype=np.int64)
    n_cols = np.array([len(ids) for ids in col_lists], dtype=np.int64)
    rows = np.fromiter(itertools.chain.from_iterable(row_lists), dtype=np.int64,
                       count=int(n_rows.sum()))
    cols = np.fromiter(itertools.chain.from_iterable(col_lists), dtype=np.int64,
                       count=int(n_cols.sum()))
    # row entry k pairs with the width[k] columns of its document, which
    # start at first[k] in ``cols``
    width = np.repeat(n_cols, n_rows)
    first = np.repeat(np.cumsum(n_cols) - n_cols, n_rows)
    starts = np.cumsum(width) - width
    col_at = np.repeat(first - starts, width) + np.arange(int(width.sum()))
    keys, counts = np.unique(np.repeat(rows, width) * num_cols + cols[col_at],
                             return_counts=True)
    pair_rows, pair_cols = np.divmod(keys, num_cols)
    # divide, not multiply by a reciprocal, which can put a ratio of 1 below 1
    return pair_rows, pair_cols, counts / np.bincount(rows)[pair_rows]


def build_cooccurrence(
    train_docs: list[DocumentRecord], num_labels: int, lam: float = 1.0
) -> CooccurrenceGraph:
    """Estimate P(j|i) on the training split and binarize at ``lam``.

    The comparison is >= lam; the diagonal is forced to 1.  Only the label
    pairs that occur together are counted, so the rows of labels never seen
    in training stay empty; ``lam`` must be positive, so only counted pairs
    can be edges.  Callers must pass the training split only; evaluation
    documents would leak label statistics into the graph.
    """
    label_lists = [doc.label_ids(num_labels) for doc in train_docs]
    rows, cols, p = conditional_pairs(label_lists, label_lists, num_labels)
    edge = p >= lam
    pair_count = int(np.count_nonzero(edge & (rows < cols)))
    # every label keeps its self loop, those never seen in training too
    rows, cols = _edges(rows[edge], cols[edge], num_labels, with_loops=True)
    return CooccurrenceGraph(num_labels, rows, cols, lam=lam, pair_count=pair_count)


def _edges(rows, cols, num_labels: int, with_loops: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The distinct edges among (rows[k], cols[k]), and every label's self
    loop if ``with_loops``, as int64 (rows, cols) sorted by row, then
    column.  Each edge is keyed row * L + col, and the keys are deduped by
    a sort and a neighbour test, not a plain ``np.unique``, which imports
    ``numpy.ma`` (about 15 ms per process) in numpy 2."""
    keys = np.asarray(rows, dtype=np.int64) * num_labels + np.asarray(cols, dtype=np.int64)
    if with_loops:
        keys = np.concatenate([keys, np.arange(num_labels, dtype=np.int64) * (num_labels + 1)])
    keys = np.sort(keys)
    return np.divmod(keys[np.diff(keys, prepend=-1) != 0], num_labels)


def save_graph(graph: CooccurrenceGraph, path) -> None:
    """Write the edges as a sorted coordinate list."""
    with open(path, "w") as fh:
        fh.write("# xmtc-graph v1\n")
        fh.write(f"{graph.num_labels} {float(graph.lam)!r} {graph.pair_count}\n")
        for i, j in zip(graph.rows.tolist(), graph.cols.tolist()):
            fh.write(f"{i} {j}\n")


def load_graph(path, num_labels: int) -> CooccurrenceGraph:
    """Load a saved graph over the ``num_labels``-label catalog.  A header
    giving another label count, or a malformed line, is a ``DataError``
    naming the file and line.  Every label's diagonal line must be present,
    since ``save_graph`` writes them all; a missing one (a file cut short in
    its last row, whose lines the pair count does not see) is a
    ``DataError`` naming the first such label."""
    lines = read_text(path).splitlines()
    first = 1 + int(bool(lines) and lines[0].startswith("#"))  # line number of the header
    lines = lines[first - 1:]
    if not lines:
        raise DataError(f"{path}: empty graph file")
    try:
        num_labels_s, lam_s, pair_count_s = lines[0].split()
        found, lam, pair_count = int(num_labels_s), float(lam_s), int(pair_count_s)
    except ValueError:
        raise DataError(f"{path}:{first}: malformed graph header {lines[0]!r}") from None
    if found != num_labels:
        raise DataError(f"{path}:{first}: graph has {found} labels, the catalog has {num_labels}")
    rows, cols = [], []  # one entry per coordinate line, repeats included
    for ln, line in enumerate(lines[1:], start=first + 1):
        try:
            i, j = (int(x) for x in line.split())
        except ValueError:
            raise DataError(f"{path}:{ln}: malformed coordinate line {line!r}") from None
        if not (0 <= i < num_labels and 0 <= j < num_labels):
            raise DataError(f"{path}:{ln}: coordinate {line!r} outside {num_labels} labels")
        rows.append(i)
        cols.append(j)
    rows, cols = _edges(rows, cols, num_labels)
    has_loop = np.zeros(num_labels, dtype=bool)
    has_loop[rows[rows == cols]] = True
    missing = np.flatnonzero(~has_loop)
    if missing.size:
        raise DataError(f"{path}: no diagonal line for label {missing[0]}")
    if np.count_nonzero(rows < cols) != pair_count:
        raise DataError(f"{path}: pair count does not match stored coordinates")
    return CooccurrenceGraph(num_labels, rows, cols, lam=lam, pair_count=pair_count)


# ---------------------------------------------------------------------------
# label features


def descriptor_average_matrix(catalog: LabelCatalog, vocab: Vocabulary) -> sp.csr_matrix:
    """Averaging operator S [L, V] as CSR, with S[i, tok] = 1/Z_i for each
    occurrence of ``tok`` among label i's Z descriptor tokens.

    Multiplying S by the embedding table yields every label's mean
    descriptor embedding in one product, keeping the whole feature
    construction differentiable with respect to the table.
    """
    import scipy.sparse as sp

    rows, cols, vals = [], [], []
    for i, descriptor in enumerate(catalog.descriptors):
        ids = vocab.encode(preprocess(descriptor))
        if not ids:
            logger.warning("label %s has an empty descriptor; feature row is zero",
                           catalog.codes[i])
            continue
        rows.extend([i] * len(ids))
        cols.extend(ids)
        vals.extend([1.0 / len(ids)] * len(ids))
    # the COO -> CSR conversion sums a repeated token's entries
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(catalog), len(vocab)))


# ---------------------------------------------------------------------------
# graph convolution


@dataclass
class GcnParams:
    w1: Tensor  # [d_e, d_e]
    w2: Tensor  # [d_e, d_e]


def init_gcn_params(dim: int, rng: np.random.Generator) -> GcnParams:
    """Near-identity init: label representations start as (graph-smoothed)
    descriptor averages, which keeps them aligned with the shared word
    embedding space; the layers learn mixing as a refinement."""
    limit = np.sqrt(6.0 / (dim + dim))

    def weight(name):
        noise = rng.uniform(-limit, limit, (dim, dim))
        return Tensor(np.eye(dim) + 0.1 * noise, requires_grad=True, name=name)

    return GcnParams(w1=weight("gcn.w1"), w2=weight("gcn.w2"))


def normalize_adjacency(num_labels: int, rows: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
    """Propagation matrix D^-1 (A + I) for the GCN, as CSR, from the edges
    (rows, cols) of A: add a self loop and row-normalize, which keeps
    activation scale independent of node degree.  A stored diagonal entry
    and its self loop sum to 2, as in a dense A + I."""
    import scipy.sparse as sp

    stored = np.zeros(num_labels)  # 1.0 where A holds the label's self loop
    stored[rows[rows == cols]] = 1.0
    rows, cols = _edges(rows, cols, num_labels, with_loops=True)
    data = np.where(rows == cols, 1.0 + stored[rows], 1.0)
    data /= np.bincount(rows, weights=data, minlength=num_labels)[rows]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=num_labels))])
    return sp.csr_matrix((data, cols, indptr), shape=(num_labels, num_labels))


def gcn_forward(graph: CooccurrenceGraph, features: Tensor, params: GcnParams) -> Tensor:
    """Two aggregation layers: ReLU after the first, identity after the
    second so label representations can carry signed components."""
    if features.shape[0] != graph.num_labels:
        raise ShapeError(
            f"feature rows {features.shape[0]} != graph labels {graph.num_labels}"
        )
    a_hat = graph.propagation
    h1 = relu(matmul(spmm(a_hat, features), params.w1))
    return matmul(spmm(a_hat, h1), params.w2)
