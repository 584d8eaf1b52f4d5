"""Label co-occurrence graph and the two-layer graph convolution over it.

The graph is directed: edge (i -> j) exists when the conditional probability
P(label j | label i), estimated on the training split, reaches the
binarization threshold.  Node features are descriptor-averaged word
embeddings, so gradients can flow from the label representations back into
the shared embedding table.  Both label-side operators, the descriptor
average and the propagation matrix, are almost all zeros and are kept as
CSR; the adjacency itself stays dense.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .config import config_stamp
from .corpus import DocumentRecord, LabelCatalog, Vocabulary, preprocess
from .errors import DataError, ShapeError, read_text
from .tensor import Tensor, matmul, relu, spmm

logger = logging.getLogger(__name__)


@dataclass
class CooccurrenceGraph:
    """Binary label-label adjacency plus the conditional-probability table."""

    adjacency: np.ndarray  # [L, L] of {0.0, 1.0}
    lam: float
    pair_count: int  # 1-entries strictly above the diagonal
    cond_prob: np.ndarray | None = None

    @property
    def num_labels(self) -> int:
        return self.adjacency.shape[0]

    @functools.cached_property
    def propagation(self) -> sp.csr_matrix:
        """The GCN's propagation matrix, computed on first use and kept, so
        ``adjacency`` must not change after the first forward pass."""
        return normalize_adjacency(self.adjacency)


def build_cooccurrence(
    train_docs: list[DocumentRecord], num_labels: int, lam: float = 1.0
) -> CooccurrenceGraph:
    """Estimate P(j|i) on the training split and binarize at ``lam``.

    The comparison is >= lam; the diagonal is forced to 1.  Rows for labels
    never seen in training stay all-zero in the probability table.  Callers
    must pass the training split only; evaluation documents would leak label
    statistics into the graph.
    """
    occur = np.zeros((len(train_docs), num_labels))
    for row, doc in enumerate(train_docs):
        occur[row] = doc.label_vector(num_labels)
    joint = occur.T @ occur
    singles = np.diag(joint).copy()
    cond = np.zeros_like(joint)
    seen = singles > 0
    cond[seen] = joint[seen] / singles[seen, None]

    adj = np.where(cond >= lam, 1.0, 0.0)
    adj[~seen] = 0.0
    np.fill_diagonal(adj, 1.0)
    pair_count = int(np.triu(adj, k=1).sum())
    return CooccurrenceGraph(adjacency=adj, lam=lam, pair_count=pair_count, cond_prob=cond)


def save_graph(graph: CooccurrenceGraph, path, config_hash: str = "") -> None:
    """Write the adjacency as a sorted coordinate list; probabilities are
    training-corpus state and are not persisted."""
    with open(path, "w") as fh:
        fh.write(f"# xmtc-graph v1 config={config_hash}\n")
        fh.write(f"{graph.num_labels} {float(graph.lam)!r} {graph.pair_count}\n")
        rows, cols = np.nonzero(graph.adjacency)
        for i, j in zip(rows.tolist(), cols.tolist()):
            fh.write(f"{i} {j}\n")


def load_graph(path, num_labels: int) -> tuple[CooccurrenceGraph, str]:
    """Load a saved graph over the ``num_labels``-label catalog; returns
    (graph, config_hash).  A header giving another label count, or a
    malformed line, is a ``DataError`` naming the file and line."""
    lines = read_text(path).splitlines()
    stamp = config_stamp(lines)
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
    adj = np.zeros((num_labels, num_labels))
    for ln, line in enumerate(lines[1:], start=first + 1):
        try:
            i, j = (int(x) for x in line.split())
        except ValueError:
            raise DataError(f"{path}:{ln}: malformed coordinate line {line!r}") from None
        if not (0 <= i < num_labels and 0 <= j < num_labels):
            raise DataError(f"{path}:{ln}: coordinate {line!r} outside {num_labels} labels")
        adj[i, j] = 1.0
    graph = CooccurrenceGraph(adjacency=adj, lam=lam, pair_count=pair_count)
    if int(np.triu(adj, k=1).sum()) != pair_count:
        raise DataError(f"{path}: pair count does not match stored coordinates")
    return graph, stamp


# ---------------------------------------------------------------------------
# label features


def descriptor_average_matrix(catalog: LabelCatalog, vocab: Vocabulary) -> sp.csr_matrix:
    """Averaging operator S [L, V] as CSR, with S[i, tok] = 1/Z_i for each
    occurrence of ``tok`` among label i's Z descriptor tokens.

    Multiplying S by the embedding table yields every label's mean
    descriptor embedding in one product, keeping the whole feature
    construction differentiable with respect to the table.
    """
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


def normalize_adjacency(adjacency: np.ndarray) -> sp.csr_matrix:
    """Propagation matrix D^-1 (A + I) for the GCN, as CSR: add a self loop
    and row-normalize, which keeps activation scale independent of node
    degree."""
    a = sp.csr_matrix(adjacency) + sp.identity(adjacency.shape[0], format="csr")
    a.data /= np.repeat(np.asarray(a.sum(axis=1)).ravel(), np.diff(a.indptr))
    return a


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
