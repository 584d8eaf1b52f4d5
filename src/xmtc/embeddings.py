"""Word embeddings: in-repo skip-gram pretraining and text-format I/O.

The embedding file format is plain text: a header line ``V d``, then ``V``
lines, one per token, holding the token followed by ``d`` floats.
"""

from __future__ import annotations

import itertools

import numpy as np

from .corpus import PAD_ID, Vocabulary
from .errors import DataError, read_text
from .tensor import logistic, row_sums

DEFAULT_DIM = 100


def _subsample_pairs(tokens: np.ndarray, window: int, rng: np.random.Generator):
    """Center/context token pairs with the usual randomly shrunk window,
    ordered by center position, then context position."""
    n = tokens.size
    if n < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    spans = rng.integers(1, window + 1, size=n)
    offsets = np.arange(-window, window + 1)
    ctx = np.arange(n)[:, None] + offsets  # [n, 2 * window + 1]
    keep = (np.abs(offsets) <= spans[:, None]) & (offsets != 0) & (ctx >= 0) & (ctx < n)
    centers, _ = np.nonzero(keep)
    return tokens[centers], tokens[ctx[keep]]


def train_skipgram(
    token_docs: list[list[int]],
    vocab_size: int,
    dim: int = DEFAULT_DIM,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 5,
    seed: int = 0,
    lr: float = 0.025,
) -> np.ndarray:
    """Skip-gram with negative sampling over id-encoded documents; returns
    the [V, d] input-vector matrix with a zero PAD row.

    Updates are applied per document (mini-batch SGD over that document's
    center/context pairs), negatives drawn from the unigram^(3/4)
    distribution: every gradient is taken at the document's starting
    vectors, each id's contributions are summed first (``row_sums``), and
    each sum is then subtracted from its row once.  PAD is never a center
    word, so its row stays zero.  Fully deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    w_in = (rng.random((vocab_size, dim)) - 0.5) / dim
    w_in[PAD_ID] = 0.0
    w_out = np.zeros((vocab_size, dim))

    all_ids = np.fromiter(itertools.chain.from_iterable(token_docs), dtype=np.int64)
    counts = np.bincount(all_ids, minlength=vocab_size).astype(np.float64)
    counts[PAD_ID] = 0.0
    noise = counts ** 0.75
    total = noise.sum()
    if total == 0 or epochs == 0:
        return w_in
    noise /= total
    noise_cdf = np.cumsum(noise)

    steps_total = max(1, epochs * len(token_docs))
    step = 0
    for _ in range(epochs):
        for doc in token_docs:
            tokens = np.asarray([t for t in doc if t != PAD_ID], dtype=np.int64)
            centers, contexts = _subsample_pairs(tokens, window, rng)
            step += 1
            if centers.size == 0:
                continue
            cur_lr = max(lr * (1.0 - step / steps_total), lr * 1e-4)

            n_pairs = centers.size
            neg = np.searchsorted(noise_cdf, rng.random((n_pairs, negatives)))
            # targets: positive context then the negatives; the error of
            # the context is score - 1, that of a negative its score
            tgt = np.concatenate([contexts[:, None], neg], axis=1)

            vc = w_in[centers]  # [P, d]
            vo = w_out[tgt]  # [P, 1+k, d]
            score = logistic(np.einsum("pd,pkd->pk", vc, vo))
            score[:, 0] -= 1.0
            err = score * cur_lr  # [P, 1+k]
            ids, sums = row_sums(centers, np.einsum("pk,pkd->pd", err, vo))
            w_in[ids] -= sums
            ids, sums = row_sums(tgt, vc, rows=np.repeat(np.arange(n_pairs), negatives + 1),
                                 weights=err)
            w_out[ids] -= sums
    return w_in


def save_embeddings(mat: np.ndarray, vocab: Vocabulary, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{len(vocab)} {mat.shape[1]}\n")
        for i, token in enumerate(vocab.id_to_token):
            fh.write(token + " " + " ".join(repr(float(v)) for v in mat[i]) + "\n")


def load_embeddings(path, vocab: Vocabulary, dim: int, seed: int = 0) -> np.ndarray:
    """The [len(vocab), dim] embedding matrix aligned to ``vocab``.

    Tokens absent from the file get seeded random rows (reproducible per
    run); the PAD row is forced to zero.  A file dimension different from
    ``dim``, a row count different from the header's ``V`` or a malformed
    line is a format error; a malformed line carries its line number.
    """
    body = list(enumerate(read_text(path).splitlines(), start=1))
    if not body:
        raise DataError(f"{path}: empty embedding file")
    header_ln, header = body[0]
    parts = header.split()
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise DataError(f"{path}:{header_ln}: expected header 'V d', got {header!r}")
    file_dim = int(parts[1])
    if file_dim != dim:
        raise DataError(
            f"{path}: embedding dimension {file_dim} does not match configured {dim}"
        )
    file_rows = int(parts[0])
    if len(body) - 1 != file_rows:
        raise DataError(f"{path}: header promises {file_rows} rows, file has {len(body) - 1}")

    rng = np.random.default_rng(seed)
    mat = (rng.random((len(vocab), dim)) - 0.5) / dim
    for ln, line in body[1:]:
        fields = line.rstrip().split(" ")
        if len(fields) != dim + 1:
            raise DataError(
                f"{path}:{ln}: expected token plus {dim} floats, got {len(fields)} fields"
            )
        token = fields[0]
        if token not in vocab:
            continue
        idx = vocab.token_to_id[token]
        try:
            mat[idx] = [float(v) for v in fields[1:]]
        except ValueError:
            raise DataError(f"{path}:{ln}: non-numeric embedding value") from None
        if not np.isfinite(mat[idx]).all():
            raise DataError(f"{path}:{ln}: non-finite embedding value")
    mat[PAD_ID] = 0.0
    return mat
