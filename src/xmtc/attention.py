"""Label-wise attention over the encoded document plus the shared classifier.

Each label attends over sequence positions with weights from the dot product
of its (masked) representation and the encoded tokens; the per-label context
vectors feed a shared linear map with per-label bias and a sigmoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, add, gather_rows, matmul, reshape, sigmoid, softmax, transpose


@dataclass
class AttentionOutput:
    alpha: Tensor  # [L, n] row-stochastic
    context: Tensor  # [L, d_e]


@dataclass
class ClassifierParams:
    w: Tensor  # [d_e, 1] shared projection
    b: Tensor  # [L] per-label bias


def init_classifier_params(dim: int, num_labels: int, rng: np.random.Generator) -> ClassifierParams:
    limit = np.sqrt(6.0 / (dim + 1))
    return ClassifierParams(
        w=Tensor(rng.uniform(-limit, limit, (dim, 1)), requires_grad=True, name="classifier.w"),
        b=Tensor(np.zeros(num_labels), requires_grad=True, name="classifier.b"),
    )


def label_attention(encoded: Tensor, h_masked: Tensor) -> AttentionOutput:
    """Attention weights and per-label context vectors: each label's softmax
    runs over every encoded position."""
    if encoded.shape[1] != h_masked.shape[1]:
        raise ShapeError(
            f"encoder dim {encoded.shape[1]} != label representation dim {h_masked.shape[1]}"
        )
    scores = matmul(h_masked, transpose(encoded))  # [L, n]
    alpha = softmax(scores, axis=1)
    context = matmul(alpha, encoded)
    return AttentionOutput(alpha=alpha, context=context)


def classify(context: Tensor, params: ClassifierParams, rows=None) -> Tensor:
    """Per-label probabilities: sigmoid of the shared projection plus bias.

    ``rows`` maps each label to the row of ``context`` it reads, so labels
    that share a context share one projection; by default label i reads
    row i."""
    if context.shape[1] != params.w.shape[0]:
        raise ShapeError(f"context dim {context.shape[1]} != classifier dim {params.w.shape[0]}")
    projected = matmul(context, params.w)  # [rows, 1]
    if rows is not None:
        projected = gather_rows(projected, rows)
    logits = add(reshape(projected, (projected.shape[0],)), params.b)
    return sigmoid(logits)


def attention_heat_records(doc_id: str, alpha: np.ndarray, label_codes: list[str],
                           top_positions: int = 10) -> list[dict]:
    """Flatten attention weights into (label, token index, weight) rows for
    qualitative inspection; keeps the heaviest positions per label."""
    records = []
    for row, code in enumerate(label_codes):
        weights = alpha[row]
        order = np.argsort(-weights, kind="stable")[:top_positions]
        for pos in order.tolist():
            records.append({"doc_id": doc_id, "label": code,
                            "token_index": pos, "weight": float(weights[pos])})
    return records
