"""Full model assembly: embeddings -> encoder -> label side -> attention -> classifier.

``ModelParams`` is the named registry of every trainable tensor, which is
what optimizers iterate over and checkpoints serialize.  ``CodingModel``
wires the pieces together for one of the architecture variants:

* ``full``              - GCN over the co-occurrence graph on descriptor features
* ``no_label_feature``  - learned label embeddings through a fully connected layer
* ``no_mask``           - candidate masking disabled (handled by the pipeline)

The label side is document-independent, so one batch computes it once and
shares the result across documents; the tape accumulates gradients from all
consumers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import ClassifierParams, classify, init_classifier_params, label_attention
from .config import RunConfig, check_variants
from .corpus import PAD_ID, LabelCatalog, Vocabulary
from .encoder import BlockParams, EncoderConfig, encode, init_block_params
from .errors import ConfigError, ShapeError
from .graph import CooccurrenceGraph, GcnParams, descriptor_average_matrix, gcn_forward, init_gcn_params
from .mask import DocMask, apply_mask  # noqa: F401  (perfbench/tracing.py wraps it by this name)
from .tensor import Csr, Tensor, concat, gather_rows, matmul, mean, reshape, spmm


class ModelParams:
    """Named registry of trainable tensors, ordered by insertion."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def register(self, tensor: Tensor) -> Tensor:
        if not tensor.name:
            raise ValueError("registered parameters must be named")
        if tensor.name in self._params:
            raise ValueError(f"duplicate parameter name {tensor.name!r}")
        self._params[tensor.name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        missing = set(self._params) ^ set(arrays)
        if missing:
            raise ConfigError(f"checkpoint parameter names do not match model: {sorted(missing)}")
        for name, arr in arrays.items():
            p = self._params[name]
            if p.data.shape != arr.shape:
                raise ConfigError(
                    f"checkpoint parameter {name!r} has shape {arr.shape}, expected {p.data.shape}"
                )
            p.data = np.array(arr, dtype=np.float64)


@dataclass
class CodingModel:
    params: ModelParams
    graph: CooccurrenceGraph
    encoder_config: EncoderConfig
    blocks: list[BlockParams]
    gcn: GcnParams | None
    classifier: ClassifierParams
    feature_matrix: Csr | None  # [L, V] descriptor averaging operator
    variant: str

    @property
    def embedding(self) -> Tensor:
        return self.params["embedding"]

    @property
    def num_labels(self) -> int:
        return self.graph.num_labels

    def label_representations(self) -> Tensor:
        """Document-independent label matrix H_label, [L, d_e]."""
        if self.variant == "no_label_feature":
            return matmul(self.params["labelfc.embed"], self.params["labelfc.w"])
        features = spmm(self.feature_matrix, self.embedding)
        return gcn_forward(self.graph, features, self.gcn)

    def forward_doc(
        self,
        token_ids,
        doc_mask: DocMask,
        h_label: Tensor,
        train: bool = False,
        rng: np.random.Generator | None = None,
        with_attention: bool = False,
    ) -> tuple[Tensor, np.ndarray | None]:
        """Per-label probabilities [L] for one document and, if
        ``with_attention``, its attention weights [L, n] (else None).

        Only the K candidate rows of ``h_label`` attend, all-ones masks
        included.  A masked label's representation is zero, so its softmax
        is uniform (exactly 1/n) and its context is the mean of the encoded
        rows: every masked label reads that one shared context.  The one
        place that knows about PAD: PAD tokens are dropped before the
        encoder and get exactly zero attention weight.
        """
        num_labels = h_label.shape[0]
        if doc_mask.vec.shape != (num_labels,):
            raise ShapeError(f"mask of shape {doc_mask.vec.shape} for {num_labels} label rows")
        ids = np.asarray(token_ids, dtype=np.int64)
        real = ids != PAD_ID
        encoded = encode(ids[real], self.embedding, self.blocks, self.encoder_config,
                         train=train, rng=rng)
        cand = np.flatnonzero(doc_mask.vec)
        context = reshape(mean(encoded, axis=0), (1, encoded.shape[1]))
        rows = np.full(num_labels, cand.size)  # masked labels read the last row
        if cand.size:
            att = label_attention(encoded, gather_rows(h_label, cand))
            context = concat([att.context, context])
            rows[cand] = np.arange(cand.size)
        y_hat = classify(context, self.classifier, rows=rows)
        if not with_attention:
            return y_hat, None
        # [L, n]: masked rows uniform over the real tokens, PAD columns zero
        alpha = np.zeros((num_labels, ids.size))
        alpha[:, real] = 1.0 / encoded.shape[0]
        if cand.size:
            alpha[np.ix_(cand, real)] = att.alpha
        return y_hat, alpha

    def predict_scores(self, token_ids, doc_mask: DocMask, h_label: Tensor,
                       doc_id: str = "?", with_attention: bool = False):
        """Inference scores under hard gating.

        Labels outside the candidate set get probability 0; an all-ones mask
        (unmasked models) gates nothing.  An empty candidate set suspends
        gating for the document (otherwise nothing could ever be predicted).
        ``with_attention`` also returns the [L, n] attention weights of the
        same pass; a masked label's row is uniform.
        """
        # ``doc_id`` names perfbench's span (its ``doc_ref``) until src records its own
        y_hat, alpha = self.forward_doc(token_ids, doc_mask, h_label,
                                        with_attention=with_attention)
        scores = y_hat.data.copy()
        if not doc_mask.empty:
            scores *= doc_mask.vec
        return (scores, alpha) if with_attention else scores


def model_from_artifacts(
    vocab: Vocabulary,
    catalog: LabelCatalog,
    graph: CooccurrenceGraph,
    dim: int,
    encoder_config: EncoderConfig,
    seed: int = 0,
    embedding_matrix: np.ndarray | None = None,
    variant: str = "full",
) -> CodingModel:
    """Initialize all parameters and assemble a model.

    ``embedding_matrix`` (e.g. skip-gram pretrained) seeds the embedding
    table; otherwise rows are random.  The graph variants map the table to
    descriptor-averaged label features through ``descriptor_average_matrix``.
    """
    check_variants(variant)
    vocab_size, num_labels = len(vocab), len(catalog)
    feature_matrix = None
    if variant != "no_label_feature":
        feature_matrix = descriptor_average_matrix(catalog, vocab)
    rng = np.random.default_rng(seed)
    params = ModelParams()

    if embedding_matrix is None:
        # unit-scale rows; the 1/dim word2vec-style init is too quiet to
        # drive attention when training from scratch
        emb = rng.standard_normal((vocab_size, dim)) / np.sqrt(dim)
    else:
        emb = np.array(embedding_matrix, dtype=np.float64)
        if emb.shape != (vocab_size, dim):
            raise ConfigError(
                f"embedding matrix shape {emb.shape} != (vocab {vocab_size}, dim {dim})"
            )
    emb[PAD_ID] = 0.0
    params.register(Tensor(emb, requires_grad=True, name="embedding"))

    blocks = []
    for b in range(encoder_config.num_blocks):
        block = init_block_params(encoder_config, dim, rng, prefix=f"block{b}")
        for filt in (block.level0_residual, *block.levels):
            params.register(filt)
        blocks.append(block)

    gcn = None
    if variant == "no_label_feature":
        limit = np.sqrt(6.0 / (num_labels + dim))
        params.register(Tensor(rng.uniform(-limit, limit, (num_labels, dim)),
                               requires_grad=True, name="labelfc.embed"))
        wlim = np.sqrt(6.0 / (dim + dim))
        params.register(Tensor(rng.uniform(-wlim, wlim, (dim, dim)),
                               requires_grad=True, name="labelfc.w"))
    else:
        gcn = init_gcn_params(dim, rng)
        params.register(gcn.w1)
        params.register(gcn.w2)

    classifier = init_classifier_params(dim, num_labels, rng)
    params.register(classifier.w)
    params.register(classifier.b)

    return CodingModel(
        params=params,
        graph=graph,
        encoder_config=encoder_config,
        blocks=blocks,
        gcn=gcn,
        classifier=classifier,
        feature_matrix=feature_matrix,
        variant=variant,
    )


def model_from_config(cfg: RunConfig, vocab: Vocabulary, catalog: LabelCatalog,
                      graph: CooccurrenceGraph, embedding_matrix: np.ndarray | None = None,
                      variant: str | None = None) -> CodingModel:
    """The model a resolved ``RunConfig`` describes; ``variant`` overrides
    ``cfg.variant``."""
    return model_from_artifacts(
        vocab, catalog, graph, dim=cfg.embedding_size, encoder_config=cfg.encoder_config(),
        seed=cfg.seed, embedding_matrix=embedding_matrix,
        variant=variant or cfg.variant,
    )
