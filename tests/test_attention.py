"""Tests for label-wise attention, the shared classifier, and the loss."""

import math

import numpy as np
import pytest

from xmtc.attention import (
    ClassifierParams,
    attention_heat_records,
    classify,
    init_classifier_params,
    label_attention,
)
from xmtc.corpus import PAD_ID, LabelCatalog, Vocabulary
from xmtc.encoder import EncoderConfig
from xmtc.errors import DataError, ShapeError
from xmtc.graph import CooccurrenceGraph
from xmtc.mask import DocMask
from xmtc.model import model_from_artifacts
from xmtc.tensor import Tensor, bce_loss

from oracles import grad_check


def _padding_model(num_labels=6, vocab_size=20, dim=4):
    """A small untrained model; PAD is handled where a document enters it."""
    catalog = LabelCatalog([f"c{i}" for i in range(num_labels)], ["x"] * num_labels)
    vocab = Vocabulary([f"tok{chr(97 + i)}" for i in range(vocab_size - 2)])
    graph = CooccurrenceGraph(adjacency=np.eye(num_labels), lam=1.0, pair_count=0)
    return model_from_artifacts(
        vocab, catalog, graph, dim=dim,
        encoder_config=EncoderConfig(kernel_size=3, rates=(1, 2), dropout=0.0), seed=1,
    )


class TestLabelAttention:
    def test_single_position_softmax(self):
        rng = np.random.default_rng(0)
        d = Tensor(rng.standard_normal((1, 4)))
        h = Tensor(rng.standard_normal((3, 4)))
        att = label_attention(d, h)
        np.testing.assert_allclose(att.alpha, np.ones((3, 1)))
        for row in att.context.data:
            np.testing.assert_allclose(row, d.data[0])

    def test_masked_label_gets_uniform_attention(self):
        rng = np.random.default_rng(1)
        n = 6
        d = Tensor(rng.standard_normal((n, 3)))
        h = Tensor(np.vstack([np.zeros(3), rng.standard_normal(3)]))
        att = label_attention(d, h)
        np.testing.assert_allclose(att.alpha[0], np.full(n, 1 / n), atol=1e-12)
        np.testing.assert_allclose(att.context.data[0], d.data.mean(axis=0), atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        d = rng.standard_normal((7, 4))
        h = rng.standard_normal((5, 4))
        att = label_attention(Tensor(d), Tensor(h))
        scores = h @ d.T
        ez = np.exp(scores - scores.max(axis=1, keepdims=True))
        alpha = ez / ez.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(att.alpha, alpha, atol=1e-12)
        np.testing.assert_allclose(att.context.data, alpha @ d, atol=1e-12)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            d = Tensor(rng.standard_normal((n, 3)) * 5)
            h = Tensor(rng.standard_normal((4, 3)) * 5)
            att = label_attention(d, h)
            np.testing.assert_allclose(att.alpha.sum(axis=1), 1.0, atol=1e-9)

    def test_padded_positions_get_zero_weight(self):
        m = _padding_model()
        _, alpha = m.predict_scores([3, 4, 5, PAD_ID, PAD_ID], DocMask.all_ones(m.num_labels),
                                    m.label_representations(), with_attention=True)
        assert alpha.shape == (m.num_labels, 5)
        np.testing.assert_array_equal(alpha[:, 3:], np.zeros((m.num_labels, 2)))
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-9)

    def test_all_padded_rejected(self):
        m = _padding_model()
        with pytest.raises(DataError):
            m.predict_scores([PAD_ID] * 3, DocMask.all_ones(m.num_labels),
                             m.label_representations())

    def test_interior_padding_is_dropped_exactly(self):
        """PAD tokens anywhere in a document give exactly the scores of the
        document without them, not those of a document with zero gaps."""
        m = _padding_model()
        doc_mask = DocMask.all_ones(m.num_labels)
        tokens = np.random.default_rng(7).integers(2, 20, size=15).tolist()
        padded = tokens[:4] + [PAD_ID] * 3 + tokens[4:9] + [PAD_ID] + tokens[9:] + [PAD_ID] * 2
        h_label = m.label_representations()
        base, alpha_base = m.predict_scores(tokens, doc_mask, h_label, with_attention=True)
        scores, alpha = m.predict_scores(padded, doc_mask, h_label, with_attention=True)
        np.testing.assert_array_equal(scores, base)
        real = np.asarray(padded) != PAD_ID
        np.testing.assert_array_equal(alpha[:, real], alpha_base)
        np.testing.assert_array_equal(alpha[:, ~real], 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            label_attention(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 5))))


class TestClassifier:
    def test_zero_weights_give_half(self):
        params = ClassifierParams(w=Tensor(np.zeros((4, 1))), b=Tensor(np.zeros(3)))
        out = classify(Tensor(np.random.default_rng(0).standard_normal((3, 4))), params)
        np.testing.assert_allclose(out.data, np.full(3, 0.5))

    def test_log_three_logit(self):
        # context . w = ln 3 per label -> sigmoid = 0.75
        params = ClassifierParams(w=Tensor(np.full((1, 1), math.log(3.0))), b=Tensor(np.zeros(2)))
        out = classify(Tensor(np.ones((2, 1))), params)
        np.testing.assert_allclose(out.data, [0.75, 0.75], atol=1e-12)

    def test_bias_is_per_label(self):
        params = ClassifierParams(w=Tensor(np.zeros((2, 1))), b=Tensor(np.array([0.0, math.log(3.0)])))
        out = classify(Tensor(np.ones((2, 2))), params)
        np.testing.assert_allclose(out.data, [0.5, 0.75], atol=1e-12)

    def test_row_map_reads_shared_rows(self):
        rng = np.random.default_rng(8)
        context = rng.standard_normal((3, 4))
        params = init_classifier_params(4, 6, rng)
        params.b.data = rng.standard_normal(6)
        rows = np.array([2, 0, 2, 1, 2, 2])
        mapped = classify(Tensor(context), params, rows=rows)
        np.testing.assert_array_equal(mapped.data, classify(Tensor(context[rows]), params).data)

        gold = (rng.random(6) < 0.5).astype(float)
        report = grad_check(
            lambda c, w, b: bce_loss(classify(c, ClassifierParams(w=w, b=b), rows=rows), gold),
            [Tensor(context, requires_grad=True), params.w, params.b], tol=1e-4)
        assert report.passed, report

    def test_gradient_through_attention_classifier_loss(self):
        rng = np.random.default_rng(5)
        d = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        h = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        params = init_classifier_params(4, 5, rng)
        gold = (rng.random(5) < 0.4).astype(float)

        def op(d_, h_, w_, b_):
            att = label_attention(d_, h_)
            y = classify(att.context, ClassifierParams(w=w_, b=b_))
            return bce_loss(y, gold)

        report = grad_check(op, [d, h, params.w, params.b], tol=1e-4)
        assert report.passed, report


class TestLoss:
    def test_confident_correct(self):
        y = Tensor(np.where(np.arange(6) % 2 == 0, 1.0 - 1e-12, 1e-12))
        gold = (np.arange(6) % 2 == 0).astype(float)
        assert float(bce_loss(y, gold).data) < 1e-6

    def test_uniform_half(self):
        l = 7
        value = float(bce_loss(Tensor(np.full(l, 0.5)), np.zeros(l)).data)
        np.testing.assert_allclose(value, l * math.log(2.0), rtol=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.01, 0.99, 9)
        gold = (rng.random(9) < 0.5).astype(float)
        value = float(bce_loss(Tensor(p), gold).data)
        manual = sum(
            -g * math.log(pi) - (1 - g) * math.log(1 - pi) for pi, g in zip(p, gold)
        )
        np.testing.assert_allclose(value, manual, rtol=1e-12)


class TestHeatRecords:
    def test_records_shape_and_weights(self):
        alpha = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
        records = attention_heat_records("d1", alpha, ["c1", "c2"], top_positions=2)
        assert len(records) == 4
        first = records[0]
        assert first == {"doc_id": "d1", "label": "c1", "token_index": 0, "weight": 0.7}
