"""Candidate-sparse label attention against the dense forward it replaces.

``CodingModel.forward_doc`` attends only over a document's K candidate rows
and gives every masked label the one mean-pooled context.  These tests hold
it to ``oracles.dense_forward_doc`` (every label attends, masked ones through
a zeroed row): bit for bit when nothing is masked, and to 1e-12 otherwise,
where BLAS blocks the smaller [K, n] products differently.
"""

import numpy as np
import pytest

from oracles import dense_batch_loss, dense_predict_scores
from xmtc import model as model_mod
from xmtc.corpus import PAD_ID, DocumentRecord, build_vocab, encode_documents, preprocess
from xmtc.encoder import EncoderConfig
from xmtc.errors import ShapeError
from xmtc.graph import build_cooccurrence
from xmtc.mask import DocMask, build_mask_index, make_doc_mask
from xmtc.model import model_from_artifacts
from xmtc.synth import generate, standard_spec
from xmtc.tensor import GradTape, grad_check
from xmtc.training import Adam, batch_loss, clip_global_norm

TOL = 1e-12
MASKS = ["random", "empty", "all_ones", "aux"]
PADS = ["none", "tail", "interior"]


@pytest.fixture(scope="module")
def world():
    spec = standard_spec(num_labels=60, num_docs=120, seed=3, doc_length=(20, 40))
    docs, catalog, _ = generate(spec)
    vocab = build_vocab([preprocess(d["text"]) for d in docs], min_count=1)
    records = encode_documents(docs, vocab, catalog)
    graph = build_cooccurrence(records, len(catalog))
    index = build_mask_index(records, len(catalog), tau=0.05)
    model = model_from_artifacts(
        vocab, catalog, graph, dim=8, seed=2,
        encoder_config=EncoderConfig(kernel_size=3, rates=(1, 2), dropout=0.1),
    )
    init = {name: p.data.copy() for name, p in model.params.items()}
    return model, init, records[:4], index


def _mask(kind, doc, model, index, rng):
    num_labels = model.num_labels
    if kind == "all_ones":
        return DocMask.all_ones(num_labels)
    if kind == "empty":
        return DocMask(labels=set(), vec=np.zeros(num_labels))
    if kind == "aux":
        return make_doc_mask(doc, index)
    vec = (rng.random(num_labels) < 0.05).astype(float)
    vec[int(rng.integers(num_labels))] = 1.0
    return DocMask(labels=set(np.flatnonzero(vec).tolist()), vec=vec)


def _tokens(doc, pad):
    tokens = list(doc.tokens)
    if pad == "tail":
        return tokens + [PAD_ID] * 3
    if pad == "interior":
        return tokens[:5] + [PAD_ID] * 2 + tokens[5:] + [PAD_ID]
    return tokens


def _batch(world, kind, pad):
    model, init, docs, index = world
    rng = np.random.default_rng(11)
    docs = [DocumentRecord(doc_id=d.doc_id, tokens=_tokens(d, pad), labels=d.labels,
                           aux_codes=d.aux_codes) for d in docs]
    return docs, [_mask(kind, d, model, index, rng) for d in docs]


def _loss_and_grads(model, init, loss_fn, docs, masks):
    model.params.load_arrays(init)
    model.params.zero_grads()
    with GradTape() as tape:
        loss = loss_fn(model, docs, masks, np.random.default_rng(5))
        tape.backward(loss)
    grads = {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for name, p in model.params.items()}
    return float(loss.data), grads


def _assert_close(found, expected):
    found, expected = np.asarray(found), np.asarray(expected)
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    assert float(np.abs(found - expected).max(initial=0.0)) <= TOL * scale


@pytest.mark.parametrize("pad", PADS)
@pytest.mark.parametrize("kind", MASKS)
def test_batch_loss_and_gradients_match_dense(world, kind, pad):
    model, init, _, _ = world
    docs, masks = _batch(world, kind, pad)
    loss, grads = _loss_and_grads(model, init, batch_loss, docs, masks)
    dense_loss, dense_grads = _loss_and_grads(model, init, dense_batch_loss, docs, masks)
    assert grads.keys() == dense_grads.keys()
    if kind == "all_ones":
        assert loss == dense_loss
        for name in grads:
            np.testing.assert_array_equal(grads[name], dense_grads[name], err_msg=name)
    else:
        _assert_close(loss, dense_loss)
        for name in grads:
            _assert_close(grads[name], dense_grads[name])


@pytest.mark.parametrize("pad", PADS)
@pytest.mark.parametrize("kind", MASKS)
def test_scores_and_attention_match_dense(world, kind, pad):
    model, init, _, _ = world
    model.params.load_arrays(init)
    docs, masks = _batch(world, kind, pad)
    h_label = model.label_representations()
    for doc, doc_mask in zip(docs, masks):
        scores, alpha = model.predict_scores(doc.tokens, doc_mask, h_label, with_attention=True)
        dense_scores, dense_alpha = dense_predict_scores(model, doc.tokens, doc_mask)
        assert alpha.shape == dense_alpha.shape == (model.num_labels, len(doc.tokens))
        if kind == "all_ones":
            np.testing.assert_array_equal(scores, dense_scores)
            np.testing.assert_array_equal(alpha, dense_alpha)
        else:
            _assert_close(scores, dense_scores)
            _assert_close(alpha, dense_alpha)
            # a masked row is exactly the softmax of a zero row: 1/n, and 0 at PAD
            masked = doc_mask.vec == 0
            np.testing.assert_array_equal(alpha[masked], dense_alpha[masked])


def test_only_candidate_rows_attend(world, monkeypatch):
    """K = L attends with every row of h_label, K < L only the gathered
    candidate rows, and K = 0 never calls label_attention; attention weights
    are built only when asked for."""
    model, init, docs, index = world
    model.params.load_arrays(init)
    seen = []
    real = model_mod.label_attention

    def spy(encoded, h):
        seen.append(h)
        return real(encoded, h)

    monkeypatch.setattr(model_mod, "label_attention", spy)
    h_label = model.label_representations()
    doc = docs[0]
    aux = make_doc_mask(doc, index)
    for doc_mask in (DocMask.all_ones(model.num_labels), aux,
                     DocMask(labels=set(), vec=np.zeros(model.num_labels))):
        y_hat, alpha = model.forward_doc(doc.tokens, doc_mask, h_label)
        assert alpha is None and y_hat.shape == (model.num_labels,)
    assert len(seen) == 2
    np.testing.assert_array_equal(seen[0].data, h_label.data)
    np.testing.assert_array_equal(seen[1].data, h_label.data[sorted(aux.labels)])


def test_mask_of_another_length_is_shape_error(world):
    model, init, docs, _ = world
    model.params.load_arrays(init)
    with pytest.raises(ShapeError):
        model.predict_scores(docs[0].tokens, DocMask.all_ones(model.num_labels - 1),
                             model.label_representations())


def test_empty_mask_batch_matches_dense_after_adam_step(world):
    """With every mask of a batch empty the label side gets no gradient at
    all; Adam must still step it with a zero gradient, as after a dense
    pass, so it ends bit-equal to the dense oracle.  A first all-ones step
    (bit-identical on both paths) gives the moments something to decay.
    The parameters the batch does reach differ from the oracle only by the
    rounding of the mean-pooled context."""
    model, init, docs, _ = world
    full = [DocMask.all_ones(model.num_labels)] * len(docs)
    empty = [DocMask(labels=set(), vec=np.zeros(model.num_labels))] * len(docs)

    def two_steps(loss_fn):
        model.params.load_arrays(init)
        optimizer = Adam(model.params, lr=1e-2)
        for masks in (full, empty):
            model.params.zero_grads()
            with GradTape() as tape:
                tape.backward(loss_fn(model, docs, masks, np.random.default_rng(5)))
            reached = {name for name, p in model.params.items() if p.grad is not None}
            clip_global_norm(model.params, 5.0)
            optimizer.step()
        return {name: p.data.copy() for name, p in model.params.items()}, reached

    params, reached = two_steps(batch_loss)
    dense_params, _ = two_steps(dense_batch_loss)
    assert reached == set(params) - {"gcn.w1", "gcn.w2"}
    for name in ("gcn.w1", "gcn.w2"):
        assert not np.array_equal(params[name], init[name])
        np.testing.assert_array_equal(params[name], dense_params[name], err_msg=name)
    for name in reached:
        _assert_close(params[name], dense_params[name])


def test_batch_loss_gradient_matches_finite_differences_under_partial_mask():
    # the shipped path checked directly, not only through the dense oracle:
    # every parameter, candidate rows gathered from h_label, dropout drawn
    # afresh from one seed on each evaluation so the loss is a fixed function
    spec = standard_spec(num_labels=10, num_docs=12, seed=3, doc_length=(8, 14))
    raw, catalog, _ = generate(spec)
    vocab = build_vocab([preprocess(d["text"]) for d in raw], min_count=1)
    records = encode_documents(raw, vocab, catalog)
    model = model_from_artifacts(
        vocab, catalog, build_cooccurrence(records, len(catalog)), dim=4, seed=6,
        encoder_config=EncoderConfig(kernel_size=3, rates=(1, 2), dropout=0.1),
    )
    rng = np.random.default_rng(8)
    docs = records[:3]
    masks = []
    for _ in docs:
        vec = np.zeros(model.num_labels)
        vec[rng.choice(model.num_labels, size=4, replace=False)] = 1.0
        masks.append(DocMask(labels=set(np.flatnonzero(vec).tolist()), vec=vec))
    params = [p for _, p in model.params.items()]
    report = grad_check(lambda *_: batch_loss(model, docs, masks, np.random.default_rng(5)),
                        params, tol=1e-4, seed=0)
    assert report.passed, report
